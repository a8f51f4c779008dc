#include "stats/recorder.hpp"

#include "util/csv.hpp"

namespace hp::stats {

void RunRecorder::on_step(const sim::Engine& engine,
                          const sim::StepRecord& record) {
  StepRow row;
  row.step = record.step;
  row.in_flight = static_cast<std::int64_t>(record.assignments.size());
  row.arrived = static_cast<std::int64_t>(record.arrivals.size());
  for (const sim::Assignment& a : record.assignments) {
    if (a.advances()) {
      ++row.advanced;
    } else {
      ++row.deflected;
    }
    row.total_distance +=
        engine.network().distance(a.node, engine.packet_dst(a.pkt));
  }
  rows_.push_back(row);
}

void RunRecorder::write_csv(std::ostream& out) const {
  CsvWriter csv(out, {"step", "in_flight", "advanced", "deflected", "arrived",
                      "total_distance"});
  for (const StepRow& r : rows_) {
    csv.row()
        .add(r.step)
        .add(r.in_flight)
        .add(r.advanced)
        .add(r.deflected)
        .add(r.arrived)
        .add(r.total_distance);
  }
}

LatencySummary summarize_latency(const sim::RunResult& result) {
  LatencySummary summary;
  for (const sim::Packet& p : result.packets) {
    if (!p.arrived()) continue;
    ++summary.delivered;
    summary.latency.add(static_cast<double>(p.arrived_at));
    summary.stretch.add(static_cast<double>(p.arrived_at) /
                        static_cast<double>(std::max(1, p.initial_distance)));
    summary.deflections.add(static_cast<double>(p.deflections));
  }
  return summary;
}

DistanceProfile profile_by_distance(const sim::RunResult& result) {
  DistanceProfile profile;
  for (const sim::Packet& p : result.packets) {
    if (!p.arrived()) continue;
    const auto d = static_cast<std::size_t>(p.initial_distance);
    if (profile.by_distance.size() <= d) profile.by_distance.resize(d + 1);
    profile.by_distance[d].add(static_cast<double>(p.arrived_at));
  }
  return profile;
}

}  // namespace hp::stats
