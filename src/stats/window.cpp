#include "stats/window.hpp"

#include <algorithm>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace hp::stats {

void WindowStats::begin_window(const sim::Engine& engine,
                               std::uint64_t warmup_steps) {
  begin_step_ = engine.now();
  begin_in_flight_ = engine.in_flight();
  start_step_ = begin_step_ + warmup_steps;
  population_ = RunningStat();
  latency_ = Samples();
  peak_ = 0;
  steps_ = 0;
  delivered_ = 0;
  deflections_ = 0;
}

void WindowStats::on_step(const sim::Engine& /*engine*/,
                          const sim::StepRecord& record) {
  if (record.step < start_step_) return;
  ++steps_;
  population_.add(static_cast<double>(record.assignments.size()));
  peak_ = std::max(peak_, record.in_flight_after);
  for (const sim::Packet& p : record.arrivals) {
    // record.arrivals carries arrived_at == record.step + 1 > start_step_:
    // exactly the arrivals inside the window.
    ++delivered_;
    deflections_ += p.deflections;
    if (p.injected_at >= start_step_) {
      latency_.add(static_cast<double>(p.arrived_at - p.injected_at));
    }
  }
}

sim::WindowMeasurement WindowStats::measurement(const sim::Engine& engine,
                                                double rate,
                                                std::uint64_t offered,
                                                std::uint64_t admitted) const {
  HP_REQUIRE(steps_ > 0, "empty measurement window");
  const double nodes = static_cast<double>(engine.network().num_nodes());
  const std::uint64_t run_steps = engine.now() - begin_step_;

  sim::WindowMeasurement m;
  m.offered_rate = rate;
  if (offered > 0) {
    m.admit_fraction =
        static_cast<double>(admitted) / static_cast<double>(offered);
  }
  m.admitted_rate =
      static_cast<double>(admitted) / static_cast<double>(run_steps) / nodes;
  m.throughput =
      static_cast<double>(delivered_) / static_cast<double>(steps_) / nodes;
  if (!latency_.empty()) {
    m.mean_latency = latency_.mean();
    m.p99_latency = latency_.percentile(0.99);
  }
  m.mean_population = population_.mean();
  m.peak_in_flight = static_cast<double>(peak_);
  m.start_backlog = static_cast<double>(begin_in_flight_) / nodes;
  m.end_backlog = static_cast<double>(engine.in_flight()) / nodes;
  m.delivered = delivered_;
  if (delivered_ > 0) {
    m.deflections_per_delivered =
        static_cast<double>(deflections_) / static_cast<double>(delivered_);
  }
  return m;
}

}  // namespace hp::stats
