// Run-level statistics recording: per-step time series and per-packet
// latency summaries, with CSV export for the experiment harnesses.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/engine.hpp"
#include "sim/observer.hpp"
#include "util/stats.hpp"

namespace hp::stats {

/// Observer recording per-step aggregate counters.
class RunRecorder : public sim::StepObserver {
 public:
  struct StepRow {
    std::uint64_t step = 0;
    std::int64_t in_flight = 0;   ///< packets routed this step
    std::int64_t advanced = 0;
    std::int64_t deflected = 0;
    std::int64_t arrived = 0;
    std::int64_t total_distance = 0;  ///< Σ dist-to-destination, pre-move
  };

  void on_step(const sim::Engine& engine,
               const sim::StepRecord& record) override;

  /// Writes the series as CSV (step, in_flight, advanced, deflected,
  /// arrived, total_distance).
  void write_csv(std::ostream& out) const;

 private:
  std::vector<StepRow> rows_;
};

/// Per-packet latency summary of a finished run.
struct LatencySummary {
  hp::Samples latency;        ///< arrival step per delivered packet
  hp::Samples stretch;        ///< latency / max(1, initial distance)
  hp::Samples deflections;    ///< deflections per delivered packet
  std::size_t delivered = 0;
};

LatencySummary summarize_latency(const sim::RunResult& result);

/// Mean arrival time bucketed by initial distance — the §1 motivation
/// experiment (greedy routes short-distance packets fast). Index i holds
/// the mean latency of packets with initial distance i (NaN-free: empty
/// buckets report zero count).
struct DistanceProfile {
  std::vector<hp::RunningStat> by_distance;
};

DistanceProfile profile_by_distance(const sim::RunResult& result);

}  // namespace hp::stats
