// Wall-clock phase profiler for the sharded engine step.
//
// The engine times its per-step phases (inject / build-occupancy / route /
// apply / observe) and, in sharded routing, each shard's routing work —
// but only when EngineConfig::profile is set: when it is off the engine
// holds a null profiler and each phase costs exactly one pointer test
// (bench_engine_micro's off-path entries gate that this stays true).
//
// Wall-clock numbers are inherently non-deterministic; the profiler is
// therefore a reporting layer only. It never feeds the metrics registry,
// and it appends spans to a trace ring only when explicitly attached via
// set_trace_sink — the determinism tests cover the profile-off artifacts.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace hp::obs {

class TraceRing;

enum class Phase : int {
  kInject = 0,
  kOccupancy,
  kRoute,
  kApply,
  kObserve,
};

inline constexpr std::size_t kNumPhases = 5;

/// Short stable label ("inject", "occupancy", ...).
const char* phase_name(Phase p);

class PhaseProfiler {
 public:
  struct PhaseStat {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
  };

  PhaseProfiler();

  /// Per-shard accumulation of one phase's sharded epochs (occupancy,
  /// route, and apply all fan out in the phase-pipeline engine).
  struct ShardPhaseStat {
    std::uint64_t epochs = 0;
    double imbalance_sum = 0.0;
    /// Cumulative ns per task index (empty when the phase never sharded).
    std::vector<std::uint64_t> totals;
  };

  void begin(Phase p);
  void end(Phase p);
  void note_step() { ++steps_; }

  /// One sharded epoch of phase `p`: per-task wall times for the tasks
  /// that ran. Accumulates per-task totals and the imbalance estimate.
  void add_shard_epoch(Phase p, const std::uint64_t* shard_ns,
                       std::size_t shards);

  const PhaseStat& stat(Phase p) const {
    return stats_[static_cast<std::size_t>(p)];
  }
  const ShardPhaseStat& shard_stat(Phase p) const {
    return shard_stats_[static_cast<std::size_t>(p)];
  }
  /// Sharded-epoch count / balance of one phase. Imbalance is the mean
  /// over epochs of (slowest task / mean task); 1.0 is perfectly balanced,
  /// 0 when the phase never ran sharded.
  std::uint64_t epochs(Phase p) const { return shard_stat(p).epochs; }
  double shard_imbalance(Phase p) const;

  /// Human-readable per-phase table: ns totals, share of the accounted
  /// time, per-step means, plus the shard balance line.
  void write_report(std::ostream& out) const;

  /// When set, every end(p) appends a wall-clock 'X' span (cat "phase",
  /// tid 0) to `ring`, timestamped in real microseconds since the
  /// profiler's construction. Pass nullptr to detach.
  void set_trace_sink(TraceRing* ring) { trace_ = ring; }

 private:
  using Clock = std::chrono::steady_clock;

  std::array<PhaseStat, kNumPhases> stats_{};
  std::array<ShardPhaseStat, kNumPhases> shard_stats_{};
  std::array<Clock::time_point, kNumPhases> started_{};
  Clock::time_point origin_;
  std::uint64_t steps_ = 0;
  TraceRing* trace_ = nullptr;
};

/// RAII phase bracket tolerating a null profiler — the engine's hot path
/// uses this so the profile-off cost is a single branch per phase.
class PhaseScope {
 public:
  PhaseScope(PhaseProfiler* profiler, Phase phase)
      : profiler_(profiler), phase_(phase) {
    if (profiler_ != nullptr) profiler_->begin(phase_);
  }
  ~PhaseScope() {
    if (profiler_ != nullptr) profiler_->end(phase_);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseProfiler* profiler_;
  Phase phase_;
};

}  // namespace hp::obs
