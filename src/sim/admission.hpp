// Closed-loop admission control: throughput probing in the style of
// MongoDB's execution-control simulator (SNIPPETS.md §2).
//
// The paper's bounds are worst-case batch results; a capacity planner
// instead asks "what continuous offered load can this (topology, policy,
// workload) sustain?". The AdmissionController answers by probing: it
// runs the system under test for fixed step windows at a trial injection
// rate, reads back delivered throughput / admitted fraction / latency,
// and steers the rate — multiplicative probe-up while the system keeps
// up, bisection once a rate has failed — until the stable/unstable
// bracket is tighter than the configured tolerance. Every decision is a
// pure function of virtual-time measurements (never wall clock), so a
// probe trajectory is deterministic and bit-identical across engine
// thread counts.
//
// The controller is deliberately decoupled from the engine behind the
// LoadableSystem interface: tests drive it against synthetic
// known-capacity systems, and stats/sweep.hpp adapts a real Engine +
// TrafficInjector pair.
#pragma once

#include <cstdint>
#include <vector>

namespace hp::sim {

/// What one fixed-length measurement window observed. All quantities are
/// virtual-time (per step) and per node, so they are comparable across
/// topologies and window lengths.
struct WindowMeasurement {
  double offered_rate = 0;     ///< configured offered packets/node/step
  double throughput = 0;       ///< delivered packets/node/step
  double admit_fraction = 1;   ///< admitted / offered injection attempts
  /// Realized admissions per node per step. This — not the nominal
  /// offered_rate — is what deliveries are compared against: patterns may
  /// exempt nodes (a transpose diagonal never sends) and integer flow
  /// sizes skew the realized packet rate, so the nominal knob is only an
  /// upper bound on what the sources actually produce.
  double admitted_rate = 0;
  double mean_latency = 0;     ///< arrivals in the window (virtual steps)
  double p99_latency = 0;
  double mean_population = 0;  ///< mean packets in flight (pre-move)
  double peak_in_flight = 0;   ///< max post-move in-flight count
  double start_backlog = 0;    ///< in-flight per node at window start
  double end_backlog = 0;      ///< in-flight per node at window end
  std::uint64_t delivered = 0;  ///< packets delivered inside the window
  double deflections_per_delivered = 0;  ///< of the window's deliveries
};

/// A system whose offered load can be set per window. Implementations
/// keep their own state across windows (the probe loop intentionally
/// measures a *warm* system; run_window's warmup lets it relax after a
/// rate change before measurement starts).
class LoadableSystem {
 public:
  virtual ~LoadableSystem() = default;

  virtual WindowMeasurement run_window(double rate,
                                       std::uint64_t warmup_steps,
                                       std::uint64_t measure_steps) = 0;
};

struct ProbeConfig {
  double initial_rate = 0.05;  ///< first trial rate
  double min_rate = 1e-3;      ///< below this the system counts as dead
  double max_rate = 1.0;       ///< hot-potato ceiling: 1 packet/node/step
  double growth = 2.0;         ///< probe-up factor while no rate failed yet
  /// Converged when the bracket satisfies hi − lo ≤ tolerance · hi.
  double tolerance = 0.05;
  /// A window is stable iff admit_fraction and throughput/admitted_rate
  /// both reach this floor (the capacity rule is not pushing back, and
  /// deliveries keep up with what was actually admitted).
  double stable_fraction = 0.92;
  std::uint64_t window_steps = 600;  ///< measured steps per window
  std::uint64_t warmup_steps = 200;  ///< relax steps after a rate change
  int max_windows = 48;              ///< hard termination cap
};

/// One probe window of the recorded trajectory: the trial rate, the
/// verdict, and the stable/unstable bracket *after* the verdict was
/// applied (hi is +infinity until some rate has failed).
struct ProbeStep {
  int window = 0;
  double rate = 0;
  bool stable = false;
  double lo = 0;
  double hi = 0;
  WindowMeasurement measurement;
};

struct ProbeResult {
  /// True iff the bracket closed to tolerance (or the ceiling proved
  /// stable). False: the trajectory still records why — either the floor
  /// itself is unstable (an always-oversubscribed system) or max_windows
  /// ran out.
  bool converged = false;
  /// Highest offered rate measured stable (the bracket's lo); 0 when no
  /// rate was ever sustained.
  double saturation_rate = 0;
  double throughput_at_saturation = 0;
  double latency_at_saturation = 0;
  int windows = 0;
  std::vector<ProbeStep> trajectory;
};

class AdmissionController {
 public:
  explicit AdmissionController(ProbeConfig config = {});

  /// Runs the probe loop to termination (convergence, a dead floor, or
  /// max_windows — the loop cannot hang). The returned trajectory has one
  /// entry per window, in order.
  ProbeResult probe(LoadableSystem& system) const;

  /// The stability verdict on one window, exposed for direct unit tests.
  bool stable(const WindowMeasurement& m) const;

 private:
  ProbeConfig config_;
};

}  // namespace hp::sim
