// Saturation sweeps: the load × workload × policy grid.
//
// One sweep *cell* fixes (topology, policy, traffic shape) and answers
// two questions: (1) what is the maximum sustainable offered load —
// probed closed-loop by the sim::AdmissionController against a live
// engine — and (2) what do throughput and the latency distribution look
// like across the offered-load grid 0.1–1.0 of that saturation point
// (the CONGA-style utilization axis). Everything is virtual-time and
// seed-deterministic, so a committed BENCH_sweep.json regenerates
// bit-identically and bench_compare can gate it tightly.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/admission.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "stats/window.hpp"
#include "topology/network.hpp"
#include "workload/traffic.hpp"

namespace hp::stats {

/// Adapts an Engine under continuous TrafficInjector arrivals to the
/// controller's LoadableSystem interface. The engine persists across
/// windows (warm system); each run_window retunes the injector, lets the
/// system relax for the warmup, then measures.
class EngineTrafficSystem final : public sim::LoadableSystem {
 public:
  /// `net` and `policy` must outlive the system. `config.archive_arrivals`
  /// is forced off (unbounded run).
  EngineTrafficSystem(const net::Network& net, sim::RoutingPolicy& policy,
                      const workload::TrafficConfig& traffic,
                      std::uint64_t seed, sim::EngineConfig config = {});
  ~EngineTrafficSystem() override;

  EngineTrafficSystem(const EngineTrafficSystem&) = delete;
  EngineTrafficSystem& operator=(const EngineTrafficSystem&) = delete;

  sim::WindowMeasurement run_window(double rate, std::uint64_t warmup_steps,
                                    std::uint64_t measure_steps) override;

  const sim::Engine& engine() const { return *engine_; }
  const workload::TrafficInjector& injector() const { return *injector_; }

 private:
  std::unique_ptr<workload::TrafficInjector> injector_;
  std::unique_ptr<sim::Engine> engine_;
  WindowStats window_;
  workload::Problem empty_;
};

/// One point of a cell's offered-load curve.
struct LoadPoint {
  double load_fraction = 0;  ///< of the probed saturation rate
  double offered_rate = 0;   ///< packets per node per step
  double throughput = 0;     ///< delivered packets per node per step
  double admit_fraction = 1;
  double mean_latency = 0;
  double p99_latency = 0;
  double mean_population = 0;
  std::size_t peak_in_flight = 0;
  std::uint64_t delivered = 0;
};

struct SweepConfig {
  sim::ProbeConfig probe;
  /// Offered-load grid as fractions of the probed saturation rate.
  std::vector<double> load_fractions = {0.1, 0.2, 0.3, 0.4, 0.5,
                                        0.6, 0.7, 0.8, 0.9, 1.0};
  std::uint64_t curve_warmup = 300;
  std::uint64_t curve_measure = 1200;
  std::uint64_t seed = 1;
  int num_threads = 1;
};

struct SweepCellResult {
  sim::ProbeResult probe;
  std::vector<LoadPoint> curve;
};

/// Probes the cell's saturation point, then measures every load fraction
/// on a fresh engine (points are independent, not path-dependent). A cell
/// whose probe never sustained any rate gets an empty curve.
SweepCellResult run_sweep_cell(const net::Network& net,
                               sim::RoutingPolicy& policy,
                               const workload::TrafficConfig& traffic,
                               const SweepConfig& config);

}  // namespace hp::stats
