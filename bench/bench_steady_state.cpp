// E17 — steady-state deflection routing under continuous Bernoulli
// arrivals: throughput, latency, blocking and deflection rate vs offered
// load, on the mesh and the torus (the Manhattan-Street-like optical
// setting of [Ma]/[GG] that motivates Section 1).
//
// Expected shape: throughput tracks the offered load until the network
// saturates, then flattens while latency and the deflection rate climb —
// the classic deflection-network load curve.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "obs/engine_metrics.hpp"
#include "obs/metrics.hpp"
#include "sim/injection.hpp"
#include "stats/steady_state.hpp"
#include "stats/window.hpp"

namespace hp::bench {
namespace {

/// Long-horizon per-step cost: run > 10⁶ injected steps and report
/// steps/sec per window. With O(in-flight) step cost the curve is flat —
/// the windows do not slow down as the delivered-packet count grows into
/// the millions. Written to BENCH_steady_state.json.
void throughput_flatness() {
  print_header("E17c", "Per-step cost over 1.2M continuously-injected steps "
                       "(flat curve = O(in-flight) hot path)");
  net::Mesh mesh(2, 8);
  auto policy = make_policy("restricted");
  sim::EngineConfig config;
  config.seed = 9;
  config.archive_arrivals = false;  // unbounded run: keep memory bounded
  sim::Engine engine(mesh, {}, *policy, config);
  sim::BernoulliInjector injector(0.2, 41);
  engine.set_injector(&injector);
  // Per-step occupancy per window: the steps/sec of a window is only
  // attributable if we know how much flight work each of its steps
  // carried (endpoint in_flight alone once hid a ~30% sag as an
  // occupancy excursion). The shared window observer tracks the post-move
  // in-flight count exactly as the local accumulator it replaced did.
  stats::WindowStats occupancy;
  engine.add_observer(&occupancy);

  constexpr std::uint64_t kWindow = 100'000;
  constexpr int kWindows = 12;
  JsonReport report("hotpotato-bench-steady-state-v1");
  TablePrinter table({"window", "steps", "delivered_total", "steps/sec",
                      "mean_in_flight", "peak_in_flight"});
  for (int w = 0; w < kWindows; ++w) {
    occupancy.begin_window(engine);
    const auto t0 = std::chrono::steady_clock::now();
    engine.run_for(kWindow);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    const double sps = static_cast<double>(kWindow) / sec;
    table.row()
        .add(static_cast<std::int64_t>(w))
        .add(static_cast<double>(engine.now()), 0)
        .add(static_cast<double>(engine.delivered()), 0)
        .add(sps, 0)
        .add(occupancy.in_flight_after().mean(), 1)
        .add(static_cast<std::int64_t>(occupancy.peak_in_flight()));
    report.add("window_" + std::to_string(w),
               {{"steps_total", static_cast<double>(engine.now())},
                {"delivered_total", static_cast<double>(engine.delivered())},
                {"in_flight", static_cast<double>(engine.in_flight())},
                {"mean_in_flight", occupancy.in_flight_after().mean()},
                {"peak_in_flight",
                 static_cast<double>(occupancy.peak_in_flight())},
                {"steps_per_sec", sps}});
  }
  table.print(std::cout);
  report.write("BENCH_steady_state.json");
}

/// Observability demo: the same continuous-injection setting with a
/// MetricsRegistry attached, dumping the end-of-run snapshot. Kept apart
/// from throughput_flatness so the committed BENCH_steady_state.json
/// baseline keeps measuring the bare engine.
void steady_state_metrics_demo() {
  print_header("E17d", "Metrics snapshot of a 50k-step injected run "
                       "(obs::EngineMetrics, see docs/OBSERVABILITY.md)");
  net::Mesh mesh(2, 8);
  auto policy = make_policy("restricted");
  sim::EngineConfig config;
  config.seed = 9;
  config.archive_arrivals = false;
  sim::Engine engine(mesh, {}, *policy, config);
  sim::BernoulliInjector injector(0.2, 41);
  engine.set_injector(&injector);

  obs::MetricsRegistry registry;
  obs::EngineMetrics metrics(registry);
  engine.add_observer(&metrics);
  engine.run_for(50'000);

  std::ostringstream csv;
  registry.write_csv(csv);
  std::cout << csv.str();
}

void load_curve(const net::Mesh& network) {
  print_header("E17", "Steady-state load curve on " + network.name() +
                          " (Bernoulli arrivals, warmup 300, measure 1500)");
  TablePrinter table({"rate", "admit_frac", "throughput", "mean_lat",
                      "p99_lat", "mean_in_flight", "defl/pkt"});
  for (double rate : {0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8}) {
    auto policy = make_policy("restricted");
    const auto report = stats::measure_steady_state(
        network, *policy, rate, /*warmup=*/300, /*measure=*/1500,
        /*seed=*/static_cast<std::uint64_t>(rate * 1000));
    table.row()
        .add(rate, 2)
        .add(report.admit_fraction, 3)
        .add(report.throughput, 3)
        .add(report.mean_latency, 1)
        .add(report.p99_latency, 1)
        .add(report.mean_population, 1)
        .add(report.deflections_per_delivered, 2);
  }
  table.print(std::cout);
}

void policy_comparison() {
  print_header("E17b", "Steady state at moderate load (rate 0.3, 16x16 "
                       "torus): policy comparison");
  TablePrinter table({"policy", "throughput", "mean_lat", "p99_lat",
                      "defl/pkt"});
  net::Mesh torus(2, 16, /*wrap=*/true);
  for (const char* kind :
       {"restricted", "greedy-random", "furthest-first", "closest-first"}) {
    auto policy = make_policy(kind);
    const auto report =
        stats::measure_steady_state(torus, *policy, 0.3, 300, 1200, 17);
    table.row()
        .add(kind)
        .add(report.throughput, 3)
        .add(report.mean_latency, 1)
        .add(report.p99_latency, 1)
        .add(report.deflections_per_delivered, 2);
  }
  table.print(std::cout);
  std::cout << "(restricted-priority and closest-first sustain the load; "
               "furthest-first starves packets near arrival and collapses "
               "under continuous injection — priority discipline matters "
               "far more in steady state than in batch routing)\n";
}

}  // namespace
}  // namespace hp::bench

int main() {
  hp::net::Mesh mesh(2, 16, /*wrap=*/false);
  hp::bench::load_curve(mesh);
  hp::net::Mesh torus(2, 16, /*wrap=*/true);
  hp::bench::load_curve(torus);
  hp::bench::policy_comparison();
  hp::bench::throughput_flatness();
  hp::bench::steady_state_metrics_demo();
  return 0;
}
