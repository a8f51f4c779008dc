// E17 — steady-state deflection routing under continuous Bernoulli
// arrivals: throughput, latency, blocking and deflection rate vs offered
// load, on the mesh and the torus (the Manhattan-Street-like optical
// setting of [Ma]/[GG] that motivates Section 1).
//
// Expected shape: throughput tracks the offered load until the network
// saturates, then flattens while latency and the deflection rate climb —
// the classic deflection-network load curve.
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "obs/engine_metrics.hpp"
#include "obs/metrics.hpp"
#include "sim/injection.hpp"
#include "stats/steady_state.hpp"

namespace hp::bench {
namespace {

/// Observability demo: a continuous-injection run with a MetricsRegistry
/// attached, dumping the end-of-run snapshot.
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
  hp::bench::steady_state_metrics_demo();
  return 0;
}
