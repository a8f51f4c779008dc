// Quickstart: route a random permutation on a 16×16 mesh with the paper's
// restricted-priority greedy hot-potato algorithm, verify the Theorem 20
// guarantee, and print per-packet statistics.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/quickstart [side] [seed]
#include <cstdlib>
#include <iostream>

#include "core/bounds.hpp"
#include "core/checkers.hpp"
#include "obs/engine_metrics.hpp"
#include "obs/metrics.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/engine.hpp"
#include "stats/recorder.hpp"
#include "topology/mesh.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  const int side = argc > 1 ? std::atoi(argv[1]) : 16;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  // 1. A 2-D mesh and a workload: one packet per node, random destinations
  //    forming a permutation (k = n²).
  hp::net::Mesh mesh(2, side);
  hp::Rng rng(seed);
  auto problem = hp::workload::random_permutation(mesh, rng);

  // 2. The paper's algorithm class: greedy, restricted packets first.
  hp::routing::RestrictedPriorityPolicy policy;

  // 3. Simulate, with the greediness checker watching every step and the
  //    observability layer collecting distributions (docs/OBSERVABILITY.md).
  hp::sim::Engine engine(mesh, problem, policy);
  hp::core::GreedyChecker greedy_checker;
  engine.add_observer(&greedy_checker);
  hp::obs::MetricsRegistry registry;
  hp::obs::EngineMetrics metrics(registry);
  engine.add_observer(&metrics);
  const hp::sim::RunResult result = engine.run();

  // 4. Report.
  const double bound =
      hp::core::remark_permutation_bound(side);  // 8n² for permutations
  const auto summary = hp::stats::summarize_latency(result);
  std::cout << "network          : " << mesh.name() << " ("
            << mesh.num_nodes() << " nodes)\n"
            << "packets          : " << result.num_packets << "\n"
            << "routing time     : " << result.steps << " steps\n"
            << "Theorem 20/Remark: " << bound
            << " (measured is " << static_cast<double>(result.steps) / bound
            << " of the bound)\n"
            << "deflections      : " << result.total_deflections << " ("
            << static_cast<double>(result.total_deflections) /
                   static_cast<double>(result.num_packets)
            << " per packet)\n"
            << "mean latency     : " << summary.latency.mean() << " steps\n"
            << "p99 latency      : " << summary.latency.percentile(0.99)
            << " steps\n"
            << "mean stretch     : " << summary.stretch.mean()
            << " (latency / shortest-path distance)\n"
            << "greedy (Def. 6)  : "
            << (greedy_checker.violations().empty() ? "verified"
                                                    : "VIOLATED")
            << " over " << greedy_checker.steps_checked() << " steps\n";

  // 5. The same numbers, straight from the metrics registry: occupancy is
  //    something the RunResult alone cannot give you.
  const hp::obs::Distribution* occupancy =
      registry.find_distribution("node.occupancy");
  std::cout << "max occupancy    : " << occupancy->stat().max()
            << " packets at one node (mean " << occupancy->stat().mean()
            << ")\n"
            << "bad-node steps   : "
            << registry.counter("engine.bad_node_steps").value()
            << " (node, step) pairs with more than 2 packets\n";

  return result.completed &&
                 static_cast<double>(result.steps) <= bound &&
                 greedy_checker.violations().empty()
             ? 0
             : 1;
}
