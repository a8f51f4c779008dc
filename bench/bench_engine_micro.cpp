// E16 — engine micro-benchmarks (google-benchmark): simulation throughput
// in node-routing operations and full steps per second, plus the topology
// primitives the inner loop leans on. After the google-benchmark suite, a
// direct-measurement pass writes BENCH_engine.json with steps/sec,
// per-step ns, and peak in-flight for the headline configurations.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "bench_json.hpp"
#include "obs/engine_metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/engine.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

void BM_MeshDistance(benchmark::State& state) {
  net::Mesh mesh(2, 64);
  Rng rng(1);
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  for (int i = 0; i < 1024; ++i) {
    pairs.emplace_back(static_cast<net::NodeId>(rng.uniform(mesh.num_nodes())),
                       static_cast<net::NodeId>(rng.uniform(mesh.num_nodes())));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(mesh.distance(a, b));
  }
}
BENCHMARK(BM_MeshDistance);

void BM_GoodMask(benchmark::State& state) {
  net::Mesh mesh(static_cast<int>(state.range(0)), 8);
  Rng rng(2);
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  for (int i = 0; i < 1024; ++i) {
    pairs.emplace_back(static_cast<net::NodeId>(rng.uniform(mesh.num_nodes())),
                       static_cast<net::NodeId>(rng.uniform(mesh.num_nodes())));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(mesh.good_mask(a, b));
  }
}
BENCHMARK(BM_GoodMask)->Arg(2)->Arg(3)->Arg(4);

void BM_EngineStep(benchmark::State& state) {
  // Cost of one synchronous step at saturation (4 packets per node) on an
  // n×n mesh; reported as packet-moves per second.
  const int n = static_cast<int>(state.range(0));
  net::Mesh mesh(2, n);
  std::uint64_t moves = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    auto problem = workload::saturated_random(mesh, 4, rng);
    routing::RestrictedPriorityPolicy policy;
    sim::Engine engine(mesh, problem, policy);
    state.ResumeTiming();
    while (engine.step()) {
      moves += engine.in_flight();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moves));
}
BENCHMARK(BM_EngineStep)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_FullRunPermutation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  net::Mesh mesh(2, n);
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(11);
    auto problem = workload::random_permutation(mesh, rng);
    routing::RestrictedPriorityPolicy policy;
    sim::Engine engine(mesh, problem, policy);
    state.ResumeTiming();
    auto result = engine.run();
    benchmark::DoNotOptimize(result.steps);
  }
}
BENCHMARK(BM_FullRunPermutation)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_HypercubeRun(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  net::Hypercube cube(m);
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(13);
    auto problem = workload::random_permutation(cube, rng);
    routing::RestrictedPriorityPolicy policy;
    sim::Engine engine(cube, problem, policy);
    state.ResumeTiming();
    auto result = engine.run();
    benchmark::DoNotOptimize(result.steps);
  }
}
BENCHMARK(BM_HypercubeRun)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);

/// Observability attachment for a measured run: nothing (the regression
/// baseline), the metrics observer, or the trace observer. The _metrics /
/// _trace entries quantify the observer overhead, and bench_compare holds
/// all three to their committed baselines — the off-path one guards the
/// "untouched hot path" claim.
enum class ObsMode { kOff, kMetrics, kTrace };

const char* obs_suffix(ObsMode mode) {
  switch (mode) {
    case ObsMode::kMetrics:
      return "_metrics";
    case ObsMode::kTrace:
      return "_trace";
    default:
      return "";
  }
}

/// One timed batch run: a random permutation on the n×n mesh (k = n²
/// packets), drained to completion. Reports wall time, steps/sec, mean ns
/// per step, and the peak in-flight population.
void measure_permutation(bench::JsonReport& report, int n, int threads,
                         ObsMode mode = ObsMode::kOff) {
  net::Mesh mesh(2, n);
  Rng rng(11);
  auto problem = workload::random_permutation(mesh, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::EngineConfig config;
  config.num_threads = threads;
  config.archive_arrivals = false;
  sim::Engine engine(mesh, problem, policy, config);

  obs::MetricsRegistry registry;
  std::unique_ptr<obs::EngineMetrics> metrics;
  obs::TraceRing ring(std::size_t{1} << 16);
  std::unique_ptr<obs::TraceObserver> tracer;
  if (mode == ObsMode::kMetrics) {
    metrics = std::make_unique<obs::EngineMetrics>(registry);
    engine.add_observer(metrics.get());
  } else if (mode == ObsMode::kTrace) {
    tracer = std::make_unique<obs::TraceObserver>(ring);
    engine.add_observer(tracer.get());
  }

  std::size_t peak = engine.in_flight();
  std::uint64_t steps = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (engine.step()) {
    ++steps;
    peak = std::max(peak, engine.in_flight());
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double sec = std::chrono::duration<double>(t1 - t0).count();

  report.add("permutation_n" + std::to_string(n) + "_t" +
                 std::to_string(threads) + obs_suffix(mode),
             {{"nodes", static_cast<double>(mesh.num_nodes())},
              {"packets", static_cast<double>(problem.size())},
              {"threads", static_cast<double>(threads)},
              {"steps", static_cast<double>(steps)},
              {"wall_ms", sec * 1e3},
              {"steps_per_sec", static_cast<double>(steps) / sec},
              {"per_step_ns", sec * 1e9 / static_cast<double>(steps)},
              {"peak_in_flight", static_cast<double>(peak)}});
}

/// One point of the n-scaling series (docs/SCALE.md): a short saturated
/// run on the side×side mesh. Reports steps/sec plus bytes/node from
/// Engine::memory_stats() — bench_compare gates only steps_per_sec
/// (bytes/node is capacity-exact but documented in docs/SCALE.md rather
/// than diff-gated).
void measure_scale(bench::JsonReport& report, int side, std::uint64_t steps) {
  net::Mesh mesh(2, side);
  Rng rng(17);
  auto problem = workload::saturated_random(mesh, 4, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::EngineConfig config;
  config.archive_arrivals = false;
  sim::Engine engine(mesh, problem, policy, config);

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = engine.run_for(steps);
  const auto t1 = std::chrono::steady_clock::now();
  const double sec = std::chrono::duration<double>(t1 - t0).count();
  const double executed = static_cast<double>(result.steps_executed);

  const sim::EngineMemoryStats stats = engine.memory_stats();
  const double nodes = static_cast<double>(mesh.num_nodes());
  report.add("scale_n" + std::to_string(side),
             {{"nodes", nodes},
              {"packets", static_cast<double>(problem.size())},
              {"steps", executed},
              {"wall_ms", sec * 1e3},
              {"steps_per_sec", executed / sec},
              {"per_step_ns", sec * 1e9 / executed},
              {"bytes_per_node", static_cast<double>(stats.total()) / nodes},
              {"flight_bytes", static_cast<double>(stats.flight_bytes)},
              {"topology_bytes", static_cast<double>(stats.topology_bytes)}});
}

void write_engine_json() {
  bench::JsonReport report("hotpotato-bench-engine-v1");
  // Headline configuration for the flight-table refactor: n = 256 mesh,
  // k = n² permutation — big enough that per-step overhead dominates.
  // The t1/t2/t4/t8 series is the phase-pipeline scaling-efficiency
  // curve; CI asserts t4 ≥ t1 via bench_compare --scaling.
  measure_permutation(report, 256, 1);
  measure_permutation(report, 256, 2);
  measure_permutation(report, 256, 4);
  measure_permutation(report, 256, 8);
  measure_permutation(report, 64, 1);
  // Observer overhead: same n = 64 run with the metrics / trace observers
  // attached (the n = 64 off entry above is their baseline).
  measure_permutation(report, 64, 1, ObsMode::kMetrics);
  measure_permutation(report, 64, 1, ObsMode::kTrace);
  // n-scaling series (docs/SCALE.md): growing node counts, a few saturated
  // steps each so the series stays CI-cheap.
  measure_scale(report, 256, 12);
  measure_scale(report, 512, 8);
  measure_scale(report, 1024, 4);
  measure_scale(report, 2048, 2);
  report.write("BENCH_engine.json");
}

}  // namespace
}  // namespace hp

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  hp::write_engine_json();
  return 0;
}
