// hpsim — command-line driver for the hotpotato library.
//
// Runs any topology × workload × policy combination, optionally with the
// full paper audit (Property 8, Definitions 6/18, Lemmas 12/14) attached
// and/or a per-step CSV time series on stdout.
//
// Examples:
//   hpsim --topology mesh --n 16 --workload permutation --policy restricted
//   hpsim --topology torus --n 32 --workload random --k 512 --audit
//   hpsim --topology hypercube --dim 8 --workload random --k 256
//         --policy id-priority
//   hpsim --topology mesh --n 16 --workload hotspot --k 200 --csv
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "core/bounds.hpp"
#include "core/checkers.hpp"
#include "core/potential.hpp"
#include "core/surface.hpp"
#include "obs/engine_metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "routing/brassil_cruz.hpp"
#include "routing/ddim_priority.hpp"
#include "routing/greedy_variants.hpp"
#include "routing/perverse.hpp"
#include "routing/restricted_priority.hpp"
#include "routing/single_target.hpp"
#include "sim/admission.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "stats/recorder.hpp"
#include "stats/steady_state.hpp"
#include "stats/sweep.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"
#include "workload/io.hpp"
#include "workload/traffic.hpp"

namespace {

struct Options {
  std::string topology = "mesh";
  int dim = 2;
  int n = 16;
  std::string workload = "permutation";
  std::size_t k = 0;  // 0 = workload default
  std::string policy = "restricted";
  std::uint64_t seed = 1;
  std::uint64_t max_steps = 10'000'000;
  bool audit = false;
  bool csv = false;
  std::string save_path;  // write the generated instance here
  std::string load_path;  // route this instance instead of generating one
  double inject_rate = -1.0;       // >= 0 switches to steady-state mode
  std::uint64_t inject_steps = 2000;
  int threads = 1;
  std::string metrics_path;  // metrics snapshot (.csv => CSV, else JSON)
  std::string trace_path;    // Chrome trace_event JSON
  bool profile = false;      // wall-clock phase profile on stderr
  bool probe = false;        // closed-loop saturation probe
  bool sweep_cell = false;   // probe + offered-load curve (one sweep cell)
  bool pareto = false;       // heavy-tailed Pareto flow sizes
  std::string checkpoint_path;      // write an engine checkpoint here
  std::uint64_t checkpoint_at = 0;  // checkpoint after this step (0 = end)
  std::string restore_path;         // resume from this checkpoint
  bool fingerprint = false;         // print the end-of-run state fingerprint
};

void usage() {
  std::cout <<
      R"(usage: hpsim [options]
  --topology mesh|torus|hypercube   (default mesh)
  --dim D                           mesh dimension / hypercube bits (default 2)
  --n N                             mesh side length (default 16)
  --workload permutation|random|transpose|bit-reversal|inversion|
             single-target|hotspot|corner|saturated   (default permutation)
  --k K                             packet count for random/single-target/
                                    hotspot (default: one per node)
  --policy restricted|restricted-random|ddim|greedy-random|furthest-first|
           closest-first|id-priority|brassil-cruz|single-target|perverse
  --seed S                          RNG seed (default 1)
  --max-steps T                     step cap (default 10M)
  --audit                           attach the full paper audit
  --csv                             print the per-step series as CSV
  --save PATH                       save the generated instance as text
  --load PATH                       route a saved instance (overrides
                                    --workload/--k)
  --inject RATE                     steady-state mode: per-node Bernoulli
                                    arrivals instead of a batch workload;
                                    excludes --audit/--save/--load/
                                    --checkpoint/--restore
  --inject-steps T                  steady-state run length (default 2000,
                                    first 20% is warmup)
  --threads W                       routing-phase worker threads (default 1;
                                    results are identical for every W)
  --metrics PATH                    write the end-of-run metrics snapshot
                                    (CSV when PATH ends in .csv, else JSON)
  --trace PATH                      write a Chrome trace_event JSON of the
                                    run (chrome://tracing / Perfetto)
  --profile                         print the wall-clock engine phase
                                    profile on stderr
  --probe                           closed-loop saturation probe: --workload
                                    names a traffic pattern (uniform|hotspot|
                                    transpose|bit-reversal); prints the probe
                                    trajectory and the saturation point
  --sweep-cell                      one full sweep cell: the probe plus the
                                    0.1-1.0 offered-load curve
  --pareto                          heavy-tailed Pareto flow sizes for
                                    --probe/--sweep-cell traffic
  --checkpoint PATH                 write an engine checkpoint (at the step
                                    named by --checkpoint-at, else at the
                                    end of the run); batch mode only
  --checkpoint-at T                 checkpoint after step T, then keep
                                    running (requires --checkpoint)
  --restore PATH                    resume a checkpointed run; needs the
                                    same topology/policy/seed flags the
                                    checkpoint was written under; batch
                                    mode only, excludes --load/--save
  --fingerprint                     print the end-of-run engine state
                                    fingerprint (docs/SCALE.md)
  --help
)";
}

std::unique_ptr<hp::net::Network> make_network(const Options& opt) {
  if (opt.topology == "mesh") {
    return std::make_unique<hp::net::Mesh>(opt.dim, opt.n, false);
  }
  if (opt.topology == "torus") {
    return std::make_unique<hp::net::Mesh>(opt.dim, opt.n, true);
  }
  if (opt.topology == "hypercube") {
    return std::make_unique<hp::net::Hypercube>(opt.dim);
  }
  std::cerr << "unknown topology: " << opt.topology << "\n";
  return nullptr;
}

hp::workload::Problem make_workload(const Options& opt,
                                    const hp::net::Network& network,
                                    hp::Rng& rng) {
  const auto* mesh = dynamic_cast<const hp::net::Mesh*>(&network);
  const std::size_t k = opt.k > 0 ? opt.k : network.num_nodes();
  if (opt.workload == "permutation") {
    return hp::workload::random_permutation(network, rng);
  }
  if (opt.workload == "random") {
    return hp::workload::random_many_to_many(network, k, rng);
  }
  if (opt.workload == "transpose" && mesh) {
    return hp::workload::transpose(*mesh);
  }
  if (opt.workload == "bit-reversal" && mesh) {
    return hp::workload::bit_reversal(*mesh);
  }
  if (opt.workload == "inversion" && mesh) {
    return hp::workload::inversion(*mesh);
  }
  if (opt.workload == "single-target") {
    return hp::workload::single_target(
        network, k, static_cast<hp::net::NodeId>(network.num_nodes() / 2),
        rng);
  }
  if (opt.workload == "hotspot") {
    return hp::workload::hotspot(network, k, 1, rng);
  }
  if (opt.workload == "corner" && mesh) {
    return hp::workload::corner_to_corner(*mesh, rng);
  }
  if (opt.workload == "saturated") {
    return hp::workload::saturated_random(network, 4, rng);
  }
  throw hp::CheckError("workload '" + opt.workload +
                       "' unknown or unsupported on this topology");
}

std::unique_ptr<hp::sim::RoutingPolicy> make_policy(
    const Options& opt, const hp::net::Network& network) {
  using hp::routing::RestrictedPriorityPolicy;
  if (opt.policy == "restricted") {
    return std::make_unique<RestrictedPriorityPolicy>();
  }
  if (opt.policy == "restricted-random") {
    RestrictedPriorityPolicy::Params params;
    params.tie_break = RestrictedPriorityPolicy::TieBreak::kRandom;
    params.deflect = hp::routing::DeflectRule::kRandom;
    return std::make_unique<RestrictedPriorityPolicy>(params);
  }
  if (opt.policy == "ddim") {
    return std::make_unique<hp::routing::DdimPriorityPolicy>();
  }
  if (opt.policy == "greedy-random") {
    return std::make_unique<hp::routing::GreedyRandomPolicy>();
  }
  if (opt.policy == "furthest-first") {
    return std::make_unique<hp::routing::FurthestFirstPolicy>();
  }
  if (opt.policy == "closest-first") {
    return std::make_unique<hp::routing::ClosestFirstPolicy>();
  }
  if (opt.policy == "id-priority") {
    return std::make_unique<hp::routing::IdPriorityPolicy>();
  }
  if (opt.policy == "brassil-cruz") {
    const auto* mesh = dynamic_cast<const hp::net::Mesh*>(&network);
    if (mesh == nullptr || mesh->dim() != 2) {
      throw hp::CheckError("brassil-cruz needs a 2-D mesh/torus");
    }
    return std::make_unique<hp::routing::BrassilCruzPolicy>(
        hp::routing::snake_rank(*mesh));
  }
  if (opt.policy == "single-target") {
    return std::make_unique<hp::routing::SingleTargetPolicy>();
  }
  if (opt.policy == "perverse") {
    return std::make_unique<hp::routing::PerverseGreedyPolicy>();
  }
  throw hp::CheckError("unknown policy: " + opt.policy);
}

/// Parses all of `text` as a number in [lo, hi]. A suffix ("16x"), a
/// fraction for an integer flag ("2.5"), NaN, infinity and out-of-range
/// values throw CheckError (exit 2) instead of being truncated or ignored.
template <typename T>
T number(const std::string& flag, const std::string& text,
         T lo = std::numeric_limits<T>::lowest(),
         T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, err] = std::from_chars(text.data(), end, v);
  if (err != std::errc() || stop != end || !(v >= lo && v <= hi)) {
    std::ostringstream os;
    os << flag << " needs a number in [" << lo << ", " << hi << "], got '"
       << text << "'";
    throw hp::CheckError(os.str());
  }
  return v;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw hp::CheckError("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--topology") {
      opt.topology = value();
    } else if (arg == "--dim") {
      opt.dim = number(arg, value(), 1, std::numeric_limits<int>::max());
    } else if (arg == "--n") {
      opt.n = number(arg, value(), 1, std::numeric_limits<int>::max());
    } else if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--k") {
      opt.k = number<std::size_t>(arg, value());
    } else if (arg == "--policy") {
      opt.policy = value();
    } else if (arg == "--seed") {
      opt.seed = number<std::uint64_t>(arg, value());
    } else if (arg == "--max-steps") {
      opt.max_steps = number<std::uint64_t>(arg, value());
    } else if (arg == "--inject") {
      opt.inject_rate = number(arg, value(), 0.0, 1.0);
    } else if (arg == "--inject-steps") {
      opt.inject_steps = number<std::uint64_t>(arg, value());
    } else if (arg == "--threads") {
      opt.threads = number(arg, value(), 1, std::numeric_limits<int>::max());
    } else if (arg == "--save") {
      opt.save_path = value();
    } else if (arg == "--load") {
      opt.load_path = value();
    } else if (arg == "--metrics") {
      opt.metrics_path = value();
    } else if (arg == "--trace") {
      opt.trace_path = value();
    } else if (arg == "--profile") {
      opt.profile = true;
    } else if (arg == "--probe") {
      opt.probe = true;
    } else if (arg == "--sweep-cell") {
      opt.sweep_cell = true;
    } else if (arg == "--pareto") {
      opt.pareto = true;
    } else if (arg == "--checkpoint") {
      opt.checkpoint_path = value();
    } else if (arg == "--checkpoint-at") {
      opt.checkpoint_at = number<std::uint64_t>(arg, value());
    } else if (arg == "--restore") {
      opt.restore_path = value();
    } else if (arg == "--fingerprint") {
      opt.fingerprint = true;
    } else if (arg == "--audit") {
      opt.audit = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return false;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return false;
    }
  }
  return true;
}

/// Saturation probe / sweep-cell modes: closed-loop admission control
/// against continuous patterned traffic (docs/SWEEPS.md). Returns the
/// process exit code; non-convergence is reported as 1 so scripts can
/// tell a dead cell from a probed one.
int run_sweep_mode(const Options& opt, const hp::net::Network& network) {
  auto policy = make_policy(opt, network);
  hp::workload::TrafficConfig traffic;
  traffic.pattern = hp::workload::pattern_from_name(opt.workload);
  traffic.pareto = opt.pareto;

  hp::stats::SweepConfig config;
  config.seed = opt.seed;
  config.num_threads = opt.threads;

  std::cout << "network         : " << network.name() << "\n"
            << "policy          : " << policy->name() << "\n"
            << "traffic         : "
            << hp::workload::pattern_name(traffic.pattern)
            << (traffic.pareto ? " + pareto flows" : " (unit flows)") << "\n";

  hp::sim::ProbeResult probe;
  hp::stats::SweepCellResult cell;
  if (opt.probe) {
    hp::sim::EngineConfig engine_config;
    engine_config.num_threads = opt.threads;
    hp::stats::EngineTrafficSystem system(network, *policy, traffic,
                                          opt.seed, engine_config);
    probe = hp::sim::AdmissionController(config.probe).probe(system);
  } else {
    cell = hp::stats::run_sweep_cell(network, *policy, traffic, config);
    probe = cell.probe;
  }

  hp::TablePrinter trajectory(
      {"window", "rate", "stable", "throughput", "admit", "lo", "hi"});
  for (const auto& step : probe.trajectory) {
    trajectory.row()
        .add(static_cast<std::int64_t>(step.window))
        .add(step.rate, 4)
        .add(step.stable ? "yes" : "no")
        .add(step.measurement.throughput, 4)
        .add(step.measurement.admit_fraction, 3)
        .add(step.lo, 4)
        .add(step.hi, 4);
  }
  trajectory.print(std::cout);
  std::cout << "converged       : " << (probe.converged ? "yes" : "NO")
            << " (" << probe.windows << " windows)\n"
            << "saturation rate : " << probe.saturation_rate
            << " packets per node per step\n"
            << "throughput      : " << probe.throughput_at_saturation << "\n"
            << "mean latency    : " << probe.latency_at_saturation << "\n";

  if (opt.sweep_cell && !cell.curve.empty()) {
    hp::TablePrinter curve({"load", "rate", "throughput", "admit",
                            "mean_lat", "p99_lat", "peak_in_flight"});
    for (const auto& point : cell.curve) {
      curve.row()
          .add(point.load_fraction, 1)
          .add(point.offered_rate, 4)
          .add(point.throughput, 4)
          .add(point.admit_fraction, 3)
          .add(point.mean_latency, 1)
          .add(point.p99_latency, 1)
          .add(static_cast<std::int64_t>(point.peak_in_flight));
    }
    curve.print(std::cout);
  }
  return probe.converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) return 2;

    if (opt.probe && opt.sweep_cell) {
      std::cerr << "error: --probe and --sweep-cell are mutually "
                   "exclusive (--sweep-cell already includes the probe)\n";
      return 2;
    }
    if (opt.pareto && !opt.probe && !opt.sweep_cell) {
      std::cerr << "error: --pareto only shapes --probe/--sweep-cell "
                   "traffic\n";
      return 2;
    }
    const bool inject = opt.inject_rate >= 0.0;
    if ((opt.probe || opt.sweep_cell) &&
        (inject || !opt.metrics_path.empty() || !opt.trace_path.empty() ||
         opt.profile || opt.csv || opt.audit || !opt.save_path.empty() ||
         !opt.load_path.empty() || !opt.checkpoint_path.empty() ||
         !opt.restore_path.empty() || opt.fingerprint)) {
      std::cerr << "error: --probe/--sweep-cell cannot be combined with "
                   "--inject/--metrics/--trace/--profile/--csv/--audit/"
                   "--save/--load/--checkpoint/--restore/--fingerprint\n";
      return 2;
    }
    if (inject &&
        (opt.audit || !opt.save_path.empty() || !opt.load_path.empty() ||
         !opt.checkpoint_path.empty() || !opt.restore_path.empty())) {
      // The potential audit covers batch problems only, an injected run
      // has no problem to save or load, and a checkpoint does not carry
      // the injector's RNG or flow state.
      std::cerr << "error: --audit/--save/--load/--checkpoint/--restore "
                   "cannot be combined with --inject\n";
      return 2;
    }
    if (opt.checkpoint_at > 0 && opt.checkpoint_path.empty()) {
      std::cerr << "error: --checkpoint-at needs --checkpoint\n";
      return 2;
    }
    if (!opt.restore_path.empty() &&
        (!opt.load_path.empty() || !opt.save_path.empty())) {
      std::cerr << "error: --restore resumes a checkpointed instance and "
                   "cannot be combined with --load/--save\n";
      return 2;
    }

    auto network = make_network(opt);
    if (!network) return 2;

    if (opt.probe || opt.sweep_cell) {
      return run_sweep_mode(opt, *network);
    }

    hp::Rng rng(opt.seed);
    // An --inject run starts empty: every packet comes from the injector.
    hp::workload::Problem problem;
    if (!opt.restore_path.empty()) {
      // The restored packets come from the checkpoint, not a workload:
      // the engine must start empty for restore_checkpoint to accept it.
      problem.name = "restored";
    } else if (!inject) {
      problem = opt.load_path.empty()
                    ? make_workload(opt, *network, rng)
                    : hp::workload::load_problem(opt.load_path);
      problem.validate(*network);
      if (!opt.save_path.empty()) {
        hp::workload::save_problem(opt.save_path, problem);
      }
    }
    auto policy = make_policy(opt, *network);

    hp::sim::EngineConfig config;
    config.max_steps = opt.max_steps;
    config.seed = opt.seed;
    config.num_threads = opt.threads;
    config.profile = opt.profile;
    config.archive_arrivals = !inject;  // unbounded run: O(in-flight) memory
    std::optional<hp::stats::SteadyStateMeter> meter;  // outlives the engine
    hp::sim::Engine engine(*network, problem, *policy, config);
    if (!opt.restore_path.empty()) {
      hp::sim::restore_checkpoint(engine, opt.restore_path);
    }
    if (inject) {
      // The first 20% of the run is warmup.
      meter.emplace(engine, opt.inject_rate, opt.inject_steps / 5, opt.seed);
    }

    // Optional instrumentation.
    const auto* mesh = dynamic_cast<const hp::net::Mesh*>(network.get());
    std::unique_ptr<hp::core::PotentialTracker> potential;
    std::unique_ptr<hp::core::SurfaceTracker> surface;
    hp::core::GreedyChecker greedy;
    hp::core::RestrictedPreferenceChecker preference;
    hp::stats::RunRecorder recorder;
    if (opt.audit) {
      if (mesh != nullptr) {
        hp::core::PotentialTracker::Config pc;
        pc.c_init = 2 * mesh->side();
        pc.d = mesh->dim();
        potential = std::make_unique<hp::core::PotentialTracker>(
            *network, engine, pc);
        engine.add_observer(potential.get());
        if (!mesh->wraps()) {
          surface = std::make_unique<hp::core::SurfaceTracker>(*mesh);
          engine.add_observer(surface.get());
        }
      }
      engine.add_observer(&greedy);
      engine.add_observer(&preference);
    }
    if (opt.csv) engine.add_observer(&recorder);

    // Observability: metrics registry and/or Chrome trace. Registered
    // after the audit trackers so the Φ/B/F gauges read this step's
    // tracker state.
    hp::obs::MetricsRegistry registry;
    std::unique_ptr<hp::obs::EngineMetrics> metrics;
    if (!opt.metrics_path.empty()) {
      metrics = std::make_unique<hp::obs::EngineMetrics>(registry);
      if (potential) metrics->attach_potential(*potential);
      if (surface) metrics->attach_surface(*surface);
      engine.add_observer(metrics.get());
    }
    hp::obs::TraceRing ring(std::size_t{1} << 16);
    std::unique_ptr<hp::obs::TraceObserver> tracer;
    if (!opt.trace_path.empty()) {
      tracer = std::make_unique<hp::obs::TraceObserver>(ring);
      engine.add_observer(tracer.get());
      if (opt.profile) {
        // Opt-in wall-clock spans: the trace stops being deterministic.
        engine.profiler()->set_trace_sink(&ring);
      }
    }

    hp::sim::RunResult result;
    if (inject) {
      engine.run_for(opt.inject_steps);
    } else if (!opt.checkpoint_path.empty() && opt.checkpoint_at > 0) {
      // Mid-run checkpoint: run to the requested step boundary, save,
      // then keep running (max_steps still caps the whole run).
      engine.run_for(opt.checkpoint_at);
      hp::sim::save_checkpoint(engine, opt.checkpoint_path);
      result = engine.run();
    } else {
      result = engine.run();
      if (!opt.checkpoint_path.empty()) {
        hp::sim::save_checkpoint(engine, opt.checkpoint_path);
      }
    }

    if (metrics) {
      std::ofstream out(opt.metrics_path);
      if (!out) {
        throw hp::CheckError("cannot open " + opt.metrics_path);
      }
      const bool csv_out =
          opt.metrics_path.size() >= 4 &&
          opt.metrics_path.compare(opt.metrics_path.size() - 4, 4, ".csv") ==
              0;
      if (csv_out) {
        registry.write_csv(out);
      } else {
        registry.write_json(out);
      }
    }
    if (tracer) {
      std::ofstream out(opt.trace_path);
      if (!out) {
        throw hp::CheckError("cannot open " + opt.trace_path);
      }
      hp::obs::write_chrome_trace(out, ring);
    }
    if (opt.profile) engine.profiler()->write_report(std::cerr);

    if (opt.csv) {
      recorder.write_csv(std::cout);
    } else if (meter) {
      const hp::sim::WindowMeasurement m = meter->measurement(engine);
      std::cout << "network         : " << network->name() << "\n"
                << "policy          : " << policy->name() << "\n"
                << "offered rate    : " << m.offered_rate
                << " per node per step\n"
                << "admit fraction  : " << m.admit_fraction << "\n"
                << "throughput      : " << m.throughput
                << " deliveries per node per step\n"
                << "mean latency    : " << m.mean_latency << "\n"
                << "p99 latency     : " << m.p99_latency << "\n"
                << "mean in flight  : " << m.mean_population << "\n"
                << "deflections/pkt : " << m.deflections_per_delivered << "\n";
    } else {
      const auto summary = hp::stats::summarize_latency(result);
      std::cout << "network        : " << network->name() << " ("
                << network->num_nodes() << " nodes)\n"
                << "workload       : " << problem.name << " ("
                << problem.size() << " packets)\n"
                << "policy         : " << policy->name() << "\n"
                << "status         : "
                << (result.completed
                        ? "completed"
                        : (result.livelocked ? "LIVELOCK" : "step cap hit"))
                << "\n"
                << "steps          : " << result.steps << "\n"
                << "deflections    : " << result.total_deflections << "\n";
      if (result.completed && summary.delivered > 0) {
        std::cout << "mean latency   : " << summary.latency.mean() << "\n"
                  << "p99 latency    : " << summary.latency.percentile(0.99)
                  << "\n"
                  << "mean stretch   : " << summary.stretch.mean() << "\n";
      }
      if (mesh != nullptr && mesh->dim() == 2 && !mesh->wraps()) {
        std::cout << "Thm 20 bound   : "
                  << hp::core::thm20_bound(
                         mesh->side(), static_cast<double>(problem.size()))
                  << "\n";
      }
      if (opt.audit) {
        std::cout << "audit          : greedy(Def6)="
                  << greedy.violations().size() << " pref(Def18)="
                  << preference.violations().size();
        if (potential) {
          std::cout << " property8=" << potential->property8_violations().size()
                    << " structure=" << potential->structure_violations().size();
        }
        if (surface) {
          std::cout << " lemma14=" << surface->lemma14_violations().size();
        }
        std::cout << " violations\n";
      }
    }
    if (opt.fingerprint) {
      std::cout << "state fingerprint : 0x" << std::hex
                << hp::sim::state_fingerprint(engine) << std::dec << "\n";
    }
    return inject || result.completed ? 0 : 1;
  } catch (const hp::CheckError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
