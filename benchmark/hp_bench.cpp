// hp_bench: one benchmark workload per process (see README.md here).
//
//   hp_bench --workload NAME [--seed N] [--reps R] [--seconds S]
//            [--traced T] [--trace-out PATH] [--no-warmup]
//
// Runs one discarded warm-up rep, then at least R untraced reps, more while
// another fits within S seconds, then T traced reps. Every rep's raw samples
// and simulated digest go to stdout as one JSON document; run.py turns the
// samples into metrics and checks the digests.
//
// A rep is set-up, then the run, then whatever follows it (the checkpoint
// round trip on mesh_scale_t4). The run's steps (cells on sweep_grid) are
// timed one by one: each is the same simulated work in every rep of one
// seed, so run.py can take, per step, the fastest time any rep achieved.
//
// Every layer is timed from outside, around calls into its public
// functions: the Engine constructor and step(), the checkpoint functions,
// the workload generators and stats::run_sweep_cell. Traced reps add the
// TimedPolicy and TimedInjector decorators below and the engine's own
// PhaseProfiler (EngineConfig::profile), and record bench spans plus the
// profiler's phase spans into a Chrome trace.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/engine_metrics.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "routing/greedy_variants.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "stats/sweep.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"
#include "workload/traffic.hpp"

namespace hpb {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) * 1e-9;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- decorators --------------------------------------------------------------

/// Forwards every RoutingPolicy call to `inner`, counting route() and
/// batch_good_dirs() work and, when `timed`, their wall time. The name,
/// determinism and conformance claims are forwarded too, so livelock
/// detection, checkpoint headers and HP_AUDIT see the bare policy.
///
/// The engine calls both functions concurrently from its worker threads, so
/// each calling thread accumulates into a slot of its own; totals() sums
/// the slots once the engine is between steps, after the phase barrier has
/// published the workers' writes.
class TimedPolicy final : public hp::sim::RoutingPolicy {
 public:
  struct Totals {
    std::uint64_t route_calls = 0;
    std::uint64_t route_packets = 0;
    std::uint64_t route_ns = 0;
    std::uint64_t advances = 0;  ///< routed packets sent along a good arc
    std::uint64_t mask_packets = 0;
    std::uint64_t mask_ns = 0;

    Totals& operator+=(const Totals& o) {
      route_calls += o.route_calls;
      route_packets += o.route_packets;
      route_ns += o.route_ns;
      advances += o.advances;
      mask_packets += o.mask_packets;
      mask_ns += o.mask_ns;
      return *this;
    }
    Totals operator-(const Totals& o) const {
      Totals d = *this;
      d.route_calls -= o.route_calls;
      d.route_packets -= o.route_packets;
      d.route_ns -= o.route_ns;
      d.advances -= o.advances;
      d.mask_packets -= o.mask_packets;
      d.mask_ns -= o.mask_ns;
      return d;
    }
  };

  TimedPolicy(hp::sim::RoutingPolicy& inner, bool timed)
      : inner_(inner), timed_(timed), id_(next_id()) {}

  std::string name() const override { return inner_.name(); }
  bool deterministic() const override { return inner_.deterministic(); }
  bool claims_greedy() const override { return inner_.claims_greedy(); }
  bool claims_restricted_preference() const override {
    return inner_.claims_restricted_preference();
  }

  void route(const hp::sim::NodeContext& ctx,
             std::span<const hp::sim::PacketView> packets,
             std::span<hp::net::Dir> out) override {
    Slot& slot = local();
    const Clock::time_point t0 = timed_ ? Clock::now() : Clock::time_point{};
    inner_.route(ctx, packets, out);
    if (timed_) slot.route_ns += ns_between(t0, Clock::now());
    ++slot.route_calls;
    slot.route_packets += packets.size();
    for (std::size_t i = 0; i < packets.size(); ++i) {
      // The engine validates out[i] after this returns; only count here.
      const hp::net::Dir d = out[i];
      if (d >= 0 && d < 32 && ((packets[i].good_mask >> d) & 1u) != 0) {
        ++slot.advances;
      }
    }
  }

  void batch_good_dirs(const hp::net::Network& net, const hp::net::NodeId* at,
                       const hp::net::NodeId* dst, std::uint32_t* out_masks,
                       std::size_t count) const override {
    Slot& slot = local();
    const Clock::time_point t0 = timed_ ? Clock::now() : Clock::time_point{};
    inner_.batch_good_dirs(net, at, dst, out_masks, count);
    if (timed_) slot.mask_ns += ns_between(t0, Clock::now());
    slot.mask_packets += count;
  }

  Totals totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    Totals sum;
    for (const Slot& slot : slots_) sum += slot;
    return sum;
  }

 private:
  /// Own cache line per thread, so concurrent slots never share one.
  struct alignas(64) Slot : Totals {};

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  /// The calling thread's slot. Ids are never reused, so a cached slot
  /// pointer is only ever followed while its policy is alive.
  Slot& local() const {
    thread_local std::uint64_t cached_id = 0;
    thread_local Slot* cached = nullptr;
    if (cached_id != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      cached = &slots_.emplace_back();
      cached_id = id_;
    }
    return *cached;
  }

  hp::sim::RoutingPolicy& inner_;
  const bool timed_;
  const std::uint64_t id_;
  mutable std::mutex mu_;
  mutable std::deque<Slot> slots_;  // guarded by mu_; deque keeps addresses
};

/// Forwards inject() to the wrapped source (a workload::TrafficInjector)
/// and times it. The engine calls injectors from its main thread only.
class TimedInjector final : public hp::sim::Injector {
 public:
  explicit TimedInjector(hp::sim::Injector& inner) : inner_(inner) {}

  void inject(hp::sim::Engine& engine, std::uint64_t step) override {
    const Clock::time_point t0 = Clock::now();
    inner_.inject(engine, step);
    ns_ += ns_between(t0, Clock::now());
  }

  std::uint64_t ns() const { return ns_; }

 private:
  hp::sim::Injector& inner_;
  std::uint64_t ns_ = 0;
};

// --- one rep -----------------------------------------------------------------

/// Name -> JSON text, in insertion order.
using Fields = std::vector<std::pair<std::string, std::string>>;

void put(Fields& f, const std::string& name, double v) {
  f.emplace_back(name, hp::obs::json_number(v));
}
void put_count(Fields& f, const std::string& name, std::uint64_t v) {
  f.emplace_back(name, std::to_string(v));
}
void put_hex(Fields& f, const std::string& name, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", v);
  f.emplace_back(name, buf);
}

std::string object(const Fields& f) {
  std::string out = "{";
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + hp::obs::json_escape(f[i].first) + "\": " + f[i].second;
  }
  return out + "}";
}

struct Rep {
  bool traced = false;
  Fields metrics;  ///< wall-clock samples and layer numbers
  Fields digest;   ///< simulated outcome: equal for every rep of one seed
  /// Time of each step (each cell on sweep_grid), in order.
  std::vector<std::uint64_t> run_ns;
  std::string error;  ///< non-empty: an invariant check failed
};

/// Bench-side spans and counters of one traced rep, in microseconds since
/// the rep began. The engine's phase spans land in a ring of their own
/// (PhaseProfiler::set_trace_sink), stamped from the profiler's
/// construction at the end of the Engine constructor; write() shifts them
/// onto the rep's clock. Every call is a no-op on an untraced rep.
class RepTrace {
 public:
  explicit RepTrace(bool enabled) : origin_(Clock::now()) {
    if (enabled) {
      bench_ = std::make_unique<hp::obs::TraceRing>(kCapacity);
      phases_ = std::make_unique<hp::obs::TraceRing>(kCapacity);
    }
  }

  bool enabled() const { return bench_ != nullptr; }

  void span(const char* name, Clock::time_point t0, Clock::time_point t1) {
    if (!enabled()) return;
    hp::obs::TraceEvent e;
    e.name = name;
    e.cat = "bench";
    e.ts = ns_between(origin_, t0) / 1000;
    e.dur = ns_between(t0, t1) / 1000;
    e.tid = 1;
    bench_->push(std::move(e));
  }

  void counter(const std::string& name, std::uint64_t value) {
    if (!enabled()) return;
    hp::obs::TraceEvent e;
    e.name = name;
    e.cat = "layer";
    e.phase = 'C';
    e.ts = ns_between(origin_, Clock::now()) / 1000;
    e.tid = 2;
    e.value = static_cast<std::int64_t>(value);
    e.has_value = true;
    bench_->push(std::move(e));
  }

  /// Routes the engine profiler's phase spans into this trace; call right
  /// after the Engine constructor returns.
  void attach(hp::sim::Engine& engine) {
    if (!enabled() || engine.profiler() == nullptr) return;
    engine.profiler()->set_trace_sink(phases_.get());
    phase_offset_us_ = ns_between(origin_, Clock::now()) / 1000;
  }

  void write(const std::string& path) const {
    hp::obs::TraceRing merged(2 * kCapacity);
    for (std::size_t i = 0; i < bench_->size(); ++i) merged.push(bench_->at(i));
    for (std::size_t i = 0; i < phases_->size(); ++i) {
      hp::obs::TraceEvent e = phases_->at(i);
      e.ts += phase_offset_us_;
      merged.push(std::move(e));
    }
    std::ofstream out(path);
    HP_REQUIRE(out.good(), "cannot write trace " + path);
    hp::obs::write_chrome_trace(out, merged);
  }

 private:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  Clock::time_point origin_;
  std::uint64_t phase_offset_us_ = 0;
  std::unique_ptr<hp::obs::TraceRing> bench_;
  std::unique_ptr<hp::obs::TraceRing> phases_;
};

/// Cumulative layer counters at one instant; differences of two snapshots
/// isolate the timed steps from set-up and warm-up.
struct LayerSnapshot {
  std::array<std::uint64_t, hp::obs::kNumPhases> phase_ns{};
  std::array<std::uint64_t, hp::obs::kNumPhases> epochs{};
  std::array<double, hp::obs::kNumPhases> imbalance_sum{};
  TimedPolicy::Totals policy;
  std::uint64_t inject_ns = 0;
};

LayerSnapshot snapshot(const hp::obs::PhaseProfiler* profiler,
                       const TimedPolicy& policy,
                       const TimedInjector* injector) {
  LayerSnapshot s;
  if (profiler != nullptr) {
    for (std::size_t i = 0; i < hp::obs::kNumPhases; ++i) {
      const auto p = static_cast<hp::obs::Phase>(i);
      s.phase_ns[i] = profiler->stat(p).ns;
      s.epochs[i] = profiler->epochs(p);
      s.imbalance_sum[i] = profiler->shard_stat(p).imbalance_sum;
    }
  }
  s.policy = policy.totals();
  if (injector != nullptr) s.inject_ns = injector->ns();
  return s;
}

/// The traced rep's per-layer numbers over the timed steps (README.md has
/// the map from each to the end-to-end metric it should move). Decorator
/// times are busy time summed over the threads that called in.
void put_layers(Rep& rep, const LayerSnapshot& before,
                const LayerSnapshot& after, bool profiled, bool injected,
                std::uint64_t steps, std::uint64_t stepping_ns, int threads) {
  using hp::obs::Phase;
  const auto per_step = [&](double v) {
    return ratio(v, static_cast<double>(steps));
  };
  const TimedPolicy::Totals p = after.policy - before.policy;
  Fields& m = rep.metrics;
  put(m, "topology.good_masks_ns_per_packet",
      ratio(static_cast<double>(p.mask_ns),
            static_cast<double>(p.mask_packets)));
  put(m, "topology.good_masks_ns_per_step",
      per_step(static_cast<double>(p.mask_ns)));
  put_count(m, "routing.route_calls", p.route_calls);
  put(m, "routing.packets_per_call",
      ratio(static_cast<double>(p.route_packets),
            static_cast<double>(p.route_calls)));
  put(m, "routing.route_ns_per_call",
      ratio(static_cast<double>(p.route_ns),
            static_cast<double>(p.route_calls)));
  put(m, "routing.route_ns_per_step",
      per_step(static_cast<double>(p.route_ns)));
  if (injected) {
    put(m, "workload.inject_ns_per_step",
        per_step(static_cast<double>(after.inject_ns - before.inject_ns)));
  }
  if (!profiled) return;

  std::array<double, hp::obs::kNumPhases> ns{};
  double phase_sum = 0.0;
  std::uint64_t epochs = 0;
  for (std::size_t i = 0; i < hp::obs::kNumPhases; ++i) {
    ns[i] = static_cast<double>(after.phase_ns[i] - before.phase_ns[i]);
    phase_sum += ns[i];
    epochs += after.epochs[i] - before.epochs[i];
  }
  const auto at = [&](Phase ph) { return ns[static_cast<std::size_t>(ph)]; };
  put(m, "sim.occupancy_ns_per_step", per_step(at(Phase::kOccupancy)));
  put(m, "sim.route_ns_per_step", per_step(at(Phase::kRoute)));
  put(m, "sim.apply_ns_per_step", per_step(at(Phase::kApply)));
  if (injected) put(m, "sim.inject_ns_per_step", per_step(at(Phase::kInject)));
  if (threads == 1) {
    // Serial only: with workers, the decorator's summed busy time is not
    // comparable with the route phase's wall time.
    put(m, "sim.route_self_ns_per_step",
        per_step(at(Phase::kRoute) - static_cast<double>(p.mask_ns) -
                 static_cast<double>(p.route_ns)));
  }
  put(m, "sim.epochs_per_step", per_step(static_cast<double>(epochs)));
  for (const Phase ph : {Phase::kOccupancy, Phase::kRoute, Phase::kApply}) {
    const auto i = static_cast<std::size_t>(ph);
    const std::uint64_t e = after.epochs[i] - before.epochs[i];
    if (e == 0) continue;
    put(m, std::string("sim.") + hp::obs::phase_name(ph) + "_imbalance",
        (after.imbalance_sum[i] - before.imbalance_sum[i]) /
            static_cast<double>(e));
  }
  put(m, "obs.observe_ns_per_step", per_step(at(Phase::kObserve)));
  put(m, "obs.observe_share", ratio(at(Phase::kObserve), phase_sum));
  put(m, "sim.phase_coverage",
      ratio(phase_sum, static_cast<double>(stepping_ns)));
}

void trace_totals(RepTrace& trace, const TimedPolicy::Totals& t) {
  trace.counter("routing.route_calls", t.route_calls);
  trace.counter("routing.route_packets", t.route_packets);
  trace.counter("routing.route_ns", t.route_ns);
  trace.counter("routing.advances", t.advances);
  trace.counter("topology.mask_packets", t.mask_packets);
  trace.counter("topology.good_masks_ns", t.mask_ns);
}

void put_memory(Rep& rep, const hp::sim::Engine& engine) {
  const hp::sim::EngineMemoryStats mem = engine.memory_stats();
  const auto nodes = static_cast<double>(engine.network().num_nodes());
  Fields& m = rep.metrics;
  put(m, "bytes_per_node", static_cast<double>(mem.total()) / nodes);
  put(m, "sim.topology_bytes_per_node",
      static_cast<double>(mem.topology_bytes) / nodes);
  put(m, "sim.flight_bytes_per_node",
      static_cast<double>(mem.flight_bytes) / nodes);
  put(m, "sim.occupancy_bytes_per_node",
      static_cast<double>(mem.occupancy_bytes) / nodes);
  put(m, "sim.scratch_bytes_per_node",
      static_cast<double>(mem.scratch_bytes) / nodes);
}

/// Raw per-rep times and the simulated work they covered. run.py composes
/// the end-to-end metrics from these and the per-step times.
void put_times(Rep& rep, double setup_s, double run_s, double wall_s,
               std::uint64_t steps, std::uint64_t moves) {
  Fields& m = rep.metrics;
  put(m, "setup_s", setup_s);
  put(m, "run_s", run_s);
  put(m, "wall_s", wall_s);
  put_count(m, "steps", steps);
  put_count(m, "moves", moves);
}

hp::sim::EngineConfig engine_config(std::uint64_t seed, int threads,
                                    bool traced) {
  hp::sim::EngineConfig config;
  config.seed = seed;
  config.num_threads = threads;
  config.archive_arrivals = false;
  config.profile = traced;
  return config;
}

/// Engine threads of mesh_scale_t4: four, or every core of a smaller host
/// (whose numbers run.py then marks unmeasured).
int scale_threads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 4u));
}

/// Steps `engine` until `limit` steps ran or step() reports nothing left,
/// timing each step into `out`. Engine::run() and run_for() are this same
/// loop around step(), untimed.
void step_timed(hp::sim::Engine& engine, std::uint64_t limit,
                std::vector<std::uint64_t>& out) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    const Clock::time_point s0 = Clock::now();
    if (!engine.step()) break;
    out.push_back(ns_between(s0, Clock::now()));
  }
}

// --- batch workloads ---------------------------------------------------------

struct BatchSpec {
  std::function<std::unique_ptr<hp::net::Network>()> network;
  std::function<hp::workload::Problem(const hp::net::Network&, hp::Rng&)>
      problem;
  int threads = 1;
  std::uint64_t run_steps = 0;  ///< 0: step to completion, as Engine::run()
  bool checkpoint = false;      ///< save, restore and compare fingerprints
  /// The engine default. The scale slice turns it off: its serial digest
  /// over a million packets is ~14% of each step and lies outside every
  /// profiler phase, and a fixed 40-step slice has no use for a livelock
  /// proof.
  bool detect_livelock = true;
};

Rep run_batch(const BatchSpec& spec, std::uint64_t seed, RepTrace& trace) {
  Rep rep;
  rep.traced = trace.enabled();
  const Clock::time_point t0 = Clock::now();
  const std::unique_ptr<hp::net::Network> net = spec.network();
  hp::Rng rng(seed);
  const Clock::time_point g0 = Clock::now();
  const hp::workload::Problem problem = spec.problem(*net, rng);
  const Clock::time_point g1 = Clock::now();

  hp::routing::RestrictedPriorityPolicy bare;
  TimedPolicy timed(bare, true);
  hp::sim::RoutingPolicy& policy =
      rep.traced ? static_cast<hp::sim::RoutingPolicy&>(timed) : bare;
  hp::sim::EngineConfig config = engine_config(seed, spec.threads, rep.traced);
  config.detect_livelock = spec.detect_livelock;
  hp::sim::Engine engine(*net, problem, policy, config);
  const Clock::time_point t1 = Clock::now();
  trace.attach(engine);
  trace.span("generate", g0, g1);
  trace.span("setup", t0, t1);

  const LayerSnapshot before = snapshot(engine.profiler(), timed, nullptr);
  step_timed(engine,
             spec.run_steps == 0 ? config.max_steps : spec.run_steps,
             rep.run_ns);
  const hp::sim::RunResult result = engine.run_for(0);
  const Clock::time_point t2 = Clock::now();
  const LayerSnapshot after = snapshot(engine.profiler(), timed, nullptr);
  trace.span("run", t1, t2);

  Clock::time_point t3 = t2;
  std::uint64_t fingerprint = 0;
  if (spec.checkpoint) {
    std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
    hp::sim::save_checkpoint(engine, buffer);
    const Clock::time_point c1 = Clock::now();
    const auto bytes = static_cast<double>(buffer.tellp());
    const hp::workload::Problem empty{"restore", {}};
    hp::sim::Engine restored(*net, empty, policy, config);
    hp::sim::restore_checkpoint(restored, buffer);
    const Clock::time_point c2 = Clock::now();
    fingerprint = hp::sim::state_fingerprint(engine);
    const Clock::time_point c3 = Clock::now();
    if (hp::sim::state_fingerprint(restored) != fingerprint) {
      rep.error = "restored engine's state fingerprint differs";
    }
    t3 = Clock::now();
    trace.span("checkpoint", t2, t3);
    const double save_s = seconds_between(t2, c1);
    const double restore_s = seconds_between(c1, c2);
    put(rep.metrics, "checkpoint_save_s", save_s);
    put(rep.metrics, "checkpoint_restore_s", restore_s);
    put(rep.metrics, "sim.checkpoint_bytes", bytes);
    put(rep.metrics, "sim.checkpoint_save_mb_per_s", bytes / 1e6 / save_s);
    put(rep.metrics, "sim.checkpoint_restore_mb_per_s",
        bytes / 1e6 / restore_s);
    put(rep.metrics, "sim.fingerprint_ms", seconds_between(c2, c3) * 1e3);
  } else {
    fingerprint = hp::sim::state_fingerprint(engine);
  }
  trace.span("rep", t0, t3);

  const std::uint64_t moves = result.total_advances + result.total_deflections;
  put_times(rep, seconds_between(t0, t1), seconds_between(t1, t2),
            seconds_between(t0, t3), result.steps_executed, moves);
  put(rep.metrics, "sim.deflection_ratio",
      ratio(static_cast<double>(result.total_deflections),
            static_cast<double>(moves)));
  put(rep.metrics, "workload.generate_s", seconds_between(g0, g1));
  put_memory(rep, engine);
  if (rep.traced) {
    put_layers(rep, before, after, true, false, result.steps_executed,
               ns_between(t1, t2), spec.threads);
    const TimedPolicy::Totals p = after.policy - before.policy;
    trace_totals(trace, p);
    if (p.route_packets != moves || p.advances != result.total_advances) {
      rep.error = "decorator counts disagree with the engine's totals";
    }
  }

  Fields& d = rep.digest;
  put_count(d, "steps", result.steps);
  put_count(d, "steps_executed", result.steps_executed);
  put_count(d, "advances", result.total_advances);
  put_count(d, "deflections", result.total_deflections);
  put_count(d, "delivered", engine.delivered());
  put_count(d, "in_flight", engine.in_flight());
  put_hex(d, "fingerprint", fingerprint);

  // Every hop on a mesh or hypercube changes the distance to the
  // destination by exactly one: down when advancing, up when deflected.
  std::int64_t initial = 0;
  for (const auto& packet : problem.packets) {
    initial += net->distance(packet.src, packet.dst);
  }
  std::int64_t remaining = 0;
  const hp::sim::FlightTable& flight = engine.flight();
  for (std::size_t i = 0; i < flight.size(); ++i) {
    remaining += net->distance(flight.pos_data()[i], flight.dst_data()[i]);
  }
  if (initial - static_cast<std::int64_t>(result.total_advances) +
          static_cast<std::int64_t>(result.total_deflections) !=
      remaining) {
    rep.error = "advances and deflections do not account for the distance";
  }
  if (spec.run_steps == 0 &&
      (!result.completed || engine.delivered() != problem.size())) {
    rep.error = "batch did not deliver every packet";
  }
  return rep;
}

Rep mesh_perm(std::uint64_t seed, RepTrace& trace) {
  BatchSpec spec;
  spec.network = [] { return std::make_unique<hp::net::Mesh>(2, 256); };
  spec.problem = [](const hp::net::Network& net, hp::Rng& rng) {
    return hp::workload::random_permutation(net, rng);
  };
  return run_batch(spec, seed, trace);
}

Rep cube_saturated(std::uint64_t seed, RepTrace& trace) {
  BatchSpec spec;
  spec.network = [] { return std::make_unique<hp::net::Hypercube>(16); };
  spec.problem = [](const hp::net::Network& net, hp::Rng& rng) {
    return hp::workload::saturated_random(net, 8, rng);
  };
  return run_batch(spec, seed, trace);
}

Rep mesh_scale_t4(std::uint64_t seed, RepTrace& trace) {
  BatchSpec spec;
  spec.network = [] { return std::make_unique<hp::net::Mesh>(2, 512); };
  spec.problem = [](const hp::net::Network& net, hp::Rng& rng) {
    return hp::workload::saturated_random(net, 4, rng);
  };
  spec.threads = scale_threads();
  spec.run_steps = 40;
  spec.checkpoint = true;
  spec.detect_livelock = false;
  return run_batch(spec, seed, trace);
}

// --- continuous arrivals -----------------------------------------------------

Rep torus_steady(std::uint64_t seed, RepTrace& trace) {
  constexpr int kSide = 64;
  constexpr double kRate = 0.03;  // offered packets per node per step
  constexpr std::uint64_t kWarmup = 1000;
  constexpr std::uint64_t kMeasured = 6000;

  Rep rep;
  rep.traced = trace.enabled();
  const Clock::time_point t0 = Clock::now();
  const hp::net::Mesh torus(2, kSide, /*wrap=*/true);
  const Clock::time_point g0 = Clock::now();
  hp::workload::TrafficInjector traffic(torus, hp::workload::TrafficConfig{},
                                        kRate, seed);
  const Clock::time_point g1 = Clock::now();
  TimedInjector timed_injector(traffic);

  hp::routing::RestrictedPriorityPolicy bare;
  TimedPolicy timed(bare, true);
  hp::sim::RoutingPolicy& policy =
      rep.traced ? static_cast<hp::sim::RoutingPolicy&>(timed) : bare;
  const hp::workload::Problem empty{"steady", {}};
  hp::sim::Engine engine(torus, empty, policy,
                         engine_config(seed, 1, rep.traced));
  trace.attach(engine);
  engine.set_injector(rep.traced
                          ? static_cast<hp::sim::Injector*>(&timed_injector)
                          : &traffic);
  hp::obs::MetricsRegistry registry;
  hp::obs::EngineMetrics metrics(registry);
  engine.add_observer(&metrics);
  const hp::obs::Counter& advances = registry.counter("packets.advances");
  const hp::obs::Counter& deflections =
      registry.counter("packets.deflections");
  engine.run_for(kWarmup);
  const Clock::time_point t1 = Clock::now();
  trace.span("generate", g0, g1);
  trace.span("setup", t0, t1);

  const LayerSnapshot before =
      snapshot(engine.profiler(), timed, &timed_injector);
  const std::uint64_t offered0 = traffic.offered();
  const std::uint64_t admitted0 = traffic.admitted();
  const std::uint64_t moves0 = advances.value() + deflections.value();
  const std::uint64_t deflections0 = deflections.value();
  step_timed(engine, kMeasured, rep.run_ns);
  const Clock::time_point t2 = Clock::now();
  const LayerSnapshot after =
      snapshot(engine.profiler(), timed, &timed_injector);
  trace.span("run", t1, t2);
  trace.span("rep", t0, t2);

  const std::uint64_t moves = advances.value() + deflections.value() - moves0;
  put_times(rep, seconds_between(t0, t1), seconds_between(t1, t2),
            seconds_between(t0, t2), kMeasured, moves);
  put(rep.metrics, "sim.deflection_ratio",
      ratio(static_cast<double>(deflections.value() - deflections0),
            static_cast<double>(moves)));
  put(rep.metrics, "workload.generate_s", seconds_between(g0, g1));
  put(rep.metrics, "workload.admit_fraction",
      ratio(static_cast<double>(traffic.admitted() - admitted0),
            static_cast<double>(traffic.offered() - offered0)));
  put_memory(rep, engine);
  if (rep.traced) {
    put_layers(rep, before, after, true, true, kMeasured, ns_between(t1, t2),
               1);
    trace_totals(trace, after.policy - before.policy);
  }

  Fields& d = rep.digest;
  put_count(d, "steps", engine.now());
  put_count(d, "offered", traffic.offered());
  put_count(d, "admitted", traffic.admitted());
  put_count(d, "delivered", engine.delivered());
  put_count(d, "in_flight", engine.in_flight());
  put_count(d, "advances", advances.value());
  put_count(d, "deflections", deflections.value());
  put_hex(d, "fingerprint", hp::sim::state_fingerprint(engine));

  if (traffic.admitted() != engine.delivered() + engine.in_flight() ||
      engine.num_packets() != traffic.admitted()) {
    rep.error = "admitted packets are neither delivered nor in flight";
  }
  return rep;
}

// --- saturation sweep --------------------------------------------------------

struct SweepCell {
  std::string key;  ///< entry-name prefix of bench_sweep's BENCH_sweep.json
  std::unique_ptr<hp::sim::RoutingPolicy> policy;
  hp::workload::TrafficConfig traffic;
};

/// bench_sweep's full grid, in its order: policy x pattern x Pareto.
std::vector<SweepCell> sweep_cells() {
  std::vector<SweepCell> cells;
  for (const std::string policy : {"restricted", "greedy-random"}) {
    for (const std::string pattern :
         {"uniform", "hotspot", "transpose", "bit-reversal"}) {
      for (const bool pareto : {false, true}) {
        SweepCell cell;
        cell.key = policy + "_" +
                   (pattern == "bit-reversal" ? "bitrev" : pattern) +
                   (pareto ? "_p1" : "_p0");
        if (policy == "restricted") {
          cell.policy =
              std::make_unique<hp::routing::RestrictedPriorityPolicy>();
        } else {
          cell.policy = std::make_unique<hp::routing::GreedyRandomPolicy>();
        }
        cell.traffic.pattern = hp::workload::pattern_from_name(pattern);
        cell.traffic.pareto = pareto;
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

std::string entry(std::initializer_list<std::pair<const char*, double>> kv) {
  Fields f;
  for (const auto& [name, value] : kv) put(f, name, value);
  return object(f);
}

std::string load_suffix(double fraction) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "load%03d",
                static_cast<int>(fraction * 100.0 + 0.5));
  return buf;
}

Rep sweep_grid(std::uint64_t seed, RepTrace& trace) {
  const hp::net::Mesh mesh(2, 8);
  hp::stats::SweepConfig config;
  config.seed = seed;
  const std::uint64_t window_steps =
      config.probe.warmup_steps + config.probe.window_steps;
  const std::uint64_t point_steps = config.curve_warmup + config.curve_measure;

  // Set-up is building the grid: each cell's policy and traffic shape, plus
  // one engine-and-source system of the kind each cell's probe and load
  // points build for themselves (1 + load_fractions per cell).
  Rep rep;
  rep.traced = trace.enabled();
  const Clock::time_point t0 = Clock::now();
  std::vector<SweepCell> cells = sweep_cells();
  for (SweepCell& cell : cells) {
    for (std::size_t i = 0; i <= config.load_fractions.size(); ++i) {
      const hp::stats::EngineTrafficSystem system(mesh, *cell.policy,
                                                  cell.traffic, seed);
      if (rep.metrics.empty()) put_memory(rep, system.engine());
    }
  }
  const Clock::time_point t1 = Clock::now();
  trace.span("setup", t0, t1);

  Fields entries;
  TimedPolicy::Totals totals;
  std::vector<double> cell_s;
  std::uint64_t sim_steps = 0;
  std::uint64_t windows = 0;
  for (SweepCell& cell : cells) {
    // Always decorated: the policy's counts are the only view of how many
    // hops the cell's internal engines made.
    TimedPolicy timed(*cell.policy, rep.traced);
    const Clock::time_point c0 = Clock::now();
    const hp::stats::SweepCellResult result =
        hp::stats::run_sweep_cell(mesh, timed, cell.traffic, config);
    const Clock::time_point c1 = Clock::now();
    trace.span("cell", c0, c1);
    rep.run_ns.push_back(ns_between(c0, c1));
    cell_s.push_back(seconds_between(c0, c1));
    totals += timed.totals();

    const hp::sim::ProbeResult& probe = result.probe;
    windows += static_cast<std::uint64_t>(probe.windows);
    sim_steps += static_cast<std::uint64_t>(probe.windows) * window_steps +
                 result.curve.size() * point_steps;
    entries.emplace_back(
        cell.key + "_saturation",
        entry({{"saturation_rate", probe.saturation_rate},
               {"throughput", probe.throughput_at_saturation},
               {"mean_latency", probe.latency_at_saturation},
               {"windows", static_cast<double>(probe.windows)},
               {"converged", probe.converged ? 1.0 : 0.0}}));
    for (const hp::stats::LoadPoint& point : result.curve) {
      entries.emplace_back(
          cell.key + "_" + load_suffix(point.load_fraction),
          entry({{"load_fraction", point.load_fraction},
                 {"offered_rate", point.offered_rate},
                 {"throughput", point.throughput},
                 {"admit_fraction", point.admit_fraction},
                 {"mean_latency", point.mean_latency},
                 {"p99_latency", point.p99_latency},
                 {"mean_population", point.mean_population},
                 {"peak_in_flight", static_cast<double>(point.peak_in_flight)},
                 {"delivered", static_cast<double>(point.delivered)}}));
    }
  }
  const Clock::time_point t2 = Clock::now();
  trace.span("run", t1, t2);
  trace.span("rep", t0, t2);

  put_times(rep, seconds_between(t0, t1), seconds_between(t1, t2),
            seconds_between(t0, t2), sim_steps, totals.route_packets);
  put(rep.metrics, "sim.deflection_ratio",
      ratio(static_cast<double>(totals.route_packets - totals.advances),
            static_cast<double>(totals.route_packets)));
  std::sort(cell_s.begin(), cell_s.end());
  put(rep.metrics, "stats.cell_s_p50",
      (cell_s[cell_s.size() / 2 - 1] + cell_s[cell_s.size() / 2]) / 2.0);
  put(rep.metrics, "stats.cell_s_max", cell_s.back());
  put_count(rep.metrics, "stats.probe_windows", windows);
  put_count(rep.metrics, "stats.sim_steps", sim_steps);
  if (rep.traced) {
    LayerSnapshot after;
    after.policy = totals;
    put_layers(rep, LayerSnapshot{}, after, false, false, sim_steps,
               ns_between(t1, t2), 1);
    trace_totals(trace, totals);
  }

  put_count(rep.digest, "sim_steps", sim_steps);
  put_count(rep.digest, "probe_windows", windows);
  put_count(rep.digest, "hops", totals.route_packets);
  put_count(rep.digest, "advances", totals.advances);
  rep.digest.emplace_back("entries", object(entries));
  if (totals.route_packets == 0) rep.error = "the sweep routed no packets";
  return rep;
}

// --- main ------------------------------------------------------------------

struct Workload {
  const char* name;
  Rep (*run)(std::uint64_t seed, RepTrace& trace);
  int threads;  ///< engine threads the workload is defined with
};

std::vector<Workload> workloads() {
  return {{"mesh_perm", mesh_perm, 1},
          {"cube_saturated", cube_saturated, 1},
          {"mesh_scale_t4", mesh_scale_t4, 4},
          {"torus_steady", torus_steady, 1},
          {"sweep_grid", sweep_grid, 1}};
}

Rep run_rep(const Workload& w, std::uint64_t seed, bool traced,
            const std::string& trace_out) {
  RepTrace trace(traced);
  Rep rep;
  try {
    rep = w.run(seed, trace);
  } catch (const std::exception& e) {
    rep = Rep{};
    rep.traced = traced;
    rep.error = e.what();
  }
  if (traced && !trace_out.empty()) trace.write(trace_out);
  return rep;
}

std::string rep_json(const Rep& rep) {
  Fields f;
  f.emplace_back("traced", rep.traced ? "true" : "false");
  f.emplace_back("error", "\"" + hp::obs::json_escape(rep.error) + "\"");
  f.emplace_back("metrics", object(rep.metrics));
  f.emplace_back("digest", object(rep.digest));
  std::string run_ns = "[";
  for (std::size_t i = 0; i < rep.run_ns.size(); ++i) {
    if (i > 0) run_ns += ",";
    run_ns += std::to_string(rep.run_ns[i]);
  }
  f.emplace_back("run_ns", run_ns + "]");
  return object(f);
}

int usage(const std::string& message) {
  std::cerr << "hp_bench: " << message
            << "\nusage: hp_bench --workload NAME [--seed N] [--reps R] "
               "[--seconds S] [--traced T] [--trace-out PATH] "
               "[--no-warmup]\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

int bench_main(const std::vector<std::string>& args) {
  std::string name;
  std::uint64_t seed = 1;
  int reps = 3;
  double seconds = 0.0;
  int traced = 0;
  bool warmup = true;
  std::string trace_out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--no-warmup") {
      warmup = false;
      continue;
    }
    if (i + 1 >= args.size()) return usage("missing value for " + arg);
    const std::string& value = args[++i];
    if (arg == "--workload") {
      name = value;
    } else if (arg == "--seed") {
      seed = std::stoull(value);
    } else if (arg == "--reps") {
      reps = std::stoi(value);
    } else if (arg == "--seconds") {
      seconds = std::stod(value);
    } else if (arg == "--traced") {
      traced = std::stoi(value);
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return name == w.name;
  });
  if (it == all.end()) return usage("unknown workload '" + name + "'");
  if (reps < 1 || traced < 0) {
    return usage("--reps must be at least 1 and --traced at least 0");
  }

  // A fixed threshold keeps glibc from raising it after the first large
  // free: every rep then maps its large arrays afresh, as a single run
  // does, and returns them on exit. Set-up times and the peak RSS stop
  // depending on what earlier reps left in the heap.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  std::vector<Rep> done;
  if (warmup) run_rep(*it, seed, false, "");
  const Clock::time_point start = Clock::now();
  rusage usage_self{};
  double last_s = 0.0;
  while (static_cast<int>(done.size()) < reps ||
         seconds_between(start, Clock::now()) + last_s <= seconds) {
    const Clock::time_point r0 = Clock::now();
    done.push_back(run_rep(*it, seed, false, ""));
    last_s = seconds_between(r0, Clock::now());
    // Read after the first timed rep: later reps can only add heap
    // fragmentation, so a peak read after all of them would grow with the
    // rep count.
    if (done.size() == 1) getrusage(RUSAGE_SELF, &usage_self);
  }
  for (int i = 0; i < traced; ++i) {
    done.push_back(run_rep(*it, seed, true, trace_out));
  }

  const unsigned cores = std::thread::hardware_concurrency();
  Fields doc;
  doc.emplace_back("schema", "\"hp-bench-samples-v1\"");
  doc.emplace_back("workload", "\"" + name + "\"");
  put_count(doc, "seed", seed);
  put_count(doc, "threads",
            std::min<std::uint64_t>(static_cast<std::uint64_t>(it->threads),
                                    std::max(cores, 1u)));
  put_count(doc, "nproc", cores);
  doc.emplace_back("compiler",
                   "\"" + hp::obs::json_escape(HPB_COMPILER) + "\"");
  doc.emplace_back("build_type", "\"" HPB_BUILD_TYPE "\"");
  if (static_cast<unsigned>(it->threads) > cores) {
    doc.emplace_back("unmeasured", "\"needs 4 cores\"");
  }
  // ru_maxrss is in KiB on Linux.
  put(doc, "peak_rss_mb", static_cast<double>(usage_self.ru_maxrss) / 1024.0);
  std::string reps_json = "[";
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (i > 0) reps_json += ",\n";
    reps_json += rep_json(done[i]);
  }
  doc.emplace_back("reps", reps_json + "]");
  std::cout << object(doc) << "\n";
  return 0;
}

}  // namespace hpb

int main(int argc, char** argv) {
  try {
    return hpb::bench_main({argv + 1, argv + argc});
  } catch (const std::exception& e) {
    std::cerr << "hp_bench: " << e.what() << "\n";
    return 2;
  }
}
