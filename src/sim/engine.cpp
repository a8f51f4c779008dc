#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <limits>
#include <type_traits>

#include "obs/profiler.hpp"
#include "util/check.hpp"
#include "util/inline_vector.hpp"
#include "util/thread_annotations.hpp"

#ifdef HP_AUDIT
#include <optional>
#include <string>
#include <utility>

// The audit gate reaches one layer up into core/ for the definition
// checkers. Only the .cpp depends on it, and only under HP_AUDIT, so the
// sim -> core edge never leaks into the public headers.
#include "core/checkers.hpp"
#endif

namespace hp::sim {

#ifdef HP_AUDIT
namespace {

/// Wraps the Definition 6 / Definition 18 checkers behind the audit gate:
/// any recorded violation aborts the run via hp::CheckError, so every
/// engine-driving test doubles as a conformance test for the policy's
/// claims.
class DefinitionAudit final : public StepObserver {
 public:
  DefinitionAudit(std::string policy, bool greedy, bool preference)
      : policy_(std::move(policy)) {
    if (greedy) greedy_.emplace();
    if (preference) preference_.emplace();
  }

  void on_step(const Engine& engine, const StepRecord& record) override {
    if (greedy_.has_value()) {
      greedy_->on_step(engine, record);
      HP_CHECK(greedy_->violations().empty(),
               "HP_AUDIT: policy '" + policy_ +
                   "' claims greedy (Definition 6) but violated it: " +
                   greedy_->violations().front());
    }
    if (preference_.has_value()) {
      preference_->on_step(engine, record);
      HP_CHECK(preference_->violations().empty(),
               "HP_AUDIT: policy '" + policy_ +
                   "' claims restricted preference (Definition 18) but "
                   "violated it: " +
                   preference_->violations().front());
    }
  }

 private:
  std::string policy_;
  std::optional<core::GreedyChecker> greedy_;
  std::optional<core::RestrictedPreferenceChecker> preference_;
};

}  // namespace
#endif  // HP_AUDIT

namespace {

/// Seed of the policy's random stream at (engine seed, step, node). Each
/// node gets an independent stream, so routing decisions are a pure
/// function of the node's residents — independent of the order nodes are
/// processed in, which is what makes sharded routing bit-identical to
/// serial routing.
std::uint64_t node_stream_seed(std::uint64_t seed, std::uint64_t step,
                               net::NodeId node) {
  std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ULL * (step + 1));
  const std::uint64_t a = splitmix64(s);
  s ^= a + 0xbf58476d1ce4e5b9ULL *
               (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) +
                1);
  return splitmix64(s);
}

/// Occupancy-ownership shard count: a function of the node count ALONE.
/// The owner-grouped occupied_ ordering depends on this value, so it must
/// never vary with the thread count (or any other machine property) — one
/// shard per 256 nodes keeps small meshes on a single owner (first-seen
/// slot order) while giving large networks enough owners to scale.
std::size_t occupancy_shard_count(std::size_t num_nodes) {
  return std::clamp<std::size_t>(num_nodes / 256, 1, 32);
}

/// Slot count below which a parallel occupancy pass costs more than it
/// buys. Pure tuning: every task grouping produces the identical ordering.
constexpr std::size_t kParallelOccupancyCutoff = 1024;

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

Engine::Engine(const net::Network& net, const workload::Problem& problem,
               RoutingPolicy& policy, EngineConfig config)
    : net_(net),
      policy_(policy),
      config_(config),
      num_nodes_(net.num_nodes()),
      occ_stride_(static_cast<std::size_t>(net.num_dirs())),
      occ_ids_(num_nodes_ * occ_stride_),
      occ_count_(num_nodes_, 0) {
  HP_REQUIRE(config_.num_threads >= 1 && config_.num_threads <= 512,
             "num_threads must be in [1, 512]");
  archive_.set_keep_records(config_.archive_arrivals);

  occ_shards_ = occupancy_shard_count(num_nodes_);

  problem.validate(net);
  inject(problem);

  if (config_.profile) profiler_ = std::make_unique<obs::PhaseProfiler>();

#ifdef HP_AUDIT
  if (policy.claims_greedy() || policy.claims_restricted_preference()) {
    audit_ = std::make_unique<DefinitionAudit>(
        policy.name(), policy.claims_greedy(),
        policy.claims_restricted_preference());
    add_observer(audit_.get());
  }
#endif

  if (config_.num_threads > 1) start_pool();
}

Engine::~Engine() { stop_pool(); }

PacketId Engine::next_packet_id() const {
  HP_CHECK(next_id_ <= std::numeric_limits<std::uint32_t>::max(),
           "packet id space exhausted: a run can create at most 2^32 "
           "packets (the 2^32 id horizon, docs/SCALE.md)");
  return static_cast<PacketId>(next_id_);
}

void Engine::inject(const workload::Problem& problem) {
  for (const auto& spec : problem.packets) {
    Packet p;
    p.id = next_packet_id();
    ++next_id_;
    p.src = spec.src;
    p.dst = spec.dst;
    p.pos = spec.src;
    p.initial_distance = net_.distance(spec.src, spec.dst);
    if (p.pos == p.dst) {
      // Trivial packet: delivered at injection, never routed.
      p.arrived_at = 0;
      ++delivered_;
      flight_.note_absent(p.id);
      archive_.append(p);
    } else {
      flight_.insert(p);
    }
  }
}

void Engine::add_observer(StepObserver* observer) {
  HP_REQUIRE(observer != nullptr, "null observer");
  observers_.push_back(observer);
}

Packet Engine::packet(PacketId id) const {
  const FlightTable::Slot s = flight_.slot_of(id);
  if (s != FlightTable::kNoSlot) return flight_.materialize(s);
  for (const Packet& p : step_arrivals_) {
    if (p.id == id) return p;
  }
  const Packet* archived = archive_.find(id);
  HP_CHECK(archived != nullptr,
           "no record of packet " + std::to_string(id) +
               " (delivered and archive_arrivals is off?)");
  return *archived;
}

net::NodeId Engine::packet_dst(PacketId id) const {
  const FlightTable::Slot s = flight_.slot_of(id);
  if (s != FlightTable::kNoSlot) return flight_.dst(s);
  return packet(id).dst;
}

std::vector<Packet> Engine::snapshot_packets() const {
  HP_REQUIRE(config_.archive_arrivals,
             "snapshot_packets() needs archive_arrivals = true");
  std::vector<Packet> out(static_cast<std::size_t>(next_id_));
  for (const Packet& p : archive_.records()) {
    out[static_cast<std::size_t>(p.id)] = p;
  }
  for (FlightTable::Slot s = 0; s < flight_.end_slot(); ++s) {
    out[static_cast<std::size_t>(flight_.id(s))] = flight_.materialize(s);
  }
  return out;
}

EngineMemoryStats Engine::memory_stats() const {
  const auto vec_bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  EngineMemoryStats stats;
  stats.occupancy_bytes =
      vec_bytes(occ_ids_) + vec_bytes(occ_count_) + vec_bytes(occupied_);
  stats.flight_bytes = flight_.memory_bytes();
  stats.archive_bytes = archive_.memory_bytes();
  stats.scratch_bytes = vec_bytes(assignments_) + vec_bytes(step_arrivals_) +
                        vec_bytes(epoch_ns_) + vec_bytes(shards_);
  for (const ShardState& s : shards_) {
    stats.scratch_bytes += vec_bytes(s.route_buf) + vec_bytes(s.occ_nodes) +
                           vec_bytes(s.arrivals);
  }
  return stats;
}

// --- pool ------------------------------------------------------------------

void Engine::start_pool() {
  const auto threads = static_cast<std::size_t>(config_.num_threads);
  barrier_ = std::make_unique<util::PhaseBarrier>(
      static_cast<std::uint32_t>(threads - 1));
  workers_.reserve(threads - 1);
  for (std::size_t w = 0; w + 1 < threads; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Engine::stop_pool() {
  if (workers_.empty()) return;
  barrier_->shutdown();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void Engine::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const util::PhaseBarrier::Epoch e = barrier_->wait_open(seen);
    seen = e.serial;
    if (e.stop) return;
    drain_tasks();
    barrier_->leave();
  }
}

void Engine::drain_tasks() {
  const bool timed = profiler_ != nullptr;
  for (;;) {
    const std::uint32_t t = barrier_->next_task();
    if (t == util::PhaseBarrier::kNoTask) return;
    HP_SHARED_WRITE("barrier tickets give task t exactly one owner");
    ShardState& shard = shards_[t];
    try {
      if (timed) {
        const auto t0 = std::chrono::steady_clock::now();
        run_task(task_kind_, t);
        shard.ns = ns_since(t0);
      } else {
        run_task(task_kind_, t);
      }
    } catch (...) {
      // Workers must not unwind out of worker_loop; the main thread
      // rethrows the first error in task order after the epoch closes.
      shard.error = std::current_exception();
    }
  }
}

void Engine::run_sharded(TaskKind kind, std::size_t count, std::size_t items,
                         obs::Phase phase) {
  task_kind_ = kind;
  task_count_ = count;
  task_items_ = items;
  if (shards_.size() < count) shards_.resize(count);
  if (barrier_ == nullptr || count <= 1) {
    for (std::size_t t = 0; t < count; ++t) run_task(kind, t);
    return;
  }
  for (std::size_t t = 0; t < count; ++t) {
    shards_[t].error = nullptr;
    shards_[t].ns = 0;
  }
  barrier_->open(static_cast<std::uint32_t>(count),
                 static_cast<std::uint32_t>(kind));
  drain_tasks();  // the main thread is a full participant
  barrier_->close();
  for (std::size_t t = 0; t < count; ++t) {
    if (shards_[t].error) std::rethrow_exception(shards_[t].error);
  }
  if (profiler_ != nullptr) {
    epoch_ns_.resize(count);
    for (std::size_t t = 0; t < count; ++t) epoch_ns_[t] = shards_[t].ns;
    profiler_->add_shard_epoch(phase, epoch_ns_.data(), count);
  }
}

void Engine::run_task(TaskKind kind, std::size_t task) {
  const std::size_t begin = task_items_ * task / task_count_;
  const std::size_t end = task_items_ * (task + 1) / task_count_;
  switch (kind) {
    case TaskKind::kOccupy:
      occupy_owners(begin, end);
      break;
    case TaskKind::kRoute:
      route_range(begin, end, shards_[task].route_buf);
      break;
    case TaskKind::kMove:
      move_range(task, begin, end);
      break;
  }
}

std::size_t Engine::sub_tasks(std::size_t items, std::size_t grain) const {
  if (barrier_ == nullptr || items < 2 * grain) return 1;
  const auto threads = static_cast<std::size_t>(config_.num_threads);
  return std::min({items / grain, 4 * threads, std::size_t{128}});
}

// --- occupancy -------------------------------------------------------------

void Engine::occupy_owners(std::size_t first, std::size_t last) {
  for (std::size_t o = first; o < last; ++o) shards_[o].occ_nodes.clear();
  // Owners [first, last) hold one contiguous node range. The node is
  // rebuilt from its offset into that range, so a single unsigned compare
  // is both the ownership test and what derives every write index below
  // from this task's owners (scripts/analysis/phase_effects.py).
  const std::size_t lo = owner_first_node(first);
  const std::size_t span = owner_first_node(last) - lo;
  for (FlightTable::Slot s = 0; s < flight_.end_slot(); ++s) {
    const std::size_t offset = static_cast<std::size_t>(flight_.pos(s)) - lo;
    if (offset >= span) continue;
    const auto node = static_cast<net::NodeId>(lo + offset);
    if (occupy(node, flight_.id(s))) {
      shards_[owner_of(node)].occ_nodes.push_back(node);
    }
  }
}

bool Engine::occupy(net::NodeId node, PacketId id) {
  const auto n = static_cast<std::size_t>(node);
  std::uint8_t& count = occ_count_[n];
  HP_CHECK(count < occ_stride_,
           "occupancy row is full: more packets at a node than the network "
           "has directions — model violation");
  // Insertion sort: a row holds at most the node degree.
  PacketId* row = occ_ids_.data() + n * occ_stride_;
  std::size_t i = count++;
  row[i] = id;
  for (; i > 0 && row[i - 1] > row[i]; --i) std::swap(row[i - 1], row[i]);
  return count == 1;
}

void Engine::build_occupancy() {
  for (const net::NodeId node : occupied_) {
    occ_count_[static_cast<std::size_t>(node)] = 0;
  }
  occupied_.clear();
  if (shards_.size() < occ_shards_) shards_.resize(occ_shards_);
  // Each task takes a contiguous range of owners. Only this grouping
  // depends on the thread count; within one owner, first-seen slot order
  // is the same for every grouping.
  const std::size_t tasks =
      barrier_ == nullptr || flight_.size() < kParallelOccupancyCutoff
          ? 1
          : std::min(static_cast<std::size_t>(config_.num_threads),
                     occ_shards_);
  run_sharded(TaskKind::kOccupy, tasks, occ_shards_, obs::Phase::kOccupancy);
  for (std::size_t o = 0; o < occ_shards_; ++o) {
    occupied_.insert(occupied_.end(), shards_[o].occ_nodes.begin(),
                     shards_[o].occ_nodes.end());
  }
}

// --- injection -------------------------------------------------------------

void Engine::set_injector(Injector* injector) {
  HP_REQUIRE(injector != nullptr, "null injector");
  injector_ = injector;
}

bool Engine::try_inject(net::NodeId src, net::NodeId dst) {
  HP_CHECK(injecting_now_,
           "try_inject may only be called from an Injector during step()");
  const auto n = static_cast<net::NodeId>(net_.num_nodes());
  HP_REQUIRE(src >= 0 && src < n, "injection origin out of range");
  HP_REQUIRE(dst >= 0 && dst < n, "injection destination out of range");

  Packet p;
  p.id = next_packet_id();
  p.src = src;
  p.dst = dst;
  p.pos = src;
  p.injected_at = now_;
  p.initial_distance = net_.distance(src, dst);
  if (src == dst) {
    p.arrived_at = now_;
    ++next_id_;
    ++delivered_;
    flight_.note_absent(p.id);
    archive_.append(p);
    return true;
  }

  // Capacity rule: a node never holds more packets than its out-degree.
  const auto node = static_cast<std::size_t>(src);
  if (occ_count_[node] >= net_.degree(src)) return false;
  ++next_id_;
  if (occupy(src, p.id)) occupied_.push_back(src);
  flight_.insert(p);
  return true;
}

// --- routing ---------------------------------------------------------------

void Engine::route_node(net::NodeId node, std::span<const PacketId> residents,
                        std::vector<Assignment>& out) {
  // The node's out-arcs, derived once: capacity, the policy's view of the
  // node, and the arc-exists check on every assignment below.
  const std::uint32_t arcs = net_.arc_mask(node);
  HP_CHECK(static_cast<int>(residents.size()) <= std::popcount(arcs),
           "more packets at a node than its degree — model violation");

  Rng node_rng(node_stream_seed(config_.seed, now_, node));
  NodeContext ctx{net_, node, now_, arcs, node_rng};

  constexpr std::size_t kCap = 2 * net::kMaxDim;
  std::array<net::NodeId, kCap> at{};
  std::array<net::NodeId, kCap> dst{};
  std::array<std::uint32_t, kCap> masks{};
  InlineVector<PacketView, kCap> views;
  for (PacketId id : residents) {
    const FlightTable::Slot s = flight_.slot_of(id);
    PacketView v;
    v.id = id;
    v.dst = flight_.dst(s);
    v.entry_dir = flight_.entry_dir(s);
    v.prev_advanced = flight_.prev_advanced(s);
    v.prev_num_good = flight_.prev_num_good(s);
    at[views.size()] = node;
    dst[views.size()] = v.dst;
    views.push_back(v);
  }
  // Every resident's good directions from one policy call per node.
  policy_.batch_good_dirs(net_, at.data(), dst.data(), masks.data(),
                          views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    PacketView& v = views[i];
    v.good_mask = masks[i];
    HP_CHECK(v.good_mask != 0,
             "packet with no good direction was not absorbed — engine bug");
  }

  std::array<net::Dir, kCap> dirs;
  dirs.fill(net::kInvalidDir);
  HP_SHARED_WRITE("route() is concurrent-safe per the RoutingPolicy contract");
  policy_.route(ctx, std::span<const PacketView>(views.data(), views.size()),
                std::span<net::Dir>(dirs.data(), views.size()));

  // Validate the assignment: every packet got an existing arc and no arc
  // is used twice (one packet per directed link per step).
  std::uint32_t used_mask = 0;
  for (std::size_t i = 0; i < residents.size(); ++i) {
    const net::Dir d = dirs[i];
    HP_CHECK(d >= 0 && d < net_.num_dirs(),
             "policy '" + policy_.name() + "' returned an invalid direction");
    const std::uint32_t bit = std::uint32_t{1} << d;
    HP_CHECK((arcs & bit) != 0,
             "policy '" + policy_.name() + "' routed a packet off the mesh");
    HP_CHECK((used_mask & bit) == 0,
             "policy '" + policy_.name() + "' put two packets on one arc");
    used_mask |= bit;

    out.push_back(Assignment{
        residents[i], node, views[i].good_mask, d, views[i].prev_advanced,
        static_cast<std::int8_t>(views[i].prev_num_good)});
  }
}

void Engine::route_range(std::size_t begin, std::size_t end,
                         std::vector<Assignment>& out) {
  for (std::size_t i = begin; i < end; ++i) {
    const net::NodeId node = occupied_[i];
    const auto n = static_cast<std::size_t>(node);
    route_node(node, {&occ_ids_[n * occ_stride_], occ_count_[n]}, out);
  }
}

void Engine::route_all() {
  const std::size_t m = occupied_.size();
  const std::size_t tasks = sub_tasks(m, 64);
  if (tasks <= 1) {
    // Inline routing: sharding only buys wall-clock, never changes
    // results (per-task buffers concatenate to the serial sequence), so
    // the cutover point is a pure tuning knob.
    route_range(0, m, assignments_);
    return;
  }
  if (shards_.size() < tasks) shards_.resize(tasks);
  for (std::size_t t = 0; t < tasks; ++t) shards_[t].route_buf.clear();
  run_sharded(TaskKind::kRoute, tasks, m, obs::Phase::kRoute);
  for (std::size_t t = 0; t < tasks; ++t) {
    assignments_.insert(assignments_.end(), shards_[t].route_buf.begin(),
                        shards_[t].route_buf.end());
  }
}

// --- apply -----------------------------------------------------------------

void Engine::move_range(std::size_t task, std::size_t begin,
                        std::size_t end) {
  // Every assignment addresses a distinct packet (the engine validates one
  // arc per packet per node), so concurrent tasks write disjoint flight
  // slots. Removal mutates the slot layout and therefore stays serial, in
  // assignment order, back in apply_assignments().
  ShardState& shard = shards_[task];
  shard.arrivals.clear();
  shard.advances = 0;
  shard.deflections = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const Assignment a = assignments_[i];
    const FlightTable::Slot s = flight_.slot_of(a.pkt);
    HP_CHECK(s != FlightTable::kNoSlot,
             "assignment for a packet that is not in flight");
    const net::NodeId to = net_.neighbor(a.node, a.out);
    HP_CHECK(to != net::kInvalidNode, "movement off the network");
    const bool advances = a.advances();
    flight_.move(s, to, a.out, advances, a.num_good());
    if (advances) {
      ++shard.advances;
    } else {
      ++shard.deflections;
    }
    if (to == flight_.dst(s)) shard.arrivals.push_back(a.pkt);
  }
}

void Engine::apply_assignments() {
  const std::size_t count = assignments_.size();
  const std::size_t tasks = std::max<std::size_t>(sub_tasks(count, 2048), 1);
  run_sharded(TaskKind::kMove, tasks, count, obs::Phase::kApply);
  // Serial epilogue: totals, then arrival removal. Concatenating per-task
  // arrival lists in task order reproduces assignment order exactly, so
  // the swap-remove sequence — and with it every future slot layout — is
  // identical to a serial apply.
  for (std::size_t t = 0; t < tasks; ++t) {
    total_advances_ += shards_[t].advances;
    total_deflections_ += shards_[t].deflections;
    for (const PacketId pkt : shards_[t].arrivals) {
      const FlightTable::Slot s = flight_.slot_of(pkt);
      Packet record = flight_.remove(s, now_ + 1);
      last_arrival_ = now_ + 1;
      ++delivered_;
      step_arrivals_.push_back(record);
    }
  }
  for (const Packet& p : step_arrivals_) archive_.append(p);
}

// --- step ------------------------------------------------------------------

bool Engine::step() {
  if ((flight_.empty() && injector_ == nullptr) || livelocked_) return false;

  assignments_.clear();
  step_arrivals_.clear();
  {
    obs::PhaseScope scope(profiler_.get(), obs::Phase::kOccupancy);
    build_occupancy();
  }
  if (injector_ != nullptr) {
    obs::PhaseScope scope(profiler_.get(), obs::Phase::kInject);
    injecting_now_ = true;
    injector_->inject(*this, now_);
    injecting_now_ = false;
  }

  {
    obs::PhaseScope scope(profiler_.get(), obs::Phase::kRoute);
    route_all();
  }
  {
    obs::PhaseScope scope(profiler_.get(), obs::Phase::kApply);
    apply_assignments();
  }

  ++now_;

  StepRecord record;
  record.step = now_ - 1;
  record.assignments = assignments_;
  record.arrivals = step_arrivals_;
  record.in_flight_after = flight_.size();
  {
    obs::PhaseScope scope(profiler_.get(), obs::Phase::kObserve);
    for (StepObserver* obs : observers_) {
      obs->on_step(*this, record);
    }
  }
  if (profiler_ != nullptr) profiler_->note_step();

  if (config_.detect_livelock && policy_.deterministic() &&
      injector_ == nullptr && !flight_.empty()) {
    const auto repeat = livelock_.record(digest_state(flight_), now_);
    if (repeat != LivelockDetector::kNoRepeat) livelocked_ = true;
  }
  return true;
}

RunResult Engine::make_result() {
  RunResult result;
  result.completed = flight_.empty();
  result.livelocked = livelocked_;
  result.steps = result.completed ? last_arrival_ : now_;
  result.steps_executed = now_;
  result.total_deflections = total_deflections_;
  result.total_advances = total_advances_;
  result.num_packets = num_packets();
  if (config_.archive_arrivals) result.packets = snapshot_packets();
  return result;
}

RunResult Engine::run() {
  HP_REQUIRE(injector_ == nullptr,
             "run() is for batch problems; use run_for() with an injector");
  while (!flight_.empty() && !livelocked_ && now_ < config_.max_steps) {
    step();
  }
  return make_result();
}

RunResult Engine::run_for(std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) {
    if (!step()) break;
  }
  return make_result();
}

}  // namespace hp::sim
