// The synchronous hot-potato simulation engine (Section 2 model).
//
// Each step, every node that holds packets: (1) receives the packets sent
// to it in the previous step, (2) runs the routing policy's local
// computation, (3) assigns all of them distinct outgoing arcs. The engine
// enforces the model rather than trusting the policy:
//   * at most one packet traverses any directed arc per step,
//   * every in-flight packet moves every step (no buffering),
//   * packets are absorbed exactly when they reach their destination.
// Violations throw hp::CheckError.
//
// Architecture (the "flight table" core):
//   * In-flight packets live in a dense struct-of-arrays FlightTable;
//     delivered packets move to an append-only ArrivalLog archive. Every
//     per-step loop walks the flight table only, so step cost is
//     O(in-flight) — independent of how many packets have ever existed,
//     which is what continuous-injection (steady-state) runs require.
//   * step() is a deterministic phase pipeline over a persistent worker
//     pool (util::PhaseBarrier): occupancy scan/bucket, routing, and the
//     movement half of apply run as sharded epochs, while injection,
//     arrival removal and observation stay serial. Routing a node first
//     computes its residents' good-direction masks with one
//     RoutingPolicy::batch_good_dirs call. Every partition boundary that
//     can reach the output is a pure function of problem state —
//     occupancy ownership is keyed by node id over a shard count fixed at
//     construction, and every other fan-out concatenates per-task buffers
//     in task order, which reproduces the serial sequence exactly.
//     Work-stealing (barrier tickets) decides only *which thread* executes
//     a task, never what the task produces, so runs are bit-for-bit
//     identical for every EngineConfig::num_threads, including 1.
//     DESIGN.md §5 has the full argument.
//   * Observers receive per-step spans (see observer.hpp): no per-step
//     copies, no references to the delivered-packet archive.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "sim/flight_table.hpp"
#include "sim/injection.hpp"
#include "sim/livelock.hpp"
#include "sim/observer.hpp"
#include "sim/packet.hpp"
#include "sim/policy.hpp"
#include "topology/network.hpp"
#include "util/inline_vector.hpp"
#include "util/phase_barrier.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace hp::obs {
class PhaseProfiler;
enum class Phase : int;
}  // namespace hp::obs

namespace hp::sim {

/// Capacity-based accounting of the engine's heap footprint, grouped by
/// subsystem. Scratch capacities depend on the thread count (per-task
/// buffers), so totals are reporting data — never part of a deterministic
/// artifact.
struct EngineMemoryStats {
  /// Per-node topology state. Always 0: the engine derives every node's
  /// arcs from the Network's closed forms (Network::arc_mask) on demand.
  std::size_t topology_bytes = 0;
  std::size_t occupancy_bytes = 0;  ///< per-node buckets, stamps, occupied
  std::size_t flight_bytes = 0;     ///< FlightTable columns + locator
  std::size_t archive_bytes = 0;    ///< ArrivalLog in-memory side
  std::size_t scratch_bytes = 0;    ///< assignments, shard buffers
  std::size_t total() const {
    return topology_bytes + occupancy_bytes + flight_bytes + archive_bytes +
           scratch_bytes;
  }
};

struct EngineConfig {
  /// Hard step cap for run(); exceeded ⇒ result.completed = false.
  std::uint64_t max_steps = 10'000'000;
  /// Seed of the per-(step, node) random streams handed to the policy.
  std::uint64_t seed = 1;
  /// Detect repeated configurations. Only treated as a livelock *proof*
  /// when the policy reports deterministic().
  bool detect_livelock = true;
  /// Total threads driving the phase pipeline (the calling thread
  /// participates; num_threads - 1 workers are spawned). 1 = fully serial.
  /// Results are bit-for-bit identical for every value; threads only buy
  /// wall-clock. Requires RoutingPolicy::route() to be safe to call
  /// concurrently for distinct nodes (true for every stateless policy in
  /// this repo).
  int num_threads = 1;
  /// Keep full per-packet records of delivered packets (RunResult.packets,
  /// Engine::archive()). Turn off for unbounded steady-state runs, where
  /// the archive would grow without limit; observers still see every
  /// arrival record via StepRecord::arrivals.
  bool archive_arrivals = true;
  /// Storage mode of the arrival archive when archive_arrivals is on:
  /// unbounded in-memory (default), spill-to-disk, or a fixed-capacity
  /// reservoir sample. See ArchiveConfig (flight_table.hpp).
  ArchiveConfig archive;
  /// Wall-clock phase profiling (obs::PhaseProfiler): per-step timings of
  /// the inject/occupancy/route/apply/observe phases plus per-shard
  /// times of every sharded epoch. Off by default; when off the engine
  /// holds no profiler and each phase bracket costs one null test.
  bool profile = false;
};

/// Outcome of a complete run.
struct RunResult {
  bool completed = false;   ///< all packets delivered
  bool livelocked = false;  ///< proven configuration cycle (deterministic)
  /// Step count of the run: the step by which the last packet arrived when
  /// `completed`, otherwise the number of steps executed. 0 when nothing
  /// was ever delivered.
  std::uint64_t steps = 0;
  std::uint64_t steps_executed = 0;
  std::uint64_t total_deflections = 0;
  std::uint64_t total_advances = 0;
  std::size_t num_packets = 0;
  /// Final per-packet records in id order, materialized once from the
  /// archive + flight table (no per-run O(k) copies of live engine state).
  /// Empty when EngineConfig::archive_arrivals is false.
  std::vector<Packet> packets;
};

class Engine {
 public:
  /// Injects the problem at t = 0 after validating the origin constraint.
  /// `net` and `policy` must outlive the engine.
  Engine(const net::Network& net, const workload::Problem& problem,
         RoutingPolicy& policy, EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes one synchronous step. Returns false (and does nothing) when
  /// no packets remain in flight and no injector is installed.
  bool step();

  /// Runs until completion, livelock, or the step cap.
  RunResult run();

  /// Runs exactly `steps` synchronous steps — the entry point for
  /// continuous-injection (steady-state) experiments, where "completion"
  /// never happens by design. RunResult::steps follows the documented
  /// rule: last arrival step when the run drained, steps executed
  /// otherwise.
  RunResult run_for(std::uint64_t steps);

  /// Installs a continuous-injection source, invoked at the start of every
  /// step. Disables livelock detection (the configuration space is no
  /// longer closed). The injector must outlive the engine.
  void set_injector(Injector* injector);

  /// Attempts to place a new packet at `src` bound for `dst` at the
  /// current step. Fails (returning false) when `src` already holds as
  /// many packets as its out-degree — the hot-potato capacity rule. Only
  /// callable from an Injector during step(). A packet with src == dst is
  /// admitted and delivered immediately.
  bool try_inject(net::NodeId src, net::NodeId dst);

  /// Packets delivered so far (including trivial src == dst ones).
  std::uint64_t delivered() const { return delivered_; }

  /// Observers are invoked after each step, in registration order.
  /// The pointer must remain valid for the engine's lifetime.
  void add_observer(StepObserver* observer);

  const net::Network& network() const { return net_; }

  /// Dense store of the in-flight packets (slot order is unspecified and
  /// changes as packets arrive).
  const FlightTable& flight() const { return flight_; }

  /// Records of delivered packets, in arrival order. Empty when
  /// EngineConfig::archive_arrivals is false. Only the in-memory archive
  /// mode keeps the full set here; see arrival_log() for spill/sample.
  std::span<const Packet> archive() const { return archive_.records(); }

  /// The arrival archive itself — drain()/dropped()/count() for the
  /// spill and sample modes.
  const ArrivalLog& arrival_log() const { return archive_; }

  /// Total packets ever created (batch + injected, including trivial).
  std::size_t num_packets() const { return static_cast<std::size_t>(next_id_); }

  /// Record of one packet by id: in flight, arrived this step, or
  /// archived. Throws CheckError for ids whose record was dropped
  /// (archive_arrivals == false and not delivered this step).
  Packet packet(PacketId id) const;

  /// Destination of packet `id` without materializing the whole record.
  net::NodeId packet_dst(PacketId id) const;

  /// Full per-packet snapshot in id order (archive + in-flight). Requires
  /// archive_arrivals; O(num_packets), intended for end-of-run digestion.
  std::vector<Packet> snapshot_packets() const;

  std::uint64_t now() const { return now_; }
  std::size_t in_flight() const { return flight_.size(); }
  bool livelocked() const { return livelocked_; }
  /// Step at which the last arrival so far happened (0 if none yet).
  std::uint64_t last_arrival_step() const { return last_arrival_; }

  /// Ids of the packets currently at `node`, ascending.
  std::vector<PacketId> packets_at(net::NodeId node) const;

  /// Occupancy-ownership shards (fixed at construction from the node
  /// count, never from the thread count — part of the determinism
  /// contract; see DESIGN.md §5).
  std::size_t occupancy_shards() const { return occ_shards_; }

  /// Phase profiler, present iff EngineConfig::profile. Wall-clock data:
  /// report-only, never part of a deterministic artifact unless the
  /// caller explicitly attaches it as a trace sink.
  obs::PhaseProfiler* profiler() { return profiler_.get(); }
  const obs::PhaseProfiler* profiler() const { return profiler_.get(); }

  /// Capacity-based heap accounting by subsystem (docs/SCALE.md). The
  /// scale bench series reports total()/num_nodes as bytes/node.
  EngineMemoryStats memory_stats() const;

  const EngineConfig& config() const { return config_; }

 private:
  /// Checkpoint save/restore and the state fingerprint (checkpoint.cpp)
  /// serialize private counters and scratch-free state directly.
  friend class CheckpointIO;
  /// Residents of one node in one step; bounded by the node degree. The
  /// cache-line alignment keeps buckets of adjacent nodes — filled by
  /// different owner shards at an ownership boundary — off shared lines.
  using Bucket =
      InlineVector<PacketId, 2 * net::kMaxDim, util::kCacheLineBytes>;

  /// What one barrier epoch computes. Kinds and task *boundaries* are
  /// chosen by the main thread before the epoch opens; tickets only pick
  /// the executing thread.
  enum class TaskKind : std::uint32_t {
    kScan = 0,   ///< partition flight slots into per-owner scatter rows
    kBucket,     ///< merge scatter columns into one owner's node buckets
    kRoute,      ///< route a contiguous range of occupied nodes
    kMove,       ///< apply movement for a contiguous assignment range
  };

  /// Everything one task writes, on its own cache line(s). A task owns
  /// exactly one ShardState between the epoch's open and close; the
  /// barrier's release/acquire edges publish it back to the main thread.
  struct alignas(util::kCacheLineBytes) ShardState {
    std::vector<Assignment> route_buf;    ///< kRoute output
    std::vector<net::NodeId> occ_nodes;   ///< kBucket output, first-seen order
    std::vector<PacketId> arrivals;       ///< kMove: packets that arrived
    std::uint64_t advances = 0;           ///< kMove counters
    std::uint64_t deflections = 0;
    std::uint64_t ns = 0;                 ///< task wall time (profiling only)
    std::exception_ptr error;             ///< rethrown by the main thread
  };

  void inject(const workload::Problem& problem);
  void build_occupancy();
  void route_all();
  void route_range(std::size_t begin, std::size_t end,
                   std::vector<Assignment>& out);
  void route_node(net::NodeId node, const Bucket& residents,
                  std::vector<Assignment>& out);
  void apply_assignments();
  RunResult make_result();

  // Phase-pipeline plumbing (pool only spun up when num_threads > 1).
  void start_pool();
  void stop_pool();
  void worker_loop();
  /// Runs tasks 0..count-1 of `kind` over `items` elements: inline when
  /// serial, as one barrier epoch otherwise. Rethrows the first task
  /// error (in task order) and feeds per-task times to the profiler.
  void run_sharded(TaskKind kind, std::size_t count, std::size_t items,
                   obs::Phase phase);
  /// Claims and executes tickets of the current epoch until none remain.
  void drain_tasks();
  void run_task(TaskKind kind, std::size_t task);
  void scan_slots(std::size_t task, std::size_t begin, std::size_t end);
  void bucket_owner(std::size_t owner);
  void move_range(std::size_t task, std::size_t begin, std::size_t end);

  /// Owner shard of a node: contiguous node-id ranges over occ_shards_.
  std::size_t owner_of(net::NodeId node) const {
    return static_cast<std::size_t>(node) * occ_shards_ / num_nodes_;
  }
  /// Task count for an output-invariant fan-out (routing, movement):
  /// enough tasks for the tickets to balance, never so many that per-task
  /// overhead dominates. The count can depend on the thread count because
  /// these concatenations are partition-invariant.
  std::size_t sub_tasks(std::size_t items, std::size_t grain) const;

  const net::Network& net_;
  RoutingPolicy& policy_;
  EngineConfig config_;
  std::size_t num_nodes_ = 0;

  FlightTable flight_;
  ArrivalLog archive_;
  std::uint64_t next_id_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t now_ = 0;
  Injector* injector_ = nullptr;
  bool injecting_now_ = false;  // try_inject only legal inside step()
  std::uint64_t last_arrival_ = 0;
  std::uint64_t total_deflections_ = 0;
  std::uint64_t total_advances_ = 0;
  bool livelocked_ = false;

  // Per-step scratch, kept as members to avoid reallocation.
  std::vector<Bucket> occupancy_;      // node -> resident packets, id order
  std::vector<net::NodeId> occupied_;  // nodes with residents, owner-grouped
  std::vector<std::uint64_t> node_stamp_;  // occupancy freshness
  std::vector<Assignment> assignments_;
  std::vector<Packet> step_arrivals_;  // this step's arrival records

  // Deterministic occupancy partition: fixed at construction, a function
  // of the node count alone. With occ_shards_ == 1 the owner-grouped
  // occupied_ order is plain first-seen slot order.
  std::size_t occ_shards_ = 1;

  // Epoch state. task_kind_/task_count_/task_items_ are written by the
  // main thread before PhaseBarrier::open and read by workers after its
  // acquire edge; each ShardState and scatter_ row/column pair is owned by
  // exactly one task per epoch (see phase_barrier.hpp for the
  // happens-before argument, and tests/phase_barrier_test.cpp + the TSan
  // CI job for the dynamic check).
  TaskKind task_kind_ = TaskKind::kScan;
  std::size_t task_count_ = 0;
  std::size_t task_items_ = 0;
  std::vector<ShardState> shards_;
  /// scatter_[r * occ_shards_ + o]: (node, id) pairs of owner o found by
  /// scan task r; written by task r, read by bucket task o next epoch.
  std::vector<std::vector<std::pair<net::NodeId, PacketId>>> scatter_;
  std::vector<std::uint64_t> epoch_ns_;  // profiler hand-off scratch

  std::unique_ptr<util::PhaseBarrier> barrier_;
  std::vector<std::thread> workers_;

  LivelockDetector livelock_;
  /// Present iff config_.profile (see EngineConfig::profile).
  std::unique_ptr<obs::PhaseProfiler> profiler_;
  /// HP_AUDIT builds: engine-owned checker that re-verifies the policy's
  /// Definition 6 / Definition 18 claims every step (null otherwise).
  std::unique_ptr<StepObserver> audit_;
  std::vector<StepObserver*> observers_;
};

}  // namespace hp::sim
