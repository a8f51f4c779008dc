// Model-checking shim for the engine's lock-free synchronization.
//
// hp::model supplies drop-in substitutes for the std::atomic subset the
// phase pipeline uses (load/store/fetch_add/fetch_sub/wait/notify) plus a
// race-detecting plain cell (model::var). Every operation is a *yield
// point* of a cooperative scheduler: exactly one logical thread runs at a
// time, and at each yield point a decision callback — the model checker in
// model_checker.hpp, or a replayer — picks which thread runs next.
// Running the identical protocol source (BasicPhaseBarrier<ModelSync>)
// under every schedule the checker enumerates turns the happens-before
// comments in phase_barrier.hpp into machine-checked facts.
//
// What the shim tracks per operation:
//   - vector clocks: a release store copies the writer's clock into the
//     object, a relaxed store clears it (it breaks the release sequence),
//     read-modify-writes join (they continue the sequence), and acquire
//     loads join the object clock into the reader. model::var reads and
//     writes are checked against those clocks, so a missing release or
//     acquire shows up as a data race even though the cooperative
//     execution itself is sequentially consistent.
//   - wake sets: wait() parks the thread in the object's waiter list
//     (after atomically re-checking the value, like the futex it models);
//     notify_one picks a victim — a scheduler decision like any other —
//     and notify_all wakes the whole set. No spurious wakeups: a schedule
//     in which nobody wakes a parked thread ends in a detected deadlock,
//     which is exactly the lost-wakeup class of bug.
//   - state hashes: object values plus each thread's (op count, observed
//     value history) feed the checker's pruning table.
//
// The scheduler itself uses ordinary mutex/condvar handoff between pooled
// OS threads; only one is ever runnable, so shim state needs no atomics of
// its own. Pool threads persist across executions — an execution costs a
// few condvar handoffs, not thread creation.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace hp::model {

inline constexpr std::uint32_t kMaxThreads = 8;
inline constexpr std::uint32_t kNoObj = ~std::uint32_t{0};
inline constexpr std::uint32_t kNoThread = ~std::uint32_t{0};

/// Vector clock over logical thread ids.
using VClock = std::array<std::uint32_t, kMaxThreads>;

inline void clock_join(VClock& into, const VClock& from) {
  for (std::uint32_t i = 0; i < kMaxThreads; ++i) {
    if (from[i] > into[i]) {
      into[i] = from[i];
    }
  }
}

inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL);
  return hp::splitmix64(s);
}

/// What a thread is about to do at a yield point. `writes` covers anything
/// that can affect another thread (stores, RMWs, notifies): two pending
/// operations conflict when they touch the same object and either writes.
enum class OpKind : std::uint8_t {
  kStart,      // thread not yet run
  kLoad,       // atomic load
  kStore,      // atomic store
  kRmw,        // fetch_add / fetch_sub
  kWaitCheck,  // atomic wait: value check, parks if unchanged
  kWake,       // returning from a wait after being notified
  kNotify,     // notify_one / notify_all
  kYield,      // Sync::relax() or explicit yield
  kFinish,     // body returned
};

struct PendingOp {
  OpKind kind = OpKind::kStart;
  std::uint32_t obj = kNoObj;
  bool writes = false;
};

inline bool ops_conflict(const PendingOp& a, const PendingOp& b) {
  return a.obj != kNoObj && a.obj == b.obj && (a.writes || b.writes);
}

struct Candidate {
  std::uint32_t actor = 0;   // thread id (or waiter id for victim choices)
  bool preempt = false;      // switching here consumes preemption budget
  PendingOp op;              // the actor's pending operation
};

/// A scheduler decision: which runnable thread proceeds (kThread) or which
/// waiter a notify_one wakes (kVictim). Candidates exclude sleeping
/// threads; `state_hash` summarizes shared + per-thread state for pruning.
struct ChoicePoint {
  enum class Kind : std::uint8_t { kThread, kVictim };
  Kind kind = Kind::kThread;
  std::uint64_t state_hash = 0;
  std::vector<Candidate> candidates;
};

/// The decision callback's answer. `add_sleep` is a thread-id bitmask the
/// scheduler folds into its sleep set before executing the choice — the
/// checker uses it to re-arm sleep sets when replaying a backtracked
/// prefix (already-explored siblings sleep through the new branch).
struct Decision {
  std::uint32_t index = 0;
  std::uint64_t add_sleep = 0;
};

using DecisionFn = std::function<Decision(const ChoicePoint&)>;

struct Violation {
  std::string kind;     // "deadlock", "data-race", "assert", ...
  std::string message;
};

/// Thrown through shim calls to unwind a logical thread when the execution
/// aborts (violation found, subtree pruned, or op budget exhausted).
struct AbortExecution {};

class Scheduler;

/// The running scheduler, set for the duration of Scheduler::run_execution
/// so shim objects constructed by the setup callback can register.
inline Scheduler* g_scheduler = nullptr;

/// Base of every shim object: registration id, release clock, and a value
/// hash for state fingerprints.
class ObjBase {
 public:
  ObjBase();
  ObjBase(const ObjBase&) = delete;
  ObjBase& operator=(const ObjBase&) = delete;
  virtual ~ObjBase() = default;

  virtual std::uint64_t value_hash() const = 0;

  std::uint32_t obj_id() const { return id_; }
  VClock& release_clock() { return rel_clock_; }
  const VClock& release_clock() const { return rel_clock_; }

 private:
  std::uint32_t id_ = kNoObj;
  VClock rel_clock_{};
};

class Scheduler {
 public:
  struct Outcome {
    bool violated = false;
    bool pruned = false;
    Violation violation;
    std::uint64_t ops = 0;
    std::vector<std::string> events;  // only when record_events(true)
  };

  explicit Scheduler(DecisionFn chooser) : chooser_(std::move(chooser)) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  ~Scheduler() {
    std::unique_lock<std::mutex> lk(mu_);
    shutdown_ = true;
    cv_.notify_all();
    lk.unlock();
    for (Pooled& p : pool_) {
      if (p.os_thread.joinable()) {
        p.os_thread.join();
      }
    }
  }

  void set_max_ops(std::uint64_t cap) { max_ops_ = cap; }
  void record_events(bool on) { record_events_ = on; }

  /// Registers a logical thread body. Only valid inside the setup callback
  /// of run_execution (spawn order defines thread ids).
  void spawn(std::function<void()> body) {
    if (bodies_.size() >= kMaxThreads) {
      fail("config", "spawned more than kMaxThreads threads");
    }
    bodies_.push_back(std::move(body));
  }

  /// Runs one execution: `setup` constructs the shared state and spawns
  /// the logical threads; the scheduler then drives them to completion
  /// under the decision callback.
  Outcome run_execution(const std::function<void()>& setup) {
    begin_execution();
    g_scheduler = this;
    setup();  // registers objects + bodies; runs on the driver "thread"
    start_threads();
    wait_all_finished();
    g_scheduler = nullptr;
    Outcome out;
    out.violated = violated_;
    out.pruned = pruned_;
    out.violation = violation_;
    out.ops = ops_;
    out.events = std::move(events_);
    bodies_.clear();  // frees the user state captured by the lambdas
    objects_.clear();
    waiters_.clear();
    return out;
  }

  // --- shim entry points (called by atomic<T> / var<T>, turn held) --------

  std::uint32_t register_object(ObjBase* obj) {
    const std::uint32_t id = static_cast<std::uint32_t>(objects_.size());
    objects_.push_back(obj);
    waiters_.emplace_back();
    return id;
  }

  /// Announce the next operation and hand the decision to the checker; on
  /// return the calling thread owns the turn again and performs the op.
  void op_point(const PendingOp& op) {
    std::unique_lock<std::mutex> lk(mu_);
    throw_if_aborting();
    const std::uint32_t self = current_;
    Thread& th = threads_[self];
    th.pending = op;
    th.state = St::kRunnable;
    if (!choose_next_locked(self)) {
      wait_for_turn(lk, self);
    }
    th.state = St::kRunning;
    account_op_locked();
  }

  /// Parks the current thread in `obj`'s wait set (the value re-check has
  /// already happened under the turn). Returns once a notify wakes it.
  void park_on(std::uint32_t obj) {
    std::unique_lock<std::mutex> lk(mu_);
    throw_if_aborting();
    const std::uint32_t self = current_;
    Thread& th = threads_[self];
    th.state = St::kBlocked;
    th.pending = PendingOp{OpKind::kWake, obj, false};
    waiters_[obj].push_back(self);
    log_event(self, "park", obj, 0);
    (void)choose_next_locked(self);  // self is blocked: always a handoff
    wait_for_turn(lk, self);
    th.state = St::kRunning;
    account_op_locked();
  }

  /// Executes a notify under the turn: wakes all waiters, or — when
  /// `all` is false and several threads are parked — asks the checker to
  /// pick the victim (an explored decision like any schedule choice).
  void do_notify(std::uint32_t obj, bool all) {
    std::unique_lock<std::mutex> lk(mu_);
    std::vector<std::uint32_t>& ws = waiters_[obj];
    if (ws.empty()) {
      return;
    }
    if (all || ws.size() == 1) {
      for (std::uint32_t w : ws) {
        wake(w);
      }
      ws.clear();
      return;
    }
    ChoicePoint cp;
    cp.kind = ChoicePoint::Kind::kVictim;
    cp.state_hash = state_hash_locked();
    for (std::uint32_t w : ws) {
      cp.candidates.push_back(Candidate{w, false, threads_[w].pending});
    }
    const Decision d = chooser_(cp);
    if (d.index >= ws.size()) {
      fail_locked("config", "victim decision index out of range");
    }
    const std::uint32_t victim = ws[d.index];
    ws.erase(ws.begin() + static_cast<std::ptrdiff_t>(d.index));
    wake(victim);
  }

  /// Records a property violation and aborts the execution (throws).
  [[noreturn]] void fail(const std::string& kind, const std::string& msg) {
    std::unique_lock<std::mutex> lk(mu_);
    fail_locked(kind, msg);
  }

  // --- clock / race machinery (turn held, no lock needed) -----------------

  VClock& thread_clock() { return threads_[current_].clock; }

  std::uint32_t current() const { return current_; }

  /// Bumps the current thread's own clock component (after a release).
  void advance_clock() {
    VClock& c = threads_[current_].clock;
    c[current_] += 1;
  }

  void observe_value(std::uint64_t v) {
    Thread& th = threads_[current_];
    th.obs_hash = hash_mix(th.obs_hash, v);
  }

  void log_op(const char* what, std::uint32_t obj, std::uint64_t v) {
    if (record_events_) {
      std::unique_lock<std::mutex> lk(mu_);
      log_event(current_, what, obj, v);
    }
  }

  bool in_setup() const { return !started_; }

 private:
  enum class St : std::uint8_t {
    kIdle,      // pool slot with no body this execution
    kRunnable,  // parked at a yield point, has a pending op
    kRunning,   // owns the turn
    kBlocked,   // in some object's wait set
    kFinished,  // body returned (or unwound by abort)
  };

  struct Thread {
    St state = St::kIdle;
    PendingOp pending;
    VClock clock{};
    std::uint64_t ops = 0;
    std::uint64_t obs_hash = 0;
  };

  struct Pooled {
    std::thread os_thread;
  };

  void begin_execution() {
    // Pool threads from the previous execution are parked in cv_.wait;
    // lock so their (possibly spurious) predicate evaluations never see a
    // half-reset state.
    std::unique_lock<std::mutex> lk(mu_);
    bodies_.clear();
    objects_.clear();
    waiters_.clear();
    events_.clear();
    violated_ = false;
    pruned_ = false;
    aborting_ = false;
    started_ = false;
    violation_ = Violation{};
    ops_ = 0;
    sleep_ = 0;
    current_ = kNoThread;
    for (Thread& t : threads_) {
      t = Thread{};
      t.clock = VClock{};
    }
  }

  void start_threads() {
    std::unique_lock<std::mutex> lk(mu_);
    started_ = true;
    live_ = static_cast<std::uint32_t>(bodies_.size());
    ensure_pool(live_);
    for (std::uint32_t i = 0; i < live_; ++i) {
      Thread& t = threads_[i];
      t.state = St::kRunnable;
      t.pending = PendingOp{OpKind::kStart, kNoObj, false};
      t.clock[i] = 1;
    }
    if (live_ == 0) {
      return;
    }
    try {
      // The initial handoff is a decision point like any other.
      (void)choose_next_locked(kNoThread);
    } catch (const AbortExecution&) {
      // Pruned/violated before anything ran; threads unwind via aborting_.
    }
    // Persistent pool threads sit inside cv_.wait between executions; a
    // fresh thread checks the predicate on entry, a reused one must be
    // woken here or every party deadlocks on execution two.
    cv_.notify_all();
  }

  void wait_all_finished() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return finished_ == live_; });
    finished_ = 0;
    live_ = 0;
  }

  void ensure_pool(std::uint32_t n) {
    while (pool_.size() < n) {
      const std::uint32_t tid = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
      pool_.back().os_thread = std::thread([this, tid] { pool_main(tid); });
    }
  }

  void pool_main(std::uint32_t tid) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] {
        return shutdown_ ||
               (threads_[tid].state == St::kRunnable &&
                (current_ == tid || aborting_));
      });
      if (shutdown_) {
        return;
      }
      if (aborting_) {
        // Execution aborted before this thread's body ever ran.
        finish_thread(tid, false);
        continue;
      }
      threads_[tid].state = St::kRunning;
      std::function<void()> body = bodies_[tid];
      lk.unlock();
      bool clean = true;
      try {
        body();
      } catch (const AbortExecution&) {
        clean = false;
      } catch (...) {
        lk.lock();
        if (!aborting_) {
          record_violation("exception",
                           "uncaught exception escaped a model thread body");
          aborting_ = true;
        }
        cv_.notify_all();
        clean = false;
        lk.unlock();
      }
      lk.lock();
      finish_thread(tid, clean);
    }
  }

  /// PRE: mu_ held. Marks `tid` finished; if the execution continues, the
  /// turn is handed to the next choice (a finishing thread is exactly the
  /// deadlock-detection point: it may leave only parked threads behind).
  void finish_thread(std::uint32_t tid, bool clean) {
    Thread& th = threads_[tid];
    th.state = St::kFinished;
    th.pending = PendingOp{OpKind::kFinish, kNoObj, false};
    finished_ += 1;
    if (finished_ == live_) {
      cv_.notify_all();  // wake the driver
      return;
    }
    if (clean && !aborting_) {
      try {
        (void)choose_next_locked(kNoThread);
      } catch (const AbortExecution&) {
        // Deadlock or prune recorded; survivors unwind via aborting_.
      }
    }
    cv_.notify_all();
  }

  /// PRE: mu_ held. Blocks `self` until it owns the turn again (or the
  /// execution aborts, in which case this throws to unwind the body).
  void wait_for_turn(std::unique_lock<std::mutex>& lk, std::uint32_t self) {
    cv_.notify_all();
    cv_.wait(lk, [&] {
      return aborting_ ||
             (current_ == self && threads_[self].state == St::kRunnable);
    });
    throw_if_aborting();
  }

  /// PRE: mu_ held. Builds the candidate set (runnable threads minus the
  /// sleep set), asks the checker, and publishes the chosen thread as
  /// current_. Returns true when `self` keeps the turn (no switch).
  /// `self == kNoThread` means the caller does not rejoin (driver start /
  /// finished thread). Throws AbortExecution on deadlock or prune.
  bool choose_next_locked(std::uint32_t self) {
    std::vector<Candidate> cands;
    const bool self_enabled =
        self != kNoThread && threads_[self].state == St::kRunnable;
    if (self_enabled && (sleep_ & (1ULL << self)) == 0) {
      cands.push_back(Candidate{self, false, threads_[self].pending});
    }
    std::uint32_t enabled = self_enabled ? 1 : 0;
    for (std::uint32_t i = 0; i < live_; ++i) {
      if (i == self || threads_[i].state != St::kRunnable) {
        continue;
      }
      enabled += 1;
      if ((sleep_ & (1ULL << i)) == 0) {
        cands.push_back(Candidate{i, self_enabled, threads_[i].pending});
      }
    }
    if (enabled == 0) {
      // Nothing can run. If threads are parked, no schedule can wake them:
      // a lost wakeup. (All-finished never reaches here; see finish_thread.)
      std::string who;
      for (std::uint32_t i = 0; i < live_; ++i) {
        if (threads_[i].state == St::kBlocked) {
          who += (who.empty() ? "t" : ",t") + std::to_string(i);
        }
      }
      record_violation("deadlock",
                       "threads {" + who +
                           "} are parked in wait() and every other thread "
                           "has finished: lost wakeup");
      abort_all();
    }
    if (cands.empty()) {
      // Enabled threads exist but all sleep: this branch was fully covered
      // when its siblings were explored. Silent prune.
      pruned_ = true;
      abort_all();
    }
    std::uint32_t target;
    if (cands.size() == 1) {
      target = cands[0].actor;  // no branching: not a recorded decision
    } else {
      ChoicePoint cp;
      cp.kind = ChoicePoint::Kind::kThread;
      cp.state_hash = state_hash_locked();
      cp.candidates = std::move(cands);
      const Decision d = chooser_(cp);
      if (d.index >= cp.candidates.size()) {
        pruned_ = true;  // checker asked to cut this execution
        abort_all();
      }
      sleep_ |= d.add_sleep;
      target = cp.candidates[d.index].actor;
    }
    // The chosen op executes next: wake sleepers that conflict with it.
    unsleep_conflicts(threads_[target].pending);
    if (target == self) {
      return true;  // continue without a context switch — the common case
    }
    current_ = target;
    return false;
  }

  void unsleep_conflicts(const PendingOp& op) {
    if (sleep_ == 0) {
      return;
    }
    for (std::uint32_t i = 0; i < live_; ++i) {
      if ((sleep_ & (1ULL << i)) != 0 &&
          ops_conflict(threads_[i].pending, op)) {
        sleep_ &= ~(1ULL << i);
      }
    }
  }

  void wake(std::uint32_t tid) {
    threads_[tid].state = St::kRunnable;
    log_event(current_, "wake", kNoObj, tid);
  }

  /// PRE: mu_ held; current thread owns the turn.
  void account_op_locked() {
    Thread& th = threads_[current_];
    th.ops += 1;
    ops_ += 1;
    if (ops_ > max_ops_) {
      fail_locked("op-budget",
                  "execution exceeded max_ops (livelock or runaway spin)");
    }
  }

  void throw_if_aborting() {
    if (aborting_) {
      throw AbortExecution{};
    }
  }

  [[noreturn]] void fail_locked(const std::string& kind,
                                const std::string& msg) {
    record_violation(kind, msg);
    abort_all();
  }

  void record_violation(const std::string& kind, const std::string& msg) {
    if (!violated_) {
      violated_ = true;
      violation_ = Violation{kind, msg};
    }
  }

  [[noreturn]] void abort_all() {
    aborting_ = true;
    cv_.notify_all();
    throw AbortExecution{};
  }

  std::uint64_t state_hash_locked() const {
    std::uint64_t h = 0;
    for (const ObjBase* o : objects_) {
      h = hash_mix(h, o->value_hash());
    }
    for (std::uint32_t i = 0; i < live_; ++i) {
      const Thread& t = threads_[i];
      h = hash_mix(h, static_cast<std::uint64_t>(t.state));
      h = hash_mix(h, static_cast<std::uint64_t>(t.pending.kind));
      h = hash_mix(h, t.pending.obj);
      h = hash_mix(h, t.ops);
      h = hash_mix(h, t.obs_hash);
    }
    return h;
  }

  void log_event(std::uint32_t tid, const char* what, std::uint32_t obj,
                 std::uint64_t v) {
    if (!record_events_ || events_.size() >= kMaxEvents) {
      return;
    }
    std::string line = "t" + std::to_string(tid) + " " + what;
    if (obj != kNoObj) {
      line += " obj#" + std::to_string(obj);
    }
    line += " = " + std::to_string(v);
    events_.push_back(std::move(line));
  }

  static constexpr std::size_t kMaxEvents = 4096;

  DecisionFn chooser_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pooled> pool_;
  std::vector<std::function<void()>> bodies_;
  std::vector<ObjBase*> objects_;
  std::vector<std::vector<std::uint32_t>> waiters_;
  std::array<Thread, kMaxThreads> threads_{};
  std::vector<std::string> events_;
  Violation violation_;
  std::uint64_t sleep_ = 0;  // bitmask of sleeping thread ids
  std::uint64_t ops_ = 0;
  std::uint64_t max_ops_ = 1ULL << 16;
  std::uint32_t current_ = kNoThread;
  std::uint32_t live_ = 0;
  std::uint32_t finished_ = 0;
  bool started_ = false;
  bool violated_ = false;
  bool pruned_ = false;
  bool aborting_ = false;
  bool shutdown_ = false;
  bool record_events_ = false;
};

inline ObjBase::ObjBase() {
  id_ = g_scheduler->register_object(this);
}

/// Registers a logical thread with the running scheduler (setup phase).
inline void spawn(std::function<void()> body) {
  g_scheduler->spawn(std::move(body));
}

/// Property assertion for harness bodies: a failure aborts the execution
/// and surfaces as a replayable violation.
inline void model_assert(bool ok, const char* msg) {
  if (!ok) {
    g_scheduler->fail("assert", msg);
  }
}

namespace detail {

inline bool is_release(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

inline bool is_acquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

}  // namespace detail

/// Modeled std::atomic<T> (integral T). Every member is a scheduler yield
/// point; release/acquire edges maintain the vector clocks that drive
/// model::var race detection.
template <class T>
class atomic : public ObjBase {
 public:
  atomic() = default;
  explicit atomic(T v) : value_(v) {}

  T load(std::memory_order mo) const {
    Scheduler& s = *g_scheduler;
    s.op_point(PendingOp{OpKind::kLoad, obj_id(), false});
    if (detail::is_acquire(mo)) {
      clock_join(s.thread_clock(), release_clock());
    }
    s.observe_value(static_cast<std::uint64_t>(value_));
    s.log_op("load", obj_id(), static_cast<std::uint64_t>(value_));
    return value_;
  }

  void store(T v, std::memory_order mo) {
    Scheduler& s = *g_scheduler;
    s.op_point(PendingOp{OpKind::kStore, obj_id(), true});
    value_ = v;
    if (detail::is_release(mo)) {
      release_clock() = s.thread_clock();
      s.advance_clock();
    } else {
      release_clock() = VClock{};  // a relaxed store breaks the sequence
    }
    s.log_op("store", obj_id(), static_cast<std::uint64_t>(v));
  }

  T fetch_add(T d, std::memory_order mo) { return rmw(d, mo, true); }
  T fetch_sub(T d, std::memory_order mo) { return rmw(d, mo, false); }

  /// Atomic check-then-park, like the futex this models: the value test
  /// and the parking happen without any other thread running in between.
  /// Returns on notify (no spurious wakeups — a schedule where no notify
  /// arrives must deadlock, which is the checker's lost-wakeup property).
  void wait(T old, std::memory_order mo) const {
    Scheduler& s = *g_scheduler;
    s.op_point(PendingOp{OpKind::kWaitCheck, obj_id(), false});
    if (value_ != old) {
      if (detail::is_acquire(mo)) {
        clock_join(s.thread_clock(), release_clock());
      }
      s.observe_value(static_cast<std::uint64_t>(value_));
      return;
    }
    s.park_on(obj_id());
    if (detail::is_acquire(mo)) {
      clock_join(s.thread_clock(), release_clock());
    }
    s.observe_value(static_cast<std::uint64_t>(value_));
  }

  void notify_one() {
    Scheduler& s = *g_scheduler;
    s.op_point(PendingOp{OpKind::kNotify, obj_id(), true});
    s.log_op("notify_one", obj_id(), static_cast<std::uint64_t>(value_));
    s.do_notify(obj_id(), false);
  }

  void notify_all() {
    Scheduler& s = *g_scheduler;
    s.op_point(PendingOp{OpKind::kNotify, obj_id(), true});
    s.log_op("notify_all", obj_id(), static_cast<std::uint64_t>(value_));
    s.do_notify(obj_id(), true);
  }

  std::uint64_t value_hash() const override {
    return static_cast<std::uint64_t>(value_);
  }

 private:
  T rmw(T d, std::memory_order mo, bool add) {
    Scheduler& s = *g_scheduler;
    s.op_point(PendingOp{OpKind::kRmw, obj_id(), true});
    const T old = value_;
    value_ = add ? static_cast<T>(value_ + d) : static_cast<T>(value_ - d);
    if (detail::is_acquire(mo)) {
      clock_join(s.thread_clock(), release_clock());
    }
    if (detail::is_release(mo)) {
      // Join, not overwrite: an RMW continues the release sequence.
      clock_join(release_clock(), s.thread_clock());
      s.advance_clock();
    }
    s.observe_value(static_cast<std::uint64_t>(old));
    s.log_op(add ? "fetch_add" : "fetch_sub", obj_id(),
             static_cast<std::uint64_t>(value_));
    return old;
  }

  T value_{};
};

/// Race-detected plain memory cell. Reads and writes are not yield points
/// (loom-style: schedules branch only at synchronization operations), but
/// each access is checked against the vector clocks: a read must happen
/// after the last write, a write after every prior access. A broken
/// release/acquire chain in the protocol under test therefore surfaces as
/// a "data-race" violation even though the cooperative interleaving is
/// sequentially consistent.
template <class T>
class var : public ObjBase {
 public:
  var() = default;
  explicit var(T v) : value_(v) {}

  T read() const {
    Scheduler& s = *g_scheduler;
    if (!s.in_setup()) {
      const std::uint32_t me = s.current();
      const VClock& c = s.thread_clock();
      if (write_at_ != 0 && c[writer_] < write_at_) {
        s.fail("data-race", race_msg("read", "write", writer_));
      }
      read_at_[me] = c[me];
      s.observe_value(static_cast<std::uint64_t>(value_));
    }
    return value_;
  }

  void write(T v) {
    Scheduler& s = *g_scheduler;
    if (!s.in_setup()) {
      const std::uint32_t me = s.current();
      VClock& c = s.thread_clock();
      if (write_at_ != 0 && c[writer_] < write_at_) {
        s.fail("data-race", race_msg("write", "write", writer_));
      }
      for (std::uint32_t i = 0; i < kMaxThreads; ++i) {
        if (read_at_[i] != 0 && c[i] < read_at_[i]) {
          s.fail("data-race", race_msg("write", "read", i));
        }
      }
      writer_ = me;
      c[me] += 1;
      write_at_ = c[me];
      read_at_ = VClock{};
      s.log_op("var-write", obj_id(), static_cast<std::uint64_t>(v));
    }
    value_ = v;
  }

  std::uint64_t value_hash() const override {
    return static_cast<std::uint64_t>(value_);
  }

 private:
  std::string race_msg(const char* mine, const char* theirs,
                       std::uint32_t who) const {
    return std::string(mine) + " of obj#" + std::to_string(obj_id()) +
           " races with a " + theirs + " by t" + std::to_string(who) +
           " (no happens-before edge)";
  }

  T value_{};
  std::uint32_t writer_ = 0;
  std::uint32_t write_at_ = 0;  // writer_'s clock at the last write
  mutable VClock read_at_{};    // per-thread clock at its last read
};

/// Synchronization policy plugging the shim into BasicPhaseBarrier. The
/// zero spin window makes every waiting path park immediately: spinning
/// under a cooperative scheduler only lengthens schedules without adding
/// behaviors, and parking is the path the lost-wakeup property targets.
struct ModelSync {
  template <class T>
  using Atomic = ::hp::model::atomic<T>;

  static constexpr int kSpinLimit = 0;

  static void relax() {
    g_scheduler->op_point(PendingOp{OpKind::kYield, kNoObj, false});
  }
};

}  // namespace hp::model
