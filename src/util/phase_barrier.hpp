// Lock-free epoch barrier + ticket dispatcher for the engine's phase
// pipeline.
//
// The pre-rework engine coordinated its worker pool with a mutex/condvar
// epoch handshake: every sharded phase paid two lock acquisitions plus a
// condvar broadcast on the main thread and one lock round-trip per worker.
// BENCH_engine.json showed that handshake (plus routing-only sharding)
// costing more than the parallelism bought — t4 ran *slower* than t1 at
// n = 256. This barrier replaces it with three cache-line-isolated atomics:
//
//   epoch_    (serial << 1) | stop — bumped by the main thread to publish a
//             parallel phase; workers spin briefly, then futex-wait
//             (std::atomic::wait) so an idle pool burns no CPU.
//   tickets_  work-stealing cursor. Tasks are *fixed deterministic shards*
//             (their boundaries never depend on the thread count); the
//             ticket only decides which thread executes which shard, which
//             is invisible in the output because every shard writes its own
//             buffer and the main thread concatenates in shard order.
//   active_   workers still inside the epoch. The last leave() wakes the
//             main thread; close() returning is the moment every shard
//             write is visible (release fetch_sub → acquire load).
//
// Roles: exactly one main thread calls open()/next_task()/close()/
// shutdown(); every worker loops wait_open() → next_task()* → leave().
// open()/close() must strictly alternate — the pairing is enforced
// statically by modelling the open epoch as a capability (HP_ACQUIRE/
// HP_RELEASE below), the compile-time counterpart of the TSan stress test
// in tests/phase_barrier_test.cpp.
//
// The barrier is a template over a `Sync` policy so the identical protocol
// code runs against either real atomics (RealSync, the production alias
// below) or the hp::model shim (tests/model/model_sync.hpp), whose
// cooperative scheduler explores thread interleavings exhaustively. The
// capability analysis cannot see atomics themselves, so the happens-before
// argument in the comments above each member is checked three ways:
// dynamically under -fsanitize=thread in CI, structurally by the
// phase-effects analyzer, and exhaustively (every schedule up to a
// preemption bound) by the model checker in tests/model/
// (docs/STATIC_ANALYSIS.md, layer 8).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "util/thread_annotations.hpp"

namespace hp::util {

/// Destructive-interference granularity used to keep each shard's hot state
/// (and each barrier atomic) on its own cache line. A constant rather than
/// std::hardware_destructive_interference_size: the engine's committed
/// artifacts must not depend on the build machine.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Pause hint for spin loops; falls back to yielding the timeslice where no
/// cheap hint exists (also the right move on single-core hosts).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Production synchronization policy: plain std::atomic, a real pause hint,
/// and a spin window sized for epochs that arrive back-to-back inside one
/// engine step. The model checker substitutes hp::model::ModelSync, whose
/// every operation is a scheduler decision point (tests/model/model_sync.hpp).
struct RealSync {
  template <class T>
  using Atomic = std::atomic<T>;

  /// Spin iterations before parking. Small on purpose: when a sibling
  /// phase is imminent the epoch flips within a few hundred cycles, and
  /// when it is not (engine in a serial phase, or oversubscribed on few
  /// cores) parking promptly is strictly better than burning the core.
  static constexpr int kSpinLimit = 1 << 10;

  static void relax() { cpu_relax(); }
};

/// RealSync with an empty spin window: every waiting path parks in
/// atomic::wait immediately. Used by tests that must deterministically
/// exercise the futex parking path (shutdown-while-parked) with real
/// threads instead of relying on a sleep to outlast the spin window.
struct ParkEagerSync {
  template <class T>
  using Atomic = std::atomic<T>;
  static constexpr int kSpinLimit = 0;
  static void relax() { cpu_relax(); }
};

template <class Sync>
class HP_CAPABILITY("barrier") BasicPhaseBarrier {
 public:
  template <class T>
  using Atomic = typename Sync::template Atomic<T>;

  /// Sentinel returned by next_task() once the epoch's tasks are exhausted.
  static constexpr std::uint32_t kNoTask = ~std::uint32_t{0};

  /// What a worker learns from wait_open(): which epoch it is in, the
  /// phase tag the main thread published, and whether to shut down.
  struct Epoch {
    std::uint64_t serial = 0;
    std::uint32_t tag = 0;
    bool stop = false;
  };

  explicit BasicPhaseBarrier(std::uint32_t num_workers)
      : workers_(num_workers) {}

  BasicPhaseBarrier(const BasicPhaseBarrier&) = delete;
  BasicPhaseBarrier& operator=(const BasicPhaseBarrier&) = delete;

  // --- main-thread side ----------------------------------------------------

  /// Publishes a new epoch of `num_tasks` tickets tagged `tag` and wakes
  /// every worker. The relaxed stores below are ordered by the release
  /// bump of epoch_: a worker that acquire-loads the new serial sees them.
  void open(std::uint32_t num_tasks, std::uint32_t tag) HP_ACQUIRE() {
    num_tasks_.store(num_tasks, std::memory_order_relaxed);
    tag_.store(tag, std::memory_order_relaxed);
    tickets_.store(0, std::memory_order_relaxed);
    // hp-lint: allow(atomic-store-no-notify) nobody can be parked on
    // active_ here: close() is the only waiter, it runs on this same
    // thread after open(), and the previous close() already saw zero.
    active_.store(workers_, std::memory_order_relaxed);
    epoch_.fetch_add(2, std::memory_order_release);
    epoch_.notify_all();
  }

  /// Blocks until every worker has left the current epoch. Reading
  /// active_ == 0 with acquire synchronizes with each worker's release
  /// fetch_sub (they form one release sequence), so every task's writes
  /// are visible once this returns.
  void close() HP_RELEASE() {
    std::uint32_t live = active_.load(std::memory_order_acquire);
    int spins = 0;
    while (live != 0) {
      if (++spins <= Sync::kSpinLimit) {
        Sync::relax();
      } else {
        active_.wait(live, std::memory_order_acquire);
        spins = 0;
      }
      live = active_.load(std::memory_order_acquire);
    }
  }

  /// Publishes a final epoch whose stop bit makes every wait_open() return
  /// Epoch::stop — the pool's shutdown broadcast.
  void shutdown() {
    epoch_.fetch_add(2 | 1, std::memory_order_release);
    epoch_.notify_all();
  }

  // --- shared (main participates in its own epochs) ------------------------

  /// Claims the next unclaimed task of the epoch, or kNoTask when drained.
  /// fetch_add gives every ticket exactly one owner, so a task's shard
  /// state needs no further synchronization until close().
  std::uint32_t next_task() {
    const std::uint32_t t = tickets_.fetch_add(1, std::memory_order_relaxed);
    return t < num_tasks_.load(std::memory_order_relaxed) ? t : kNoTask;
  }

  // --- worker side ----------------------------------------------------------

  /// Blocks until an epoch newer than `seen_serial` is published. Spins
  /// with a pause hint first (epochs arrive back-to-back inside one engine
  /// step), then parks on the futex so an idle pool costs nothing.
  Epoch wait_open(std::uint64_t seen_serial) const {
    std::uint64_t raw = epoch_.load(std::memory_order_acquire);
    int spins = 0;
    while ((raw >> 1) == seen_serial) {
      if (++spins <= Sync::kSpinLimit) {
        Sync::relax();
      } else {
        epoch_.wait(raw, std::memory_order_acquire);
        spins = 0;
      }
      raw = epoch_.load(std::memory_order_acquire);
    }
    Epoch e;
    e.serial = raw >> 1;
    e.stop = (raw & 1) != 0;
    e.tag = tag_.load(std::memory_order_relaxed);
    return e;
  }

  /// Announces that this worker is done with the epoch (its tickets are
  /// drained). Release: every write the worker made on behalf of its tasks
  /// happens-before the main thread's close().
  void leave() {
    if (active_.fetch_sub(1, std::memory_order_release) == 1) {
      active_.notify_one();
    }
  }

 private:
  const std::uint32_t workers_;
  alignas(kCacheLineBytes) Atomic<std::uint64_t> epoch_{0};
  alignas(kCacheLineBytes) Atomic<std::uint32_t> tickets_{0};
  alignas(kCacheLineBytes) Atomic<std::uint32_t> active_{0};
  Atomic<std::uint32_t> num_tasks_{0};
  Atomic<std::uint32_t> tag_{0};
};

/// The engine's barrier: the protocol above over real atomics.
using PhaseBarrier = BasicPhaseBarrier<RealSync>;

}  // namespace hp::util
