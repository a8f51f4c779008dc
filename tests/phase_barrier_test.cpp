// Stress tests for util::PhaseBarrier — the lock-free epoch barrier under
// the engine's phase pipeline.
//
// The barrier's correctness claims are exactly what the engine leans on:
//   * every task of an epoch is executed exactly once (ticket uniqueness),
//   * close() returns only after every worker left, with every task's
//     writes visible (the release/acquire publication edge),
//   * back-to-back epochs never bleed into each other (epoch serials),
//   * the stop bit reaches every worker (shutdown broadcast).
// The test drives the same wait_open / next_task / leave protocol as
// Engine::worker_loop, over thousands of epochs with randomized task
// counts, and runs under TSan in CI (thread-sanitize job) so the memory
// ordering is checked dynamically, not just argued in comments.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/phase_barrier.hpp"
#include "util/rng.hpp"

namespace hp::util {
namespace {

constexpr std::size_t kMaxTasks = 97;  // deliberately not a power of two

/// A worker pool mirroring Engine's: each worker loops
/// wait_open → drain tickets → leave, bumping a per-task execution counter
/// and an unsynchronized per-task payload cell (TSan would flag the payload
/// if the barrier's publication edges were wrong).
class StressPool {
 public:
  explicit StressPool(std::uint32_t workers) : barrier_(workers) {
    for (std::uint32_t w = 0; w < workers; ++w) {
      threads_.emplace_back([this] { worker(); });
    }
  }

  ~StressPool() {
    barrier_.shutdown();
    for (std::thread& t : threads_) t.join();
  }

  /// Runs one epoch of `tasks` tickets with the main thread participating,
  /// exactly like Engine::run_sharded.
  void run_epoch(std::uint32_t tasks) {
    for (std::uint32_t t = 0; t < tasks; ++t) {
      executed_[t].store(0, std::memory_order_relaxed);
      payload_[t] = 0;
    }
    barrier_.open(tasks, /*tag=*/epoch_tag_++);
    drain();
    barrier_.close();
  }

  /// Post-close verification: exactly-once execution and visible payloads.
  void verify(std::uint32_t tasks) const {
    for (std::uint32_t t = 0; t < tasks; ++t) {
      ASSERT_EQ(executed_[t].load(std::memory_order_relaxed), 1u)
          << "task " << t << " of " << tasks;
      ASSERT_EQ(payload_[t], payload_value(t)) << "task " << t;
    }
  }

  PhaseBarrier& barrier() { return barrier_; }

 private:
  static std::uint64_t payload_value(std::uint32_t task) {
    return 0x9e3779b97f4a7c15ULL * (task + 1);
  }

  void drain() {
    for (;;) {
      const std::uint32_t t = barrier_.next_task();
      if (t == PhaseBarrier::kNoTask) return;
      executed_[t].fetch_add(1, std::memory_order_relaxed);
      payload_[t] = payload_value(t);  // plain write: barrier must publish
    }
  }

  void worker() {
    std::uint64_t seen = 0;
    for (;;) {
      const PhaseBarrier::Epoch e = barrier_.wait_open(seen);
      seen = e.serial;
      if (e.stop) return;
      drain();
      barrier_.leave();
    }
  }

  PhaseBarrier barrier_;
  std::uint32_t epoch_tag_ = 0;
  std::atomic<std::uint32_t> executed_[kMaxTasks] = {};
  std::uint64_t payload_[kMaxTasks] = {};
  std::vector<std::thread> threads_;
};

TEST(PhaseBarrier, ManyEpochsRandomTaskCountsExactlyOnce) {
  // Thousands of back-to-back epochs with random widths, including widths
  // below, equal to, and far above the worker count — the shapes the
  // engine produces across its occupancy/goodmask/route/move fan-outs.
  StressPool pool(3);
  Rng rng(1234);
  for (int epoch = 0; epoch < 2000; ++epoch) {
    const auto tasks = static_cast<std::uint32_t>(1 + rng.uniform(kMaxTasks));
    pool.run_epoch(tasks);
    pool.verify(tasks);
  }
}

TEST(PhaseBarrier, ZeroWorkersDegeneratesToSerial) {
  // num_threads == 1 in the engine: the main thread is the only
  // participant and close() must return immediately (active_ never rises).
  StressPool pool(0);
  for (int epoch = 0; epoch < 100; ++epoch) {
    pool.run_epoch(static_cast<std::uint32_t>(epoch % kMaxTasks) + 1);
    pool.verify(static_cast<std::uint32_t>(epoch % kMaxTasks) + 1);
  }
}

TEST(PhaseBarrier, EpochTagsReachWorkers) {
  PhaseBarrier barrier(1);
  std::vector<std::uint32_t> seen_tags;
  std::thread worker([&] {
    std::uint64_t seen = 0;
    for (;;) {
      const PhaseBarrier::Epoch e = barrier.wait_open(seen);
      seen = e.serial;
      if (e.stop) return;
      seen_tags.push_back(e.tag);  // published back by close()'s acquire
      while (barrier.next_task() != PhaseBarrier::kNoTask) {
      }
      barrier.leave();
    }
  });
  const std::uint32_t tags[] = {7, 42, 1u << 20};
  for (const std::uint32_t tag : tags) {
    barrier.open(/*num_tasks=*/1, tag);
    while (barrier.next_task() != PhaseBarrier::kNoTask) {
    }
    barrier.close();
  }
  barrier.shutdown();
  worker.join();
  ASSERT_EQ(seen_tags.size(), 3u);
  EXPECT_EQ(seen_tags[0], 7u);
  EXPECT_EQ(seen_tags[1], 42u);
  EXPECT_EQ(seen_tags[2], 1u << 20);
}

TEST(PhaseBarrier, ShutdownStopsEveryWorkerPromptly) {
  // Workers parked in wait_open (no epoch ever opened) must all observe
  // the stop bit — the pool teardown path.
  PhaseBarrier barrier(4);
  std::atomic<int> stopped{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&] {
      const PhaseBarrier::Epoch e = barrier.wait_open(0);
      if (e.stop) stopped.fetch_add(1, std::memory_order_relaxed);
    });
  }
  barrier.shutdown();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(stopped.load(std::memory_order_relaxed), 4);
}

TEST(PhaseBarrier, ShutdownWakesWorkersParkedInAtomicWait) {
  // Regression for the lost-wakeup class the model checker proves absent
  // (tests/model/): shutdown() arriving while workers are parked inside
  // epoch_.wait() must wake every one of them. RealSync's long spin window
  // means the plain shutdown test above almost never reaches the futex
  // path; ParkEagerSync (spin limit zero, real std::atomic) parks on the
  // first check, so under TSan in CI this drives the actual
  // store-then-notify handoff, not the spin loop.
  using EagerBarrier = BasicPhaseBarrier<ParkEagerSync>;
  for (int round = 0; round < 64; ++round) {
    EagerBarrier barrier(4);
    std::atomic<int> stopped{0};
    std::atomic<int> parked{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w) {
      threads.emplace_back([&] {
        parked.fetch_add(1, std::memory_order_relaxed);
        const EagerBarrier::Epoch e = barrier.wait_open(0);
        if (e.stop) stopped.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Give the workers a chance to actually reach the parked state so the
    // shutdown exercises notify-after-park, not check-before-park.
    while (parked.load(std::memory_order_relaxed) < 4) {
      std::this_thread::yield();
    }
    barrier.shutdown();
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(stopped.load(std::memory_order_relaxed), 4) << "round " << round;
  }
}

TEST(PhaseBarrier, CloseParksUntilLastWorkerLeaves) {
  // The other parking path: with a zero spin window the main thread parks
  // in active_.wait() inside close() whenever workers still hold the
  // epoch; the last leave()'s fetch_sub+notify must wake it. Runs whole
  // epochs through ParkEagerSync to keep that wakeup under TSan coverage.
  using EagerBarrier = BasicPhaseBarrier<ParkEagerSync>;
  EagerBarrier barrier(3);
  std::atomic<std::uint32_t> executed[kMaxTasks] = {};
  auto drain = [&] {
    for (;;) {
      const std::uint32_t t = barrier.next_task();
      if (t == EagerBarrier::kNoTask) return;
      executed[t].fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&] {
      std::uint64_t seen = 0;
      for (;;) {
        const EagerBarrier::Epoch e = barrier.wait_open(seen);
        seen = e.serial;
        if (e.stop) return;
        drain();
        barrier.leave();
      }
    });
  }
  for (int epoch = 0; epoch < 500; ++epoch) {
    const auto tasks = static_cast<std::uint32_t>(epoch % kMaxTasks) + 1;
    for (std::uint32_t t = 0; t < tasks; ++t) {
      executed[t].store(0, std::memory_order_relaxed);
    }
    barrier.open(tasks, static_cast<std::uint32_t>(epoch));
    drain();
    barrier.close();
    for (std::uint32_t t = 0; t < tasks; ++t) {
      ASSERT_EQ(executed[t].load(std::memory_order_relaxed), 1u)
          << "task " << t << " epoch " << epoch;
    }
  }
  barrier.shutdown();
  for (std::thread& t : threads) t.join();
}

TEST(PhaseBarrier, ExceptionsPropagateViaPerTaskCapture) {
  // The engine's error contract: a task that throws captures its exception
  // into its shard slot; the main thread rethrows the first error in task
  // order after close(). Exercise the pattern through the barrier itself.
  constexpr std::uint32_t kTasks = 61;
  PhaseBarrier barrier(2);
  std::exception_ptr errors[kTasks];

  auto drain = [&] {
    for (;;) {
      const std::uint32_t t = barrier.next_task();
      if (t == PhaseBarrier::kNoTask) return;
      try {
        if (t % 10 == 3) {
          throw std::runtime_error("task " + std::to_string(t) + " failed");
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&] {
      std::uint64_t seen = 0;
      for (;;) {
        const PhaseBarrier::Epoch e = barrier.wait_open(seen);
        seen = e.serial;
        if (e.stop) return;
        drain();
        barrier.leave();
      }
    });
  }

  for (std::uint32_t t = 0; t < kTasks; ++t) errors[t] = nullptr;
  barrier.open(kTasks, /*tag=*/0);
  drain();
  barrier.close();

  // First failing task in task order is 3, regardless of which thread ran
  // it — same selection rule as Engine::run_sharded.
  std::string message;
  for (std::uint32_t t = 0; t < kTasks; ++t) {
    if (errors[t] != nullptr) {
      try {
        std::rethrow_exception(errors[t]);
      } catch (const std::runtime_error& e) {
        message = e.what();
      }
      break;
    }
  }
  EXPECT_EQ(message, "task 3 failed");
  int failing = 0;
  for (std::uint32_t t = 0; t < kTasks; ++t) {
    if (errors[t] != nullptr) ++failing;
  }
  EXPECT_EQ(failing, 6);  // tasks 3, 13, 23, 33, 43, 53

  barrier.shutdown();
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace hp::util
