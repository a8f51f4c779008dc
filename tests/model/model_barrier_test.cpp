// Exhaustive schedule exploration of the engine's phase barrier
// (docs/STATIC_ANALYSIS.md, layer 8).
//
// The protocol under test is the production source: BasicPhaseBarrier
// instantiated with ModelSync instead of RealSync, so every atomic
// operation is a scheduler decision point and the spin windows collapse to
// immediate parking (the futex path the lost-wakeup property targets).
// The harness mirrors the engine's roles exactly — one main thread
// open/drain/close-ing epochs and participating in its own phases, workers
// looping wait_open -> next_task* -> leave — and checks, across EVERY
// schedule up to the preemption bound:
//
//   - termination: no schedule deadlocks, i.e. no lost wakeup in the
//     spin-then-wait parking of close()/wait_open(), and shutdown() wakes
//     parked workers (liveness);
//   - epoch alternation: workers observe serials advancing by exactly one
//     with the published tag;
//   - tickets: each fixed task of an epoch is claimed exactly once (the
//     claim counters double as race detectors for the slot writes);
//   - close()-return visibility: every shard write of the epoch is
//     readable by the main thread the moment close() returns, enforced by
//     vector-clock race detection (cross-checked against the committed
//     phase_effects.json write contracts below);
//   - error capture: per-task failure flags harvested after close() name
//     the first failing task in task order, independent of schedule.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "model_checker.hpp"
#include "model_sync.hpp"
#include "util/phase_barrier.hpp"

namespace {

using hp::model::check_exhaustive;
using hp::model::check_random;
using hp::model::model_assert;
using hp::model::Options;
using hp::model::replay;
using hp::model::Result;
using hp::model::spawn;

using ModelBarrier = hp::util::BasicPhaseBarrier<hp::model::ModelSync>;

constexpr std::uint32_t kMaxTasks = 4;

/// Shared world of one execution: the barrier plus per-ticket shard slots.
/// Each task writes only its own slot (the owner-computes discipline the
/// phase-effects analyzer certifies for the engine); the claim counters
/// prove exactly-once ticket ownership.
struct World {
  World(std::uint32_t workers, std::uint32_t fail_mask_bits)
      : barrier(workers), fail_mask(fail_mask_bits) {}

  ModelBarrier barrier;
  // Which tasks report a failure — a property of the task, applied by
  // whichever thread claims its ticket.
  const std::uint32_t fail_mask;
  std::array<hp::model::var<int>, kMaxTasks> payload{};
  std::array<hp::model::var<int>, kMaxTasks> claims{};
  std::array<hp::model::var<int>, kMaxTasks> failed{};
};

int expected_value(std::uint32_t epoch, std::uint32_t task) {
  return static_cast<int>(100 * (epoch + 1) + task);
}

/// One participant draining the current epoch's tickets (main or worker).
void drain(World& w, std::uint32_t tag) {
  for (;;) {
    const std::uint32_t t = w.barrier.next_task();
    if (t == ModelBarrier::kNoTask) {
      return;
    }
    w.claims[t].write(w.claims[t].read() + 1);
    w.payload[t].write(expected_value(tag, t));
    if (((w.fail_mask >> t) & 1u) != 0) {
      w.failed[t].write(1);  // the engine captures an exception_ptr here
    }
  }
}

/// Registers the full protocol: main + `workers` worker threads running
/// `epochs` epochs of `tasks` tickets each. `fail_mask` marks tasks that
/// report a failure, harvested in task order after close().
void barrier_setup(std::uint32_t workers, std::uint32_t epochs,
                   std::uint32_t tasks, std::uint32_t fail_mask) {
  auto w = std::make_shared<World>(workers, fail_mask);
  spawn([w, epochs, tasks, fail_mask] {  // main thread
    for (std::uint32_t e = 0; e < epochs; ++e) {
      for (std::uint32_t t = 0; t < tasks; ++t) {
        w->payload[t].write(-1);
        w->claims[t].write(0);
        w->failed[t].write(0);
      }
      w->barrier.open(tasks, e);
      drain(*w, e);
      w->barrier.close();
      // close() returned: every shard write of the epoch must be visible
      // (any missing happens-before edge is a data-race violation) and
      // every ticket claimed exactly once.
      std::int32_t first_failed = -1;
      for (std::uint32_t t = 0; t < tasks; ++t) {
        model_assert(w->claims[t].read() == 1,
                     "ticket not claimed exactly once");
        model_assert(w->payload[t].read() == expected_value(e, t),
                     "shard write not visible after close()");
        if (w->failed[t].read() != 0 && first_failed < 0) {
          first_failed = static_cast<std::int32_t>(t);
        }
      }
      if (fail_mask != 0 && fail_mask < (1u << tasks)) {
        // The first failing task in task order is schedule-independent:
        // exactly what "rethrow in task order" promises for exceptions.
        std::int32_t expect_first = 0;
        while (((fail_mask >> expect_first) & 1u) == 0) {
          ++expect_first;
        }
        model_assert(first_failed == expect_first,
                     "error harvest not in task order");
      }
    }
    w->barrier.shutdown();
  });
  for (std::uint32_t i = 0; i < workers; ++i) {
    spawn([w] {  // worker
      std::uint64_t seen = 0;
      for (;;) {
        const ModelBarrier::Epoch e = w->barrier.wait_open(seen);
        if (e.stop) {
          return;
        }
        model_assert(e.serial == seen + 1,
                     "epoch serial must advance by exactly one");
        model_assert(e.tag == e.serial - 1,
                     "published tag must match the open() epoch");
        seen = e.serial;
        drain(*w, e.tag);
        w->barrier.leave();
      }
    });
  }
}

// --- the acceptance configuration ------------------------------------------

TEST(ModelBarrier, ExhaustiveThreeWorkersTwoEpochs) {
  Options opts;
  opts.preemption_bound = 2;
  opts.max_executions = 1ULL << 21;
  const Result r = check_exhaustive(
      [] { barrier_setup(3, 2, 2, 0); }, opts);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_TRUE(r.complete)
      << "exploration hit the execution cap before exhausting bound 2: "
      << r.summary();
  RecordProperty("executions", static_cast<int>(r.executions));
}

TEST(ModelBarrier, ShutdownWhileParkedIsLive) {
  // Zero epochs: workers park in wait_open immediately and the main thread
  // shuts the pool down. Exhaustive absence of deadlock == every parked
  // worker is woken, the model twin of the real-thread regression in
  // tests/phase_barrier_test.cpp.
  Options opts;
  opts.preemption_bound = 3;
  const Result r = check_exhaustive(
      [] { barrier_setup(3, 0, 0, 0); }, opts);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_TRUE(r.complete) << r.summary();
}

TEST(ModelBarrier, ErrorHarvestIsInTaskOrder) {
  Options opts;
  opts.preemption_bound = 2;
  const Result r = check_exhaustive(
      [] { barrier_setup(2, 1, 3, 0b110); }, opts);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_TRUE(r.complete) << r.summary();
}

TEST(ModelBarrier, RandomWalksStayClean) {
  // Unbounded-preemption complement to the bounded exhaustive pass.
  const Result r =
      check_random([] { barrier_setup(3, 2, 3, 0); }, 0x5EED, 512);
  EXPECT_TRUE(r.ok) << r.summary();
}

// --- seeded-bug twin: the checker must see a broken barrier ----------------

/// The barrier's close()/leave() handshake with the wakeup dropped: the
/// last worker to leave does not notify the parked main thread. This is
/// the exact bug class the real protocol's leave() guards against; the
/// checker must find the schedule where close() parks first.
class SabotagedBarrier {
 public:
  explicit SabotagedBarrier(std::uint32_t workers) : active_(workers) {}

  void close() {
    std::uint32_t live = active_.load(std::memory_order_acquire);
    while (live != 0) {
      active_.wait(live, std::memory_order_acquire);
      live = active_.load(std::memory_order_acquire);
    }
  }

  void leave() {
    // BUG: `if (fetch_sub == 1) notify_one()` is missing its notify.
    active_.fetch_sub(1, std::memory_order_release);
  }

 private:
  hp::model::atomic<std::uint32_t> active_;
};

void sabotaged_setup() {
  auto b = std::make_shared<SabotagedBarrier>(2);
  spawn([b] { b->close(); });
  spawn([b] { b->leave(); });
  spawn([b] { b->leave(); });
}

TEST(ModelBarrier, LostLeaveNotifyIsCaught) {
  Options opts;
  opts.preemption_bound = 2;
  const Result r = check_exhaustive(sabotaged_setup, opts);
  ASSERT_FALSE(r.ok) << "a lost wakeup in leave() must be detected";
  EXPECT_EQ(r.violation.kind, "deadlock") << r.summary();
  ASSERT_FALSE(r.decisions.empty());
  // The reported schedule is a complete reproducer.
  const Result again = replay(sabotaged_setup, r.decisions, opts);
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.violation.kind, "deadlock");
  EXPECT_FALSE(again.trace.empty());
}

// --- phase_effects.json cross-check ----------------------------------------

TEST(ModelBarrier, DrainContractMatchesPhaseEffectsArtifact) {
  // The committed artifact certifies the engine's parallel "drain" phases:
  // per-shard state is written only through annotated shared writes under
  // barrier brackets. The model harness enforces the same discipline
  // dynamically (payload[t] written only by ticket t's owner), so the two
  // proofs must talk about the same contract. If the artifact drops the
  // annotated shards_ write or the drain phase, this coupling is gone and
  // the model harness needs a matching update.
  std::ifstream in(std::string(HP_REPO_ROOT) + "/phase_effects.json");
  ASSERT_TRUE(in.good()) << "phase_effects.json missing from repo root";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string artifact = buf.str();
  EXPECT_NE(artifact.find("hp-phase-effects-v1"), std::string::npos);
  const std::size_t drain_at = artifact.find("\"drain\"");
  ASSERT_NE(drain_at, std::string::npos)
      << "drain phase vanished from phase_effects.json";
  const std::size_t writes_at = artifact.find("\"writes\"", drain_at);
  ASSERT_NE(writes_at, std::string::npos)
      << "drain entry lost its writes block";
  const std::size_t contract_at =
      artifact.find("\"shards_\": \"annotated\"", writes_at);
  EXPECT_NE(contract_at, std::string::npos)
      << "drain's shards_ write is no longer an annotated shared write";
  // The contract we matched must belong to drain's own writes block, not a
  // later phase's: no other phase key may open in between.
  EXPECT_EQ(artifact.find("},", writes_at), artifact.find("},", contract_at))
      << "annotated shards_ write found outside the drain entry";
}

}  // namespace
