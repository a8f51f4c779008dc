// Self-coverage for the model checker (docs/STATIC_ANALYSIS.md, layer 8):
// a corpus of tiny deliberately-buggy protocols the exhaustive explorer
// MUST flag, their corrected twins it must pass, and replay tests pinning
// that every reported decision list reproduces its violation. If the
// checker ever stops seeing these bugs, the barrier proof in
// model_barrier_test is worthless — this file is the analyzer's analogue
// of the lint fixture census.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>

#include "model_checker.hpp"
#include "model_sync.hpp"

namespace {

using hp::model::check_exhaustive;
using hp::model::check_random;
using hp::model::model_assert;
using hp::model::Options;
using hp::model::replay;
using hp::model::Result;
using hp::model::spawn;

Options small_opts() {
  Options o;
  o.preemption_bound = 2;
  return o;
}

// --- fixture: handoff with a lost wakeup -----------------------------------
// The consumer parks in wait(); the producer publishes but never notifies.
// Every schedule in which the consumer checks first must deadlock.

void lost_wakeup_buggy() {
  struct State {
    hp::model::atomic<std::uint32_t> flag{0};
    hp::model::var<int> payload{0};
  };
  auto st = std::make_shared<State>();
  spawn([st] {  // producer — BUG: publishes without waking the consumer
    st->payload.write(42);
    st->flag.store(1, std::memory_order_release);
  });
  spawn([st] {  // consumer
    std::uint32_t v = st->flag.load(std::memory_order_acquire);
    while (v == 0) {
      st->flag.wait(v, std::memory_order_acquire);
      v = st->flag.load(std::memory_order_acquire);
    }
    model_assert(st->payload.read() == 42, "payload not visible");
  });
}

void handoff_correct() {
  struct State {
    hp::model::atomic<std::uint32_t> flag{0};
    hp::model::var<int> payload{0};
  };
  auto st = std::make_shared<State>();
  spawn([st] {
    st->payload.write(42);
    st->flag.store(1, std::memory_order_release);
    st->flag.notify_all();
  });
  spawn([st] {
    std::uint32_t v = st->flag.load(std::memory_order_acquire);
    while (v == 0) {
      st->flag.wait(v, std::memory_order_acquire);
      v = st->flag.load(std::memory_order_acquire);
    }
    model_assert(st->payload.read() == 42, "payload not visible");
  });
}

TEST(ModelFixtures, LostWakeupDeadlocks) {
  const Result r = check_exhaustive(lost_wakeup_buggy, small_opts());
  ASSERT_FALSE(r.ok) << r.summary();
  EXPECT_EQ(r.violation.kind, "deadlock");
  EXPECT_FALSE(r.decisions.empty());
}

TEST(ModelFixtures, CorrectHandoffPasses) {
  const Result r = check_exhaustive(handoff_correct, small_opts());
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_TRUE(r.complete);
  EXPECT_GE(r.executions, 2u);  // both initial orders at minimum
}

TEST(ModelFixtures, LostWakeupReplays) {
  const Result r = check_exhaustive(lost_wakeup_buggy, small_opts());
  ASSERT_FALSE(r.ok);
  const Result again = replay(lost_wakeup_buggy, r.decisions, small_opts());
  ASSERT_FALSE(again.ok) << "decision list did not reproduce the bug";
  EXPECT_EQ(again.violation.kind, r.violation.kind);
  EXPECT_FALSE(again.trace.empty());
}

TEST(ModelFixtures, LostWakeupFoundByRandomWalk) {
  const Result r = check_random(lost_wakeup_buggy, 0xC0FFEE, 256);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.violation.kind, "deadlock");
  EXPECT_EQ(r.seed, 0xC0FFEEu);
  // The recorded decisions alone (no seed needed) replay the failure.
  const Result again = replay(lost_wakeup_buggy, r.decisions);
  EXPECT_FALSE(again.ok);
}

// --- fixture: ticket claiming without an RMW -------------------------------
// load-then-store instead of fetch_add: two claimers can both read cursor 0
// and claim the same ticket. Detected as a data race on the ticket's slot
// (no happens-before between the two writers) or as the count assert.

void double_claim_buggy() {
  struct State {
    hp::model::atomic<std::uint32_t> cursor{0};
    hp::model::atomic<std::uint32_t> done{2};
    hp::model::var<int> claims0{0};
    hp::model::var<int> claims1{0};
  };
  auto st = std::make_shared<State>();
  auto claimer = [st] {
    const std::uint32_t t = st->cursor.load(std::memory_order_relaxed);
    st->cursor.store(t + 1, std::memory_order_relaxed);  // BUG: not an RMW
    if (t == 0) {
      st->claims0.write(st->claims0.read() + 1);
    } else if (t == 1) {
      st->claims1.write(st->claims1.read() + 1);
    }
    if (st->done.fetch_sub(1, std::memory_order_release) == 1) {
      st->done.notify_one();
    }
  };
  spawn(claimer);
  spawn(claimer);
  spawn([st] {  // checker thread: the "main" that harvests the epoch
    std::uint32_t live = st->done.load(std::memory_order_acquire);
    while (live != 0) {
      st->done.wait(live, std::memory_order_acquire);
      live = st->done.load(std::memory_order_acquire);
    }
    model_assert(st->claims0.read() == 1, "ticket 0 not claimed exactly once");
    model_assert(st->claims1.read() == 1, "ticket 1 not claimed exactly once");
  });
}

void ticket_claim_correct() {
  struct State {
    hp::model::atomic<std::uint32_t> cursor{0};
    hp::model::atomic<std::uint32_t> done{2};
    hp::model::var<int> claims0{0};
    hp::model::var<int> claims1{0};
  };
  auto st = std::make_shared<State>();
  auto claimer = [st] {
    const std::uint32_t t =
        st->cursor.fetch_add(1, std::memory_order_relaxed);
    if (t == 0) {
      st->claims0.write(st->claims0.read() + 1);
    } else if (t == 1) {
      st->claims1.write(st->claims1.read() + 1);
    }
    if (st->done.fetch_sub(1, std::memory_order_release) == 1) {
      st->done.notify_one();
    }
  };
  spawn(claimer);
  spawn(claimer);
  spawn([st] {
    std::uint32_t live = st->done.load(std::memory_order_acquire);
    while (live != 0) {
      st->done.wait(live, std::memory_order_acquire);
      live = st->done.load(std::memory_order_acquire);
    }
    model_assert(st->claims0.read() == 1, "ticket 0 not claimed exactly once");
    model_assert(st->claims1.read() == 1, "ticket 1 not claimed exactly once");
  });
}

TEST(ModelFixtures, DoubleClaimedTicketFlagged) {
  const Result r = check_exhaustive(double_claim_buggy, small_opts());
  ASSERT_FALSE(r.ok) << r.summary();
  // Either symptom is a faithful diagnosis of the same bug.
  EXPECT_TRUE(r.violation.kind == "data-race" ||
              r.violation.kind == "assert")
      << r.summary();
}

TEST(ModelFixtures, FetchAddTicketsPass) {
  const Result r = check_exhaustive(ticket_claim_correct, small_opts());
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_TRUE(r.complete);
}

TEST(ModelFixtures, DoubleClaimReplays) {
  const Result r = check_exhaustive(double_claim_buggy, small_opts());
  ASSERT_FALSE(r.ok);
  const Result again = replay(double_claim_buggy, r.decisions, small_opts());
  ASSERT_FALSE(again.ok);
  EXPECT_EQ(again.violation.kind, r.violation.kind);
}

// --- fixture: publication with a missing release fence ---------------------
// The producer stores the flag relaxed: the store breaks the release
// sequence, so the consumer's acquire load establishes no happens-before
// with the payload write. Sequentially-consistent execution cannot show a
// stale value — only the vector clocks can see this bug.

void missing_release_buggy() {
  struct State {
    hp::model::atomic<std::uint32_t> flag{0};
    hp::model::var<int> payload{0};
  };
  auto st = std::make_shared<State>();
  spawn([st] {
    st->payload.write(7);
    st->flag.store(1, std::memory_order_relaxed);  // BUG: must be release
    st->flag.notify_all();
  });
  spawn([st] {
    std::uint32_t v = st->flag.load(std::memory_order_acquire);
    while (v == 0) {
      st->flag.wait(v, std::memory_order_acquire);
      v = st->flag.load(std::memory_order_acquire);
    }
    model_assert(st->payload.read() == 7, "payload not visible");
  });
}

TEST(ModelFixtures, MissingReleaseFenceIsARace) {
  const Result r = check_exhaustive(missing_release_buggy, small_opts());
  ASSERT_FALSE(r.ok) << r.summary();
  EXPECT_EQ(r.violation.kind, "data-race") << r.summary();
}

TEST(ModelFixtures, MissingReleaseReplayCarriesTrace) {
  const Result r = check_exhaustive(missing_release_buggy, small_opts());
  ASSERT_FALSE(r.ok);
  EXPECT_FALSE(r.trace.empty()) << "failures must carry a schedule trace";
  const Result again =
      replay(missing_release_buggy, r.decisions, small_opts());
  ASSERT_FALSE(again.ok);
  EXPECT_EQ(again.violation.kind, "data-race");
}

}  // namespace
