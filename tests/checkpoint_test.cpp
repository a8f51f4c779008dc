// Checkpoint/restore round-trips (docs/SCALE.md): a run interrupted at
// step k and restored into a fresh engine must continue bit-for-bit — same
// fingerprint, same statistics, same archive — for every thread count, the
// saved bytes themselves are pinned, and every corrupt or mismatched
// checkpoint must fail with a clear error instead of undefined behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "routing/perverse.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "test_support.hpp"
#include "topology/mesh.hpp"
#include "util/binio.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

using test::make_problem;
using test::xy;

using routing::RestrictedPriorityPolicy;
using TieBreak = RestrictedPriorityPolicy::TieBreak;

workload::Problem restored_problem() {
  workload::Problem p;
  p.name = "restored";
  return p;
}

RestrictedPriorityPolicy::Params random_params() {
  RestrictedPriorityPolicy::Params params;
  params.tie_break = TieBreak::kRandom;
  params.deflect = routing::DeflectRule::kRandom;
  return params;
}

/// The seed scenario every round-trip test below interrupts: a saturated
/// random workload on the 8×8 mesh.
workload::Problem scenario(const net::Network& net) {
  Rng rng(7);
  return workload::saturated_random(net, 2, rng);
}

sim::EngineConfig scenario_config(int threads) {
  sim::EngineConfig config;
  config.seed = 7;
  config.num_threads = threads;
  return config;
}

TEST(CheckpointRoundTrip, BitIdenticalAcrossThreadsAndPolicies) {
  constexpr std::uint64_t kTotal = 30;
  constexpr std::uint64_t kSplit = 9;
  net::Mesh mesh(2, 8);

  for (const bool random_policy : {false, true}) {
    const auto params = random_policy ? random_params()
                                      : RestrictedPriorityPolicy::Params{};
    for (const int threads : {1, 2, 4, 8}) {
      // Uninterrupted reference run.
      auto full_problem = scenario(mesh);
      RestrictedPriorityPolicy full_policy(params);
      sim::Engine full(mesh, full_problem, full_policy,
                       scenario_config(threads));
      full.run_for(kTotal);
      const std::uint64_t want = sim::state_fingerprint(full);

      // Same run, interrupted at kSplit.
      auto head_problem = scenario(mesh);
      RestrictedPriorityPolicy head_policy(params);
      sim::Engine head(mesh, head_problem, head_policy,
                       scenario_config(threads));
      head.run_for(kSplit);
      std::ostringstream sink;
      sim::save_checkpoint(head, sink);

      auto tail_problem = restored_problem();
      RestrictedPriorityPolicy tail_policy(params);
      sim::Engine tail(mesh, tail_problem, tail_policy,
                       scenario_config(threads));
      std::istringstream source(sink.str());
      sim::restore_checkpoint(tail, source);
      EXPECT_EQ(tail.now(), kSplit);
      EXPECT_EQ(tail.in_flight(), head.in_flight());
      EXPECT_EQ(sim::state_fingerprint(tail), sim::state_fingerprint(head));

      tail.run_for(kTotal - kSplit);
      EXPECT_EQ(sim::state_fingerprint(tail), want)
          << "threads " << threads << " random_policy " << random_policy;
      EXPECT_EQ(tail.delivered(), full.delivered());
      EXPECT_EQ(tail.now(), full.now());
    }
  }
}

TEST(CheckpointRoundTrip, CheckpointBytesAreThreadCountInvariant) {
  net::Mesh mesh(2, 8);
  std::string baseline;
  for (const int threads : {1, 2, 4, 8}) {
    auto problem = scenario(mesh);
    RestrictedPriorityPolicy policy;
    sim::Engine engine(mesh, problem, policy, scenario_config(threads));
    engine.run_for(11);
    std::ostringstream sink;
    sim::save_checkpoint(engine, sink);
    if (threads == 1) {
      baseline = sink.str();
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(sink.str(), baseline) << "threads " << threads;
    }
  }
}

TEST(CheckpointRoundTrip, CompletedRunStatisticsSurvive) {
  net::Mesh mesh(2, 8);
  Rng rng_a(3);
  Rng rng_b(3);
  auto full_problem = workload::random_permutation(mesh, rng_a);
  auto head_problem = workload::random_permutation(mesh, rng_b);

  RestrictedPriorityPolicy full_policy;
  sim::Engine full(mesh, full_problem, full_policy, scenario_config(1));
  const auto want = full.run();
  ASSERT_TRUE(want.completed);

  RestrictedPriorityPolicy head_policy;
  sim::Engine head(mesh, head_problem, head_policy, scenario_config(1));
  head.run_for(want.steps / 2);
  std::ostringstream sink;
  sim::save_checkpoint(head, sink);

  auto tail_problem = restored_problem();
  RestrictedPriorityPolicy tail_policy;
  sim::Engine tail(mesh, tail_problem, tail_policy, scenario_config(1));
  std::istringstream source(sink.str());
  sim::restore_checkpoint(tail, source);
  const auto got = tail.run();

  EXPECT_TRUE(got.completed);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.total_deflections, want.total_deflections);
  EXPECT_EQ(got.total_advances, want.total_advances);
  ASSERT_EQ(got.packets.size(), want.packets.size());
  for (std::size_t i = 0; i < want.packets.size(); ++i) {
    EXPECT_EQ(got.packets[i].id, want.packets[i].id);
    EXPECT_EQ(got.packets[i].arrived_at, want.packets[i].arrived_at);
    EXPECT_EQ(got.packets[i].deflections, want.packets[i].deflections);
  }
}

TEST(CheckpointRoundTrip, ArchiveRecordsSurvive) {
  net::Mesh mesh(2, 8);
  auto head_problem = scenario(mesh);
  RestrictedPriorityPolicy head_policy;
  sim::Engine head(mesh, head_problem, head_policy, scenario_config(1));
  head.run_for(12);
  ASSERT_GT(head.archive().size(), 0u) << "scenario must deliver by step 12";

  std::ostringstream sink;
  sim::save_checkpoint(head, sink);
  auto tail_problem = restored_problem();
  RestrictedPriorityPolicy tail_policy;
  sim::Engine tail(mesh, tail_problem, tail_policy, scenario_config(1));
  std::istringstream source(sink.str());
  sim::restore_checkpoint(tail, source);

  const auto a = head.archive();
  const auto b = tail.archive();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].arrived_at, b[i].arrived_at);
    EXPECT_EQ(a[i].deflections, b[i].deflections);
  }
  // The id index was rebuilt, not just the records.
  EXPECT_EQ(tail.packet(a[0].id).arrived_at, a[0].arrived_at);
}

TEST(StateFingerprint, GoldenScenarioIsPinned) {
  // Pins state_fingerprint's bytes for the golden-digest scenario below,
  // with the archive kept and count-only: the benchmark's expected
  // fingerprints rest on the same layout.
  const auto fingerprint_at_step_20 = [](bool archive_arrivals) {
    net::Mesh mesh(2, 16);
    Rng rng(3);
    auto problem = workload::saturated_random(mesh, 4, rng);
    RestrictedPriorityPolicy policy;
    sim::EngineConfig config;
    config.seed = 3;
    config.archive_arrivals = archive_arrivals;
    sim::Engine engine(mesh, problem, policy, config);
    engine.run_for(20);
    return sim::state_fingerprint(engine);
  };
  EXPECT_EQ(fingerprint_at_step_20(true), 0x55034ee17bed36faULL);
  EXPECT_EQ(fingerprint_at_step_20(false), 0x4e2c80764e1c7c2dULL);
}

TEST(CheckpointRoundTrip, SavedBytesMatchTheGoldenDigest) {
  // Pins the wire format itself, not just round-trip agreement: the FNV-1a
  // digest of every byte save_checkpoint writes for one fixed scenario
  // (16×16 mesh, saturated, restricted priority, seed 3, step 20). A
  // mismatch is a format change — bump kCheckpointVersion, don't re-pin.
  net::Mesh mesh(2, 16);
  Rng rng(3);
  auto problem = workload::saturated_random(mesh, 4, rng);
  RestrictedPriorityPolicy policy;
  sim::EngineConfig config;
  config.seed = 3;
  sim::Engine engine(mesh, problem, policy, config);
  engine.run_for(20);
  std::ostringstream sink;
  sim::save_checkpoint(engine, sink);

  const std::string bytes = sink.str();
  std::uint64_t digest = util::kFnvOffset;
  for (const char c : bytes) {
    digest = util::fnv1a_byte(digest, static_cast<std::uint8_t>(c));
  }
  EXPECT_EQ(bytes.size(), 46613u);
  EXPECT_EQ(digest, 0x533aea23f2a73e29ULL);
}

TEST(CheckpointRoundTrip, SpansALivelockDetection) {
  // The frozen greedy livelock from livelock_test.cpp (found by
  // livelock_search on the 4×4 torus, search seed 8): interrupting before
  // the detector fires must not lose the seen-state map — the restored
  // run proves the cycle at exactly the same step.
  net::Mesh torus(2, 4, /*wrap=*/true);
  const auto specs = std::vector<workload::PacketSpec>{
      {torus.node_at(xy(2, 2)), torus.node_at(xy(2, 2))},
      {torus.node_at(xy(2, 1)), torus.node_at(xy(2, 2))},
      {torus.node_at(xy(0, 1)), torus.node_at(xy(2, 1))},
      {torus.node_at(xy(3, 2)), torus.node_at(xy(3, 1))},
      {torus.node_at(xy(3, 2)), torus.node_at(xy(0, 2))},
      {torus.node_at(xy(1, 2)), torus.node_at(xy(3, 2))},
      {torus.node_at(xy(3, 2)), torus.node_at(xy(1, 2))},
      {torus.node_at(xy(1, 2)), torus.node_at(xy(2, 2))},
  };
  sim::EngineConfig config;
  config.max_steps = 50'000;

  auto full_problem = make_problem(specs);
  routing::PerverseGreedyPolicy full_policy;
  sim::Engine full(torus, full_problem, full_policy, config);
  const auto want = full.run();
  ASSERT_TRUE(want.livelocked);
  ASSERT_GT(want.steps_executed, 1u);
  const std::uint64_t split = want.steps_executed / 2;

  auto head_problem = make_problem(specs);
  routing::PerverseGreedyPolicy head_policy;
  sim::Engine head(torus, head_problem, head_policy, config);
  head.run_for(split);
  ASSERT_FALSE(head.livelocked());
  std::ostringstream sink;
  sim::save_checkpoint(head, sink);

  auto tail_problem = restored_problem();
  routing::PerverseGreedyPolicy tail_policy;
  sim::Engine tail(torus, tail_problem, tail_policy, config);
  std::istringstream source(sink.str());
  sim::restore_checkpoint(tail, source);
  const auto got = tail.run();
  EXPECT_TRUE(got.livelocked);
  // steps_executed is the absolute step clock: the restored run must
  // prove the cycle at exactly the step the uninterrupted one did — the
  // seen-state map crossed the checkpoint intact.
  EXPECT_EQ(got.steps_executed, want.steps_executed);
  EXPECT_EQ(sim::state_fingerprint(tail), sim::state_fingerprint(full));
}

// --- failure modes ----------------------------------------------------------

/// A valid checkpoint of the standard scenario at step 9, as raw bytes.
std::string scenario_checkpoint(const net::Network& net) {
  auto problem = scenario(net);
  RestrictedPriorityPolicy policy;
  sim::Engine engine(net, problem, policy, scenario_config(1));
  engine.run_for(9);
  std::ostringstream sink;
  sim::save_checkpoint(engine, sink);
  return sink.str();
}

void expect_restore_fails(const net::Network& net, const std::string& bytes,
                          sim::EngineConfig config = scenario_config(1)) {
  auto problem = restored_problem();
  RestrictedPriorityPolicy policy;
  sim::Engine engine(net, problem, policy, config);
  std::istringstream source(bytes);
  EXPECT_THROW(sim::restore_checkpoint(engine, source), CheckError);
}

TEST(CheckpointFailure, TruncatedFileIsRejected) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{6}, bytes.size() / 2, bytes.size() - 1}) {
    expect_restore_fails(mesh, bytes.substr(0, keep));
  }
}

TEST(CheckpointFailure, CorruptedBytesAreRejected) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  // Flip the magic, a header byte, and the digest trailer in turn.
  for (const std::size_t at : {std::size_t{0}, std::size_t{12},
                               bytes.size() - 1}) {
    std::string bad = bytes;
    bad[at] = static_cast<char>(bad[at] ^ 0x5a);
    expect_restore_fails(mesh, bad);
  }
}

TEST(CheckpointFailure, VersionSkewIsRejected) {
  net::Mesh mesh(2, 8);
  std::string bytes = scenario_checkpoint(mesh);
  bytes[4] = static_cast<char>(sim::kCheckpointVersion + 1);  // version word
  expect_restore_fails(mesh, bytes);
}

TEST(CheckpointFailure, TopologyMismatchIsRejected) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  net::Mesh torus(2, 8, /*wrap=*/true);
  expect_restore_fails(torus, bytes);
}

TEST(CheckpointFailure, SeedMismatchIsRejected) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  auto config = scenario_config(1);
  config.seed = 8;
  expect_restore_fails(mesh, bytes, config);
}

TEST(CheckpointFailure, PolicyMismatchIsRejected) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  auto problem = restored_problem();
  routing::PerverseGreedyPolicy policy;
  sim::Engine engine(mesh, problem, policy, scenario_config(1));
  std::istringstream source(bytes);
  EXPECT_THROW(sim::restore_checkpoint(engine, source), CheckError);
}

TEST(CheckpointFailure, ArchiveFlagMismatchIsRejected) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  auto config = scenario_config(1);
  config.archive_arrivals = false;
  expect_restore_fails(mesh, bytes, config);
}

TEST(CheckpointFailure, RestoreNeedsAFreshEngine) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  // An engine that already injected its problem is not fresh.
  auto problem = scenario(mesh);
  RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy, scenario_config(1));
  std::istringstream source(bytes);
  EXPECT_THROW(sim::restore_checkpoint(engine, source), CheckError);
}

TEST(CheckpointFailure, UnwritablePathIsRejected) {
  net::Mesh mesh(2, 8);
  auto problem = scenario(mesh);
  RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy, scenario_config(1));
  engine.run_for(9);
  const std::string missing_dir = testing::TempDir() + "hp_no_such_dir/";
  EXPECT_THROW(sim::save_checkpoint(engine, missing_dir + "ckpt.bin"),
               CheckError);

  auto fresh_problem = restored_problem();
  RestrictedPriorityPolicy fresh_policy;
  sim::Engine fresh(mesh, fresh_problem, fresh_policy, scenario_config(1));
  EXPECT_THROW(sim::restore_checkpoint(fresh, missing_dir + "ckpt.bin"),
               CheckError);
}

}  // namespace
}  // namespace hp
