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
#include "sim/injection.hpp"
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
  ASSERT_FALSE(head.run_for(split).livelocked);
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

/// Byte offset of the first state field (the next_id counter) in a
/// checkpoint written by `engine`: magic, version, network name, node
/// count, direction count, policy name and seed precede it.
std::size_t counters_offset(const sim::Engine& engine,
                            const sim::RoutingPolicy& policy) {
  return 4 + 4 + 4 + engine.network().name().size() + 8 + 4 + 4 +
         policy.name().size() + 8;
}
constexpr std::size_t kCountersBytes = 6 * 8 + 1;
constexpr std::size_t kFlightHeaderBytes = 4 * 8;  // base, window, head, count
constexpr std::size_t kFlightRecordBytes = 4 * 4 + 3 + 2 * 8 + 4;

std::uint64_t read_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<std::uint8_t>(bytes[at + i])} << (8 * i);
  }
  return v;
}

void write_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Recomputes the FNV-1a trailer so a patched checkpoint passes the digest
/// check and reaches the decoder's own validation.
void reseal(std::string& bytes) {
  std::uint64_t digest = util::kFnvOffset;
  for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
    digest = util::fnv1a_byte(digest, static_cast<std::uint8_t>(bytes[i]));
  }
  write_u64(bytes, bytes.size() - 8, digest);
}

TEST(CheckpointFailure, SingleBitFlipsFailBeforeAllocating) {
  // One flipped bit in a size-like field must not make the decoder ask for
  // gigabytes (std::bad_alloc) before the digest check runs: each flip
  // ends in CheckError, with or without a valid trailer.
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  RestrictedPriorityPolicy policy;
  auto problem = restored_problem();
  sim::Engine probe(mesh, problem, policy, scenario_config(1));
  const std::size_t flight = counters_offset(probe, policy) + kCountersBytes;
  const std::size_t in_flight = read_u64(bytes, flight + 24);
  // Archive: keep flag, count, record count, then the first record's id.
  const std::size_t archive =
      flight + kFlightHeaderBytes + in_flight * kFlightRecordBytes;
  ASSERT_GT(read_u64(bytes, archive + 1), 0u) << "scenario archived nothing";
  const std::size_t first_id = archive + 1 + 8 + 8;
  const std::size_t livelock_count =
      first_id + read_u64(bytes, archive + 1) * 50;

  const struct {
    const char* field;
    std::size_t byte;
    int bit;
  } flips[] = {
      {"FlightTable window", flight + 8 + 3, 7},   // bit 31
      {"first archived id", first_id + 3, 6},      // bit 30
      {"livelock entry count", livelock_count + 7, 7},  // bit 63
  };
  for (const auto& flip : flips) {
    for (const bool sealed : {false, true}) {
      std::string bad = bytes;
      bad[flip.byte] = static_cast<char>(bad[flip.byte] ^ (1 << flip.bit));
      if (sealed) reseal(bad);
      SCOPED_TRACE(std::string(flip.field) + (sealed ? ", resealed" : ""));
      expect_restore_fails(mesh, bad);
    }
  }
}

std::int32_t read_i32(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t{static_cast<std::uint8_t>(bytes[at + i])} << (8 * i);
  }
  return static_cast<std::int32_t>(v);
}

void write_i32(std::string& bytes, std::size_t at, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<char>((u >> (8 * i)) & 0xff);
  }
}

/// Offsets of in-flight record `r` in a scenario checkpoint of `mesh`.
struct FlightRecord {
  std::size_t src, dst, pos, entry_dir;
};

FlightRecord flight_record(const net::Mesh& mesh, const std::string& bytes,
                           std::size_t r) {
  RestrictedPriorityPolicy policy;
  auto problem = restored_problem();
  sim::Engine probe(mesh, problem, policy, scenario_config(1));
  const std::size_t flight = counters_offset(probe, policy) + kCountersBytes;
  EXPECT_LT(r, read_u64(bytes, flight + 24)) << "too few packets in flight";
  const std::size_t at = flight + kFlightHeaderBytes + r * kFlightRecordBytes;
  return FlightRecord{at + 4, at + 8, at + 12, at + 16};
}

TEST(CheckpointFailure, OutOfRangePacketFieldsAreRejected) {
  // The digest trailer is a checksum, not a seal: a resealed checkpoint
  // whose packet names a node or arc outside the network must still fail
  // in restore, before any step indexes with it.
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  const FlightRecord rec = flight_record(mesh, bytes, 0);
  const std::int32_t nodes = 64;
  const struct {
    const char* field;
    std::size_t at;
    std::int32_t value;
  } mutations[] = {
      {"src = num_nodes", rec.src, nodes},
      {"src = -1", rec.src, -1},
      {"dst = num_nodes", rec.dst, nodes},
      {"dst = -1", rec.dst, -1},
      {"pos = num_nodes", rec.pos, nodes},
      {"pos = -1", rec.pos, -1},
      {"pos = 2^31 - 1", rec.pos, 0x7fffffff},
      {"pos = dst", rec.pos, read_i32(bytes, rec.dst)},
  };
  for (const auto& m : mutations) {
    SCOPED_TRACE(m.field);
    std::string bad = bytes;
    write_i32(bad, m.at, m.value);
    reseal(bad);
    expect_restore_fails(mesh, bad);
  }
  for (const int dir : {4, 127, -2, -128}) {
    SCOPED_TRACE("entry_dir = " + std::to_string(dir));
    std::string bad = bytes;
    bad[rec.entry_dir] = static_cast<char>(dir);
    reseal(bad);
    expect_restore_fails(mesh, bad);
  }
}

TEST(CheckpointFailure, MorePacketsThanArcsAtOneNodeFailTheNextStep) {
  // degree + 1 packets stacked on one node restore (each is individually
  // valid) but break the model's capacity rule: the next step must throw
  // at the occupancy row bound (interior node, 5 > 4 slots) or at
  // route_node's degree check (corner node, 3 > 2 arcs), never write past
  // the node's row.
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  const struct {
    net::NodeId node;
    const char* check;  ///< the failing check's message
  } cases[] = {
      {mesh.node_at(xy(3, 3)), "occupancy row is full"},
      {mesh.node_at(xy(0, 0)), "more packets at a node than its degree"},
  };
  for (const auto& [node, check] : cases) {
    const int stack = mesh.degree(node) + 1;
    std::string bad = bytes;
    int stacked = 0;
    for (std::size_t r = 0; stacked < stack; ++r) {
      const FlightRecord rec = flight_record(mesh, bytes, r);
      if (read_i32(bytes, rec.dst) == node) continue;
      write_i32(bad, rec.pos, node);
      ++stacked;
    }
    reseal(bad);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("node " + std::to_string(node) + ", threads " +
                   std::to_string(threads));
      auto problem = restored_problem();
      RestrictedPriorityPolicy policy;
      sim::Engine engine(mesh, problem, policy, scenario_config(threads));
      std::istringstream source(bad);
      sim::restore_checkpoint(engine, source);
      try {
        engine.step();
        ADD_FAILURE() << "the step accepted " << stack << " packets";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(check), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(IdHorizon, ContinuousRunStopsAtTheLastId) {
  // A checkpoint patched to next_id = id_base = 2^32 − 4 restores into an
  // engine four ids short of the horizon. A saturating injector then
  // issues 2^32 − 4 … 2^32 − 1 and must be refused on the next id, with
  // no packet created, no counter bumped, and no id wrapped to 0.
  constexpr std::uint64_t kHorizon = std::uint64_t{1} << 32;
  net::Mesh mesh(2, 4);
  RestrictedPriorityPolicy policy;
  auto empty = restored_problem();
  sim::Engine source(mesh, empty, policy);
  std::ostringstream sink;
  sim::save_checkpoint(source, sink);
  std::string bytes = sink.str();
  const std::size_t counters = counters_offset(source, policy);
  ASSERT_EQ(read_u64(bytes, counters), 0u);  // next_id
  write_u64(bytes, counters, kHorizon - 4);
  write_u64(bytes, counters + kCountersBytes, kHorizon - 4);  // id_base
  reseal(bytes);

  RestrictedPriorityPolicy restored_policy;
  sim::Engine engine(mesh, empty, restored_policy);
  std::istringstream in(bytes);
  sim::restore_checkpoint(engine, in);
  ASSERT_EQ(engine.num_packets(), kHorizon - 4);

  sim::BernoulliInjector injector(1.0, 7);
  engine.set_injector(&injector);
  std::string error;
  for (int step = 0; step < 8 && error.empty(); ++step) {
    try {
      engine.step();
    } catch (const CheckError& e) {
      error = e.what();
    }
  }
  ASSERT_FALSE(error.empty()) << "the run never reached the horizon";
  EXPECT_NE(error.find("2^32 id horizon"), std::string::npos) << error;
  EXPECT_EQ(engine.num_packets(), kHorizon);
  EXPECT_EQ(injector.admitted(), 4u);

  // Id 2^32 − 1 was issued; every packet the run holds is one of the four
  // last ids — nothing aliased onto id 0.
  const auto last = static_cast<sim::PacketId>(kHorizon - 1);
  EXPECT_EQ(engine.packet(last).id, last);
  std::size_t seen = 0;
  const sim::FlightTable& flight = engine.flight();
  for (sim::FlightTable::Slot s = 0; s < flight.end_slot(); ++s, ++seen) {
    const auto id = static_cast<std::uint32_t>(flight.id(s));
    EXPECT_GE(id, kHorizon - 4);
    EXPECT_EQ(flight.slot_of(flight.id(s)), s);
  }
  for (const sim::Packet& p : engine.archive()) {
    EXPECT_GE(static_cast<std::uint32_t>(p.id), kHorizon - 4);
    ++seen;
  }
  EXPECT_EQ(seen, 4u);
  EXPECT_EQ(flight.slot_of(0), sim::FlightTable::kNoSlot);
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
