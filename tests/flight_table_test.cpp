// FlightTable columns and the ArrivalLog storage modes (docs/SCALE.md):
// the engine's footprint, overflow boundaries of the 32-bit bookkeeping
// columns and the 32-bit id space, and spill/sample archives against the
// in-memory baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "routing/restricted_priority.hpp"
#include "sim/engine.hpp"
#include "sim/flight_table.hpp"
#include "topology/mesh.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

using sim::Packet;
using sim::PacketId;

constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();

Packet flying(PacketId id, net::NodeId src, net::NodeId dst,
              net::NodeId pos) {
  Packet p;
  p.id = id;
  p.src = src;
  p.dst = dst;
  p.pos = pos;
  return p;
}

// --- footprint --------------------------------------------------------------

TEST(ColumnWidth, LeanProfileShrinksTheFootprint) {
  // The engine keeps no per-node topology state: every node's arcs come
  // from the Network's closed forms on demand.
  net::Mesh mesh(2, 32);
  Rng rng(3);
  auto problem = workload::saturated_random(mesh, 4, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::EngineConfig config;
  config.archive_arrivals = false;
  sim::Engine engine(mesh, problem, policy, config);
  engine.run_for(3);
  const auto stats = engine.memory_stats();
  EXPECT_EQ(stats.topology_bytes, 0u);
  EXPECT_GT(stats.flight_bytes, 0u);
}

// --- overflow boundaries ----------------------------------------------------

/// Runs `fn`, which must throw CheckError, and returns the error message.
template <typename Fn>
std::string check_error_of(Fn fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected hp::CheckError";
  return {};
}

TEST(ColumnWidth, CompactInjectedAtOverflowIsCheckedNotTruncated) {
  sim::FlightTable table;
  Packet p = flying(0, 1, 2, 1);
  p.injected_at = std::uint64_t{kU32Max} + 1;
  const std::string error = check_error_of([&] { table.insert(p); });
  EXPECT_NE(error.find("'injected_at' overflows 32 bits"), std::string::npos)
      << error;
  EXPECT_NE(error.find("2^32 horizon"), std::string::npos) << error;
  EXPECT_TRUE(table.empty()) << "a rejected insert must leave no column behind";
}

TEST(ColumnWidth, CompactDeflectionCounterSaturatesWithAnError) {
  sim::FlightTable table;
  Packet p = flying(0, 1, 2, 1);
  p.deflections = kU32Max;  // representable, but the next bump is not
  table.insert(p);
  const std::string error = check_error_of(
      [&] { table.move(0, 3, 1, /*advanced=*/false, 1); });
  EXPECT_NE(error.find("'deflections' overflows 32 bits"), std::string::npos)
      << error;
  EXPECT_NE(error.find("2^32 horizon"), std::string::npos) << error;
  // Advancing moves do not touch the counter and stay fine.
  EXPECT_NO_THROW(table.move(0, 3, 1, /*advanced=*/true, 1));
}

TEST(FlightTableIds, NodeIdAtInt32MaxRoundTrips) {
  constexpr net::NodeId big = std::numeric_limits<net::NodeId>::max();
  sim::FlightTable table;
  table.insert(flying(0, big, big - 1, big));
  EXPECT_EQ(table.pos(0), big);
  EXPECT_EQ(table.src(0), big);
  const Packet out = table.remove(0, 1);
  EXPECT_EQ(out.pos, big);
}

TEST(FlightTableIds, IdsCrossTheInt32SignBoundary) {
  // Ids are dense uint32 sequence numbers stored in an int32: past 2^31−1
  // they wrap negative, and the locator window must keep resolving them.
  const std::uint64_t base = (std::uint64_t{1} << 31) - 2;
  sim::FlightTable table;
  table.reset_window(base, 0);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto id =
        static_cast<PacketId>(static_cast<std::uint32_t>(base + i));
    table.insert(flying(id, 1, 2, 1));
  }
  EXPECT_EQ(table.size(), 4u);
  const auto wrapped =
      static_cast<PacketId>(static_cast<std::uint32_t>(base + 2));
  EXPECT_LT(wrapped, 0);  // genuinely negative int32
  const auto slot = table.slot_of(wrapped);
  ASSERT_NE(slot, sim::FlightTable::kNoSlot);
  EXPECT_EQ(table.id(slot), wrapped);
  const Packet out = table.remove(slot, 5);
  EXPECT_EQ(out.id, wrapped);
  EXPECT_EQ(table.slot_of(wrapped), sim::FlightTable::kNoSlot);
}

TEST(FlightTableIds, FullUint32WrapIsRejected) {
  // The id space ends at 2^32 − 1: the id after that would alias id 0, so
  // insert refuses it rather than corrupting the locator.
  const std::uint64_t last = kU32Max;
  sim::FlightTable table;
  table.reset_window(last, 0);
  table.insert(flying(static_cast<PacketId>(static_cast<std::uint32_t>(last)),
                      1, 2, 1));
  EXPECT_THROW(table.insert(flying(0, 1, 2, 1)), CheckError);
}

TEST(FlightTableIds, ResetWindowDemandsAFreshTable) {
  sim::FlightTable table;
  table.insert(flying(0, 1, 2, 1));
  EXPECT_THROW(table.reset_window(100, 0), CheckError);
  sim::FlightTable fresh;
  EXPECT_THROW(fresh.reset_window(kU32Max, 2), CheckError);  // past 2^32
}

// --- serialization ----------------------------------------------------------

TEST(FlightTableSerialize, TruncatedStreamFailsClearly) {
  sim::FlightTable table;
  table.insert(flying(0, 1, 2, 1));
  std::ostringstream sink;
  util::BinWriter w(sink);
  table.serialize(w);
  const std::string bytes = sink.str();
  std::istringstream source(bytes.substr(0, bytes.size() / 2));
  util::BinReader r(source, "checkpoint");
  sim::FlightTable restored;
  EXPECT_THROW(restored.deserialize(r), CheckError);
}

// --- ArrivalLog modes -------------------------------------------------------

std::vector<Packet> arrivals(int n) {
  std::vector<Packet> out;
  for (PacketId id = 0; id < n; ++id) {
    Packet p = flying(id, id, id + 1, id + 1);
    p.arrived_at = static_cast<std::uint64_t>(id) + 3;
    p.deflections = static_cast<std::uint64_t>(id % 5);
    out.push_back(p);
  }
  return out;
}

TEST(ArrivalLogSpill, SpillAndMemoryAgreeOnDrainAndFind) {
  const auto packets = arrivals(100);

  sim::ArrivalLog memory;
  sim::ArrivalLog spill;
  sim::ArchiveConfig config;
  config.mode = sim::ArchiveMode::kSpill;
  config.spill_path = testing::TempDir() + "hp_spill_test.bin";
  config.spill_buffer_records = 7;  // odd, so flushes straddle drains
  spill.configure(config);

  for (const Packet& p : packets) {
    memory.append(p);
    spill.append(p);
  }
  EXPECT_EQ(spill.count(), memory.count());
  EXPECT_EQ(spill.dropped(), 0u);

  const auto a = memory.drain();
  const auto b = spill.drain();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].arrived_at, b[i].arrived_at);
    EXPECT_EQ(a[i].deflections, b[i].deflections);
  }

  for (const PacketId id : {PacketId{0}, PacketId{42}, PacketId{99}}) {
    const Packet* ma = memory.find(id);
    const Packet* mb = spill.find(id);
    ASSERT_NE(ma, nullptr);
    ASSERT_NE(mb, nullptr);
    EXPECT_EQ(ma->arrived_at, mb->arrived_at);
  }
  EXPECT_EQ(spill.find(1000), nullptr);
}

TEST(ArrivalLogSpill, EngineRunWithSpillMatchesMemoryArchive) {
  net::Mesh mesh(2, 8);
  Rng rng_a(5);
  Rng rng_b(5);
  auto pa = workload::random_permutation(mesh, rng_a);
  auto pb = workload::random_permutation(mesh, rng_b);
  routing::RestrictedPriorityPolicy pol_a;
  routing::RestrictedPriorityPolicy pol_b;

  sim::EngineConfig mem_config;
  sim::EngineConfig spill_config;
  spill_config.archive.mode = sim::ArchiveMode::kSpill;
  spill_config.archive.spill_path =
      testing::TempDir() + "hp_spill_engine_test.bin";
  spill_config.archive.spill_buffer_records = 13;

  sim::Engine with_memory(mesh, pa, pol_a, mem_config);
  sim::Engine with_spill(mesh, pb, pol_b, spill_config);
  const auto ra = with_memory.run();
  const auto rb = with_spill.run();
  EXPECT_EQ(ra.steps, rb.steps);
  EXPECT_TRUE(rb.packets.empty()) << "spill mode must not snapshot";

  const auto archived_a = with_memory.arrival_log().drain();
  const auto archived_b = with_spill.arrival_log().drain();
  ASSERT_EQ(archived_a.size(), archived_b.size());
  for (std::size_t i = 0; i < archived_a.size(); ++i) {
    EXPECT_EQ(archived_a[i].id, archived_b[i].id);
    EXPECT_EQ(archived_a[i].arrived_at, archived_b[i].arrived_at);
  }
}

TEST(ArrivalLogSample, ReservoirIsExactAboutWhatItDropped) {
  const auto packets = arrivals(100);
  sim::ArrivalLog log;
  sim::ArchiveConfig config;
  config.mode = sim::ArchiveMode::kSample;
  config.sample_capacity = 16;
  config.sample_seed = 9;
  log.configure(config);
  for (const Packet& p : packets) log.append(p);

  EXPECT_EQ(log.count(), 100u);
  EXPECT_EQ(log.dropped(), 84u);  // exact: count − retained
  const auto kept = log.drain();
  ASSERT_EQ(kept.size(), 16u);
  for (std::size_t i = 1; i < kept.size(); ++i) {
    EXPECT_LT(kept[i - 1].id, kept[i].id);  // id order, no duplicates
  }
}

TEST(ArrivalLogSample, SamplingIsDeterministicInTheSeed) {
  const auto packets = arrivals(200);
  auto run = [&](std::uint64_t seed) {
    sim::ArrivalLog log;
    sim::ArchiveConfig config;
    config.mode = sim::ArchiveMode::kSample;
    config.sample_capacity = 8;
    config.sample_seed = seed;
    log.configure(config);
    for (const Packet& p : packets) log.append(p);
    return log.drain();
  };
  const auto a = run(4);
  const auto b = run(4);
  const auto c = run(5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  bool any_difference = a.size() != c.size();
  for (std::size_t i = 0; !any_difference && i < a.size(); ++i) {
    any_difference = a[i].id != c[i].id;
  }
  EXPECT_TRUE(any_difference) << "different seeds should sample differently";
}

TEST(ArrivalLog, CountOnlyModeDropsEverythingButCountsExactly) {
  sim::ArrivalLog log;
  log.set_keep_records(false);
  for (const Packet& p : arrivals(10)) log.append(p);
  EXPECT_EQ(log.count(), 10u);
  EXPECT_EQ(log.dropped(), 10u);
  EXPECT_TRUE(log.drain().empty());
}

TEST(ArrivalLog, ConfigureAfterAppendIsRejected) {
  sim::ArrivalLog log;
  log.append(arrivals(1)[0]);
  sim::ArchiveConfig config;
  config.mode = sim::ArchiveMode::kSample;
  EXPECT_THROW(log.configure(config), CheckError);
}

TEST(ArrivalLog, SpillNeedsAPath) {
  sim::ArrivalLog log;
  sim::ArchiveConfig config;
  config.mode = sim::ArchiveMode::kSpill;
  EXPECT_THROW(log.configure(config), CheckError);
}

}  // namespace
}  // namespace hp
