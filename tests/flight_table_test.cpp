// FlightTable columns and the ArrivalLog (docs/SCALE.md): the engine's
// footprint, overflow boundaries of the 32-bit bookkeeping columns and the
// 32-bit id space, and the count-only archive.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "routing/restricted_priority.hpp"
#include "sim/engine.hpp"
#include "sim/flight_table.hpp"
#include "sim/injection.hpp"
#include "topology/hypercube.hpp"
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

TEST(FlightTableFootprint, EngineKeepsNoPerNodeTopologyState) {
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

/// Counts the distinct nodes routed in each step; keeps the last count.
class RoutedNodes : public sim::StepObserver {
 public:
  void on_step(const sim::Engine& /*engine*/,
               const sim::StepRecord& r) override {
    last = 0;
    const auto& a = r.assignments;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i == 0 || a[i].node != a[i - 1].node) ++last;
    }
  }
  std::size_t last = 0;
};

TEST(FlightTableFootprint, OccupancyIsOneRowOfDirectionCountIdsPerNode) {
  // Each node owns num_dirs() id slots (4 B each) and a 1-B count; the
  // rest of occupancy_bytes is the occupied-node list, one 4-B id per
  // routed node up to its vector's spare capacity.
  net::Mesh mesh(2, 16);
  net::Hypercube cube(6);
  for (const net::Network* net : {static_cast<const net::Network*>(&mesh),
                                  static_cast<const net::Network*>(&cube)}) {
    SCOPED_TRACE(net->name());
    Rng rng(3);
    auto problem = workload::saturated_random(*net, 4, rng);
    routing::RestrictedPriorityPolicy policy;
    sim::Engine engine(*net, problem, policy);
    const std::size_t rows =
        net->num_nodes() * (4 * static_cast<std::size_t>(net->num_dirs()) + 1);
    EXPECT_EQ(engine.memory_stats().occupancy_bytes, rows);

    RoutedNodes routed;
    engine.add_observer(&routed);
    engine.step();
    const std::size_t list = engine.memory_stats().occupancy_bytes - rows;
    EXPECT_EQ(list % sizeof(net::NodeId), 0u);
    EXPECT_GE(list, routed.last * sizeof(net::NodeId));
    EXPECT_LT(list, 2 * net->num_nodes() * sizeof(net::NodeId));
  }
}

TEST(FlightTableFootprint, ContinuousRunFootprintTracksInFlightNotDelivered) {
  // A step touches only the in-flight packets, so its cost is O(in-flight)
  // rather than O(delivered): without the arrival archive, nothing the
  // engine holds grows with the delivered count. 50 000 more steps deliver
  // about half a million more packets and leave the footprint unchanged.
  net::Mesh mesh(2, 8);
  routing::RestrictedPriorityPolicy policy;
  sim::EngineConfig config;
  config.seed = 9;
  config.archive_arrivals = false;
  sim::Engine engine(mesh, {}, policy, config);
  sim::BernoulliInjector injector(0.2, 41);
  engine.set_injector(&injector);

  engine.run_for(10'000);
  const std::size_t early = engine.memory_stats().total();
  const std::uint64_t delivered_early = engine.delivered();
  engine.run_for(50'000);
  const sim::EngineMemoryStats late = engine.memory_stats();
  EXPECT_GT(engine.delivered(), 4 * delivered_early);
  EXPECT_EQ(late.archive_bytes, 0u);
  EXPECT_EQ(late.total(), early);
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

TEST(FlightTableOverflow, InjectedAtOverflowIsCheckedNotTruncated) {
  sim::FlightTable table;
  Packet p = flying(0, 1, 2, 1);
  p.injected_at = std::uint64_t{kU32Max} + 1;
  const std::string error = check_error_of([&] { table.insert(p); });
  EXPECT_NE(error.find("'injected_at' overflows 32 bits"), std::string::npos)
      << error;
  EXPECT_NE(error.find("2^32 horizon"), std::string::npos) << error;
  EXPECT_TRUE(table.empty()) << "a rejected insert must leave no column behind";
}

TEST(FlightTableOverflow, DeflectionCounterSaturatesWithAnError) {
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
  const Packet out = table.remove(0, 1);
  EXPECT_EQ(out.src, big);
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
  EXPECT_THROW(restored.deserialize(r, 1), CheckError);
}

// --- ArrivalLog --------------------------------------------------------------

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

TEST(ArrivalLog, KeptRecordsAreFoundById) {
  sim::ArrivalLog log;
  const auto packets = arrivals(100);
  for (auto it = packets.rbegin(); it != packets.rend(); ++it) log.append(*it);
  EXPECT_EQ(log.count(), 100u);
  ASSERT_EQ(log.records().size(), 100u);
  EXPECT_EQ(log.records().front().id, 99);  // arrival order, not id order
  for (const PacketId id : {PacketId{0}, PacketId{42}, PacketId{99}}) {
    const Packet* p = log.find(id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->id, id);
    EXPECT_EQ(p->arrived_at, static_cast<std::uint64_t>(id) + 3);
  }
  EXPECT_EQ(log.find(1000), nullptr);
}

TEST(ArrivalLog, CountOnlyModeDropsEverythingButCountsExactly) {
  sim::ArrivalLog log;
  log.set_keep_records(false);
  for (const Packet& p : arrivals(10)) log.append(p);
  EXPECT_EQ(log.count(), 10u);
  EXPECT_TRUE(log.records().empty());
  EXPECT_EQ(log.find(3), nullptr);
}

}  // namespace
}  // namespace hp
