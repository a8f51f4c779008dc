// Trace recording and ASCII rendering tests (plus injection placement).
#include <gtest/gtest.h>

#include "routing/restricted_priority.hpp"
#include "sim/trace.hpp"
#include "test_support.hpp"
#include "util/check.hpp"

namespace hp::sim {
namespace {

using test::make_problem;
using test::xy;

TEST(Trace, RecordsOneSnapshotPerStep) {
  net::Mesh mesh(2, 6);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(3, 0))}});
  routing::RestrictedPriorityPolicy policy;
  Engine engine(mesh, problem, policy);
  TraceRecorder trace;
  engine.add_observer(&trace);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(trace.snapshots().size(), result.steps_executed);
  // First snapshot is post-move of step 0: the packet is at (1,0).
  ASSERT_EQ(trace.snapshots()[0].positions.size(), 1u);
  EXPECT_EQ(trace.snapshots()[0].positions[0].second, mesh.node_at(xy(1, 0)));
  // Final snapshot: packet absorbed, nothing in flight.
  EXPECT_TRUE(trace.snapshots().back().positions.empty());
}

TEST(Trace, RenderMarksOccupancyAndBadNodes) {
  net::Mesh mesh(2, 4);
  TraceRecorder::Snapshot snap;
  snap.step = 7;
  const auto center = mesh.node_at(xy(1, 1));
  snap.positions = {{0, center}, {1, center}, {2, center},
                    {3, mesh.node_at(xy(0, 0))}};
  const std::string art = render_grid(mesh, snap);
  EXPECT_NE(art.find("t=7"), std::string::npos);
  EXPECT_NE(art.find("[3]"), std::string::npos);  // bad node (3 > d = 2)
  EXPECT_NE(art.find(" 1 "), std::string::npos);  // singly occupied
  EXPECT_NE(art.find(" . "), std::string::npos);  // empty nodes
}

TEST(Trace, RenderRejectsNon2D) {
  net::Mesh mesh(3, 4);
  TraceRecorder::Snapshot snap;
  EXPECT_THROW(render_grid(mesh, snap), CheckError);
}

TEST(Engine, PacketsAtReportsResidents) {
  net::Mesh mesh(2, 6);
  const auto a = mesh.node_at(xy(2, 2));
  auto problem = make_problem({{a, 0}, {a, 35}, {5, 30}});
  routing::RestrictedPriorityPolicy policy;
  Engine engine(mesh, problem, policy);
  const auto residents = [&](net::NodeId node) {
    std::size_t count = 0;
    const FlightTable& flight = engine.flight();
    for (FlightTable::Slot s = 0; s < flight.end_slot(); ++s) {
      count += flight.pos(s) == node ? 1 : 0;
    }
    return count;
  };
  EXPECT_EQ(residents(a), 2u);
  EXPECT_EQ(residents(5), 1u);
  EXPECT_EQ(residents(17), 0u);
}

}  // namespace
}  // namespace hp::sim
