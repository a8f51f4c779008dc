// Torus-specific routing behaviour: wraparound shortest paths, greedy
// routing across the seam, and the antipodal "both directions good" case
// that does not exist on the mesh.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/checkers.hpp"
#include "routing/greedy_variants.hpp"
#include "routing/restricted_priority.hpp"
#include "test_support.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

using test::make_problem;
using test::xy;

TEST(TorusRouting, PacketTakesTheWrapShortcut) {
  net::Mesh torus(2, 8, /*wrap=*/true);
  // (0,0) → (7,0): distance 1 across the seam, 7 the long way.
  auto problem = make_problem(
      {{torus.node_at(xy(0, 0)), torus.node_at(xy(7, 0))}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(torus, problem, policy);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.steps, 1u);
}

TEST(TorusRouting, AntipodalPacketHasAllDirectionsGood) {
  // On an even torus a packet antipodal to its destination can shrink the
  // distance along every one of the 2d directions.
  net::Mesh torus(2, 8, /*wrap=*/true);
  const auto src = torus.node_at(xy(0, 0));
  const auto dst = torus.node_at(xy(4, 4));
  EXPECT_EQ(torus.good_mask(src, dst), 0b1111u);
  auto problem = make_problem({{src, dst}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(torus, problem, policy);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.steps, 8u);  // torus distance
}

TEST(TorusRouting, AlignedAxisHasNoGoodDirection) {
  // Once an axis is aligned, both of its directions are bad — also on the
  // torus (moving either way increases the wrap distance from 0 to 1).
  net::Mesh torus(2, 8, /*wrap=*/true);
  const auto src = torus.node_at(xy(3, 0));
  const auto dst = torus.node_at(xy(3, 5));
  const std::uint32_t good = torus.good_mask(src, dst);
  ASSERT_TRUE(std::has_single_bit(good));
  EXPECT_EQ(net::Mesh::axis_of(test::lowest_dir(good)), 1);
}

class TorusPolicySweep : public ::testing::TestWithParam<int> {};

TEST_P(TorusPolicySweep, GreedyRoutingCompletesAndStaysGreedy) {
  const int n = GetParam();
  net::Mesh torus(2, n, /*wrap=*/true);
  Rng rng(static_cast<std::uint64_t>(n) * 3 + 1);
  auto problem = workload::random_permutation(torus, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::EngineConfig config;
  config.max_steps = 100'000;
  auto run = test::run_checked(torus, problem, policy, config);
  ASSERT_TRUE(run.result.completed);
  EXPECT_TRUE(run.greedy_violations.empty());
  EXPECT_TRUE(run.preference_violations.empty());
  // Torus diameter is n (vs 2(n−1) for the mesh); random permutations
  // should finish within a small multiple of it.
  EXPECT_LE(run.result.steps, static_cast<std::uint64_t>(6 * n));
}

INSTANTIATE_TEST_SUITE_P(Sides, TorusPolicySweep,
                         ::testing::Values(4, 6, 8, 16));

TEST(TorusRouting, FasterThanMeshOnInversion) {
  // The inversion permutation crosses the whole mesh but wraps cheaply on
  // the torus: corner packets travel 2 hops instead of 2(n−1).
  const int n = 8;
  net::Mesh mesh(2, n), torus(2, n, /*wrap=*/true);
  auto mesh_problem = workload::inversion(mesh);
  auto torus_problem = workload::inversion(torus);
  routing::RestrictedPriorityPolicy p1, p2;
  sim::Engine e1(mesh, mesh_problem, p1), e2(torus, torus_problem, p2);
  const auto mesh_result = e1.run();
  const auto torus_result = e2.run();
  ASSERT_TRUE(mesh_result.completed && torus_result.completed);
  EXPECT_LT(torus_result.steps, mesh_result.steps);
}

TEST(TorusRouting, TornadoRoutesNearOptimally) {
  // Tornado: every packet travels n/2 − 1 along its row, all in the same
  // direction — each row's "+x" ring is loaded identically, and since each
  // packet can use its row exclusively, greedy routes it without conflict.
  net::Mesh torus(2, 8, /*wrap=*/true);
  workload::Problem problem;  // (x, y) → (x + n/2 − 1 mod n, y)
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(torus.num_nodes());
       ++v) {
    net::Coord to = torus.coords(v);
    to[0] = (to[0] + 3) % 8;
    problem.packets.push_back({v, torus.node_at(to)});
  }
  EXPECT_EQ(problem.max_distance(torus), 3);  // n/2 − 1
  routing::RestrictedPriorityPolicy policy;
  auto run = test::run_checked(torus, problem, policy);
  ASSERT_TRUE(run.result.completed);
  EXPECT_TRUE(run.greedy_violations.empty());
  EXPECT_EQ(run.result.steps, 3u);
  EXPECT_EQ(run.result.total_deflections, 0u);
}

TEST(TorusRouting, ThreeDTorusPermutation) {
  net::Mesh torus(3, 4, /*wrap=*/true);
  Rng rng(99);
  auto problem = workload::random_permutation(torus, rng);
  routing::GreedyRandomPolicy policy;
  sim::EngineConfig config;
  config.max_steps = 100'000;
  auto run = test::run_checked(torus, problem, policy, config);
  ASSERT_TRUE(run.result.completed);
  EXPECT_TRUE(run.greedy_violations.empty());
}

}  // namespace
}  // namespace hp
