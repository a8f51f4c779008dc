// Higher-dimensional mesh routing: the Section 5 setting (d ≥ 3), with
// the generalized potential audit, bound checks and hypercube audits.
#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/checkers.hpp"
#include "core/potential.hpp"
#include "routing/ddim_priority.hpp"
#include "routing/greedy_variants.hpp"
#include "routing/restricted_priority.hpp"
#include "test_support.hpp"
#include "topology/hypercube.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

class DdimSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(DdimSweep, BoundAndGreedinessHold) {
  const auto [d, n, k] = GetParam();
  net::Mesh mesh(d, n);
  if (k > test::arc_count(mesh)) GTEST_SKIP() << "over origin capacity";
  Rng rng(static_cast<std::uint64_t>(d) * 100 + n + k);
  auto problem = workload::random_many_to_many(mesh, k, rng);
  routing::DdimPriorityPolicy policy;
  sim::EngineConfig config;
  config.max_steps = 500'000;
  auto run = test::run_checked(mesh, problem, policy, config);
  ASSERT_TRUE(run.result.completed) << mesh.name();
  EXPECT_TRUE(run.greedy_violations.empty());
  EXPECT_LE(static_cast<double>(run.result.steps),
            core::ddim_bound(d, n, static_cast<double>(k)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DdimSweep,
    ::testing::Values(std::tuple{3, 4, std::size_t{32}},
                      std::tuple{3, 4, std::size_t{128}},
                      std::tuple{3, 6, std::size_t{216}},
                      std::tuple{4, 3, std::size_t{81}},
                      std::tuple{4, 4, std::size_t{256}},
                      std::tuple{5, 3, std::size_t{100}}));

class DdimPotentialSweep : public ::testing::TestWithParam<int> {};

TEST_P(DdimPotentialSweep, NaivePotentialLiftIsAlmostButNotQuiteEnough) {
  // Empirical Property 8 status of the naive d-dim lift of the §4.2 rules
  // (the paper's own d-dim potential is different — M = 4^d·n^{d−1} — and
  // unpublished; see DESIGN.md). Measured finding, frozen here: for d ≥ 3
  // the lift *occasionally* violates Property 8 (a deflected packet with
  // 2…d−1 good directions is covered by advancers that carry no spare
  // potential), with small magnitude (slack ≥ −2·d) and low rate. This is
  // exactly the gap that forces Section 5's heavier construction. The C_p
  // chain invariant (C ≥ 2 in flight) and the Φ accounting stay intact.
  const int d = GetParam();
  const int n = d == 3 ? 5 : 3;
  net::Mesh mesh(d, n);
  std::size_t total_violations = 0;
  std::uint64_t total_node_steps = 0;
  std::int64_t min_slack = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(d));
    auto problem =
        workload::random_many_to_many(mesh, mesh.num_nodes(), rng);
    routing::DdimPriorityPolicy policy;
    sim::Engine engine(mesh, problem, policy);
    core::PotentialTracker::Config config;
    config.c_init = 2 * n;
    config.d = d;
    core::PotentialTracker potential(mesh, engine, config);
    engine.add_observer(&potential);
    const auto result = engine.run();
    ASSERT_TRUE(result.completed);
    total_violations += potential.property8_violations().size();
    total_node_steps += result.total_advances + result.total_deflections;
    min_slack = std::min(min_slack, potential.min_slack());
    EXPECT_GE(potential.min_c(), 2);  // the chain argument IS dimension-free
    EXPECT_EQ(potential.phi(), 0);
  }
  // Violations exist but are rare and shallow — the quantitative shape of
  // the gap (update EXPERIMENTS.md if this ever shifts).
  EXPECT_LT(static_cast<double>(total_violations),
            0.001 * static_cast<double>(total_node_steps))
      << "d=" << d;
  EXPECT_GE(min_slack, -2 * d) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Dims, DdimPotentialSweep,
                         ::testing::Values(3, 4, 5));

TEST(DdimRouting, RestrictedPriorityAlsoWorksInThreeD) {
  // The 2-D policy class is well-defined for any d (restricted = exactly
  // one good direction); it just lacks the §5 max-advancing guarantee.
  net::Mesh mesh(3, 5);
  Rng rng(31);
  auto problem = workload::random_many_to_many(mesh, 200, rng);
  routing::RestrictedPriorityPolicy policy;
  auto run = test::run_checked(mesh, problem, policy);
  ASSERT_TRUE(run.result.completed);
  EXPECT_TRUE(run.greedy_violations.empty());
  EXPECT_TRUE(run.preference_violations.empty());
}

TEST(DdimRouting, FiveDimensionalPaperExample) {
  // The packet from the Definition 5 example (0-based): at ⟨0,2,1,5,0⟩
  // going to ⟨3,2,7,1,0⟩ — three good directions; a lone packet routes in
  // exactly its distance 3 + 6 + 4 = 13.
  net::Mesh mesh(5, 9);
  net::Coord at;
  for (int x : {0, 2, 1, 5, 0}) at.push_back(x);
  net::Coord to;
  for (int x : {3, 2, 7, 1, 0}) to.push_back(x);
  auto problem =
      test::make_problem({{mesh.node_at(at), mesh.node_at(to)}});
  routing::DdimPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.steps, 13u);
}

TEST(HypercubeRouting, AuditCleanUnderIdPriority) {
  net::Hypercube cube(6);
  Rng rng(61);
  auto problem = workload::random_many_to_many(cube, 128, rng);
  routing::IdPriorityPolicy policy;
  auto run = test::run_checked(cube, problem, policy);
  ASSERT_TRUE(run.result.completed);
  EXPECT_TRUE(run.greedy_violations.empty());
  EXPECT_LE(static_cast<double>(run.result.steps),
            core::hajek_bound(128.0, 6));
}

TEST(HypercubeRouting, SingleTargetSaturatesInArcs) {
  net::Hypercube cube(6);  // in-degree 6
  Rng rng(62);
  auto problem = workload::single_target(cube, 120, 0, rng);
  routing::IdPriorityPolicy policy;
  sim::Engine engine(cube, problem, policy);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  EXPECT_GE(static_cast<double>(result.steps),
            core::single_target_lower_bound(120.0,
                                            problem.max_distance(cube), 6));
}

}  // namespace
}  // namespace hp
