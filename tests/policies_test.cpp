// Routing policy tests: every greedy policy terminates, stays greedy
// (Definition 6), and the class-specific behaviours hold (Definition 18
// preference, Section 5 max-advancing, baseline bounds on small cases).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/bounds.hpp"
#include "routing/brassil_cruz.hpp"
#include "routing/ddim_priority.hpp"
#include "routing/greedy_variants.hpp"
#include "routing/hajek_hypercube.hpp"
#include "routing/perverse.hpp"
#include "routing/restricted_priority.hpp"
#include "routing/single_target.hpp"
#include "test_support.hpp"
#include "topology/hypercube.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

using test::make_problem;
using test::xy;

std::unique_ptr<sim::RoutingPolicy> make_policy(const std::string& kind,
                                                const net::Network& net) {
  if (kind == "restricted") {
    return std::make_unique<routing::RestrictedPriorityPolicy>();
  }
  if (kind == "restricted-random") {
    routing::RestrictedPriorityPolicy::Params params;
    params.tie_break = routing::RestrictedPriorityPolicy::TieBreak::kRandom;
    params.deflect = routing::DeflectRule::kRandom;
    return std::make_unique<routing::RestrictedPriorityPolicy>(params);
  }
  if (kind == "ddim") return std::make_unique<routing::DdimPriorityPolicy>();
  if (kind == "greedy-random") {
    return std::make_unique<routing::GreedyRandomPolicy>();
  }
  if (kind == "furthest") {
    return std::make_unique<routing::FurthestFirstPolicy>();
  }
  if (kind == "closest") return std::make_unique<routing::ClosestFirstPolicy>();
  if (kind == "id") return std::make_unique<routing::IdPriorityPolicy>();
  if (kind == "perverse") {
    return std::make_unique<routing::PerverseGreedyPolicy>();
  }
  if (kind == "brassil-cruz") {
    const auto* mesh = dynamic_cast<const net::Mesh*>(&net);
    return std::make_unique<routing::BrassilCruzPolicy>(
        routing::snake_rank(*mesh));
  }
  if (kind == "single-target") {
    return std::make_unique<routing::SingleTargetPolicy>();
  }
  ADD_FAILURE() << "unknown policy " << kind;
  return nullptr;
}

class AllPolicies : public ::testing::TestWithParam<std::string> {};

TEST_P(AllPolicies, TerminatesAndStaysGreedyOnRandomLoad) {
  net::Mesh mesh(2, 8);
  Rng rng(11);
  auto problem = workload::random_many_to_many(mesh, 96, rng);
  auto policy = make_policy(GetParam(), mesh);
  sim::EngineConfig config;
  config.max_steps = 200'000;
  auto run = test::run_checked(mesh, problem, *policy, config);
  EXPECT_TRUE(run.result.completed)
      << GetParam() << (run.result.livelocked ? " livelocked" : " timed out");
  EXPECT_TRUE(run.greedy_violations.empty())
      << GetParam() << ": " << run.greedy_violations.front();
}

TEST_P(AllPolicies, TerminatesOnPermutation) {
  net::Mesh mesh(2, 8);
  Rng rng(12);
  auto problem = workload::random_permutation(mesh, rng);
  auto policy = make_policy(GetParam(), mesh);
  sim::EngineConfig config;
  config.max_steps = 500'000;
  auto run = test::run_checked(mesh, problem, *policy, config);
  EXPECT_TRUE(run.result.completed) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllPolicies,
                         ::testing::Values("restricted", "restricted-random",
                                           "ddim", "greedy-random", "furthest",
                                           "closest", "id", "perverse",
                                           "brassil-cruz", "single-target"));

TEST(RestrictedPriority, AlwaysWithinThm20Bound) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    net::Mesh mesh(2, 8);
    Rng rng(seed);
    const std::size_t k = 8 + rng.uniform(120);
    auto problem = workload::random_many_to_many(mesh, k, rng);
    routing::RestrictedPriorityPolicy policy;
    sim::Engine engine(mesh, problem, policy);
    const auto result = engine.run();
    ASSERT_TRUE(result.completed);
    EXPECT_LE(static_cast<double>(result.steps),
              core::thm20_bound(8, static_cast<double>(k)));
  }
}

TEST(RestrictedPriority, SoloRestrictedPacketTakesShortestPath) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(1, 2)), mesh.node_at(xy(6, 2))}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const auto result = engine.run();
  EXPECT_EQ(result.steps, 5u);
  EXPECT_EQ(result.total_deflections, 0u);
}

TEST(RestrictedPriority, NameReflectsConfiguration) {
  routing::RestrictedPriorityPolicy plain;
  EXPECT_EQ(plain.name(), "restricted-priority");
  routing::RestrictedPriorityPolicy::Params params;
  params.tie_break = routing::RestrictedPriorityPolicy::TieBreak::kTypeAFirst;
  params.maximize_advancing = true;
  routing::RestrictedPriorityPolicy fancy(params);
  EXPECT_EQ(fancy.name(), "restricted-priority/typeA-first/max-adv");
  EXPECT_TRUE(fancy.deterministic());
  EXPECT_FALSE(
      routing::GreedyRandomPolicy().deterministic());
}

TEST(DdimPriority, MaximizesAdvancingPackets) {
  // 0:{+x,+y} then 1:{+x} at one node: sequential order would starve one;
  // the max-matching policy must advance both.
  net::Mesh mesh(2, 8);
  const auto mid = mesh.node_at(xy(3, 3));
  auto problem = make_problem(
      {{mid, mesh.node_at(xy(6, 6))},    // two good dirs, id 0
       {mid, mesh.node_at(xy(6, 3))}});  // east only, id 1
  routing::DdimPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);

  class CountAdvance : public sim::StepObserver {
   public:
    int first_step_advancers = -1;
    void on_step(const sim::Engine&, const sim::StepRecord& record) override {
      if (record.step != 0) return;
      first_step_advancers = 0;
      for (const auto& a : record.assignments) {
        if (a.advances()) ++first_step_advancers;
      }
    }
  } count;
  engine.add_observer(&count);
  engine.step();
  EXPECT_EQ(count.first_step_advancers, 2);
}

TEST(DdimPriority, RunsOnThreeDimensionalMesh) {
  net::Mesh mesh(3, 5);
  Rng rng(13);
  auto problem = workload::random_many_to_many(mesh, 150, rng);
  routing::DdimPriorityPolicy policy;
  auto run = test::run_checked(mesh, problem, policy);
  ASSERT_TRUE(run.result.completed);
  EXPECT_TRUE(run.greedy_violations.empty());
  EXPECT_LE(static_cast<double>(run.result.steps),
            core::ddim_bound(3, 5, 150.0));
}

TEST(BrassilCruz, WithinReferenceBoundOnSmallCases) {
  net::Mesh mesh(2, 6);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    const std::size_t k = 4 + rng.uniform(30);
    auto problem = workload::random_many_to_many(mesh, k, rng);
    routing::BrassilCruzPolicy policy(routing::snake_rank(mesh));
    sim::Engine engine(mesh, problem, policy);
    const auto result = engine.run();
    ASSERT_TRUE(result.completed);
    const double walk = static_cast<double>(mesh.num_nodes()) - 1.0;
    EXPECT_LE(static_cast<double>(result.steps),
              core::brassil_cruz_bound(mesh.diameter(), walk,
                                       static_cast<double>(k)));
  }
}

TEST(BrassilCruz, SnakeRankIsHamiltonianWalk) {
  net::Mesh mesh(2, 4);
  const auto rank = routing::snake_rank(mesh);
  // Ranks are a permutation of 0..15 and consecutive ranks are adjacent.
  std::vector<net::NodeId> by_rank(mesh.num_nodes());
  std::vector<bool> seen(mesh.num_nodes(), false);
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(mesh.num_nodes());
       ++v) {
    ASSERT_GE(rank[static_cast<std::size_t>(v)], 0);
    ASSERT_LT(rank[static_cast<std::size_t>(v)],
              static_cast<int>(mesh.num_nodes()));
    seen[static_cast<std::size_t>(rank[static_cast<std::size_t>(v)])] = true;
    by_rank[static_cast<std::size_t>(rank[static_cast<std::size_t>(v)])] = v;
  }
  for (bool b : seen) EXPECT_TRUE(b);
  for (std::size_t r = 0; r + 1 < by_rank.size(); ++r) {
    EXPECT_EQ(mesh.distance(by_rank[r], by_rank[r + 1]), 1);
  }
}

TEST(Hajek, WithinTwoKPlusNOnHypercube) {
  for (int dim : {4, 6}) {
    net::Hypercube cube(dim);
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      Rng rng(seed + 100);
      const std::size_t k = 2 + rng.uniform(3 * cube.num_nodes() / 2);
      auto problem = workload::random_many_to_many(cube, k, rng);
      routing::HajekHypercubePolicy policy;
      sim::Engine engine(cube, problem, policy);
      const auto result = engine.run();
      ASSERT_TRUE(result.completed);
      EXPECT_LE(static_cast<double>(result.steps),
                core::hajek_bound(static_cast<double>(k), dim))
          << "dim=" << dim << " k=" << k;
    }
  }
}

TEST(SingleTarget, WithinBtsStyleBound) {
  net::Mesh mesh(2, 8);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed + 7);
    const std::size_t k = 10 + rng.uniform(60);
    auto problem =
        workload::single_target(mesh, k, mesh.node_at(xy(4, 4)), rng);
    routing::SingleTargetPolicy policy;
    sim::Engine engine(mesh, problem, policy);
    const auto result = engine.run();
    ASSERT_TRUE(result.completed);
    const int dmax = problem.max_distance(mesh);
    // Upper bound k + d_max claimed in [BTS]; lower bound from absorption.
    EXPECT_LE(static_cast<double>(result.steps),
              static_cast<double>(k) + dmax);
    EXPECT_GE(static_cast<double>(result.steps),
              core::single_target_lower_bound(static_cast<double>(k), dmax, 4) -
                  0.0);
  }
}

TEST(Policies, RandomizedPolicyReproducesUnderSameSeed) {
  // Reproducibility contract: a randomized policy with the same engine
  // seed yields bit-identical per-packet outcomes.
  net::Mesh mesh(2, 8);
  Rng rng(77);
  auto problem = workload::random_many_to_many(mesh, 80, rng);
  sim::RunResult results[2];
  for (int i = 0; i < 2; ++i) {
    routing::GreedyRandomPolicy policy;
    sim::EngineConfig config;
    config.seed = 12345;
    sim::Engine engine(mesh, problem, policy, config);
    results[i] = engine.run();
    ASSERT_TRUE(results[i].completed);
  }
  EXPECT_EQ(results[0].steps, results[1].steps);
  EXPECT_EQ(results[0].total_deflections, results[1].total_deflections);
  for (std::size_t i = 0; i < results[0].packets.size(); ++i) {
    EXPECT_EQ(results[0].packets[i].arrived_at,
              results[1].packets[i].arrived_at);
    EXPECT_EQ(results[0].packets[i].deflections,
              results[1].packets[i].deflections);
  }
}

TEST(Policies, RandomizedPolicyVariesAcrossSeeds) {
  net::Mesh mesh(2, 8);
  Rng rng(55);
  auto problem = workload::random_many_to_many(mesh, 80, rng);
  std::set<std::uint64_t> times;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    routing::GreedyRandomPolicy policy;
    sim::EngineConfig config;
    config.seed = seed;
    sim::Engine engine(mesh, problem, policy, config);
    const auto result = engine.run();
    ASSERT_TRUE(result.completed);
    times.insert(result.steps);
  }
  EXPECT_GT(times.size(), 1u) << "random tie-breaking had no effect";
}

}  // namespace
}  // namespace hp
