// Property suite for Theorem 20: across meshes, loads, seeds and every
// tie-break variant in the class, measured routing time never exceeds
// 8√2 · n · √k, and the runs satisfy the full set of paper invariants.
#include <gtest/gtest.h>

#include <memory>

#include "core/bounds.hpp"
#include "core/checkers.hpp"
#include "core/potential.hpp"
#include "routing/restricted_priority.hpp"
#include "test_support.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

// gtest prints a parameter's raw bytes into the test's listed name, so Case
// must have no padding: `n` is 64-bit to keep uninitialized bytes out of it.
struct Case {
  std::int64_t n;
  std::size_t k;
  std::uint64_t seed;
  routing::RestrictedPriorityPolicy::TieBreak tie_break;
  routing::DeflectRule deflect;
};

class Thm20Sweep : public ::testing::TestWithParam<Case> {};

TEST_P(Thm20Sweep, BoundHolds) {
  const Case c = GetParam();
  const int n = static_cast<int>(c.n);
  net::Mesh mesh(2, n);
  Rng rng(c.seed);
  auto problem = workload::random_many_to_many(mesh, c.k, rng);

  routing::RestrictedPriorityPolicy::Params params;
  params.tie_break = c.tie_break;
  params.deflect = c.deflect;
  routing::RestrictedPriorityPolicy policy(params);

  sim::EngineConfig config;
  config.seed = c.seed + 1;
  sim::Engine engine(mesh, problem, policy, config);
  core::PotentialTracker::Config potential_config;
  potential_config.c_init = 2 * n;
  potential_config.d = 2;
  core::PotentialTracker potential(mesh, engine, potential_config);
  core::RestrictedPreferenceChecker preference;
  engine.add_observer(&potential);
  engine.add_observer(&preference);

  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  EXPECT_LE(static_cast<double>(result.steps),
            core::thm20_bound(n, static_cast<double>(c.k)));
  EXPECT_TRUE(preference.violations().empty());
  EXPECT_TRUE(potential.property8_violations().empty());
  EXPECT_TRUE(potential.structure_violations().empty());
  // Theorem 17's premise: Φ(0) ≤ k·M with M = 4n.
  EXPECT_LE(static_cast<double>(potential.phi_series().front()),
            core::phi0_upper(static_cast<double>(c.k), 4.0 * n));
}

std::vector<Case> make_cases() {
  using TieBreak = routing::RestrictedPriorityPolicy::TieBreak;
  std::vector<Case> cases;
  const TieBreak ties[] = {TieBreak::kArrivalOrder, TieBreak::kRandom,
                           TieBreak::kTypeAFirst, TieBreak::kTypeBFirst};
  const routing::DeflectRule rules[] = {routing::DeflectRule::kFirstFree,
                                        routing::DeflectRule::kRandom,
                                        routing::DeflectRule::kStraight};
  std::uint64_t seed = 1;
  for (int n : {4, 8, 12}) {
    for (std::size_t k :
         {std::size_t{2}, static_cast<std::size_t>(n),
          static_cast<std::size_t>(n) * n / 2,
          static_cast<std::size_t>(n) * n}) {
      for (const auto tie : ties) {
        for (const auto rule : rules) {
          cases.push_back(Case{n, k, seed++, tie, rule});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Thm20Sweep, ::testing::ValuesIn(make_cases()),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      const Case& c = param_info.param;
      return "n" + std::to_string(c.n) + "_k" + std::to_string(c.k) + "_tie" +
             std::to_string(static_cast<int>(c.tie_break)) + "_defl" +
             std::to_string(static_cast<int>(c.deflect));
    });

TEST(Thm20, AdversarialWorkloadsStayUnderBound) {
  net::Mesh mesh(2, 8);
  Rng rng(5150);
  const std::vector<workload::Problem> adversarial = {
      workload::transpose(mesh), workload::bit_reversal(mesh),
      workload::inversion(mesh), workload::corner_to_corner(mesh, rng),
      workload::hotspot(mesh, 100, 1, rng)};
  for (const auto& problem : adversarial) {
    routing::RestrictedPriorityPolicy policy;
    sim::Engine engine(mesh, problem, policy);
    const auto result = engine.run();
    ASSERT_TRUE(result.completed) << problem.name;
    EXPECT_LE(static_cast<double>(result.steps),
              core::thm20_bound(8, static_cast<double>(problem.size())))
        << problem.name;
  }
}

TEST(Thm20, MeasuredTimeGrowsSublinearlyInK) {
  // The bound is Θ(√k) for fixed n; the measured curve should grow far
  // more slowly than linearly in k (this is the "superb performance in
  // simulations" the paper reports). We check a weak, robust form:
  // doubling k from n²/4 to n²/2 must not triple the routing time.
  net::Mesh mesh(2, 16);
  Rng rng(246);
  auto p1 = workload::random_many_to_many(mesh, 64, rng);
  auto p2 = workload::random_many_to_many(mesh, 128, rng);
  routing::RestrictedPriorityPolicy policy1, policy2;
  sim::Engine e1(mesh, p1, policy1), e2(mesh, p2, policy2);
  const auto r1 = e1.run(), r2 = e2.run();
  ASSERT_TRUE(r1.completed && r2.completed);
  EXPECT_LT(static_cast<double>(r2.steps),
            3.0 * static_cast<double>(r1.steps) + 30.0);
}

}  // namespace
}  // namespace hp
