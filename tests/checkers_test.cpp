// Tests for the Definition 6 / Definition 18 runtime checkers and the
// restricted-packet census (§4.1 taxonomy, Figures 5–6 concepts).
#include <gtest/gtest.h>

#include "core/checkers.hpp"
#include "routing/greedy_variants.hpp"
#include "routing/perverse.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/engine.hpp"
#include "test_support.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

using test::make_problem;
using test::xy;

/// A policy that violates greediness on purpose: it deflects every packet
/// that did not get its FIRST good arc, even when other good arcs are free.
class NonGreedyPolicy : public sim::RoutingPolicy {
 public:
  std::string name() const override { return "non-greedy"; }
  bool deterministic() const override { return true; }
  void route(const sim::NodeContext& ctx,
             std::span<const sim::PacketView> packets,
             std::span<net::Dir> out) override {
    std::uint32_t used = 0;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      out[i] = net::kInvalidDir;
      const net::Dir first = test::lowest_dir(packets[i].good_mask);
      if (((used >> first) & 1u) == 0) {
        out[i] = first;
        used |= std::uint32_t{1} << first;
      }
    }
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if (out[i] != net::kInvalidDir) continue;
      // Deliberately pick a BAD arc even if another good one is free.
      const std::uint32_t free = ctx.arcs & ~used;
      const std::uint32_t bad = free & ~packets[i].good_mask;
      const std::uint32_t pick = bad != 0 ? bad : free;
      if (pick == 0) continue;
      out[i] = test::lowest_dir(pick);
      used |= std::uint32_t{1} << out[i];
    }
  }
};

/// NonGreedyPolicy that LIES about conforming to Definition 6. Under
/// HP_AUDIT the engine attaches the GreedyChecker to any claiming policy,
/// so the false claim must abort the run — the audit gate's negative path.
class LyingGreedyPolicy : public NonGreedyPolicy {
 public:
  std::string name() const override { return "lying-greedy"; }
  bool claims_greedy() const override { return true; }
};

/// Genuinely greedy (FurthestFirst inherits the Definition 6 discipline)
/// but falsely claims the Definition 18 restricted preference it does not
/// implement.
class LyingPreferencePolicy : public routing::FurthestFirstPolicy {
 public:
  std::string name() const override { return "lying-preference"; }
  bool claims_restricted_preference() const override { return true; }
};

TEST(AuditGate, FalseGreedyClaimAbortsTheRun) {
#ifndef HP_AUDIT
  GTEST_SKIP() << "HP_AUDIT is off: claims are not audited in this build";
#else
  // Same scenario FlagsNonGreedyPolicy proves violates Definition 6; with
  // the false claim the engine itself must throw on the first step.
  net::Mesh mesh(2, 8);
  const auto mid = mesh.node_at(xy(3, 3));
  auto problem = make_problem(
      {{mid, mesh.node_at(xy(6, 6))}, {mid, mesh.node_at(xy(6, 5))}});
  LyingGreedyPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  EXPECT_THROW(engine.step(), CheckError);
#endif
}

TEST(AuditGate, FalsePreferenceClaimAbortsTheRun) {
#ifndef HP_AUDIT
  GTEST_SKIP() << "HP_AUDIT is off: claims are not audited in this build";
#else
  // Same scenario FlagsPolicyIgnoringRestrictedPackets proves violates
  // Definition 18 while staying greedy: only the preference claim is a lie.
  net::Mesh mesh(2, 8);
  const auto mid = mesh.node_at(xy(3, 3));
  auto problem = make_problem(
      {{mid, mesh.node_at(xy(5, 3))},    // restricted east, dist 2
       {mid, mesh.node_at(xy(7, 7))}});  // unrestricted, dist 8 (wins)
  LyingPreferencePolicy policy;
  sim::Engine engine(mesh, problem, policy);
  EXPECT_THROW(engine.step(), CheckError);
#endif
}

TEST(GreedyChecker, CleanOnGreedyPolicies) {
  net::Mesh mesh(2, 8);
  Rng rng(1);
  auto problem = workload::random_many_to_many(mesh, 60, rng);
  routing::RestrictedPriorityPolicy policy;
  auto run = test::run_checked(mesh, problem, policy);
  ASSERT_TRUE(run.result.completed);
  EXPECT_TRUE(run.greedy_violations.empty());
  EXPECT_TRUE(run.preference_violations.empty());
}

TEST(GreedyChecker, FlagsNonGreedyPolicy) {
  // Two packets at one node, both with two good dirs that overlap in one:
  // the non-greedy policy deflects the loser onto a bad arc while its
  // second good arc stays free.
  net::Mesh mesh(2, 8);
  const auto mid = mesh.node_at(xy(3, 3));
  auto problem = make_problem(
      {{mid, mesh.node_at(xy(6, 6))},    // good: {+x, +y}
       {mid, mesh.node_at(xy(6, 5))}});  // good: {+x, +y}
  NonGreedyPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::GreedyChecker checker;
  engine.add_observer(&checker);
  engine.step();
  EXPECT_FALSE(checker.violations().empty());
}

TEST(GreedyChecker, CountsDeflections) {
  net::Mesh mesh(2, 8);
  const auto mid = mesh.node_at(xy(3, 3));
  const auto east = mesh.node_at(xy(6, 3));
  auto problem = make_problem({{mid, east}, {mid, east}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::GreedyChecker checker;
  engine.add_observer(&checker);
  // Both packets want the one east arc: one advances, one is deflected, and
  // the checker accepts that deflection as greedy.
  EXPECT_EQ(engine.run_for(1).total_deflections, 1u);
  EXPECT_EQ(checker.steps_checked(), 1u);
  EXPECT_TRUE(checker.violations().empty());
}

TEST(PreferenceChecker, FlagsPolicyIgnoringRestrictedPackets) {
  // furthest-first: a far nonrestricted packet can deflect a near
  // restricted one — legal greedy, but outside the Definition 18 class.
  net::Mesh mesh(2, 8);
  const auto mid = mesh.node_at(xy(3, 3));
  auto problem = make_problem(
      {{mid, mesh.node_at(xy(5, 3))},    // restricted east, dist 2
       {mid, mesh.node_at(xy(7, 7))}});  // unrestricted, dist 8 (wins)
  routing::FurthestFirstPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::RestrictedPreferenceChecker checker;
  core::GreedyChecker greedy;
  engine.add_observer(&checker);
  engine.add_observer(&greedy);
  engine.step();
  // The far packet takes east (its first good arc by construction order?)
  // — it has {+x,+y}; sequential picks +x first, deflecting the
  // restricted packet: Definition 18 violation, but still greedy.
  EXPECT_FALSE(checker.violations().empty());
  EXPECT_TRUE(greedy.violations().empty());
}

TEST(PreferenceChecker, CleanForRestrictedPriority) {
  net::Mesh mesh(2, 10);
  Rng rng(5);
  auto problem = workload::saturated_random(mesh, 2, rng);
  routing::RestrictedPriorityPolicy policy;
  auto run = test::run_checked(mesh, problem, policy);
  ASSERT_TRUE(run.result.completed);
  EXPECT_TRUE(run.preference_violations.empty());
}

TEST(PreferenceChecker, PerverseGreedyIsGreedyButNotPreferring) {
  net::Mesh mesh(2, 8);
  Rng rng(9);
  auto problem = workload::random_many_to_many(mesh, 80, rng);
  routing::PerverseGreedyPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::GreedyChecker greedy;
  core::RestrictedPreferenceChecker preference;
  engine.add_observer(&greedy);
  engine.add_observer(&preference);
  engine.run();
  EXPECT_TRUE(greedy.violations().empty())
      << "perverse-greedy must still satisfy Definition 6";
  EXPECT_FALSE(preference.violations().empty())
      << "perverse-greedy deflects restricted packets for unrestricted ones";
}

TEST(Census, CountsClassesAndAdvancement) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 3)), mesh.node_at(xy(5, 3))},    // restricted
       {mesh.node_at(xy(0, 0)), mesh.node_at(xy(4, 4))}});  // unrestricted
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::RestrictedCensus census;
  engine.add_observer(&census);
  engine.step();
  ASSERT_EQ(census.series().size(), 1u);
  const auto& counts = census.series()[0];
  EXPECT_EQ(counts.type_b, 1);        // restricted at injection: Type B
  EXPECT_EQ(counts.type_a, 0);
  EXPECT_EQ(counts.unrestricted, 1);
  EXPECT_EQ(counts.advancing, 2);
  EXPECT_EQ(counts.deflected, 0);

  engine.step();
  const auto& counts2 = census.series()[1];
  EXPECT_EQ(counts2.type_a, 1);  // restricted packet advanced: now Type A
}

TEST(Census, GoodDirHistogramAccumulates) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(3, 3))}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::RestrictedCensus census;
  engine.add_observer(&census);
  engine.run();
  // The packet starts with 2 good dirs and is routed 6 times in total.
  std::uint64_t total = 0;
  for (auto c : census.good_dir_histogram()) total += c;
  EXPECT_EQ(total, 6u);
  EXPECT_GT(census.good_dir_histogram()[2], 0u);
}

}  // namespace
}  // namespace hp
