// Potential function tests (Sections 3–4): the C_p update rules of §4.2,
// Property 8 / Lemma 19 at every node of real runs, Corollary 10, and
// Lemma 12, for algorithms in the paper's class.
#include <gtest/gtest.h>

#include "core/potential.hpp"
#include "core/surface.hpp"
#include "routing/restricted_priority.hpp"
#include "test_support.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

using test::make_problem;
using test::xy;

core::PotentialTracker::Config config_2d(const net::Mesh& mesh) {
  core::PotentialTracker::Config config;
  config.c_init = 2 * mesh.side();
  config.d = mesh.dim();
  return config;
}

/// Σ_p C_p after the last observed step: Φ minus every in-flight packet's
/// remaining distance (a delivered packet contributes neither term).
std::int64_t total_c(const net::Network& net, const sim::Engine& engine,
                     const core::PotentialTracker& tracker) {
  std::int64_t dist = 0;
  for (std::size_t id = 0; id < engine.num_packets(); ++id) {
    const sim::Packet p = engine.packet(static_cast<sim::PacketId>(id));
    if (!p.arrived()) dist += net.distance(p.pos, p.dst);
  }
  return tracker.phi() - dist;
}

TEST(Potential, InitialPhiIsDistancePlusCInit) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(3, 4))},   // dist 7
       {mesh.node_at(xy(5, 5)), mesh.node_at(xy(5, 6))}}); // dist 1
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::PotentialTracker tracker(mesh, engine, config_2d(mesh));
  EXPECT_EQ(tracker.phi(), (7 + 16) + (1 + 16));
}

TEST(Potential, DeliveredAtInjectionContributesZero) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem({{9, 9}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::PotentialTracker tracker(mesh, engine, config_2d(mesh));
  EXPECT_EQ(tracker.phi(), 0);
}

TEST(Potential, LonePacketLosesAtLeastOnePerStep) {
  // A single packet always advances: distance −1 per step; its C drops by
  // 2 once it becomes a Type A restricted packet, so per-step loss ≥ 1.
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(4, 2))}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::PotentialTracker tracker(mesh, engine, config_2d(mesh));
  engine.add_observer(&tracker);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  const auto& phi = tracker.phi_series();
  for (std::size_t t = 0; t + 1 < phi.size(); ++t) {
    EXPECT_LE(phi[t + 1], phi[t] - 1);
  }
  EXPECT_EQ(phi.back(), 0);
  EXPECT_TRUE(tracker.property8_violations().empty());
  EXPECT_TRUE(tracker.structure_violations().empty());
}

TEST(Potential, TypeARuleDropsTwoPerAdvancingStep) {
  // A packet aligned with its destination is restricted from injection;
  // after its first advancing step it is Type A and then drops 2 per step.
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 3)), mesh.node_at(xy(5, 3))}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::PotentialTracker tracker(mesh, engine, config_2d(mesh));
  engine.add_observer(&tracker);
  engine.step();
  EXPECT_EQ(total_c(mesh, engine, tracker), 2 * 8 - 2);  // first Type A step
  engine.step();
  EXPECT_EQ(total_c(mesh, engine, tracker), 2 * 8 - 4);
  engine.step();
  EXPECT_EQ(total_c(mesh, engine, tracker), 2 * 8 - 6);
}

TEST(Potential, ArrivalZerosPotential) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(2, 2)), mesh.node_at(xy(2, 3))}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::PotentialTracker tracker(mesh, engine, config_2d(mesh));
  engine.add_observer(&tracker);
  engine.run();
  EXPECT_EQ(tracker.phi(), 0);
  EXPECT_EQ(total_c(mesh, engine, tracker), 0);
}

TEST(Potential, NonRestrictedPacketKeepsCInit) {
  // A packet with two good directions (unaligned) resets to c_init every
  // step while it stays unrestricted.
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(4, 4))}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::PotentialTracker tracker(mesh, engine, config_2d(mesh));
  engine.add_observer(&tracker);
  engine.step();
  // Still diagonal to its destination: unrestricted, C = 2n.
  EXPECT_EQ(total_c(mesh, engine, tracker), 16);
}

TEST(Potential, SwitchRuleOnTypeADeflection) {
  // Constructs the §4.2 rule 3(b) situation exactly.
  //
  //   p (id 0): (2,4)→(5,3). At t=1 it shares (2,4) with r, whose single
  //             good arc is east; r wins east, p advances south into (2,3)
  //             — so at t=2 p is a Type B restricted-east packet.
  //   r (id 1): (2,4)→(7,4), restricted east, keeps p off the east arc.
  //   q (id 2): (1,3)→(7,3), restricted east; advances into (2,3) at t=1,
  //             so at t=2 it is Type A with C_q = 2n − 2 = 14.
  //
  // At t=2 node (2,3) holds p (Type B) and q (Type A), both needing east.
  // Arrival-order tie-break advances p, deflecting q: rule 3(b) gives
  // C_p = C_q − 2 = 12 and q resets to 2n = 16. r stays Type A along its
  // row (14, then 12). The tracker reports only Φ, so the test checks
  // Σ C = Φ − Σ dist: without the switch, p would reset to 16 (rule 2)
  // and the sum after t=2 would read 44 instead of 40.
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(2, 4)), mesh.node_at(xy(5, 3))},    // p
       {mesh.node_at(xy(2, 4)), mesh.node_at(xy(7, 4))},    // r
       {mesh.node_at(xy(1, 3)), mesh.node_at(xy(7, 3))}});  // q
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::PotentialTracker tracker(mesh, engine, config_2d(mesh));
  engine.add_observer(&tracker);

  engine.step();  // t: 0 → 1
  // p advanced while unrestricted (16); r and q advanced while restricted:
  // Type A (14 each).
  EXPECT_EQ(total_c(mesh, engine, tracker), 16 + 14 + 14);

  engine.step();  // t: 1 → 2 — the switch happens at node (2,3)
  // p took q's load minus 2 (12), r dropped 2 more (12), and the
  // deflected q reset (16).
  EXPECT_EQ(total_c(mesh, engine, tracker), 12 + 12 + 16);

  const auto result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(tracker.property8_violations().empty());
  EXPECT_TRUE(tracker.structure_violations().empty());
}

class PotentialSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, int>> {};

TEST_P(PotentialSweep, Property8HoldsOnRandomRuns) {
  const auto [n, k, seed] = GetParam();
  net::Mesh mesh(2, n);
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  auto problem = workload::random_many_to_many(mesh, k, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::PotentialTracker tracker(mesh, engine, config_2d(mesh));
  core::SurfaceTracker surface(mesh);
  engine.add_observer(&tracker);
  engine.add_observer(&surface);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed) << "routing did not terminate";

  EXPECT_TRUE(tracker.property8_violations().empty())
      << tracker.property8_violations().size() << " Property 8 violations";
  EXPECT_TRUE(tracker.structure_violations().empty())
      << (tracker.structure_violations().empty()
              ? ""
              : tracker.structure_violations().front());
  EXPECT_GE(tracker.min_slack(), 0);
  // The 2-D analysis implies C_p ≥ 2 while a packet is in flight.
  EXPECT_GE(tracker.min_c(), 2);
  EXPECT_GT(tracker.min_phi(), 0);
  EXPECT_LE(tracker.max_phi(), 4 * n);

  // Corollary 10 and Lemma 12 on the same run.
  EXPECT_TRUE(
      core::check_corollary10(tracker.phi_series(), surface.g_series())
          .empty());
  EXPECT_TRUE(
      core::check_lemma12(tracker.phi_series(), surface.f_series()).empty());
  EXPECT_EQ(tracker.phi(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    RandomRuns, PotentialSweep,
    ::testing::Combine(::testing::Values(4, 6, 8, 12),
                       ::testing::Values(std::size_t{4}, std::size_t{16},
                                         std::size_t{48}),
                       ::testing::Values(1, 2, 3)));

class PotentialTieBreakSweep
    : public ::testing::TestWithParam<
          routing::RestrictedPriorityPolicy::TieBreak> {};

TEST_P(PotentialTieBreakSweep, AllTieBreaksStayInTheClass) {
  // Theorem 20 covers the whole class: every tie-break variant must pass
  // the Property 8 audit.
  net::Mesh mesh(2, 8);
  Rng rng(4242);
  auto problem = workload::random_many_to_many(mesh, 64, rng);
  routing::RestrictedPriorityPolicy::Params params;
  params.tie_break = GetParam();
  routing::RestrictedPriorityPolicy policy(params);
  sim::Engine engine(mesh, problem, policy);
  core::PotentialTracker tracker(mesh, engine, config_2d(mesh));
  engine.add_observer(&tracker);
  ASSERT_TRUE(engine.run().completed);
  EXPECT_TRUE(tracker.property8_violations().empty());
  EXPECT_TRUE(tracker.structure_violations().empty());
}

INSTANTIATE_TEST_SUITE_P(
    TieBreaks, PotentialTieBreakSweep,
    ::testing::Values(
        routing::RestrictedPriorityPolicy::TieBreak::kArrivalOrder,
        routing::RestrictedPriorityPolicy::TieBreak::kRandom,
        routing::RestrictedPriorityPolicy::TieBreak::kTypeAFirst,
        routing::RestrictedPriorityPolicy::TieBreak::kTypeBFirst));

TEST(Lemma12Check, FlagsViolations) {
  // Synthetic series: Φ = 10, 9, 9, 9 with F(0) = 3 ⇒ Φ(2) > Φ(0) − 3.
  std::vector<std::int64_t> phi{10, 9, 9, 9};
  std::vector<std::int64_t> f{3, 0};
  const auto bad = core::check_lemma12(phi, f);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 0u);
}

TEST(Corollary10Check, FlagsViolations) {
  std::vector<std::int64_t> phi{10, 9};
  std::vector<std::int64_t> g{2};
  const auto bad = core::check_corollary10(phi, g);
  ASSERT_EQ(bad.size(), 1u);
}

}  // namespace
}  // namespace hp
