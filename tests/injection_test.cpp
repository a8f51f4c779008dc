// Continuous-injection tests: the capacity rule, latency accounting,
// steady-state measurement, and model invariants under ongoing arrivals.
#include <gtest/gtest.h>

#include "core/checkers.hpp"
#include "routing/greedy_variants.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/engine.hpp"
#include "sim/injection.hpp"
#include "stats/steady_state.hpp"
#include "test_support.hpp"

namespace hp {
namespace {

using test::make_problem;
using test::xy;

/// Injector that emits a scripted list of (step, src, dst) packets.
class ScriptedInjector : public sim::Injector {
 public:
  struct Item {
    std::uint64_t step;
    net::NodeId src, dst;
  };
  explicit ScriptedInjector(std::vector<Item> items)
      : items_(std::move(items)) {}

  void inject(sim::Engine& engine, std::uint64_t step) override {
    for (const auto& item : items_) {
      if (item.step != step) continue;
      results_.push_back(engine.try_inject(item.src, item.dst));
    }
  }

  const std::vector<bool>& results() const { return results_; }

 private:
  std::vector<Item> items_;
  std::vector<bool> results_;
};

TEST(Injection, MidRunPacketIsRoutedAndTimed) {
  net::Mesh mesh(2, 8);
  workload::Problem empty;
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, empty, policy);
  ScriptedInjector injector(
      {{3, mesh.node_at(xy(0, 0)), mesh.node_at(xy(4, 0))}});
  engine.set_injector(&injector);
  engine.run_for(20);
  ASSERT_EQ(injector.results().size(), 1u);
  EXPECT_TRUE(injector.results()[0]);
  const sim::Packet p =
      engine.packet(static_cast<sim::PacketId>(engine.num_packets() - 1));
  EXPECT_EQ(p.injected_at, 3u);
  EXPECT_EQ(p.arrived_at, 7u);  // distance 4, no contention
  EXPECT_EQ(engine.delivered(), 1u);
}

TEST(Injection, CapacityRuleBlocksSaturatedNode) {
  net::Mesh mesh(2, 8);
  workload::Problem empty;
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, empty, policy);
  const auto corner = mesh.node_at(xy(0, 0));  // degree 2
  ScriptedInjector injector({{0, corner, 10},
                             {0, corner, 11},
                             {0, corner, 12}});  // third must be refused
  engine.set_injector(&injector);
  engine.step();
  ASSERT_EQ(injector.results().size(), 3u);
  EXPECT_TRUE(injector.results()[0]);
  EXPECT_TRUE(injector.results()[1]);
  EXPECT_FALSE(injector.results()[2]);
  EXPECT_EQ(engine.in_flight(), 2u);
}

TEST(Injection, CountsResidentPacketsTowardCapacity) {
  // A node already holding packets from the batch can only absorb the
  // remaining slots.
  net::Mesh mesh(2, 8);
  const auto mid = mesh.node_at(xy(3, 3));  // degree 4
  auto problem = make_problem({{mid, 0}, {mid, 1}, {mid, 2}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  ScriptedInjector injector({{0, mid, 10}, {0, mid, 11}});
  engine.set_injector(&injector);
  engine.step();
  ASSERT_EQ(injector.results().size(), 2u);
  EXPECT_TRUE(injector.results()[0]);   // 4th packet fits
  EXPECT_FALSE(injector.results()[1]);  // 5th does not
}

TEST(Injection, TrivialInjectionDeliversInstantly) {
  net::Mesh mesh(2, 8);
  workload::Problem empty;
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, empty, policy);
  ScriptedInjector injector({{0, 5, 5}});
  engine.set_injector(&injector);
  engine.step();
  EXPECT_EQ(engine.delivered(), 1u);
  EXPECT_EQ(engine.in_flight(), 0u);
}

TEST(Injection, TryInjectOutsideStepThrows) {
  net::Mesh mesh(2, 8);
  workload::Problem empty;
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, empty, policy);
  EXPECT_THROW(engine.try_inject(0, 5), CheckError);
}

TEST(Injection, RunRequiresNoInjector) {
  net::Mesh mesh(2, 8);
  workload::Problem empty;
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, empty, policy);
  sim::BernoulliInjector injector(0.1, 1);
  engine.set_injector(&injector);
  EXPECT_THROW(engine.run(), CheckError);
}

TEST(Injection, ModelInvariantsHoldUnderContinuousLoad) {
  net::Mesh mesh(2, 8);
  workload::Problem empty;
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, empty, policy);
  sim::BernoulliInjector injector(0.3, 99);
  engine.set_injector(&injector);
  core::GreedyChecker greedy;
  core::RestrictedPreferenceChecker preference;
  engine.add_observer(&greedy);
  engine.add_observer(&preference);
  engine.run_for(300);
  EXPECT_TRUE(greedy.violations().empty());
  EXPECT_TRUE(preference.violations().empty());
  EXPECT_GT(engine.delivered(), 0u);
  EXPECT_GT(injector.admitted(), 0u);
  EXPECT_LE(injector.admitted(), injector.offered());
}

TEST(Bernoulli, ZeroRateInjectsNothing) {
  net::Mesh mesh(2, 8);
  workload::Problem empty;
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, empty, policy);
  sim::BernoulliInjector injector(0.0, 7);
  engine.set_injector(&injector);
  engine.run_for(50);
  EXPECT_EQ(injector.offered(), 0u);
  EXPECT_EQ(engine.num_packets(), 0u);
}

TEST(Bernoulli, OfferedCountMatchesRateApproximately) {
  net::Mesh mesh(2, 8);  // 64 nodes
  workload::Problem empty;
  routing::GreedyRandomPolicy policy;
  sim::Engine engine(mesh, empty, policy);
  sim::BernoulliInjector injector(0.25, 13);
  engine.set_injector(&injector);
  engine.run_for(400);
  const double expected = 0.25 * 64 * 400;
  EXPECT_GT(static_cast<double>(injector.offered()), expected * 0.9);
  EXPECT_LT(static_cast<double>(injector.offered()), expected * 1.1);
}

TEST(SteadyState, LowLoadLatencyNearDistance) {
  // At light load almost nothing is deflected: mean latency ≈ the mean
  // shortest-path distance (≈ 2n/3 per axis·2 ≈ 2·side/3 on a mesh).
  net::Mesh mesh(2, 8);
  routing::RestrictedPriorityPolicy policy;
  const auto report =
      stats::measure_steady_state(mesh, policy, 0.02, 200, 800, 3);
  EXPECT_GT(report.delivered, 50u);
  EXPECT_DOUBLE_EQ(report.admit_fraction, 1.0);
  EXPECT_LT(report.deflections_per_delivered, 0.2);
  EXPECT_GT(report.mean_latency, 2.0);
  EXPECT_LT(report.mean_latency, 10.0);
}

TEST(SteadyState, ThroughputMatchesAdmittedLoadBelowSaturation) {
  net::Mesh mesh(2, 8);
  routing::RestrictedPriorityPolicy policy;
  const auto report =
      stats::measure_steady_state(mesh, policy, 0.05, 300, 1500, 5);
  // Flow conservation: per-node throughput ≈ admitted per-node rate.
  EXPECT_NEAR(report.throughput, 0.05 * report.admit_fraction, 0.015);
}

TEST(SteadyState, LittlesLawHoldsBelowSaturation) {
  // L = λ·W: mean packets in flight ≈ (deliveries per step) × mean
  // latency. A fundamental consistency check tying the three measurements
  // together; holds in steady state regardless of the routing policy.
  net::Mesh mesh(2, 8);
  routing::RestrictedPriorityPolicy policy;
  const auto report =
      stats::measure_steady_state(mesh, policy, 0.08, 400, 2000, 21);
  const double lambda =
      report.throughput * static_cast<double>(mesh.num_nodes());
  const double little = lambda * report.mean_latency;
  EXPECT_NEAR(report.mean_population, little, 0.15 * little);
}

TEST(Injection, ArrivalAndInjectionSameStepSameNode) {
  // A packet arriving at node v in step t frees its slot only after the
  // movement phase; an injection at v during step t sees the pre-move
  // occupancy. The injected packet must coexist with the arrival.
  net::Mesh mesh(2, 8);
  const auto src = mesh.node_at(xy(1, 0));
  const auto v = mesh.node_at(xy(0, 0));  // corner, degree 2
  auto problem = make_problem({{src, v}});  // arrives at v after step 0
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  ScriptedInjector injector({{0, v, 20}, {0, v, 21}});
  engine.set_injector(&injector);
  engine.step();
  ASSERT_EQ(injector.results().size(), 2u);
  // Step 0: v is empty pre-move, so both injections fit its degree.
  EXPECT_TRUE(injector.results()[0]);
  EXPECT_TRUE(injector.results()[1]);
  EXPECT_EQ(engine.delivered(), 1u);  // the batch packet arrived at v
  EXPECT_EQ(engine.in_flight(), 2u);
  const sim::Packet arrived = engine.packet(0);
  EXPECT_EQ(arrived.arrived_at, 1u);
}

TEST(Injection, CapacityIsReCheckedWithinOneStep) {
  // Repeated try_inject calls in the same step must see each other: the
  // occupancy a later call checks includes packets admitted moments
  // earlier, even at a node untouched by the batch problem.
  net::Mesh mesh(2, 8);
  const auto corner = mesh.node_at(xy(7, 7));  // degree 2
  workload::Problem empty;
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, empty, policy);
  ScriptedInjector injector({{0, corner, 1},
                             {0, corner, 2},
                             {0, corner, 3},
                             {1, corner, 4}});
  engine.set_injector(&injector);
  engine.step();
  ASSERT_EQ(injector.results().size(), 3u);
  EXPECT_TRUE(injector.results()[0]);
  EXPECT_TRUE(injector.results()[1]);
  EXPECT_FALSE(injector.results()[2]);  // degree 2 exhausted mid-step
  // Next step both residents move out, so the node has room again.
  engine.step();
  ASSERT_EQ(injector.results().size(), 4u);
  EXPECT_TRUE(injector.results()[3]);
}

TEST(Injection, FixedSeedInjectorRunsAreIdentical) {
  // Two engines fed by same-seed Bernoulli injectors take the same
  // trajectory: admissions depend only on (seed, occupancy), and the
  // engine is deterministic given its own seed.
  net::Mesh mesh(2, 8);
  workload::Problem empty;
  auto run_once = [&] {
    routing::RestrictedPriorityPolicy policy;
    sim::EngineConfig config;
    config.seed = 11;
    sim::Engine engine(mesh, empty, policy, config);
    sim::BernoulliInjector injector(0.25, 31);
    engine.set_injector(&injector);
    engine.run_for(250);
    struct Out {
      std::uint64_t delivered, admitted;
      sim::StateDigest digest;
    };
    return Out{engine.delivered(), injector.admitted(),
               sim::digest_state(engine.flight())};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_GT(a.delivered, 0u);
}

TEST(SteadyState, HighLoadBlocksAndDeflects) {
  net::Mesh mesh(2, 8);
  routing::RestrictedPriorityPolicy policy;
  const auto low =
      stats::measure_steady_state(mesh, policy, 0.05, 200, 600, 7);
  const auto high =
      stats::measure_steady_state(mesh, policy, 0.9, 200, 600, 7);
  EXPECT_LT(high.admit_fraction, 1.0);
  EXPECT_GT(high.mean_latency, low.mean_latency);
  EXPECT_GT(high.deflections_per_delivered, low.deflections_per_delivered);
  EXPECT_GT(high.mean_population, low.mean_population);
}

}  // namespace
}  // namespace hp
