// Engine mechanics: the Section 2 model — synchronous steps, hot-potato
// discipline, one packet per directed arc, absorption, injection rules,
// observers, and state digests.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/livelock.hpp"
#include "test_support.hpp"
#include "topology/mesh.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

using test::FirstGoodPolicy;
using test::make_problem;
using test::xy;

TEST(Engine, SinglePacketWalksShortestPath) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(5, 3))}});
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const sim::RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.steps, 8u);  // L1 distance, no one to conflict with
  EXPECT_EQ(result.total_deflections, 0u);
  EXPECT_EQ(result.packets[0].arrived_at, 8u);
}

TEST(Engine, PacketAtItsDestinationCostsZeroSteps) {
  net::Mesh mesh(2, 4);
  auto problem = make_problem({{5, 5}});
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  EXPECT_EQ(engine.in_flight(), 0u);
  const sim::RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_EQ(result.packets[0].arrived_at, 0u);
}

TEST(Engine, StepReturnsFalseWhenIdle) {
  net::Mesh mesh(2, 4);
  auto problem = make_problem({{0, 0}});
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  EXPECT_FALSE(engine.step());
}

TEST(Engine, TwoPacketsCrossOnAntiparallelArcs) {
  // a: (0,0)→(1,0), b: (1,0)→(0,0). They swap in one step — antiparallel
  // arcs are distinct links, so this is legal and collision-free.
  net::Mesh mesh(2, 4);
  auto problem = make_problem({{mesh.node_at(xy(0, 0)), mesh.node_at(xy(1, 0))},
                               {mesh.node_at(xy(1, 0)), mesh.node_at(xy(0, 0))}});
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const auto result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.steps, 1u);
}

TEST(Engine, DeflectionHappensWhenArcsContended) {
  // Two packets at the same node want the same single good arc: one is
  // deflected (hot-potato: it must still move somewhere).
  net::Mesh mesh(2, 4);
  const auto src = mesh.node_at(xy(1, 1));
  const auto dst = mesh.node_at(xy(3, 1));  // east twice: east is the only
                                            // good direction for both
  auto problem = make_problem({{src, dst}, {src, dst}});
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const auto result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.total_deflections, 1u);
  EXPECT_GT(result.steps, 2u);  // loser pays a detour
}

TEST(Engine, HotPotatoNoPacketStaysPut) {
  net::Mesh mesh(2, 6);
  Rng rng(17);
  workload::Problem problem;
  problem.name = "random";
  for (int i = 0; i < 20; ++i) {
    problem.packets.push_back(
        {static_cast<net::NodeId>(rng.uniform(mesh.num_nodes())),
         static_cast<net::NodeId>(rng.uniform(mesh.num_nodes()))});
  }
  // Dedupe origins over capacity.
  problem = test::make_problem(std::move(problem.packets));
  std::vector<int> uses(mesh.num_nodes(), 0);
  std::erase_if(problem.packets, [&](const workload::PacketSpec& s) {
    return ++uses[static_cast<std::size_t>(s.src)] >
           mesh.degree(s.src);
  });

  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);

  class NoStay : public sim::StepObserver {
   public:
    void on_step(const sim::Engine& engine,
                 const sim::StepRecord& record) override {
      for (const sim::Assignment& a : record.assignments) {
        const sim::Packet& p = engine.packet(a.pkt);
        if (!p.arrived()) {
          EXPECT_NE(p.pos, a.node) << "packet failed to leave its node";
        }
      }
    }
  } no_stay;
  engine.add_observer(&no_stay);
  EXPECT_TRUE(engine.run().completed);
}

TEST(Engine, RejectsOverloadedOrigins) {
  net::Mesh mesh(2, 4);
  const auto corner = mesh.node_at(xy(0, 0));  // degree 2
  auto problem =
      make_problem({{corner, 5}, {corner, 6}, {corner, 7}});
  FirstGoodPolicy policy;
  EXPECT_THROW(sim::Engine(mesh, problem, policy), CheckError);
}

TEST(Engine, RejectsInvalidNodeIds) {
  net::Mesh mesh(2, 4);
  FirstGoodPolicy policy;
  EXPECT_THROW(
      sim::Engine(mesh, make_problem({{-1, 3}}), policy),
      CheckError);
  EXPECT_THROW(
      sim::Engine(mesh, make_problem({{0, 99}}), policy),
      CheckError);
}

TEST(Engine, CatchesPolicyArcCollision) {
  // A malicious policy that routes every packet through direction 0.
  class BadPolicy : public sim::RoutingPolicy {
   public:
    std::string name() const override { return "collider"; }
    void route(const sim::NodeContext& ctx,
               std::span<const sim::PacketView> /*packets*/,
               std::span<net::Dir> out) override {
      for (auto& d : out) d = ctx.avail_dirs.front();
    }
  };
  net::Mesh mesh(2, 4);
  const auto mid = mesh.node_at(xy(1, 1));
  auto problem = make_problem({{mid, 0}, {mid, 15}});
  BadPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  EXPECT_THROW(engine.run(), CheckError);
}

TEST(Engine, CatchesPolicyRoutingOffMesh) {
  class OffMeshPolicy : public sim::RoutingPolicy {
   public:
    std::string name() const override { return "off-mesh"; }
    void route(const sim::NodeContext& /*ctx*/,
               std::span<const sim::PacketView> /*packets*/,
               std::span<net::Dir> out) override {
      for (auto& d : out) d = net::Mesh::dir_of(0, -1);  // "−x" at x=0
    }
  };
  net::Mesh mesh(2, 4);
  auto problem = make_problem({{mesh.node_at(xy(0, 1)), 15}});
  OffMeshPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  EXPECT_THROW(engine.run(), CheckError);
}

TEST(Engine, MaxStepsCapsRun) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(7, 7))}});
  FirstGoodPolicy policy;
  sim::EngineConfig config;
  config.max_steps = 3;
  sim::Engine engine(mesh, problem, policy, config);
  const auto result = engine.run();
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.steps_executed, 3u);
}

TEST(Engine, ObserverSeesEveryStepGroupedByNode) {
  net::Mesh mesh(2, 6);
  auto problem = make_problem({{0, 20}, {7, 3}, {30, 2}});
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);

  class GroupCheck : public sim::StepObserver {
   public:
    std::uint64_t steps = 0;
    void on_step(const sim::Engine& /*engine*/,
                 const sim::StepRecord& record) override {
      ++steps;
      // Node groups must be contiguous: once a node id changes it must
      // never reappear later in the record.
      std::set<net::NodeId> seen;
      net::NodeId current = net::kInvalidNode;
      for (const auto& a : record.assignments) {
        if (a.node != current) {
          EXPECT_TRUE(seen.insert(a.node).second)
              << "node group split across the record";
          current = a.node;
        }
      }
    }
  } check;
  engine.add_observer(&check);
  const auto result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(check.steps, result.steps_executed);
}

TEST(Engine, AssignmentFlagsAreConsistent) {
  net::Mesh mesh(2, 6);
  Rng rng(5);
  workload::Problem problem;
  for (int i = 0; i < 12; ++i) {
    problem.packets.push_back(
        {static_cast<net::NodeId>(i), static_cast<net::NodeId>(35 - i)});
  }
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);

  class FlagCheck : public sim::StepObserver {
   public:
    explicit FlagCheck(const net::Mesh& m) : mesh_(m) {}
    void on_step(const sim::Engine& engine,
                 const sim::StepRecord& record) override {
      for (const auto& a : record.assignments) {
        const sim::Packet& p = engine.packet(a.pkt);
        // good_mask ↔ num_good agreement
        EXPECT_EQ(std::popcount(a.good_mask), a.num_good);
        // advances ↔ the chosen arc is in the mask
        EXPECT_EQ(((a.good_mask >> a.out) & 1u) != 0, a.advances);
        // post-move position is the neighbor along the chosen arc
        EXPECT_EQ(p.pos, mesh_.neighbor(a.node, a.out));
      }
    }
   private:
    const net::Mesh& mesh_;
  } check(mesh);
  engine.add_observer(&check);
  EXPECT_TRUE(engine.run().completed);
}

TEST(Engine, GoodDirectionHookRunsOncePerRoutedNode) {
  // RoutingPolicy::batch_good_dirs is the Definition 5 redefinition hook:
  // the engine must call it once per routed node per step, for that node's
  // residents only, and hand route() exactly the masks it returned.
  class HookRecorder final : public FirstGoodPolicy {
   public:
    void batch_good_dirs(const net::Network& net, const net::NodeId* at,
                         const net::NodeId* dst, std::uint32_t* out_masks,
                         std::size_t count) const override {
      RoutingPolicy::batch_good_dirs(net, at, dst, out_masks, count);
      std::lock_guard<std::mutex> lock(mu);
      ++calls;
      for (std::size_t i = 0; i < count; ++i) stray_at += at[i] != at[0];
      std::vector<std::uint32_t> masks(out_masks, out_masks + count);
      if (!hooked.emplace(at[0], std::move(masks)).second) ++repeats;
    }
    void route(const sim::NodeContext& ctx,
               std::span<const sim::PacketView> packets,
               std::span<net::Dir> out) override {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (const sim::PacketView& p : packets) {
          routed[ctx.node].push_back(p.good_mask);
        }
      }
      FirstGoodPolicy::route(ctx, packets, out);
    }
    void reset() {
      calls = stray_at = repeats = 0;
      hooked.clear();
      routed.clear();
    }

    mutable std::mutex mu;
    mutable std::size_t calls = 0;
    mutable int stray_at = 0;
    mutable int repeats = 0;
    /// Per node: the masks the hook returned / the masks route() saw.
    mutable std::map<net::NodeId, std::vector<std::uint32_t>> hooked;
    std::map<net::NodeId, std::vector<std::uint32_t>> routed;
  };

  net::Mesh mesh(2, 16);
  Rng rng(11);
  const auto problem = workload::saturated_random(mesh, 2, rng);
  for (const int threads : {1, 4}) {
    sim::EngineConfig config;
    config.num_threads = threads;
    HookRecorder hook;
    FirstGoodPolicy bare;
    sim::Engine engine(mesh, problem, hook, config);
    sim::Engine reference(mesh, problem, bare, config);
    for (int step = 0; step < 500 && engine.in_flight() > 0; ++step) {
      ASSERT_TRUE(engine.step());
      ASSERT_TRUE(reference.step());
      EXPECT_FALSE(hook.routed.empty());
      EXPECT_EQ(hook.calls, hook.routed.size()) << "step " << step;
      EXPECT_EQ(hook.repeats, 0) << "step " << step;
      EXPECT_EQ(hook.stray_at, 0) << "step " << step;
      EXPECT_EQ(hook.hooked, hook.routed) << "step " << step;
      ASSERT_EQ(sim::state_fingerprint(engine),
                sim::state_fingerprint(reference))
          << "threads " << threads << " step " << step;
      hook.reset();
    }
    EXPECT_EQ(engine.in_flight(), 0u);
  }
}

TEST(Engine, DeterministicPoliciesReproduce) {
  net::Mesh mesh(2, 8);
  Rng rng(99);
  auto problem = workload::random_many_to_many(mesh, 40, rng);
  FirstGoodPolicy p1, p2;
  sim::Engine e1(mesh, problem, p1), e2(mesh, problem, p2);
  const auto r1 = e1.run(), r2 = e2.run();
  EXPECT_EQ(r1.steps, r2.steps);
  EXPECT_EQ(r1.total_deflections, r2.total_deflections);
  for (std::size_t i = 0; i < r1.packets.size(); ++i) {
    EXPECT_EQ(r1.packets[i].arrived_at, r2.packets[i].arrived_at);
  }
}

TEST(StateDigest, DistinguishesConfigurations) {
  std::vector<sim::Packet> a(2), b(2);
  a[0].id = 0; a[0].pos = 3; a[1].id = 1; a[1].pos = 5;
  b = a;
  b[1].pos = 6;
  EXPECT_EQ(sim::digest_state(a), sim::digest_state(a));
  EXPECT_FALSE(sim::digest_state(a) == sim::digest_state(b));
}

TEST(StateDigest, IgnoresArrivedPackets) {
  std::vector<sim::Packet> a(2);
  a[0].id = 0; a[0].pos = 3;
  a[1].id = 1; a[1].pos = 5; a[1].arrived_at = 7;
  auto b = a;
  b[1].pos = 9;  // arrived packet's stale position must not matter
  EXPECT_EQ(sim::digest_state(a), sim::digest_state(b));
}

TEST(LivelockDetector, ReportsRepeats) {
  sim::LivelockDetector det;
  sim::StateDigest d1{1, 2}, d2{3, 4};
  EXPECT_EQ(det.record(d1, 10), sim::LivelockDetector::kNoRepeat);
  EXPECT_EQ(det.record(d2, 11), sim::LivelockDetector::kNoRepeat);
  EXPECT_EQ(det.record(d1, 12), 10u);
}

}  // namespace
}  // namespace hp
