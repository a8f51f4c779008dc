// Integration sweeps: topology × workload × policy pipelines with all
// paper checkers attached — the system-level reproduction of Sections 2–4.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/bounds.hpp"
#include "core/checkers.hpp"
#include "core/potential.hpp"
#include "core/surface.hpp"
#include "routing/ddim_priority.hpp"
#include "routing/greedy_variants.hpp"
#include "routing/restricted_priority.hpp"
#include "routing/store_forward.hpp"
#include "stats/recorder.hpp"
#include "test_support.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

workload::Problem build_workload(const std::string& kind,
                                 const net::Mesh& mesh, Rng& rng) {
  if (kind == "random-k") return workload::random_many_to_many(mesh, 64, rng);
  if (kind == "permutation") return workload::random_permutation(mesh, rng);
  if (kind == "transpose") return workload::transpose(mesh);
  if (kind == "bit-reversal") return workload::bit_reversal(mesh);
  if (kind == "inversion") return workload::inversion(mesh);
  if (kind == "corner") return workload::corner_to_corner(mesh, rng);
  if (kind == "hotspot") return workload::hotspot(mesh, 48, 2, rng);
  if (kind == "single-target") {
    return workload::single_target(mesh, 48, 0, rng);
  }
  if (kind == "saturated") return workload::saturated_random(mesh, 4, rng);
  ADD_FAILURE() << "unknown workload " << kind;
  return {};
}

class FullAudit : public ::testing::TestWithParam<std::string> {};

TEST_P(FullAudit, RestrictedPriorityPassesEveryPaperCheck) {
  net::Mesh mesh(2, 8);
  Rng rng(271828);
  auto problem = build_workload(GetParam(), mesh, rng);

  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);

  core::PotentialTracker::Config potential_config;
  potential_config.c_init = 2 * mesh.side();
  potential_config.d = 2;
  core::PotentialTracker potential(mesh, engine, potential_config);
  core::SurfaceTracker surface(mesh);
  core::GreedyChecker greedy;
  core::RestrictedPreferenceChecker preference;
  stats::RunRecorder recorder;
  engine.add_observer(&potential);
  engine.add_observer(&surface);
  engine.add_observer(&greedy);
  engine.add_observer(&preference);
  engine.add_observer(&recorder);

  const auto result = engine.run();
  ASSERT_TRUE(result.completed);

  // Definition 6 and Definition 18.
  EXPECT_TRUE(greedy.violations().empty());
  EXPECT_TRUE(preference.violations().empty());
  // Property 8 / Lemma 19 at every node, every step.
  EXPECT_TRUE(potential.property8_violations().empty());
  EXPECT_TRUE(potential.structure_violations().empty());
  // Corollary 10, Lemma 12, Lemma 14.
  EXPECT_TRUE(core::check_corollary10(potential.phi_series(),
                                      surface.g_series())
                  .empty());
  EXPECT_TRUE(
      core::check_lemma12(potential.phi_series(), surface.f_series()).empty());
  EXPECT_TRUE(surface.lemma14_violations().empty());
  // Theorem 20.
  EXPECT_LE(static_cast<double>(result.steps),
            core::thm20_bound(mesh.side(),
                              static_cast<double>(problem.size())));
  // Potential drained to zero.
  EXPECT_EQ(potential.phi(), 0);
  // Conservation: every step's row counts match (advanced + deflected =
  // in-flight).
  for (const auto& row : test::recorded_rows(recorder)) {
    EXPECT_EQ(row.advanced + row.deflected, row.in_flight);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, FullAudit,
                         ::testing::Values("random-k", "permutation",
                                           "transpose", "bit-reversal",
                                           "inversion", "corner", "hotspot",
                                           "single-target", "saturated"));

TEST(Integration, PermutationWithinRemarkBound) {
  // The parity-split Remark: any permutation (k = n²) finishes within 8n².
  for (int n : {4, 8}) {
    net::Mesh mesh(2, n);
    Rng rng(999);
    for (int trial = 0; trial < 3; ++trial) {
      auto problem = workload::random_permutation(mesh, rng);
      routing::RestrictedPriorityPolicy policy;
      sim::Engine engine(mesh, problem, policy);
      const auto result = engine.run();
      ASSERT_TRUE(result.completed);
      EXPECT_LE(static_cast<double>(result.steps),
                core::remark_permutation_bound(n));
    }
  }
}

TEST(Integration, SaturatedWithinFourPerNodeRemarkBound) {
  net::Mesh mesh(2, 8);
  Rng rng(31337);
  auto problem = workload::saturated_random(mesh, 4, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  EXPECT_LE(static_cast<double>(result.steps),
            core::remark_four_per_node_bound(8));
}

TEST(Integration, ParityClassesNeverInteract) {
  // The Remark's key observation: packets whose origins have different
  // coordinate parities never meet (positions advance parity in lockstep).
  net::Mesh mesh(2, 8);
  Rng rng(404);
  auto problem = workload::random_permutation(mesh, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);

  // parity of (x+y) of each packet's origin
  std::vector<int> origin_parity;
  for (const auto& s : problem.packets) {
    const auto c = mesh.coords(s.src);
    origin_parity.push_back((c[0] + c[1]) & 1);
  }

  class ParityCheck : public sim::StepObserver {
   public:
    ParityCheck(const net::Mesh& mesh, std::vector<int> parity)
        : mesh_(mesh), parity_(std::move(parity)) {}
    void on_step(const sim::Engine& /*engine*/,
                 const sim::StepRecord& record) override {
      // Within one node group, all packets share their origin parity.
      std::size_t begin = 0;
      const auto& as = record.assignments;
      while (begin < as.size()) {
        std::size_t end = begin;
        while (end < as.size() && as[end].node == as[begin].node) ++end;
        for (std::size_t i = begin + 1; i < end; ++i) {
          EXPECT_EQ(parity_[static_cast<std::size_t>(as[i].pkt)],
                    parity_[static_cast<std::size_t>(as[begin].pkt)]);
        }
        begin = end;
      }
    }
   private:
    const net::Mesh& mesh_;
    std::vector<int> parity_;
  } check(mesh, origin_parity);
  engine.add_observer(&check);
  ASSERT_TRUE(engine.run().completed);
}

TEST(Integration, GreedyBeatsStructuredOnNearbyPackets) {
  // §1 motivation: a packet that starts close to its destination arrives
  // fast under greedy routing even under global load, while the
  // store-and-forward baseline can make it wait arbitrarily behind queued
  // traffic. We check the greedy side: latency ≤ distance + modest slack.
  net::Mesh mesh(2, 8);
  Rng rng(606);
  auto problem = workload::saturated_random(mesh, 3, rng);
  // Plant a probe packet with distance 1 at an interior node (degree 4,
  // so one origin slot remains after the 3 saturation packets).
  problem.packets.push_back(
      {mesh.node_at(test::xy(3, 3)), mesh.node_at(test::xy(3, 4))});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  const auto& probe = result.packets.back();
  EXPECT_LE(probe.arrived_at, 16u)
      << "greedy should deliver a distance-1 packet quickly";
}

TEST(Integration, DdimAuditOnThreeDims) {
  // Section 5 setting: d = 3 with the generalized potential (same C rules,
  // restricted = one good direction). Property 8 is checked empirically —
  // the paper omits the formal d-dim proof.
  net::Mesh mesh(3, 4);
  Rng rng(70707);
  auto problem = workload::random_many_to_many(mesh, 96, rng);
  routing::DdimPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::PotentialTracker::Config config;
  config.c_init = 2 * mesh.side();
  config.d = 3;
  core::PotentialTracker potential(mesh, engine, config);
  core::GreedyChecker greedy;
  engine.add_observer(&potential);
  engine.add_observer(&greedy);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(greedy.violations().empty());
  EXPECT_LE(static_cast<double>(result.steps), core::ddim_bound(3, 4, 96.0));
  // Report-only: the generalized potential's Property 8 status is an
  // empirical finding (see EXPERIMENTS.md); we assert the audit ran.
  EXPECT_EQ(potential.phi_series().size(), result.steps_executed + 1);
}

TEST(Integration, HotPotatoBeatsStoreForwardOnDeflectableLoad) {
  // Not a universal truth, but on a hotspot-free random load with few
  // conflicts the two should be within a small factor; mostly this guards
  // that both simulators agree on the workload scale.
  net::Mesh mesh(2, 8);
  Rng rng(808);
  auto problem = workload::random_many_to_many(mesh, 64, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const auto hot = engine.run();
  const auto sf = routing::run_store_forward(mesh, problem);
  ASSERT_TRUE(hot.completed);
  ASSERT_TRUE(sf.completed);
  EXPECT_LT(hot.steps, sf.steps * 4 + 20);
  EXPECT_LT(sf.steps, hot.steps * 4 + 20);
}

}  // namespace
}  // namespace hp
