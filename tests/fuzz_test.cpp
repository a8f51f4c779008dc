// Fuzz and exhaustive-enumeration suites.
//
// * ArbitraryPolicy — a random-but-VALID hot-potato policy (any injective
//   packet→arc assignment is legal in the model). The engine must uphold
//   its invariants under every such policy; the Definition 6 checker must
//   classify it correctly; and evacuation is NOT guaranteed, so runs are
//   capped rather than asserted complete.
// * Exhaustive small-mesh checks: every single-packet instance routes in
//   exactly its distance; every two-packet shared-origin instance on the
//   3×3 mesh satisfies Theorem 20 and the Property 8 audit.
// * Observability writers — random-string JSON escaping, trace-ring
//   wraparound against a deque reference model, histogram edge bins.
#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <sstream>
#include <string>

#include "core/bounds.hpp"
#include "core/checkers.hpp"
#include "core/potential.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/engine.hpp"
#include "test_support.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

using test::make_problem;

/// Assigns every packet a uniformly random free arc — valid hot-potato,
/// wildly non-greedy.
class ArbitraryPolicy : public sim::RoutingPolicy {
 public:
  std::string name() const override { return "arbitrary"; }
  void route(const sim::NodeContext& ctx,
             std::span<const sim::PacketView> packets,
             std::span<net::Dir> out) override {
    std::uint32_t free = ctx.arcs;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      // The pick-th free arc in ascending order.
      std::uint32_t rest = free;
      const std::uint64_t pick =
          ctx.rng.uniform(static_cast<std::uint64_t>(std::popcount(free)));
      for (std::uint64_t skip = 0; skip < pick; ++skip) rest &= rest - 1;
      out[i] = test::lowest_dir(rest);
      free &= ~(std::uint32_t{1} << out[i]);
    }
  }
};

/// Counts conservation: packets in = packets arrived + packets in flight.
class ConservationCheck : public sim::StepObserver {
 public:
  void on_step(const sim::Engine& engine,
               const sim::StepRecord& /*record*/) override {
    std::size_t arrived = 0, flying = 0;
    for (const sim::Packet& p : engine.snapshot_packets()) {
      if (p.arrived()) {
        ++arrived;
      } else {
        ++flying;
      }
    }
    EXPECT_EQ(arrived + flying, engine.num_packets());
    EXPECT_EQ(flying, engine.in_flight());
    EXPECT_EQ(arrived, engine.delivered());
  }
};

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, ArbitraryPolicyNeverBreaksTheModel) {
  const std::uint64_t seed = GetParam();
  net::Mesh mesh(2, 6);
  Rng rng(seed);
  const std::size_t k = 1 + rng.uniform(80);
  auto problem = workload::random_many_to_many(mesh, k, rng);
  ArbitraryPolicy policy;
  sim::EngineConfig config;
  config.seed = seed;
  config.max_steps = 3000;  // no termination guarantee for arbitrary routing
  sim::Engine engine(mesh, problem, policy, config);
  ConservationCheck conservation;
  engine.add_observer(&conservation);
  // Must not throw: the engine accepts any valid assignment and keeps all
  // of its invariants.
  const auto result = engine.run();
  EXPECT_EQ(result.num_packets, k);
  EXPECT_EQ(result.total_advances + result.total_deflections,
            static_cast<std::uint64_t>(result.steps_executed) == 0
                ? 0
                : result.total_advances + result.total_deflections);
}

TEST_P(FuzzSweep, GreedyCheckerFlagsArbitraryRouting) {
  // With enough packets the arbitrary policy will eventually deflect a
  // packet whose good arc stayed free — Definition 6 violation.
  const std::uint64_t seed = GetParam();
  net::Mesh mesh(2, 6);
  Rng rng(seed * 31 + 1);
  auto problem = workload::saturated_random(mesh, 2, rng);
  ArbitraryPolicy policy;
  sim::EngineConfig config;
  config.seed = seed;
  config.max_steps = 500;
  sim::Engine engine(mesh, problem, policy, config);
  core::GreedyChecker checker;
  engine.add_observer(&checker);
  engine.run();
  EXPECT_FALSE(checker.violations().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{21}));

TEST(Exhaustive, EverySinglePacketInstanceRoutesInExactlyItsDistance) {
  net::Mesh mesh(2, 4);
  routing::RestrictedPriorityPolicy policy;
  for (net::NodeId s = 0; s < static_cast<net::NodeId>(mesh.num_nodes());
       ++s) {
    for (net::NodeId t = 0; t < static_cast<net::NodeId>(mesh.num_nodes());
         ++t) {
      sim::Engine engine(mesh, make_problem({{s, t}}), policy);
      const auto result = engine.run();
      ASSERT_TRUE(result.completed);
      EXPECT_EQ(result.steps, static_cast<std::uint64_t>(mesh.distance(s, t)))
          << s << "→" << t;
      EXPECT_EQ(result.total_deflections, 0u);
    }
  }
}

TEST(Exhaustive, AllTwoPacketSharedOriginInstancesAuditClean) {
  // Every (origin, dst1, dst2) with an interior origin on the 3×3 mesh:
  // 9 × 9 = 81 destination pairs from the center — full enumeration of the
  // smallest contention scenarios, all must satisfy Theorem 20 and pass
  // the Property 8 audit.
  net::Mesh mesh(2, 3);
  const net::NodeId center = 4;  // (1,1): the only degree-4 node
  for (net::NodeId d1 = 0; d1 < 9; ++d1) {
    for (net::NodeId d2 = 0; d2 < 9; ++d2) {
      routing::RestrictedPriorityPolicy policy;
      sim::Engine engine(mesh, make_problem({{center, d1}, {center, d2}}),
                         policy);
      core::PotentialTracker::Config config;
      config.c_init = 2 * mesh.side();
      config.d = 2;
      core::PotentialTracker potential(mesh, engine, config);
      engine.add_observer(&potential);
      const auto result = engine.run();
      ASSERT_TRUE(result.completed) << "d1=" << d1 << " d2=" << d2;
      EXPECT_LE(static_cast<double>(result.steps),
                core::thm20_bound(3, 2.0));
      EXPECT_TRUE(potential.property8_violations().empty())
          << "d1=" << d1 << " d2=" << d2;
      EXPECT_TRUE(potential.structure_violations().empty())
          << "d1=" << d1 << " d2=" << d2;
    }
  }
}

/// Inverse of obs::json_escape for the escapes it emits; the fuzz test
/// checks escape→unescape is the identity on arbitrary byte strings.
std::string json_unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s.at(i)) {
      case 'n':
        out.push_back('\n');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 'b':
        out.push_back('\b');
        break;
      case 'f':
        out.push_back('\f');
        break;
      case '"':
        out.push_back('"');
        break;
      case '\\':
        out.push_back('\\');
        break;
      case 'u': {
        const int code = std::stoi(s.substr(i + 1, 4), nullptr, 16);
        out.push_back(static_cast<char>(code));
        i += 4;
        break;
      }
      default:
        ADD_FAILURE() << "unknown escape \\" << s[i];
    }
  }
  return out;
}

TEST_P(FuzzSweep, JsonEscapeRoundTripsArbitraryBytes) {
  Rng rng(GetParam() * 97 + 5);
  for (int iter = 0; iter < 50; ++iter) {
    std::string input;
    const std::size_t len = rng.uniform(64);
    for (std::size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(rng.uniform(256)));
    }
    const std::string escaped = obs::json_escape(input);
    // The escaped form is safe to embed in a JSON string literal: no raw
    // control bytes, and every quote sits behind a backslash.
    bool backslash = false;
    for (char c : escaped) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
      if (!backslash) {
        EXPECT_NE(c, '"');
      }
      backslash = !backslash && c == '\\';
    }
    EXPECT_EQ(json_unescape(escaped), input);
  }
}

TEST_P(FuzzSweep, TraceRingMatchesDequeModel) {
  Rng rng(GetParam() * 131 + 7);
  const std::size_t capacity = 1 + rng.uniform(16);
  obs::TraceRing ring(capacity);
  std::deque<std::uint64_t> model;  // retained timestamps, oldest first
  std::uint64_t pushed = 0;
  std::uint64_t dropped = 0;
  for (int op = 0; op < 400; ++op) {
    if (rng.uniform(50) == 0) {
      ring.clear();
      model.clear();
      dropped = 0;
      continue;
    }
    obs::TraceEvent e;
    e.ts = pushed++;
    ring.push(e);
    model.push_back(e.ts);
    if (model.size() > capacity) {
      model.pop_front();
      ++dropped;
    }
    ASSERT_EQ(ring.size(), model.size());
    ASSERT_EQ(ring.dropped(), dropped);
  }
  for (std::size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(ring.at(i).ts, model[i]);
  }
}

TEST(ObsFuzz, DistributionEdgeBinsClampOutOfRangeSamples) {
  obs::MetricsRegistry registry;
  obs::Distribution& d = registry.distribution("edge", 0.0, 10.0, 5);
  d.add(-1e18);  // far below lo: first bin
  d.add(0.0);    // exactly lo: first bin
  d.add(9.999);  // inside: last bin
  d.add(10.0);   // exactly hi: clamps to last bin
  d.add(1e18);   // far above hi: last bin
  EXPECT_EQ(d.histogram().bin_count(0), 2u);
  EXPECT_EQ(d.histogram().bin_count(4), 3u);
  EXPECT_EQ(d.stat().count(), 5u);
  EXPECT_DOUBLE_EQ(d.stat().min(), -1e18);
  EXPECT_DOUBLE_EQ(d.stat().max(), 1e18);
  // The snapshot serializes the extremes exactly (shortest round-trip).
  std::ostringstream out;
  registry.write_json(out);
  EXPECT_NE(out.str().find("1e+18"), std::string::npos);
}

TEST(Exhaustive, AllCornerPairInstancesOnTinyMesh) {
  // Both packets start at a degree-2 corner — the boundary case of the
  // Lemma 19 analysis (nodes near the edge of the mesh are explicitly
  // covered by Property 8's "every node" quantifier).
  net::Mesh mesh(2, 3);
  const net::NodeId corner = 0;
  for (net::NodeId d1 = 0; d1 < 9; ++d1) {
    for (net::NodeId d2 = 0; d2 < 9; ++d2) {
      routing::RestrictedPriorityPolicy policy;
      sim::Engine engine(mesh, make_problem({{corner, d1}, {corner, d2}}),
                         policy);
      core::PotentialTracker::Config config;
      config.c_init = 2 * mesh.side();
      config.d = 2;
      core::PotentialTracker potential(mesh, engine, config);
      engine.add_observer(&potential);
      const auto result = engine.run();
      ASSERT_TRUE(result.completed) << "d1=" << d1 << " d2=" << d2;
      EXPECT_TRUE(potential.property8_violations().empty())
          << "d1=" << d1 << " d2=" << d2;
    }
  }
}

}  // namespace
}  // namespace hp
