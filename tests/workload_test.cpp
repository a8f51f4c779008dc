// Workload generator tests: the Section 2 many-to-many constraints, the
// specific shapes of each generator, and the continuous-injection traffic
// sources (destination patterns + heavy-tailed Pareto flow sizes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>

#include "routing/restricted_priority.hpp"
#include "sim/engine.hpp"
#include "test_support.hpp"
#include "topology/hypercube.hpp"
#include "workload/generators.hpp"
#include "workload/traffic.hpp"

namespace hp::workload {
namespace {

using test::xy;

void expect_valid(const net::Network& net, const Problem& p) {
  EXPECT_NO_THROW(p.validate(net));
}

TEST(Problem, ValidateEnforcesOriginCapacity) {
  net::Mesh mesh(2, 4);
  Problem p;
  const auto corner = mesh.node_at(xy(0, 0));  // degree 2
  p.packets = {{corner, 1}, {corner, 2}};
  EXPECT_NO_THROW(p.validate(mesh));
  p.packets.push_back({corner, 3});
  EXPECT_THROW(p.validate(mesh), CheckError);
}

TEST(Problem, MaxDistance) {
  net::Mesh mesh(2, 8);
  Problem p;
  p.packets = {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(7, 7))},
               {mesh.node_at(xy(1, 1)), mesh.node_at(xy(1, 2))}};
  EXPECT_EQ(p.max_distance(mesh), 14);
}

TEST(RandomManyToMany, RespectsSizeAndCapacity) {
  net::Mesh mesh(2, 8);
  Rng rng(1);
  for (std::size_t k : {1u, 10u, 100u, 200u}) {
    auto p = random_many_to_many(mesh, k, rng);
    EXPECT_EQ(p.size(), k);
    expect_valid(mesh, p);
  }
}

TEST(RandomManyToMany, RejectsOverCapacity) {
  net::Mesh mesh(2, 2);  // 4 nodes, each degree 2 ⇒ capacity 8
  Rng rng(2);
  EXPECT_NO_THROW(random_many_to_many(mesh, 8, rng));
  EXPECT_THROW(random_many_to_many(mesh, 9, rng), CheckError);
}

TEST(RandomPermutation, IsAPermutation) {
  net::Mesh mesh(2, 6);
  Rng rng(3);
  auto p = random_permutation(mesh, rng);
  EXPECT_EQ(p.size(), mesh.num_nodes());
  expect_valid(mesh, p);
  std::set<net::NodeId> sources, dests;
  for (const auto& s : p.packets) {
    sources.insert(s.src);
    dests.insert(s.dst);
  }
  EXPECT_EQ(sources.size(), mesh.num_nodes());
  EXPECT_EQ(dests.size(), mesh.num_nodes());
}

TEST(Transpose, MapsXYtoYX) {
  net::Mesh mesh(2, 5);
  auto p = transpose(mesh);
  expect_valid(mesh, p);
  for (const auto& s : p.packets) {
    const auto c = mesh.coords(s.src);
    const auto t = mesh.coords(s.dst);
    EXPECT_EQ(c[0], t[1]);
    EXPECT_EQ(c[1], t[0]);
  }
}

TEST(BitReversal, SelfInverse) {
  net::Mesh mesh(2, 8);
  auto p = bit_reversal(mesh);
  expect_valid(mesh, p);
  std::map<net::NodeId, net::NodeId> fwd;
  for (const auto& s : p.packets) fwd[s.src] = s.dst;
  for (const auto& [src, dst] : fwd) {
    EXPECT_EQ(fwd[dst], src);
  }
}

TEST(BitReversal, RequiresPowerOfTwo) {
  net::Mesh mesh(2, 6);
  EXPECT_THROW(bit_reversal(mesh), CheckError);
}

TEST(Inversion, EveryPacketCrossesCenter) {
  net::Mesh mesh(2, 8);
  auto p = inversion(mesh);
  expect_valid(mesh, p);
  // The corner packet travels the full diameter.
  EXPECT_EQ(p.max_distance(mesh), mesh.diameter());
  // Inversion is an involution.
  std::map<net::NodeId, net::NodeId> fwd;
  for (const auto& s : p.packets) fwd[s.src] = s.dst;
  for (const auto& [src, dst] : fwd) EXPECT_EQ(fwd[dst], src);
}

TEST(SingleTarget, AllToOne) {
  net::Mesh mesh(2, 8);
  Rng rng(4);
  const auto target = mesh.node_at(xy(4, 4));
  auto p = single_target(mesh, 50, target, rng);
  EXPECT_EQ(p.size(), 50u);
  expect_valid(mesh, p);
  for (const auto& s : p.packets) EXPECT_EQ(s.dst, target);
}

TEST(Hotspot, DestinationsConcentrate) {
  net::Mesh mesh(2, 8);
  Rng rng(5);
  auto p = hotspot(mesh, 60, 3, rng);
  expect_valid(mesh, p);
  std::set<net::NodeId> dests;
  for (const auto& s : p.packets) dests.insert(s.dst);
  EXPECT_LE(dests.size(), 3u);
}

TEST(CornerToCorner, SourcesInOneQuadrantDestsInOpposite) {
  net::Mesh mesh(2, 8);
  Rng rng(6);
  auto p = corner_to_corner(mesh, rng);
  EXPECT_EQ(p.size(), 16u);  // (n/2)² sources
  expect_valid(mesh, p);
  for (const auto& s : p.packets) {
    const auto c = mesh.coords(s.src);
    const auto t = mesh.coords(s.dst);
    EXPECT_LT(c[0], 4);
    EXPECT_LT(c[1], 4);
    EXPECT_GE(t[0], 4);
    EXPECT_GE(t[1], 4);
  }
}

TEST(SaturatedRandom, FillsEveryNodeToItsDegree) {
  net::Mesh mesh(2, 6);
  Rng rng(7);
  auto p = saturated_random(mesh, 4, rng);
  expect_valid(mesh, p);
  std::map<net::NodeId, int> per_origin;
  for (const auto& s : p.packets) ++per_origin[s.src];
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(mesh.num_nodes());
       ++v) {
    EXPECT_EQ(per_origin[v], mesh.degree(v));
  }
}

TEST(Generators, WorkOnHypercube) {
  net::Hypercube cube(4);
  Rng rng(9);
  auto p1 = random_many_to_many(cube, 30, rng);
  expect_valid(cube, p1);
  auto p2 = random_permutation(cube, rng);
  expect_valid(cube, p2);
  auto p3 = single_target(cube, 20, 5, rng);
  expect_valid(cube, p3);
}

TEST(Generators, AreDeterministicGivenSeed) {
  net::Mesh mesh(2, 8);
  Rng r1(42), r2(42);
  auto p1 = random_many_to_many(mesh, 40, r1);
  auto p2 = random_many_to_many(mesh, 40, r2);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1.packets[i].src, p2.packets[i].src);
    EXPECT_EQ(p1.packets[i].dst, p2.packets[i].dst);
  }
}

// --- continuous-injection traffic (traffic.hpp) -----------------------------

TEST(Pattern, NamesRoundTrip) {
  for (auto p : {DestPattern::kUniform, DestPattern::kHotspot,
                 DestPattern::kTranspose, DestPattern::kBitReversal}) {
    EXPECT_EQ(pattern_from_name(pattern_name(p)), p);
  }
  EXPECT_THROW(pattern_from_name("zipf"), CheckError);
}

TEST(Pareto, RejectsDegenerateShapes) {
  // α ≤ 1 means an infinite mean: no offered packet rate can be converted
  // into a flow arrival rate, so construction must fail loudly.
  EXPECT_THROW(ParetoSampler(1.0, 1.0), CheckError);
  EXPECT_THROW(ParetoSampler(0.5, 1.0), CheckError);
  EXPECT_THROW(ParetoSampler(1.6, 0.0), CheckError);
  EXPECT_THROW(ParetoSampler(1.6, -2.0), CheckError);
  ParetoSampler ok(1.6, 1.0);
  Rng rng(1);
  EXPECT_THROW(ok.sample_size(rng, 0), CheckError);
}

TEST(Pareto, GoldenFingerprint) {
  // FNV-1a over the bit patterns of the first 256 draws at seed 42. Pins
  // the exact sampling algorithm (inverse CDF over Rng::real): any change
  // to the draw sequence silently invalidates every committed sweep
  // artifact, so it must show up here first.
  ParetoSampler sampler(1.6, 1.0);
  Rng rng(42);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 256; ++i) {
    const double x = sampler.sample_real(rng);
    ASSERT_GE(x, 1.0);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int b = 0; b < 64; b += 8) {
      hash ^= (bits >> b) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(hash, 0xbbfdbabb67ff4777ULL);
}

TEST(Pareto, SampleMeanMatchesAnalyticMean) {
  ParetoSampler sampler(2.5, 1.0);  // mean α/(α−1) = 5/3
  Rng rng(7);
  const int n = 50'000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += sampler.sample_real(rng);
  EXPECT_NEAR(sum / n, sampler.mean(), 0.05 * sampler.mean());
}

TEST(Pareto, SampleVarianceMatchesAnalyticVariance) {
  const double alpha = 3.5, xm = 1.0;
  ParetoSampler sampler(alpha, xm);
  Rng rng(11);
  const int n = 100'000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = sampler.sample_real(rng);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  const double expected =
      alpha * xm * xm / ((alpha - 1.0) * (alpha - 1.0) * (alpha - 2.0));
  EXPECT_NEAR(var, expected, 0.15 * expected);
}

TEST(Pareto, HillEstimatorRecoversTailIndex) {
  // The Hill estimator over the top-k order statistics is the standard
  // tail-index diagnostic; on true Pareto data it is consistent, so a
  // large sample must recover α within a small tolerance.
  const double alpha = 1.5;
  ParetoSampler sampler(alpha, 1.0);
  Rng rng(13);
  const std::size_t n = 40'000;
  std::vector<double> xs(n);
  for (auto& x : xs) x = sampler.sample_real(rng);
  std::sort(xs.begin(), xs.end(), std::greater<>());
  const std::size_t k = 2'000;
  double acc = 0.0;
  for (std::size_t i = 0; i < k; ++i) acc += std::log(xs[i] / xs[k]);
  const double hill = static_cast<double>(k) / acc;
  EXPECT_NEAR(hill, alpha, 0.15);
}

TEST(Pareto, SampleSizeClampsToCapAndFloor) {
  ParetoSampler sampler(1.2, 1.0);  // very heavy tail
  Rng rng(17);
  bool saw_cap = false;
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t s = sampler.sample_size(rng, 64);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 64u);
    saw_cap = saw_cap || s == 64;
  }
  EXPECT_TRUE(saw_cap);  // α = 1.2 has P(X > 64) ≈ 64^−1.2 ≈ 7e−3
}

TEST(Traffic, FixedPatternsMatchBatchGenerators) {
  net::Mesh mesh(2, 8);
  for (auto pattern : {DestPattern::kTranspose, DestPattern::kBitReversal}) {
    TrafficConfig config;
    config.pattern = pattern;
    TrafficInjector injector(mesh, config, 0.1, /*seed=*/3);
    const auto batch = pattern == DestPattern::kTranspose
                           ? transpose(mesh)
                           : bit_reversal(mesh);
    std::map<net::NodeId, net::NodeId> want;
    for (const auto& spec : batch.packets) {
      if (spec.dst != spec.src) want[spec.src] = spec.dst;
    }
    for (net::NodeId v = 0; v < static_cast<net::NodeId>(mesh.num_nodes());
         ++v) {
      const auto it = want.find(v);
      EXPECT_EQ(injector.fixed_dst(v),
                it == want.end() ? net::kInvalidNode : it->second);
    }
  }
}

TEST(Traffic, PatternsNeedingCoordinatesRejectNonMesh) {
  net::Hypercube cube(4);
  TrafficConfig config;
  config.pattern = DestPattern::kTranspose;
  EXPECT_THROW(TrafficInjector(cube, config, 0.1, 1), CheckError);
}

/// Drives a short injector-fed run and returns the engine's packet log as
/// (src, dst, injected_at) triples.
std::vector<std::array<std::uint64_t, 3>> drive(const TrafficConfig& config,
                                                double rate,
                                                std::uint64_t seed,
                                                std::uint64_t steps = 600) {
  net::Mesh mesh(2, 8);
  Problem empty;
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, empty, policy);
  TrafficInjector injector(mesh, config, rate, seed);
  engine.set_injector(&injector);
  engine.run_for(steps);
  std::vector<std::array<std::uint64_t, 3>> log;
  for (std::size_t i = 0; i < engine.num_packets(); ++i) {
    const auto& p = engine.packet(static_cast<sim::PacketId>(i));
    log.push_back({static_cast<std::uint64_t>(p.src),
                   static_cast<std::uint64_t>(p.dst), p.injected_at});
  }
  return log;
}

TEST(Traffic, UniformNeverSelfTargets) {
  TrafficConfig config;
  const auto log = drive(config, 0.2, 5);
  ASSERT_GT(log.size(), 100u);
  for (const auto& [src, dst, step] : log) EXPECT_NE(src, dst);
}

TEST(Traffic, HotspotConcentratesOnDrawnReceivers) {
  TrafficConfig config;
  config.pattern = DestPattern::kHotspot;
  config.hotspots = 3;
  const auto log = drive(config, 0.1, 9);
  ASSERT_GT(log.size(), 50u);
  // Every destination is one of the three receivers drawn from the seed.
  std::set<std::uint64_t> spots;
  for (const auto& [src, dst, step] : log) spots.insert(dst);
  EXPECT_EQ(spots.size(), 3u);
}

TEST(Traffic, InjectionIsDeterministicGivenSeed) {
  TrafficConfig config;
  config.pareto = true;
  EXPECT_EQ(drive(config, 0.15, 21), drive(config, 0.15, 21));
  EXPECT_NE(drive(config, 0.15, 21), drive(config, 0.15, 22));
}

TEST(Traffic, ParetoProducesMultiPacketFlows) {
  TrafficConfig config;
  config.pareto = true;  // α = 1.6 ⇒ E[flow] ≈ 2.67 packets
  config.max_flow_packets = 64;
  const auto log = drive(config, 0.1, 31, /*steps=*/2000);
  ASSERT_GT(log.size(), 200u);
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> per_pair;
  int biggest = 0;
  for (const auto& [src, dst, step] : log) {
    biggest = std::max(biggest, ++per_pair[{src, dst}]);
  }
  // The tail must actually show up: some source keeps a single flow going
  // long enough to stack many packets onto one (src, dst) pair.
  EXPECT_GE(biggest, 4);
  // And the average flow exceeds one packet by a clear margin.
  EXPECT_GT(static_cast<double>(log.size()),
            1.3 * static_cast<double>(per_pair.size()));
}

TEST(Traffic, BlockedOffersAreCountedNotDropped) {
  TrafficConfig config;
  net::Mesh mesh(2, 4);
  Problem empty;
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, empty, policy);
  TrafficInjector injector(mesh, config, /*rate=*/1.0, /*seed=*/2);
  engine.set_injector(&injector);
  engine.run_for(400);
  // At the ceiling rate the capacity rule must push back…
  EXPECT_GT(injector.offered(), injector.admitted());
  // …and every admitted offer is a real packet in the engine.
  EXPECT_EQ(injector.admitted(), engine.num_packets());
}

TEST(Traffic, SetRateValidatesAndRetunes) {
  net::Mesh mesh(2, 4);
  TrafficConfig config;
  TrafficInjector injector(mesh, config, 0.5, 1);
  EXPECT_THROW(injector.set_rate(-0.1), CheckError);
  EXPECT_THROW(injector.set_rate(1.5), CheckError);
  injector.set_rate(0.25);
  // Retuned before its first step, the injector offers exactly what one
  // built at 0.25 offers.
  TrafficInjector fresh(mesh, config, 0.25, 1);
  Problem empty;
  routing::RestrictedPriorityPolicy p1, p2;
  sim::Engine retuned_engine(mesh, empty, p1);
  sim::Engine fresh_engine(mesh, empty, p2);
  retuned_engine.set_injector(&injector);
  fresh_engine.set_injector(&fresh);
  retuned_engine.run_for(100);
  fresh_engine.run_for(100);
  EXPECT_GT(fresh.offered(), 0u);
  EXPECT_EQ(injector.offered(), fresh.offered());
  EXPECT_EQ(retuned_engine.num_packets(), fresh_engine.num_packets());
}

}  // namespace
}  // namespace hp::workload
