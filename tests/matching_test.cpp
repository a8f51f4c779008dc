// Per-node matching machinery: maximality (⇒ greediness), priority
// preservation, maximum-cardinality augmentation, and deflection rules.
#include <gtest/gtest.h>

#include <numeric>

#include "routing/matching.hpp"
#include "topology/mesh.hpp"
#include "util/rng.hpp"

namespace hp::routing {
namespace {

/// True iff direction d is in the packet's good set.
bool is_good(const sim::PacketView& v, net::Dir d) {
  return ((v.good_mask >> d) & 1u) != 0;
}

/// Builds a NodeContext plus PacketViews at an interior node of a 2-D (or
/// d-dim) mesh where each packet's good set is given explicitly as a set
/// of direction labels, stored as the engine stores it: a mask.
struct Fixture {
  explicit Fixture(int d = 2, int side = 8)
      : mesh(d, side), rng(1234), node(center()) {
    ctx = std::make_unique<sim::NodeContext>(
        sim::NodeContext{mesh, node, 0, mesh.arc_mask(node), rng});
  }

  net::NodeId center() const {
    net::Coord c;
    for (int a = 0; a < mesh.dim(); ++a) c.push_back(mesh.side() / 2);
    return mesh.node_at(c);
  }

  void add_packet(std::initializer_list<int> good_dirs) {
    sim::PacketView v;
    v.id = static_cast<sim::PacketId>(views.size());
    // Destination is irrelevant for the matcher itself; the good mask is
    // what drives it.
    v.dst = 0;
    for (int g : good_dirs) v.good_mask |= std::uint32_t{1} << g;
    views.push_back(v);
  }

  std::vector<net::Dir> run(bool augmenting,
                            DeflectRule rule = DeflectRule::kFirstFree) {
    std::vector<std::size_t> order(views.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<net::Dir> out(views.size(), net::kInvalidDir);
    if (augmenting) {
      assign_augmenting(*ctx, views, order, rule, out);
    } else {
      assign_sequential(*ctx, views, order, rule, out);
    }
    return out;
  }

  static int advancing_count(const std::vector<sim::PacketView>& views,
                             const std::vector<net::Dir>& out) {
    int count = 0;
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (is_good(views[i], out[i])) ++count;
    }
    return count;
  }

  net::Mesh mesh;
  Rng rng;
  net::NodeId node;
  std::unique_ptr<sim::NodeContext> ctx;
  std::vector<sim::PacketView> views;
};

void expect_valid(const Fixture& f, const std::vector<net::Dir>& out) {
  std::uint32_t used = 0;
  for (net::Dir d : out) {
    ASSERT_NE(d, net::kInvalidDir);
    ASSERT_TRUE(f.mesh.arc_exists(f.node, d));
    ASSERT_EQ((used >> d) & 1u, 0u) << "arc used twice";
    used |= std::uint32_t{1} << d;
  }
}

void expect_greedy(const Fixture& f, const std::vector<net::Dir>& out) {
  // Definition 6: every deflected packet's good arcs are all used by
  // advancing packets.
  for (std::size_t i = 0; i < f.views.size(); ++i) {
    if (is_good(f.views[i], out[i])) continue;
    for (net::Dir g = 0; g < f.mesh.num_dirs(); ++g) {
      if (!is_good(f.views[i], g)) continue;
      bool used_by_advancer = false;
      for (std::size_t j = 0; j < f.views.size(); ++j) {
        if (out[j] == g && is_good(f.views[j], g)) {
          used_by_advancer = true;
        }
      }
      EXPECT_TRUE(used_by_advancer)
          << "good arc " << int(g) << " of deflected packet " << i
          << " not used by an advancing packet";
    }
  }
}

TEST(Sequential, SinglePacketAdvances) {
  Fixture f;
  f.add_packet({0});
  auto out = f.run(false);
  expect_valid(f, out);
  EXPECT_EQ(out[0], 0);
}

TEST(Sequential, PriorityWinsContestedArc) {
  Fixture f;
  f.add_packet({2});
  f.add_packet({2});
  auto out = f.run(false);
  expect_valid(f, out);
  EXPECT_EQ(out[0], 2);      // first in order advances
  EXPECT_NE(out[1], 2);      // second deflected
  expect_greedy(f, out);
}

TEST(Sequential, MaximalEvenWhenNotMaximum) {
  // Packet 0 can use {0,1}, packet 1 only {0}. Sequential order lets 0
  // grab arc 0, deflecting 1 — maximal (1's only arc is used by an
  // advancer) but not maximum. Greediness still holds by Definition 6.
  Fixture f;
  f.add_packet({0, 1});
  f.add_packet({0});
  auto out = f.run(false);
  expect_valid(f, out);
  expect_greedy(f, out);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(Fixture::advancing_count(f.views, out), 1);
}

TEST(Augmenting, FindsMaximumMatching) {
  // Same instance: augmentation reroutes packet 0 to arc 1 so both advance.
  Fixture f;
  f.add_packet({0, 1});
  f.add_packet({0});
  auto out = f.run(true);
  expect_valid(f, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(Fixture::advancing_count(f.views, out), 2);
}

TEST(Augmenting, ChainedAugmentation) {
  // 0:{0,1} 1:{1,2} 2:{2,3} 3:{3} — needs a length-3 alternating chain.
  Fixture f;
  f.add_packet({0, 1});
  f.add_packet({1, 2});
  f.add_packet({2, 3});
  f.add_packet({3});
  auto out = f.run(true);
  expect_valid(f, out);
  EXPECT_EQ(Fixture::advancing_count(f.views, out), 4);
}

TEST(Augmenting, EarlierPacketsNeverUnmatched) {
  // 0:{0} and 1:{0} contend; 1 cannot displace 0 no matter what comes
  // later.
  Fixture f;
  f.add_packet({0});
  f.add_packet({0});
  f.add_packet({1, 2});
  auto out = f.run(true);
  expect_valid(f, out);
  EXPECT_EQ(out[0], 0);
  EXPECT_NE(out[1], 0);
  EXPECT_EQ(Fixture::advancing_count(f.views, out), 2);
}

TEST(Deflect, FirstFreeIsLowestLabel) {
  Fixture f;
  f.add_packet({1});
  f.add_packet({1});
  auto out = f.run(false, DeflectRule::kFirstFree);
  expect_valid(f, out);
  EXPECT_EQ(out[1], 0);  // lowest free label
}

TEST(Deflect, ReverseEntrySendsPacketBack) {
  Fixture f;
  f.add_packet({1});
  f.add_packet({1});
  f.views[1].entry_dir = 2;  // moved "+y" last step; back is "−y" = 3
  auto out = f.run(false, DeflectRule::kReverseEntry);
  expect_valid(f, out);
  EXPECT_EQ(out[1], 3);
}

TEST(Deflect, StraightKeepsHeading) {
  Fixture f;
  f.add_packet({1});
  f.add_packet({1});
  f.views[1].entry_dir = 2;
  auto out = f.run(false, DeflectRule::kStraight);
  expect_valid(f, out);
  EXPECT_EQ(out[1], 2);
}

TEST(Deflect, RandomStaysOnFreeArcs) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Fixture f;
    f.rng = Rng(seed);
    f.add_packet({0});
    f.add_packet({0});
    auto out = f.run(false, DeflectRule::kRandom);
    expect_valid(f, out);
    EXPECT_EQ(out[0], 0);
    EXPECT_NE(out[1], 0);
  }
}

TEST(Matching, FullNodeAllPacketsLeaveDistinctly) {
  Fixture f;
  f.add_packet({0});
  f.add_packet({0});
  f.add_packet({0});
  f.add_packet({0});
  auto out = f.run(false);
  expect_valid(f, out);
  expect_greedy(f, out);
  EXPECT_EQ(Fixture::advancing_count(f.views, out), 1);
}

TEST(Matching, RandomizedPropertySweep) {
  // Property test: for random good sets at a 3-D interior node, both
  // matchers produce valid greedy assignments and augmenting ≥ sequential
  // in advancing count.
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    Fixture f(3, 6);
    const int packets = 1 + static_cast<int>(rng.uniform(6));
    for (int i = 0; i < packets; ++i) {
      const int goods = 1 + static_cast<int>(rng.uniform(5));
      sim::PacketView v;
      v.id = i;
      v.dst = 0;
      for (int g = 0; g < goods; ++g) {
        v.good_mask |= std::uint32_t{1} << rng.uniform(6);
      }
      f.views.push_back(v);
    }
    auto seq = f.run(false);
    expect_valid(f, seq);
    expect_greedy(f, seq);
    auto aug = f.run(true);
    expect_valid(f, aug);
    expect_greedy(f, aug);
    EXPECT_GE(Fixture::advancing_count(f.views, aug),
              Fixture::advancing_count(f.views, seq));
  }
}

}  // namespace
}  // namespace hp::routing
