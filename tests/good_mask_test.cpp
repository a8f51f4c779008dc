// Definition 5 equivalence: each topology's closed-form `good_mask` must
// agree bit-for-bit with an in-test probe of the definition (directions
// whose arc enters a node strictly closer to the destination, found with
// neighbor() + distance()) over randomized (position, destination) pairs on
// meshes, tori, and hypercubes — including the at == dst empty case. The
// views derived from the mask (`good_dirs` order, `num_good_dirs`,
// `is_good_dir`) are checked against the same probe, since the routing
// engine's behaviour and the determinism golden corpus depend on both
// content and order.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/network.hpp"
#include "topology/types.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hp::net {
namespace {

/// Definition 5 by brute force, in ascending direction order.
DirList probe_good_dirs(const Network& net, NodeId at, NodeId dst) {
  DirList out;
  const int here = net.distance(at, dst);
  for (Dir d = 0; d < net.num_dirs(); ++d) {
    const NodeId nb = net.neighbor(at, d);
    if (nb != kInvalidNode && net.distance(nb, dst) < here) out.push_back(d);
  }
  return out;
}

void expect_matches_probe(const Network& net, NodeId at, NodeId dst) {
  const DirList probe = probe_good_dirs(net, at, dst);
  std::uint32_t ref = 0;
  for (const Dir d : probe) ref |= std::uint32_t{1} << d;
  ASSERT_EQ(net.good_mask(at, dst), ref)
      << net.name() << " at=" << at << " dst=" << dst;
  ASSERT_EQ(net.good_dirs(at, dst), probe)
      << net.name() << ": good_dirs must come out in ascending order";
  ASSERT_EQ(net.num_good_dirs(at, dst), static_cast<int>(probe.size()));
  for (Dir d = 0; d < net.num_dirs(); ++d) {
    ASSERT_EQ(net.is_good_dir(at, dst, d), ((ref >> d) & 1u) != 0)
        << net.name() << " at=" << at << " dst=" << dst << " dir=" << int{d};
  }
  if (at == dst) {
    ASSERT_EQ(ref, 0u) << "arrived packets have no good direction";
  }
}

/// `count` random pairs, every 16th forced to at == dst.
void expect_equivalence(const Network& net, std::uint64_t seed,
                        std::size_t count) {
  Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(net.num_nodes());
  for (std::size_t i = 0; i < count; ++i) {
    const auto at = static_cast<NodeId>(rng.uniform(n));
    const auto dst =
        (i % 16 == 0) ? at : static_cast<NodeId>(rng.uniform(n));
    expect_matches_probe(net, at, dst);
  }
}

TEST(GoodMaskEquivalence, Mesh2D) {
  expect_equivalence(Mesh(2, 7), 0xA11CE1u, 512);
  expect_equivalence(Mesh(2, 9), 1, 500);
}

TEST(GoodMaskEquivalence, Mesh3D) {
  expect_equivalence(Mesh(3, 5), 0xB0B0Bu, 512);
  expect_equivalence(Mesh(3, 4), 2, 500);
}

TEST(GoodMaskEquivalence, Mesh4DSmallSide) {
  expect_equivalence(Mesh(4, 3), 0xC4C4u, 512);
}

TEST(GoodMaskEquivalence, Torus2D) {
  // Even sides have antipodal ties (both directions good); odd sides none.
  expect_equivalence(Mesh(2, 6, /*wrap=*/true), 0xD00Du, 512);
  expect_equivalence(Mesh(2, 8, /*wrap=*/true), 3, 500);
  expect_equivalence(Mesh(2, 7, /*wrap=*/true), 4, 500);
}

TEST(GoodMaskEquivalence, Torus3DOddSide) {
  expect_equivalence(Mesh(3, 5, /*wrap=*/true), 0xE55Eu, 512);
}

TEST(GoodMaskEquivalence, Hypercube) {
  expect_equivalence(Hypercube(6), 0xF00Fu, 512);
}

TEST(GoodMaskEquivalence, HypercubeMaxDim) {
  expect_equivalence(Hypercube(10), 0xFACEu, 512);
}

TEST(GoodMaskEquivalence, ExhaustiveTinyMesh) {
  // Every (at, dst) pair of a 3x3 mesh and torus, no sampling at all.
  for (const bool wrap : {false, true}) {
    const Mesh m(2, 3, wrap);
    const auto n = static_cast<NodeId>(m.num_nodes());
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) expect_matches_probe(m, a, b);
    }
  }
}

TEST(GoodMaskEquivalence, IsGoodDirRejectsOutOfRangeDirections) {
  const auto expect_rejects = [](const Network& net) {
    const auto past_end = static_cast<Dir>(net.num_dirs());
    EXPECT_THROW(net.is_good_dir(0, 5, past_end), CheckError) << net.name();
    EXPECT_THROW(net.is_good_dir(0, 5, kInvalidDir), CheckError)
        << net.name();
  };
  expect_rejects(Mesh(2, 4));
  expect_rejects(Mesh(2, 4, /*wrap=*/true));
  expect_rejects(Hypercube(4));
}

}  // namespace
}  // namespace hp::net
