// Definition 5 equivalence: each topology's closed-form `good_mask` must
// agree bit-for-bit with an in-test probe of the definition (directions
// whose arc enters a node strictly closer to the destination, found with
// neighbor() + distance()) over randomized (position, destination) pairs on
// meshes, tori, and hypercubes — including the at == dst empty case. The
// mask is the only form of the good set the engine hands to policies, and
// they visit its set bits in ascending order, so the routing engine's
// behaviour and the determinism golden corpus rest on this agreement.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/network.hpp"
#include "topology/types.hpp"
#include "util/rng.hpp"

namespace hp::net {
namespace {

/// Definition 5 by brute force, as a direction mask.
std::uint32_t probe_good_mask(const Network& net, NodeId at, NodeId dst) {
  std::uint32_t mask = 0;
  const int here = net.distance(at, dst);
  for (Dir d = 0; d < net.num_dirs(); ++d) {
    const NodeId nb = net.neighbor(at, d);
    if (nb != kInvalidNode && net.distance(nb, dst) < here) {
      mask |= std::uint32_t{1} << d;
    }
  }
  return mask;
}

void expect_matches_probe(const Network& net, NodeId at, NodeId dst) {
  const std::uint32_t ref = probe_good_mask(net, at, dst);
  ASSERT_EQ(net.good_mask(at, dst), ref)
      << net.name() << " at=" << at << " dst=" << dst;
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

}  // namespace
}  // namespace hp::net
