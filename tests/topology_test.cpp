// Topology tests: the d-dimensional mesh of Definition 1, directions
// (Definition 3, Figure 1), the 2-neighbor relation and its equivalence
// classes (Definition 4, Figure 2), torus wrap, and the hypercube.
#include <gtest/gtest.h>

#include <map>
#include <cstdint>

#include "test_support.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "util/check.hpp"

namespace hp::net {
namespace {

Coord xy(int x, int y) {
  Coord c;
  c.push_back(x);
  c.push_back(y);
  return c;
}

TEST(Mesh, NodeCountAndDiameter) {
  Mesh m2(2, 5);
  EXPECT_EQ(m2.num_nodes(), 25u);
  EXPECT_EQ(m2.diameter(), 8);
  Mesh m3(3, 4);
  EXPECT_EQ(m3.num_nodes(), 64u);
  EXPECT_EQ(m3.diameter(), 9);
}

TEST(Mesh, CoordRoundTrip) {
  Mesh m(3, 5);
  for (NodeId v = 0; v < static_cast<NodeId>(m.num_nodes()); ++v) {
    EXPECT_EQ(m.node_at(m.coords(v)), v);
  }
}

TEST(Mesh, DirectionLabels) {
  // Definition 3: label 2a is "+" on axis a, 2a+1 is "−".
  EXPECT_EQ(Mesh::axis_of(0), 0);
  EXPECT_EQ(Mesh::sign_of(0), +1);
  EXPECT_EQ(Mesh::axis_of(1), 0);
  EXPECT_EQ(Mesh::sign_of(1), -1);
  EXPECT_EQ(Mesh::axis_of(4), 2);
  EXPECT_EQ(Mesh::dir_of(2, -1), 5);
  EXPECT_EQ(Mesh::dir_of(0, +1), 0);
}

TEST(Mesh, NeighborsFollowDirections) {
  Mesh m(2, 4);
  const NodeId v = m.node_at(xy(1, 2));
  EXPECT_EQ(m.neighbor(v, Mesh::dir_of(0, +1)), m.node_at(xy(2, 2)));
  EXPECT_EQ(m.neighbor(v, Mesh::dir_of(0, -1)), m.node_at(xy(0, 2)));
  EXPECT_EQ(m.neighbor(v, Mesh::dir_of(1, +1)), m.node_at(xy(1, 3)));
  EXPECT_EQ(m.neighbor(v, Mesh::dir_of(1, -1)), m.node_at(xy(1, 1)));
}

TEST(Mesh, EdgesHaveNoOutsideArcs) {
  Mesh m(2, 4);
  const NodeId corner = m.node_at(xy(0, 0));
  EXPECT_EQ(m.neighbor(corner, Mesh::dir_of(0, -1)), kInvalidNode);
  EXPECT_EQ(m.neighbor(corner, Mesh::dir_of(1, -1)), kInvalidNode);
  EXPECT_NE(m.neighbor(corner, Mesh::dir_of(0, +1)), kInvalidNode);
  EXPECT_EQ(m.degree(corner), 2);
  EXPECT_EQ(m.degree(m.node_at(xy(1, 0))), 3);
  EXPECT_EQ(m.degree(m.node_at(xy(1, 1))), 4);
}

TEST(Mesh, ReverseDirReturns) {
  Mesh m(3, 4);
  for (NodeId v = 0; v < static_cast<NodeId>(m.num_nodes()); ++v) {
    for (Dir d = 0; d < m.num_dirs(); ++d) {
      const NodeId nb = m.neighbor(v, d);
      if (nb == kInvalidNode) continue;
      EXPECT_EQ(m.neighbor(nb, m.reverse_dir(d)), v);
    }
  }
}

TEST(Mesh, DistanceIsL1) {
  Mesh m(2, 8);
  EXPECT_EQ(m.distance(m.node_at(xy(0, 0)), m.node_at(xy(7, 7))), 14);
  EXPECT_EQ(m.distance(m.node_at(xy(3, 5)), m.node_at(xy(3, 5))), 0);
  EXPECT_EQ(m.distance(m.node_at(xy(2, 1)), m.node_at(xy(5, 0))), 4);
}

TEST(Mesh, DistanceMatchesBfsOnSmallMesh) {
  // Property check: the closed-form L1 distance equals graph distance.
  Mesh m(2, 4);
  for (NodeId s = 0; s < static_cast<NodeId>(m.num_nodes()); ++s) {
    std::vector<int> dist(m.num_nodes(), -1);
    std::vector<NodeId> frontier{s};
    dist[static_cast<std::size_t>(s)] = 0;
    while (!frontier.empty()) {
      std::vector<NodeId> next;
      for (NodeId v : frontier) {
        for (Dir d = 0; d < m.num_dirs(); ++d) {
          const NodeId nb = m.neighbor(v, d);
          if (nb != kInvalidNode && dist[static_cast<std::size_t>(nb)] < 0) {
            dist[static_cast<std::size_t>(nb)] =
                dist[static_cast<std::size_t>(v)] + 1;
            next.push_back(nb);
          }
        }
      }
      frontier = std::move(next);
    }
    for (NodeId t = 0; t < static_cast<NodeId>(m.num_nodes()); ++t) {
      EXPECT_EQ(m.distance(s, t), dist[static_cast<std::size_t>(t)]);
    }
  }
}

TEST(Mesh, GoodDirsMatchDefinition5) {
  Mesh m(5, 9);
  // The paper's example (1-based coords ⟨1,3,2,6,1⟩ → ⟨4,3,8,2,1⟩; ours are
  // 0-based): good directions are "+" on axis 0, "+" on axis 2, "−" on
  // axis 3.
  Coord at;
  for (int x : {0, 2, 1, 5, 0}) at.push_back(x);
  Coord to;
  for (int x : {3, 2, 7, 1, 0}) to.push_back(x);
  const auto bit = [](Dir d) { return std::uint32_t{1} << d; };
  // Axis 1 differs too in our version of the example? No: 2 → 2 aligned;
  // axis 4 aligned. Exactly three good directions.
  EXPECT_EQ(m.good_mask(m.node_at(at), m.node_at(to)),
            bit(Mesh::dir_of(0, +1)) | bit(Mesh::dir_of(2, +1)) |
                bit(Mesh::dir_of(3, -1)));
}

TEST(Mesh, GoodDirsEmptyOnlyAtDestination) {
  Mesh m(2, 5);
  for (NodeId v = 0; v < static_cast<NodeId>(m.num_nodes()); ++v) {
    for (NodeId t = 0; t < static_cast<NodeId>(m.num_nodes()); ++t) {
      const std::uint32_t good = m.good_mask(v, t);
      EXPECT_EQ(good == 0, v == t);
      for (Dir g = 0; g < m.num_dirs(); ++g) {
        if (((good >> g) & 1u) == 0) continue;
        EXPECT_EQ(m.distance(m.neighbor(v, g), t), m.distance(v, t) - 1);
      }
    }
  }
}

TEST(Mesh, TwoNeighborMatchesDefinition4) {
  Mesh m(2, 5);
  // ⟨1,2⟩ is a 2-neighbor of ⟨3,2⟩ in direction "−" on axis 0; ⟨2,3⟩ is
  // not a 2-neighbor of ⟨3,2⟩ (paper's example, 1-based; ours 0-based:
  // (0,1) vs (2,1), and (1,2) not 2-neighbor).
  EXPECT_EQ(m.two_neighbor(m.node_at(xy(2, 1)), Mesh::dir_of(0, -1)),
            m.node_at(xy(0, 1)));
  // No direction reaches (1,2) from (2,1) with two same-direction arcs.
  for (Dir d = 0; d < m.num_dirs(); ++d) {
    EXPECT_NE(m.two_neighbor(m.node_at(xy(2, 1)), d), m.node_at(xy(1, 2)));
  }
}

TEST(Mesh, TwoNeighborOffMeshIsInvalid) {
  Mesh m(2, 4);
  EXPECT_EQ(m.two_neighbor(m.node_at(xy(1, 0)), Mesh::dir_of(0, -1)),
            kInvalidNode);
  EXPECT_EQ(m.two_neighbor(m.node_at(xy(0, 0)), Mesh::dir_of(1, -1)),
            kInvalidNode);
  EXPECT_EQ(m.two_neighbor(m.node_at(xy(0, 0)), Mesh::dir_of(0, +1)),
            m.node_at(xy(2, 0)));
}

TEST(Mesh, ParityClassesPartitionIntoTwoPowD) {
  // The transitive closure of the 2-neighbor relation has 2^d classes,
  // each isomorphic to an (n/2)^d mesh (for even n). Label the classes by
  // flood fill over two_neighbor() and count them.
  for (int d : {1, 2, 3}) {
    Mesh m(d, 4);
    std::vector<int> cls(m.num_nodes(), -1);
    std::map<int, int> class_sizes;
    for (NodeId root = 0; root < static_cast<NodeId>(m.num_nodes()); ++root) {
      if (cls[root] >= 0) continue;
      const int label = static_cast<int>(class_sizes.size());
      std::vector<NodeId> stack{root};
      cls[root] = label;
      while (!stack.empty()) {
        const NodeId v = stack.back();
        stack.pop_back();
        ++class_sizes[label];
        for (Dir dir = 0; dir < m.num_dirs(); ++dir) {
          const NodeId nn = m.two_neighbor(v, dir);
          if (nn == kInvalidNode || cls[nn] >= 0) continue;
          cls[nn] = label;
          stack.push_back(nn);
        }
      }
    }
    EXPECT_EQ(class_sizes.size(), static_cast<std::size_t>(1 << d));
    for (const auto& [label, size] : class_sizes) {
      EXPECT_EQ(size, static_cast<int>(m.num_nodes()) / (1 << d));
    }
  }
}

TEST(Mesh, TwoNeighborsShareParityClass) {
  Mesh m(2, 6);
  for (NodeId v = 0; v < static_cast<NodeId>(m.num_nodes()); ++v) {
    for (Dir d = 0; d < m.num_dirs(); ++d) {
      const NodeId nn = m.two_neighbor(v, d);
      if (nn == kInvalidNode) continue;
      for (int axis = 0; axis < m.dim(); ++axis) {
        EXPECT_EQ(m.coord(v, axis) % 2, m.coord(nn, axis) % 2);
      }
    }
  }
}

TEST(Torus, WrapsAround) {
  Mesh t(2, 4, /*wrap=*/true);
  const NodeId v = t.node_at(xy(3, 0));
  EXPECT_EQ(t.neighbor(v, Mesh::dir_of(0, +1)), t.node_at(xy(0, 0)));
  EXPECT_EQ(t.neighbor(v, Mesh::dir_of(1, -1)), t.node_at(xy(3, 3)));
  EXPECT_EQ(t.degree(v), 4);
}

TEST(Torus, WrapDistance) {
  Mesh t(2, 8, /*wrap=*/true);
  EXPECT_EQ(t.distance(t.node_at(xy(0, 0)), t.node_at(xy(7, 0))), 1);
  EXPECT_EQ(t.distance(t.node_at(xy(0, 0)), t.node_at(xy(4, 4))), 8);
  EXPECT_EQ(t.diameter(), 8);
}

TEST(Torus, AllNodesFullDegree) {
  Mesh t(3, 4, /*wrap=*/true);
  for (NodeId v = 0; v < static_cast<NodeId>(t.num_nodes()); ++v) {
    EXPECT_EQ(t.degree(v), 6);
  }
}

TEST(Mesh, RejectsBadParameters) {
  EXPECT_THROW(Mesh(0, 4), CheckError);
  EXPECT_THROW(Mesh(9, 4), CheckError);
  EXPECT_THROW(Mesh(2, 1), CheckError);
}

TEST(Hypercube, BasicStructure) {
  Hypercube h(4);
  EXPECT_EQ(h.num_nodes(), 16u);
  EXPECT_EQ(h.num_dirs(), 4);
  EXPECT_EQ(h.diameter(), 4);
  EXPECT_EQ(h.degree(0), 4);
  EXPECT_EQ(h.neighbor(0b1010, 0), 0b1011);
  EXPECT_EQ(h.neighbor(0b1010, 3), 0b0010);
}

TEST(Hypercube, DistanceIsHamming) {
  Hypercube h(5);
  EXPECT_EQ(h.distance(0b00000, 0b11111), 5);
  EXPECT_EQ(h.distance(0b10101, 0b10101), 0);
  EXPECT_EQ(h.distance(0b10100, 0b00101), 2);
}

TEST(Hypercube, ArcsAreSelfReverse) {
  Hypercube h(3);
  for (NodeId v = 0; v < static_cast<NodeId>(h.num_nodes()); ++v) {
    for (Dir d = 0; d < h.num_dirs(); ++d) {
      EXPECT_EQ(h.neighbor(h.neighbor(v, d), h.reverse_dir(d)), v);
    }
  }
}

TEST(Hypercube, GoodDirsAreDifferingBits) {
  Hypercube h(4);
  EXPECT_EQ(h.good_mask(0b0000, 0b1010), 0b1010u);
}

TEST(Network, NumArcsMatchesHandshake) {
  // The node degrees must add up to the arc count: per axis a d-dim mesh
  // has n^{d−1}·(n−1) undirected edges ⇒ 2·d·n^{d−1}(n−1) directed arcs.
  EXPECT_EQ(test::arc_count(Mesh(2, 4)), 2u * 2u * 4u * 3u);
  EXPECT_EQ(test::arc_count(Hypercube(3)), 8u * 3u);
}

class MeshSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MeshSweep, StructuralInvariants) {
  const auto [d, n] = GetParam();
  Mesh m(d, n);
  // Degree bounds from Section 2.1: between d (corners) and 2d (interior).
  int min_deg = 100, max_deg = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(m.num_nodes()); ++v) {
    min_deg = std::min(min_deg, m.degree(v));
    max_deg = std::max(max_deg, m.degree(v));
    // Every arc has an antiparallel arc.
    for (Dir dir = 0; dir < m.num_dirs(); ++dir) {
      const NodeId nb = m.neighbor(v, dir);
      if (nb != kInvalidNode) {
        EXPECT_EQ(m.neighbor(nb, m.reverse_dir(dir)), v);
      }
    }
  }
  EXPECT_EQ(min_deg, d);
  EXPECT_EQ(max_deg, n >= 3 ? 2 * d : d);
  EXPECT_EQ(m.diameter(), d * (n - 1));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MeshSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(2, 3, 4, 5)));

TEST(Degree, ClosedFormsMatchTheProbeLoop) {
  // The engine answers arc_mask() / degree() from the topologies' closed
  // forms instead of a cached probe loop; the two must agree on every node
  // of every shape, wrap or not — including side-2 tori, where both arcs
  // of an axis reach the same node.
  auto probe = [](const Network& net, NodeId v) {
    std::uint32_t mask = 0;
    for (Dir d = 0; d < net.num_dirs(); ++d) {
      if (net.neighbor(v, d) != kInvalidNode) mask |= std::uint32_t{1} << d;
    }
    return mask;
  };
  auto expect_agree = [&](const Network& net) {
    for (NodeId v = 0; v < static_cast<NodeId>(net.num_nodes()); ++v) {
      const std::uint32_t want = probe(net, v);
      ASSERT_EQ(net.arc_mask(v), want) << net.name() << " node " << v;
      ASSERT_EQ(net.degree(v), std::popcount(want))
          << net.name() << " node " << v;
    }
  };
  for (const int dim : {1, 2, 3}) {
    for (const int side : {2, 3, 5}) {
      for (const bool wrap : {false, true}) expect_agree(Mesh(dim, side, wrap));
    }
  }
  for (const int dim : {1, 3, 6}) expect_agree(Hypercube(dim));
}

}  // namespace
}  // namespace hp::net
