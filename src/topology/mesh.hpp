// The d-dimensional mesh (Definition 1) and its optional torus variant.
//
// Nodes are d-dimensional vectors over {0, …, n−1} (the paper uses 1-based
// coordinates; we use 0-based, which changes nothing). Two nodes are
// adjacent iff their L1 distance is 1. Directions follow Definition 3:
// label 2a is "+" along axis a, label 2a+1 is "−" along axis a.
//
// The mesh also exposes the 2-neighbor relation (Definition 4) and the 2^d
// parity equivalence classes of its transitive closure, which the surface-
// arc analysis of Section 3 relies on.
#pragma once

#include <string>

#include "topology/network.hpp"

namespace hp::net {

class Mesh final : public Network {
 public:
  /// A `dim`-dimensional mesh with `side` nodes per axis. With wrap=true
  /// every axis closes into a ring (the torus used by several related-work
  /// baselines); the paper's analysis itself concerns wrap=false.
  Mesh(int dim, int side, bool wrap = false);

  std::size_t num_nodes() const override { return num_nodes_; }
  int num_dirs() const override { return 2 * dim_; }
  NodeId neighbor(NodeId node, Dir dir) const override;
  Dir reverse_dir(Dir dir) const override;
  int distance(NodeId a, NodeId b) const override;
  int diameter() const override;
  std::string name() const override;

  /// Closed form: every direction on a torus; otherwise all but the "+"
  /// arc of each axis the node tops out on and the "−" arc of each axis it
  /// bottoms out on. Agrees with the base probe loop bit-for-bit.
  std::uint32_t arc_mask(NodeId node) const override;

  /// Closed form: one coordinate decode instead of the base class's
  /// per-direction neighbor() + distance() probes. Agrees with the base
  /// probe loop bit-for-bit.
  std::uint32_t good_mask(NodeId at, NodeId dst) const override;

  int dim() const { return dim_; }
  int side() const { return side_; }
  bool wraps() const { return wrap_; }

  /// Axis and sign of a direction label. sign is +1 for "+", −1 for "−".
  static int axis_of(Dir dir) { return dir / 2; }
  static int sign_of(Dir dir) { return (dir % 2 == 0) ? +1 : -1; }
  /// Direction label for (axis, sign).
  static Dir dir_of(int axis, int sign) {
    return static_cast<Dir>(2 * axis + (sign < 0 ? 1 : 0));
  }

  /// Coordinate vector of a node; component a is the position on axis a.
  Coord coords(NodeId node) const;

  /// Node at a coordinate vector. All components must lie in [0, side).
  NodeId node_at(const Coord& c) const;

  /// Coordinate of `node` along one axis, without materializing the vector.
  int coord(NodeId node, int axis) const;

  /// The 2-neighbor of `node` in direction `dir` (Definition 4): the node
  /// two hops away along `dir`, or kInvalidNode if that walks off the mesh.
  /// Only meaningful for wrap=false (the analysis setting).
  NodeId two_neighbor(NodeId node, Dir dir) const;

  /// Index in [0, 2^dim) of the equivalence class of `node` under the
  /// transitive closure of the 2-neighbor relation — the vector of
  /// coordinate parities. Nodes are in the same class iff all their
  /// coordinate parities agree.
  int parity_class(NodeId node) const;

 private:
  int dim_;
  int side_;
  bool wrap_;
  std::size_t num_nodes_;
  // stride_[a] = side^a, so coordinate a of node v is (v / stride_[a]) % side.
  // The constructor caps the node count at 2^30, so NodeId arithmetic over
  // strides never overflows.
  NodeId stride_[kMaxDim];
};

}  // namespace hp::net
