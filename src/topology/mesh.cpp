#include "topology/mesh.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/check.hpp"

namespace hp::net {

Mesh::Mesh(int dim, int side, bool wrap) : dim_(dim), side_(side), wrap_(wrap) {
  HP_REQUIRE(dim >= 1 && dim <= kMaxDim, "mesh dimension out of range");
  HP_REQUIRE(side >= 2, "mesh side must be at least 2");
  std::int64_t nodes = 1;
  for (int a = 0; a < dim; ++a) {
    stride_[a] = static_cast<NodeId>(nodes);
    nodes *= side;
    HP_REQUIRE(nodes <= (1LL << 30), "mesh too large for NodeId");
  }
  num_nodes_ = static_cast<std::size_t>(nodes);
}

int Mesh::coord(NodeId node, int axis) const {
  return (node / stride_[axis]) % side_;
}

std::uint32_t Mesh::arc_mask(NodeId node) const {
  const std::uint32_t all = (std::uint32_t{1} << (2 * dim_)) - 1u;
  if (wrap_) return all;
  // One coordinate decode; an axis end clears the arc that would leave it.
  std::uint32_t missing = 0;
  const auto clear_ends = [&](int axis, int pos) {
    missing |= static_cast<std::uint32_t>(pos == side_ - 1) << (2 * axis);
    missing |= static_cast<std::uint32_t>(pos == 0) << (2 * axis + 1);
  };
  NodeId v = node;
  for (int a = 0; a + 1 < dim_; ++a) {
    clear_ends(a, v % side_);
    v /= side_;
  }
  clear_ends(dim_ - 1, v);  // the top coordinate needs no division
  return all & ~missing;
}

Coord Mesh::coords(NodeId node) const {
  HP_REQUIRE(node >= 0 && node < static_cast<NodeId>(num_nodes_),
             "node id out of range");
  Coord c;
  for (int a = 0; a < dim_; ++a) c.push_back(coord(node, a));
  return c;
}

NodeId Mesh::node_at(const Coord& c) const {
  HP_REQUIRE(static_cast<int>(c.size()) == dim_,
             "coordinate arity does not match mesh dimension");
  std::int64_t id = 0;
  for (int a = 0; a < dim_; ++a) {
    HP_REQUIRE(c[static_cast<std::size_t>(a)] >= 0 &&
                   c[static_cast<std::size_t>(a)] < side_,
               "coordinate out of range");
    id += c[static_cast<std::size_t>(a)] * stride_[a];
  }
  return static_cast<NodeId>(id);
}

NodeId Mesh::neighbor(NodeId node, Dir dir) const {
  HP_REQUIRE(dir >= 0 && dir < num_dirs(), "direction out of range");
  const int axis = axis_of(dir);
  const NodeId stride = stride_[axis];
  const NodeId top = (side_ - 1) * stride;  // offset of coordinate side−1
  // The node's offset inside its ring along `axis` (coordinate · stride
  // plus the lower axes' digits): one modulo answers both edge tests.
  const NodeId within = node % (side_ * stride);
  if (sign_of(dir) > 0) {
    if (within < top) return node + stride;
    return wrap_ ? node - top : kInvalidNode;
  }
  if (within >= stride) return node - stride;
  return wrap_ ? node + top : kInvalidNode;
}

Dir Mesh::reverse_dir(Dir dir) const {
  HP_REQUIRE(dir >= 0 && dir < num_dirs(), "direction out of range");
  return static_cast<Dir>(dir ^ 1);
}

int Mesh::distance(NodeId a, NodeId b) const {
  int total = 0;
  for (int axis = 0; axis < dim_; ++axis) {
    int delta = std::abs(coord(a, axis) - coord(b, axis));
    if (wrap_) delta = std::min(delta, side_ - delta);
    total += delta;
  }
  return total;
}

std::uint32_t Mesh::good_mask(NodeId at, NodeId dst) const {
  std::uint32_t mask = 0;
  NodeId va = at;
  NodeId vb = dst;
  if (!wrap_) {
    // Branch-free per axis: exactly one of the two comparisons sets a bit
    // on axes where the coordinates differ, neither where they agree.
    for (int axis = 0; axis < dim_; ++axis) {
      const int ca = va % side_;
      const int cb = vb % side_;
      va /= side_;
      vb /= side_;
      mask |= static_cast<std::uint32_t>(cb > ca) << (2 * axis);
      mask |= static_cast<std::uint32_t>(cb < ca) << (2 * axis + 1);
    }
    return mask;
  }
  for (int axis = 0; axis < dim_; ++axis) {
    const int ca = va % side_;
    const int cb = vb % side_;
    va /= side_;
    vb /= side_;
    if (ca == cb) continue;
    const int fwd = cb > ca ? cb - ca : cb - ca + side_;
    const int bwd = side_ - fwd;
    // Antipodal coordinates (fwd == bwd) are closer both ways.
    if (fwd <= bwd) mask |= std::uint32_t{1} << (2 * axis);
    if (bwd <= fwd) mask |= std::uint32_t{1} << (2 * axis + 1);
  }
  return mask;
}

int Mesh::diameter() const {
  const int per_axis = wrap_ ? side_ / 2 : side_ - 1;
  return dim_ * per_axis;
}

std::string Mesh::name() const {
  std::ostringstream os;
  os << (wrap_ ? "torus" : "mesh") << "-" << dim_ << "d-" << side_;
  return os.str();
}

NodeId Mesh::two_neighbor(NodeId node, Dir dir) const {
  const NodeId mid = neighbor(node, dir);
  if (mid == kInvalidNode) return kInvalidNode;
  return neighbor(mid, dir);
}

int Mesh::parity_class(NodeId node) const {
  int cls = 0;
  for (int axis = 0; axis < dim_; ++axis) {
    cls |= (coord(node, axis) & 1) << axis;
  }
  return cls;
}

}  // namespace hp::net
