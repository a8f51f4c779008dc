#include "topology/network.hpp"

#include "util/check.hpp"

namespace hp::net {

std::uint32_t Network::arc_mask(NodeId node) const {
  std::uint32_t mask = 0;
  for (Dir d = 0; d < num_dirs(); ++d) {
    if (arc_exists(node, d)) mask |= std::uint32_t{1} << d;
  }
  return mask;
}

std::uint32_t Network::good_mask(NodeId at, NodeId dst) const {
  std::uint32_t mask = 0;
  const int here = distance(at, dst);
  for (Dir d = 0; d < num_dirs(); ++d) {
    const NodeId nb = neighbor(at, d);
    if (nb != kInvalidNode && distance(nb, dst) < here) {
      mask |= std::uint32_t{1} << d;
    }
  }
  return mask;
}

bool Network::is_good_dir(NodeId at, NodeId dst, Dir dir) const {
  HP_REQUIRE(dir >= 0 && dir < num_dirs(), "direction out of range");
  return ((good_mask(at, dst) >> dir) & 1u) != 0;
}

std::size_t Network::num_arcs() const {
  std::size_t arcs = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(num_nodes()); ++v) {
    arcs += static_cast<std::size_t>(degree(v));
  }
  return arcs;
}

}  // namespace hp::net
