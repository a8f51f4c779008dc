#include "topology/network.hpp"

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

}  // namespace hp::net
