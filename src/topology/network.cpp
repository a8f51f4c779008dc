#include "topology/network.hpp"

namespace hp::net {

std::uint32_t Network::arc_mask(NodeId node) const {
  std::uint32_t mask = 0;
  for (Dir d = 0; d < num_dirs(); ++d) {
    if (arc_exists(node, d)) mask |= std::uint32_t{1} << d;
  }
  return mask;
}

DirList Network::good_dirs(NodeId at, NodeId dst) const {
  DirList out;
  const int here = distance(at, dst);
  for (Dir d = 0; d < num_dirs(); ++d) {
    const NodeId nb = neighbor(at, d);
    if (nb != kInvalidNode && distance(nb, dst) < here) out.push_back(d);
  }
  return out;
}

int Network::num_good_dirs(NodeId at, NodeId dst) const {
  int count = 0;
  const int here = distance(at, dst);
  for (Dir d = 0; d < num_dirs(); ++d) {
    const NodeId nb = neighbor(at, d);
    if (nb != kInvalidNode && distance(nb, dst) < here) ++count;
  }
  return count;
}

bool Network::is_good_dir(NodeId at, NodeId dst, Dir dir) const {
  const NodeId nb = neighbor(at, dir);
  return nb != kInvalidNode && distance(nb, dst) < distance(at, dst);
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

void Network::good_masks(const NodeId* at, const NodeId* dst,
                         std::uint32_t* out, std::size_t count) const {
  for (std::size_t i = 0; i < count; ++i) out[i] = good_mask(at[i], dst[i]);
}

std::size_t Network::num_arcs() const {
  std::size_t arcs = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(num_nodes()); ++v) {
    arcs += static_cast<std::size_t>(degree(v));
  }
  return arcs;
}

}  // namespace hp::net
