#include "topology/hypercube.hpp"

#include <bit>
#include <sstream>

#include "util/check.hpp"

namespace hp::net {

Hypercube::Hypercube(int dim) : dim_(dim) {
  // 2 * kMaxDim bounds the per-node packet capacity shared with the mesh
  // code (the engine's per-node route arrays).
  HP_REQUIRE(dim >= 1 && dim <= 2 * kMaxDim, "hypercube dimension out of range");
}

NodeId Hypercube::neighbor(NodeId node, Dir dir) const {
  HP_REQUIRE(dir >= 0 && dir < num_dirs(), "direction out of range");
  return node ^ (NodeId{1} << dir);
}

Dir Hypercube::reverse_dir(Dir dir) const {
  HP_REQUIRE(dir >= 0 && dir < num_dirs(), "direction out of range");
  return dir;
}

int Hypercube::distance(NodeId a, NodeId b) const {
  return std::popcount(static_cast<std::uint32_t>(a ^ b));
}

std::string Hypercube::name() const {
  std::ostringstream os;
  os << "hypercube-" << dim_ << "d";
  return os.str();
}

}  // namespace hp::net
