// The m-dimensional hypercube on 2^m nodes.
//
// Not part of the paper's mesh analysis, but required by the related-work
// baselines we reproduce: Hajek's greedy hot-potato algorithm runs on the
// hypercube with the 2k + n evacuation bound, and the Borodin–Hopcroft
// greedy algorithm was originally stated for this topology.
#pragma once

#include <string>

#include "topology/network.hpp"

namespace hp::net {

class Hypercube final : public Network {
 public:
  explicit Hypercube(int dim);

  std::size_t num_nodes() const override { return std::size_t{1} << dim_; }
  int num_dirs() const override { return dim_; }
  NodeId neighbor(NodeId node, Dir dir) const override;
  /// Hypercube arcs are their own reverses: flipping bit i twice returns.
  Dir reverse_dir(Dir dir) const override;
  int distance(NodeId a, NodeId b) const override;
  int diameter() const override { return dim_; }
  std::string name() const override;

  /// Every hypercube node has exactly one arc per address bit.
  std::uint32_t arc_mask(NodeId) const override {
    return (std::uint32_t{1} << dim_) - 1u;
  }

  /// Good directions are exactly the differing address bits: the address
  /// difference *is* the mask.
  std::uint32_t good_mask(NodeId at, NodeId dst) const override {
    return static_cast<std::uint32_t>(at ^ dst) &
           ((std::uint32_t{1} << dim_) - 1u);
  }

  int dim() const { return dim_; }

 private:
  int dim_;
};

}  // namespace hp::net
