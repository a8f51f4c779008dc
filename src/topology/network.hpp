// Abstract synchronous network topology (Section 2 of the paper).
//
// A network is a graph of processors whose arcs come in antiparallel pairs
// and are partitioned into directions. The routing layers only interact
// with topologies through this interface, so the same greedy algorithms
// run unchanged on meshes, tori, and hypercubes.
#pragma once

#include <bit>
#include <string>

#include "topology/types.hpp"

namespace hp::net {

class Network {
 public:
  virtual ~Network() = default;

  /// Total number of processors.
  virtual std::size_t num_nodes() const = 0;

  /// Number of direction labels (2d for the d-dim mesh, m for the
  /// m-dimensional hypercube). Every arc belongs to exactly one direction.
  virtual int num_dirs() const = 0;

  /// The node reached by following direction `dir` out of `node`, or
  /// kInvalidNode if no such arc exists (e.g. off the edge of a mesh).
  virtual NodeId neighbor(NodeId node, Dir dir) const = 0;

  /// The direction of the antiparallel arc: following `reverse_dir(d)`
  /// from `neighbor(v, d)` returns to `v`.
  virtual Dir reverse_dir(Dir dir) const = 0;

  /// Length of the shortest path between two nodes.
  virtual int distance(NodeId a, NodeId b) const = 0;

  /// Maximum distance between any two nodes.
  virtual int diameter() const = 0;

  /// Human-readable topology name for logs and tables.
  virtual std::string name() const = 0;

  /// Out-arcs of `node` as a bitmask: bit d is set iff an arc leaves the
  /// node in direction d. The base implementation probes every direction
  /// with neighbor(); topologies override it with closed forms. The engine
  /// calls this once per routed node instead of caching per-node arcs.
  virtual std::uint32_t arc_mask(NodeId node) const;

  /// Out-degree of `node` (number of directions with an existing arc).
  int degree(NodeId node) const { return std::popcount(arc_mask(node)); }

  /// True iff an arc in direction `dir` leaves `node`.
  bool arc_exists(NodeId node, Dir dir) const {
    return neighbor(node, dir) != kInvalidNode;
  }

  /// Good directions as a bitmask (Definition 5): bit d is set iff the arc
  /// leaving `at` in direction d enters a node strictly closer to `dst`.
  /// Zero iff at == dst. The base implementation probes every direction
  /// with neighbor() + distance() and is the reference definition;
  /// topologies override it with closed forms. The engine calls this (via
  /// RoutingPolicy::batch_good_dirs) once per resident of every routed node.
  virtual std::uint32_t good_mask(NodeId at, NodeId dst) const;
};

}  // namespace hp::net
