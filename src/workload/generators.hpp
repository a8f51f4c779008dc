// Workload generators for the experiment suite.
//
// The paper's bounds are worst-case over all many-to-many problems; the
// generators below span the standard stress patterns plus the adversarial
// shapes used by the experiments (Section "expected shapes" of DESIGN.md).
#pragma once

#include <string>
#include <vector>

#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace hp::workload {

/// k packets with uniformly random origins (respecting the out-degree
/// origin constraint) and uniformly random destinations.
Problem random_many_to_many(const net::Network& net, std::size_t k, Rng& rng);

/// A uniformly random permutation: every node sends one packet, every node
/// receives one packet (k = num_nodes).
Problem random_permutation(const net::Network& net, Rng& rng);

/// Matrix transposition on a 2-D mesh: (x, y) → (y, x).
Problem transpose(const net::Mesh& mesh);

/// Bit-reversal permutation on a 2-D mesh whose side is a power of two:
/// each coordinate's bit pattern is reversed.
Problem bit_reversal(const net::Mesh& mesh);

/// Mirror/inversion permutation: (x₁, …, x_d) → (n−1−x₁, …, n−1−x_d),
/// the classic long-distance stress case (every packet travels d·|…| far).
Problem inversion(const net::Mesh& mesh);

/// All k packets destined to a single node (default: the center), origins
/// drawn at random. The single-target scenario of [BTS]/[BNS].
Problem single_target(const net::Network& net, std::size_t k,
                      net::NodeId target, Rng& rng);

/// k packets destined to `hotspots` randomly chosen nodes (congestion
/// concentrates around few receivers).
Problem hotspot(const net::Network& net, std::size_t k, int hotspots,
                Rng& rng);

/// Every node of one corner quadrant sends one packet to a random node of
/// the opposite quadrant — maximal directional congestion on a 2-D mesh.
Problem corner_to_corner(const net::Mesh& mesh, Rng& rng);

/// Every node sends `per_node` packets to uniformly random destinations
/// (per_node ≤ min degree; per_node = 4 reproduces the Remark's 16n² case
/// on interior-heavy meshes — corner/edge nodes get their degree's worth).
Problem saturated_random(const net::Network& net, int per_node, Rng& rng);

}  // namespace hp::workload
