// Basic identifier types shared across the topology and simulation layers.
#pragma once

#include <cstdint>

#include "util/inline_vector.hpp"

namespace hp::net {

/// Node identifier: a dense index in [0, num_nodes).
using NodeId = std::int32_t;

/// Direction label. For a d-dimensional mesh there are 2d directions
/// (Definition 3 of the paper): label 2a is "+" in axis a, label 2a+1 is
/// "−" in axis a. For an m-dimensional hypercube there are m labels, one
/// per address bit.
using Dir = std::int8_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr Dir kInvalidDir = -1;

/// Maximum mesh dimension supported (ample for the paper's d-dim results).
inline constexpr int kMaxDim = 8;

/// A coordinate vector in the mesh; component i is the position along
/// axis i, in [0, side).
using Coord = InlineVector<std::int32_t, kMaxDim>;

}  // namespace hp::net
