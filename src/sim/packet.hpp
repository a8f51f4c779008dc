// Packet state for the synchronous hot-potato model (Section 2).
#pragma once

#include <bit>
#include <cstdint>

#include "topology/types.hpp"

namespace hp::sim {

using PacketId = std::int32_t;

inline constexpr std::uint64_t kNotArrived = ~std::uint64_t{0};

/// §4.1 Type A: a restricted packet (exactly one good direction, bit set
/// in `good_mask`) that was also restricted in the previous step and
/// advanced in it. Every other restricted packet is Type B.
constexpr bool is_type_a(std::uint32_t good_mask, int prev_num_good,
                         bool prev_advanced) {
  return std::has_single_bit(good_mask) && prev_num_good == 1 &&
         prev_advanced;
}

/// One packet in flight (or already delivered). Besides position, the
/// packet carries the two bits of history the paper's Type A / Type B
/// classification (§4.1) needs: whether it advanced in the previous step
/// and how many good directions it had then.
struct Packet {
  PacketId id = 0;
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;

  /// Current node while in flight; meaningless after arrival.
  net::NodeId pos = net::kInvalidNode;

  /// Direction label of the packet's movement in the previous step, i.e.
  /// the arc through which it entered `pos`. kInvalidDir right after
  /// injection (the packet did not arrive through any arc).
  net::Dir last_move_dir = net::kInvalidDir;

  /// True iff the packet got closer to its destination in the previous
  /// step (it "advanced", Definition 5). False right after injection.
  bool prev_advanced = false;

  /// Number of good directions the packet had at the node it occupied at
  /// the beginning of the previous step; -1 right after injection.
  int prev_num_good = -1;

  /// Bookkeeping for experiments.
  std::uint64_t injected_at = 0;
  std::uint64_t arrived_at = kNotArrived;
  std::uint64_t deflections = 0;
  int initial_distance = 0;

  bool arrived() const { return arrived_at != kNotArrived; }
};

}  // namespace hp::sim
