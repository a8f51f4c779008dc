#include "routing/matching.hpp"

#include <bit>

#include "util/check.hpp"

namespace hp::routing {

namespace {

constexpr int kUnassigned = -1;

/// Lowest direction in a nonempty direction mask.
net::Dir lowest(std::uint32_t mask) {
  return static_cast<net::Dir>(std::countr_zero(mask));
}

/// Assigns every packet in `order` without an out direction a free arc
/// according to `rule`. `used_mask` has a bit set per taken direction.
void deflect_remaining(const sim::NodeContext& ctx,
                       std::span<const sim::PacketView> packets,
                       std::span<const std::size_t> order, DeflectRule rule,
                       std::uint32_t used_mask, std::span<net::Dir> out) {
  for (std::size_t idx : order) {
    if (out[idx] != net::kInvalidDir) continue;
    const sim::PacketView& p = packets[idx];

    const std::uint32_t free = ctx.arcs & ~used_mask;
    HP_CHECK(free != 0, "no free arc for a resident packet — the node "
                        "holds more packets than arcs");

    net::Dir chosen = lowest(free);
    switch (rule) {
      case DeflectRule::kFirstFree:
        break;
      case DeflectRule::kRandom: {
        // The k-th free arc in ascending order, k uniform.
        const std::uint64_t k =
            ctx.rng.uniform(static_cast<std::uint64_t>(std::popcount(free)));
        std::uint32_t rest = free;
        for (std::uint64_t skip = 0; skip < k; ++skip) rest &= rest - 1;
        chosen = lowest(rest);
        break;
      }
      case DeflectRule::kReverseEntry:
        if (p.entry_dir != net::kInvalidDir) {
          const net::Dir back = ctx.net.reverse_dir(p.entry_dir);
          if ((free >> back) & 1u) chosen = back;
        }
        break;
      case DeflectRule::kStraight:
        if (p.entry_dir != net::kInvalidDir && ((free >> p.entry_dir) & 1u)) {
          chosen = p.entry_dir;
        }
        break;
    }
    out[idx] = chosen;
    used_mask |= std::uint32_t{1} << chosen;
  }
}

}  // namespace

void assign_sequential(const sim::NodeContext& ctx,
                       std::span<const sim::PacketView> packets,
                       std::span<const std::size_t> order, DeflectRule rule,
                       std::span<net::Dir> out) {
  HP_REQUIRE(packets.size() == out.size() && packets.size() == order.size(),
             "assignment arity mismatch");
  for (auto& dir : out) dir = net::kInvalidDir;

  std::uint32_t used_mask = 0;
  for (std::size_t idx : order) {
    const std::uint32_t open = packets[idx].good_mask & ~used_mask;
    if (open == 0) continue;
    out[idx] = lowest(open);
    used_mask |= std::uint32_t{1} << out[idx];
  }
  deflect_remaining(ctx, packets, order, rule, used_mask, out);
}

namespace {

/// Kuhn's augmenting DFS: tries to advance packet `idx`, possibly rerouting
/// already-matched packets to alternate good arcs. `owner[d]` is the packet
/// currently matched to direction d (or kUnassigned). `visited` is a
/// per-attempt direction bitmask.
bool try_augment(std::span<const sim::PacketView> packets, std::size_t idx,
                 std::span<int> owner, std::uint32_t& visited) {
  for (std::uint32_t rest = packets[idx].good_mask; rest != 0;
       rest &= rest - 1) {
    const net::Dir g = lowest(rest);
    const std::uint32_t bit = std::uint32_t{1} << g;
    if (visited & bit) continue;
    visited |= bit;
    if (owner[static_cast<std::size_t>(g)] == kUnassigned ||
        try_augment(packets,
                    static_cast<std::size_t>(owner[static_cast<std::size_t>(g)]),
                    owner, visited)) {
      owner[static_cast<std::size_t>(g)] = static_cast<int>(idx);
      return true;
    }
  }
  return false;
}

}  // namespace

void assign_augmenting(const sim::NodeContext& ctx,
                       std::span<const sim::PacketView> packets,
                       std::span<const std::size_t> order, DeflectRule rule,
                       std::span<net::Dir> out) {
  HP_REQUIRE(packets.size() == out.size() && packets.size() == order.size(),
             "assignment arity mismatch");
  for (auto& dir : out) dir = net::kInvalidDir;

  InlineVector<int, 2 * net::kMaxDim> owner;
  for (int d = 0; d < ctx.net.num_dirs(); ++d) owner.push_back(kUnassigned);

  for (std::size_t idx : order) {
    std::uint32_t visited = 0;
    try_augment(packets, idx, std::span<int>(owner.data(), owner.size()),
                visited);
  }

  std::uint32_t used_mask = 0;
  for (int d = 0; d < ctx.net.num_dirs(); ++d) {
    const int pkt = owner[static_cast<std::size_t>(d)];
    if (pkt != kUnassigned) {
      out[static_cast<std::size_t>(pkt)] = static_cast<net::Dir>(d);
      used_mask |= std::uint32_t{1} << d;
    }
  }
  deflect_remaining(ctx, packets, order, rule, used_mask, out);
}

}  // namespace hp::routing
