// Routing policy interface: the per-node local computation of Section 2.
//
// Each step, every node that holds packets performs a local computation on
// the packets that just arrived (their destinations and entry arcs — never
// their sources, matching the paper's model note) and assigns every packet
// a distinct outgoing arc. Hot-potato discipline: there is no buffering, so
// every packet is assigned an arc every step.
#pragma once

#include <span>
#include <string>

#include "sim/packet.hpp"
#include "topology/network.hpp"
#include "util/rng.hpp"

namespace hp::sim {

/// What a policy may see about one resident packet. Sources are
/// deliberately absent (the algorithms in the paper never consult them).
struct PacketView {
  PacketId id = 0;
  net::NodeId dst = net::kInvalidNode;
  /// Arc (direction label) through which the packet entered this node;
  /// kInvalidDir if it was injected here this step.
  net::Dir entry_dir = net::kInvalidDir;
  /// Good directions at this node (Definition 5). Empty never occurs:
  /// packets at their destination are absorbed before routing.
  net::DirList good;
  /// Same set as `good`, as a bitmask (bit d ⇔ direction d is good).
  std::uint32_t good_mask = 0;
  /// History bits for the Type A / Type B classification of §4.1.
  bool prev_advanced = false;
  int prev_num_good = -1;

  int num_good() const { return static_cast<int>(good.size()); }
  bool restricted() const { return good.size() == 1; }
  bool type_a() const {
    return restricted() && prev_num_good == 1 && prev_advanced;
  }
};

/// Per-node, per-step context handed to the policy.
struct NodeContext {
  const net::Network& net;
  net::NodeId node;
  std::uint64_t step;
  /// Directions with an existing outgoing arc at this node, ascending.
  net::DirList avail_dirs;
  /// Policy-private random stream (deterministic per seed).
  Rng& rng;
};

/// A hot-potato routing algorithm: one decision rule applied at every node
/// in every step (the paper's "uniform, simple" algorithms).
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  virtual std::string name() const = 0;

  /// Assigns packets[i] the outgoing direction out[i]. The engine verifies
  /// that directions are pairwise distinct and correspond to existing arcs.
  /// packets.size() never exceeds the node degree (an invariant of the
  /// model: each packet entered through a distinct arc, and injection
  /// respects the out-degree origin constraint).
  virtual void route(const NodeContext& ctx,
                     std::span<const PacketView> packets,
                     std::span<net::Dir> out) = 0;

  /// True iff route() is a deterministic function of its arguments (it
  /// never draws from ctx.rng). The engine only trusts repeated-state
  /// detection as a livelock proof for deterministic policies.
  virtual bool deterministic() const { return false; }

  /// Conformance claims, audited at runtime when the library is built with
  /// HP_AUDIT (see docs/STATIC_ANALYSIS.md): the engine attaches the
  /// matching core:: checker to every run of a claiming policy and throws
  /// hp::CheckError on the first violation. Claims are promises about the
  /// algorithm *class*, not about one run — only claim what holds for every
  /// input.
  /// Definition 6: whenever a packet is deflected, each of its good arcs is
  /// used by another advancing packet.
  virtual bool claims_greedy() const { return false; }
  /// Definition 18: a nonrestricted packet never deflects a restricted one.
  virtual bool claims_restricted_preference() const { return false; }

  /// Batched good-direction masks for `count` packets: out_masks[i] gets
  /// bit d set iff direction d is good for a packet at at[i] bound for
  /// dst[i]. The engine calls this once per routed node per step, over that
  /// node's residents (so every at[i] is the node), possibly concurrently
  /// for distinct nodes, and hands each packet's mask to route() through
  /// PacketView::good_mask. Override only to *redefine* goodness
  /// (Definition 5); the default evaluates the topology's
  /// Network::good_mask and is what every policy in this repo uses.
  virtual void batch_good_dirs(const net::Network& net,
                               const net::NodeId* at, const net::NodeId* dst,
                               std::uint32_t* out_masks,
                               std::size_t count) const {
    for (std::size_t i = 0; i < count; ++i) {
      out_masks[i] = net.good_mask(at[i], dst[i]);
    }
  }
};

}  // namespace hp::sim
