// Step observers: how the analysis layer watches a run.
//
// The potential-function machinery of Sections 3–4 is implemented as
// observers that audit every step of a real execution — Property 8 at every
// node, the Lemma 12 two-step drop, greediness per Definition 6, and so on.
//
// The interface is a *streaming* one: the engine hands each observer, once
// per step, spans into its own per-step buffers — the routing decisions
// grouped by node and the full records of the packets delivered by this
// step's movement. Nothing is copied per step and nothing references the
// ever-growing set of delivered packets, so observers compose with
// continuous-injection runs of unbounded length. Spans are valid only for
// the duration of the on_step call; observers that need history must copy
// what they keep.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "sim/packet.hpp"
#include "topology/types.hpp"

namespace hp::sim {

class Engine;

/// One packet's routing decision in one step, with the pre-move facts the
/// analysis needs. Assignments for the same node are contiguous in the
/// step record. Everything else an observer asks of a decision is derived
/// from these fields by the accessors below.
struct Assignment {
  PacketId pkt = 0;
  net::NodeId node = net::kInvalidNode;  ///< node the packet was routed from
  /// Bit i set iff direction i was good for this packet at `node`.
  std::uint32_t good_mask = 0;
  net::Dir out = net::kInvalidDir;       ///< chosen outgoing direction
  /// History bits of the step before (§4.1), as the flight table keeps them.
  bool prev_advanced = false;
  std::int8_t prev_num_good = -1;

  /// The chosen arc was good for the packet (it moves closer). `out` is a
  /// valid direction in every assignment the engine streams.
  bool advances() const { return ((good_mask >> out) & 1u) != 0; }
  /// Good directions at `node` (pre-move).
  int num_good() const { return std::popcount(good_mask); }
  /// Restricted Type A at the start of the step (§4.1).
  bool was_type_a() const {
    return is_type_a(good_mask, prev_num_good, prev_advanced);
  }
};

/// Everything that happened in one engine step, streamed by reference.
struct StepRecord {
  /// Time at the beginning of the step; movement happens between `step`
  /// and `step + 1`.
  std::uint64_t step = 0;
  /// All routing decisions, grouped contiguously by node.
  std::span<const Assignment> assignments;
  /// Final records of the packets that reached their destination by this
  /// movement (arrived_at == step + 1). They are absorbed and do not
  /// appear in later steps; this span is the last time the engine offers
  /// their full record on the hot path.
  std::span<const Packet> arrivals;
  /// Packets still in flight after the movement was applied.
  std::size_t in_flight_after = 0;
};

class StepObserver {
 public:
  virtual ~StepObserver() = default;

  /// Called once per step, after movement has been applied. The engine's
  /// flight table reflects post-move state; pre-move positions are in the
  /// record's assignments. The record's spans die with this call.
  virtual void on_step(const Engine& engine, const StepRecord& record) = 0;
};

}  // namespace hp::sim
