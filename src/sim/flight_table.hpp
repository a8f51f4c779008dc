// FlightTable: dense struct-of-arrays storage for the packets currently in
// flight, plus the append-only ArrivalLog archive of delivered packets.
//
// The engine's per-step cost must be O(in-flight), not O(packets ever
// created) — under continuous injection the total packet count grows
// without bound while the in-flight population stays at the network's
// carrying capacity. The FlightTable keeps exactly the in-flight packets in
// contiguous parallel arrays (position, destination, entry arc, history
// bits), removes a packet in O(1) by swap-remove when it arrives, and
// maintains a stable PacketId → slot index so observers and the engine can
// address packets by id. Full per-packet records of delivered packets live
// in the ArrivalLog, which the engine never touches on the hot path.
//
// Ids are assigned densely and monotonically. The id → slot locator is a
// sliding window: once every id below a watermark has left flight, the
// prefix is reclaimed, so locator memory is O(in-flight + id spread of the
// in-flight set), not O(ids ever issued).
//
// Scale (docs/SCALE.md): every column is at most 32 bits wide. The two
// bookkeeping columns (injected_at, deflections) are overflow-checked — a
// packet injected at step 2^32 or deflected 2^32 times fails loudly rather
// than truncating.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/packet.hpp"
#include "topology/types.hpp"
#include "util/binio.hpp"

namespace hp::sim {

class FlightTable {
 public:
  /// Index of an in-flight packet in the dense arrays. Slots are NOT
  /// stable across remove(); use PacketId + slot_of() to re-address.
  using Slot = std::int32_t;
  static constexpr Slot kNoSlot = -1;

  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  Slot end_slot() const { return static_cast<Slot>(ids_.size()); }

  PacketId id(Slot s) const { return ids_[idx(s)]; }
  net::NodeId dst(Slot s) const { return dst_[idx(s)]; }
  net::NodeId pos(Slot s) const { return pos_[idx(s)]; }
  /// Arc through which the packet entered pos(); kInvalidDir right after
  /// injection.
  net::Dir entry_dir(Slot s) const { return entry_dir_[idx(s)]; }
  bool prev_advanced(Slot s) const { return prev_advanced_[idx(s)] != 0; }
  int prev_num_good(Slot s) const { return prev_num_good_[idx(s)]; }
  std::uint64_t injected_at(Slot s) const { return injected_at_[idx(s)]; }
  std::uint64_t deflections(Slot s) const { return deflections_[idx(s)]; }

  /// Raw column bases for batch passes over slots [0, size()), for
  /// callers outside the engine that scan every in-flight packet.
  /// Invalidated by insert()/remove() like any slot.
  const net::NodeId* pos_data() const { return pos_.data(); }
  const net::NodeId* dst_data() const { return dst_.data(); }

  /// Slot currently holding packet `id`, or kNoSlot if the packet is not
  /// in flight (arrived, or never existed).
  Slot slot_of(PacketId id) const {
    const auto i = static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
    if (i < id_base_ || i - id_base_ >= locator_.size()) return kNoSlot;
    return locator_[static_cast<std::size_t>(i - id_base_)];
  }

  /// Adds a packet to flight. `p.id` must be the next id after every id
  /// this table has ever seen (ids are issued densely by the engine).
  Slot insert(const Packet& p);

  /// Records that the next id was issued but never entered flight (a
  /// trivial src == dst packet, delivered at injection).
  void note_absent(PacketId id);

  /// Applies one step of movement to a packet: new position, the arc it
  /// moved through, and the history bits for the next step's Type A / B
  /// classification. Increments the deflection count when !advanced.
  void move(Slot s, net::NodeId to, net::Dir via, bool advanced,
            int num_good) {
    const auto i = idx(s);
    pos_[i] = to;
    entry_dir_[i] = via;
    prev_advanced_[i] = advanced ? 1 : 0;
    prev_num_good_[i] = static_cast<std::int8_t>(num_good);
    if (!advanced) bump_deflections(i);
  }

  /// Full record of an in-flight packet (arrived_at = kNotArrived).
  Packet materialize(Slot s) const;

  /// Removes an arrived packet by swap-remove and returns its final
  /// record. O(1); invalidates the last slot.
  Packet remove(Slot s, std::uint64_t arrived_at);

  /// Repositions an EMPTY table's locator window so that the next id it
  /// accepts is `id_base + window` (cast to PacketId through uint32).
  /// Checkpoint restore and the 32-bit id-wrap tests use this to reproduce
  /// a mid-run window without replaying every id since 0.
  void reset_window(std::uint64_t id_base, std::uint64_t window);

  /// Serializes the complete table state (columns in slot order + locator
  /// window) — part of the engine checkpoint format (docs/SCALE.md). The
  /// bookkeeping columns travel as 64-bit and are range-checked on restore.
  void serialize(util::BinWriter& out) const;

  /// Restores state written by serialize() into an empty, fresh table.
  /// `next_id` is the engine's id counter: the locator window must end
  /// exactly there (the invariant push_locator keeps), which bounds it
  /// before anything is allocated. Corrupt input throws hp::CheckError.
  void deserialize(util::BinReader& in, std::uint64_t next_id);

  /// Heap bytes currently reserved by the table (capacity-based).
  std::size_t memory_bytes() const;

 private:
  std::size_t idx(Slot s) const { return static_cast<std::size_t>(s); }
  void push_locator(PacketId id, Slot slot);
  void reclaim_locator_prefix();
  void bump_deflections(std::size_t i);
  /// Appends `p` to every column; returns its slot. Does not touch the
  /// locator.
  Slot push_columns(const Packet& p);

  // Parallel arrays indexed by slot.
  std::vector<PacketId> ids_;
  std::vector<net::NodeId> src_;
  std::vector<net::NodeId> dst_;
  std::vector<net::NodeId> pos_;
  std::vector<net::Dir> entry_dir_;
  std::vector<std::uint8_t> prev_advanced_;
  std::vector<std::int8_t> prev_num_good_;
  std::vector<std::uint32_t> injected_at_;
  std::vector<std::uint32_t> deflections_;
  std::vector<std::int32_t> initial_distance_;

  // id → slot window: locator_[id - id_base_]. Entries [0, head_) are all
  // kNoSlot; the prefix is erased once it dominates the window.
  std::vector<Slot> locator_;
  std::uint64_t id_base_ = 0;
  std::size_t head_ = 0;
};

/// Append-only archive of delivered packets: every record in memory with
/// an O(1) id index, or — when record-keeping is off (steady-state runs
/// that would otherwise accumulate unbounded memory) — only a count.
class ArrivalLog {
 public:
  void set_keep_records(bool keep) { keep_ = keep; }
  bool keeps_records() const { return keep_; }

  void append(const Packet& p);

  /// Archived records in arrival order (empty when not keeping records).
  std::span<const Packet> records() const { return records_; }

  /// Archived record of packet `id`, or nullptr if unknown / not kept.
  const Packet* find(PacketId id) const;

  std::uint64_t count() const { return count_; }

  /// Heap bytes currently reserved by the log.
  std::size_t memory_bytes() const;

  /// Checkpoint I/O (docs/SCALE.md). Every restored record's id must lie
  /// below `next_id`, the engine's id counter.
  void serialize(util::BinWriter& out) const;
  void deserialize(util::BinReader& in, std::uint64_t next_id);

 private:
  bool keep_ = true;
  std::uint64_t count_ = 0;
  std::vector<Packet> records_;
  std::vector<std::int64_t> index_by_id_;  // id -> index into records_
};

/// Fixed-layout binary Packet record (50 bytes) of the checkpoint format.
void write_packet_record(util::BinWriter& out, const Packet& p);
Packet read_packet_record(util::BinReader& in);

}  // namespace hp::sim
