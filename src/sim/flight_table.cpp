#include "sim/flight_table.hpp"

#include <limits>
#include <string>
#include <type_traits>

#include "util/check.hpp"

namespace hp::sim {

namespace {

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

std::uint32_t narrow_u32(std::uint64_t v, const char* column) {
  HP_CHECK(v <= kU32Max, std::string("FlightTable column '") + column +
                             "' overflows 32 bits (value " +
                             std::to_string(v) +
                             "): injected-at steps and per-packet deflection "
                             "counts must stay below the 2^32 horizon");
  return static_cast<std::uint32_t>(v);
}

}  // namespace

void FlightTable::push_locator(PacketId id, Slot slot) {
  const auto i = static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
  HP_CHECK(i == id_base_ + locator_.size(),
           "FlightTable ids must be issued densely and in order");
  locator_.push_back(slot);
}

void FlightTable::bump_deflections(std::size_t i) {
  HP_CHECK(deflections_[i] != kU32Max,
           "FlightTable column 'deflections' overflows 32 bits: per-packet "
           "deflection counts must stay below the 2^32 horizon");
  ++deflections_[i];
}

Packet FlightTable::materialize(Slot s) const {
  const auto i = idx(s);
  Packet p;
  p.id = ids_[i];
  p.src = src_[i];
  p.dst = dst_[i];
  p.pos = pos_[i];
  p.last_move_dir = entry_dir_[i];
  p.prev_advanced = prev_advanced_[i] != 0;
  p.prev_num_good = prev_num_good_[i];
  p.injected_at = injected_at(s);
  p.arrived_at = kNotArrived;
  p.deflections = deflections(s);
  p.initial_distance = initial_distance_[i];
  return p;
}

FlightTable::Slot FlightTable::push_columns(const Packet& p) {
  // Narrow first so an overflow leaves every column untouched.
  const std::uint32_t injected_at = narrow_u32(p.injected_at, "injected_at");
  const std::uint32_t deflections = narrow_u32(p.deflections, "deflections");
  const auto slot = static_cast<Slot>(ids_.size());
  ids_.push_back(p.id);
  src_.push_back(p.src);
  dst_.push_back(p.dst);
  pos_.push_back(p.pos);
  entry_dir_.push_back(p.last_move_dir);
  prev_advanced_.push_back(p.prev_advanced ? 1 : 0);
  prev_num_good_.push_back(static_cast<std::int8_t>(p.prev_num_good));
  injected_at_.push_back(injected_at);
  deflections_.push_back(deflections);
  initial_distance_.push_back(p.initial_distance);
  return slot;
}

FlightTable::Slot FlightTable::insert(const Packet& p) {
  const Slot slot = push_columns(p);
  push_locator(p.id, slot);
  return slot;
}

void FlightTable::note_absent(PacketId id) { push_locator(id, kNoSlot); }

Packet FlightTable::remove(Slot s, std::uint64_t arrived_at) {
  Packet record = materialize(s);
  record.arrived_at = arrived_at;

  const auto i = idx(s);
  const auto last = ids_.size() - 1;
  const auto gone =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(record.id));
  locator_[static_cast<std::size_t>(gone - id_base_)] = kNoSlot;
  if (i != last) {
    ids_[i] = ids_[last];
    src_[i] = src_[last];
    dst_[i] = dst_[last];
    pos_[i] = pos_[last];
    entry_dir_[i] = entry_dir_[last];
    prev_advanced_[i] = prev_advanced_[last];
    prev_num_good_[i] = prev_num_good_[last];
    injected_at_[i] = injected_at_[last];
    deflections_[i] = deflections_[last];
    initial_distance_[i] = initial_distance_[last];
    const auto moved =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(ids_[i]));
    locator_[static_cast<std::size_t>(moved - id_base_)] =
        static_cast<Slot>(i);
  }
  ids_.pop_back();
  src_.pop_back();
  dst_.pop_back();
  pos_.pop_back();
  entry_dir_.pop_back();
  prev_advanced_.pop_back();
  prev_num_good_.pop_back();
  injected_at_.pop_back();
  deflections_.pop_back();
  initial_distance_.pop_back();

  reclaim_locator_prefix();
  return record;
}

void FlightTable::reclaim_locator_prefix() {
  // Advance past settled ids; amortized O(1) per packet over a run.
  while (head_ < locator_.size() && locator_[head_] == kNoSlot) ++head_;
  if (head_ >= 1024 && head_ * 2 >= locator_.size()) {
    locator_.erase(locator_.begin(),
                   locator_.begin() + static_cast<std::ptrdiff_t>(head_));
    id_base_ += head_;
    head_ = 0;
  }
}

void FlightTable::reset_window(std::uint64_t id_base, std::uint64_t window) {
  HP_REQUIRE(empty() && id_base_ == 0 && locator_.empty(),
             "reset_window needs a fresh, empty FlightTable");
  HP_REQUIRE(id_base + window <= kU32Max + 1,
             "locator window exceeds the 32-bit id space");
  id_base_ = id_base;
  locator_.assign(static_cast<std::size_t>(window), kNoSlot);
  head_ = 0;
}

void FlightTable::serialize(util::BinWriter& out) const {
  out.u64(id_base_);
  out.u64(locator_.size());
  out.u64(head_);
  out.u64(size());
  for (Slot s = 0; s < end_slot(); ++s) {
    const auto i = idx(s);
    out.i32(ids_[i]);
    out.i32(src_[i]);
    out.i32(dst_[i]);
    out.i32(pos_[i]);
    out.i8(entry_dir_[i]);
    out.u8(prev_advanced_[i]);
    out.i8(prev_num_good_[i]);
    out.u64(injected_at(s));
    out.u64(deflections(s));
    out.i32(initial_distance_[i]);
  }
}

void FlightTable::deserialize(util::BinReader& in, std::uint64_t next_id) {
  HP_REQUIRE(empty() && id_base_ == 0 && locator_.empty(),
             "deserialize needs a fresh, empty FlightTable");
  const std::uint64_t id_base = in.u64();
  const std::uint64_t window = in.u64();
  const std::uint64_t head = in.u64();
  const std::uint64_t count = in.u64();
  HP_REQUIRE(id_base <= next_id && window == next_id - id_base &&
                 next_id <= kU32Max + 1 && head <= window && count <= window,
             "checkpoint is corrupt (inconsistent FlightTable window)");
  reset_window(id_base, window);
  head_ = static_cast<std::size_t>(head);
  for (std::uint64_t r = 0; r < count; ++r) {
    Packet p;
    p.id = in.i32();
    p.src = in.i32();
    p.dst = in.i32();
    p.pos = in.i32();
    p.last_move_dir = in.i8();
    p.prev_advanced = in.u8() != 0;
    p.prev_num_good = in.i8();
    p.injected_at = in.u64();
    p.deflections = in.u64();
    p.initial_distance = in.i32();

    const Slot slot = push_columns(p);
    const auto i = static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.id));
    HP_REQUIRE(i >= id_base_ && i - id_base_ < locator_.size(),
               "checkpoint is corrupt (in-flight id outside the locator "
               "window)");
    Slot& entry = locator_[static_cast<std::size_t>(i - id_base_)];
    HP_REQUIRE(entry == kNoSlot,
               "checkpoint is corrupt (duplicate in-flight packet id)");
    entry = slot;
  }
}

std::size_t FlightTable::memory_bytes() const {
  auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(ids_) + bytes(src_) + bytes(dst_) + bytes(pos_) +
         bytes(entry_dir_) + bytes(prev_advanced_) + bytes(prev_num_good_) +
         bytes(injected_at_) + bytes(deflections_) + bytes(initial_distance_) +
         bytes(locator_);
}

// --- ArrivalLog -------------------------------------------------------------

void write_packet_record(util::BinWriter& out, const Packet& p) {
  out.i32(p.id);
  out.i32(p.src);
  out.i32(p.dst);
  out.i32(p.pos);
  out.i8(p.last_move_dir);
  out.u8(p.prev_advanced ? 1 : 0);
  out.i32(p.prev_num_good);
  out.u64(p.injected_at);
  out.u64(p.arrived_at);
  out.u64(p.deflections);
  out.i32(p.initial_distance);
}

Packet read_packet_record(util::BinReader& in) {
  Packet p;
  p.id = in.i32();
  p.src = in.i32();
  p.dst = in.i32();
  p.pos = in.i32();
  p.last_move_dir = in.i8();
  p.prev_advanced = in.u8() != 0;
  p.prev_num_good = in.i32();
  p.injected_at = in.u64();
  p.arrived_at = in.u64();
  p.deflections = in.u64();
  p.initial_distance = in.i32();
  return p;
}

void ArrivalLog::append(const Packet& p) {
  ++count_;
  if (!keep_) return;
  const auto i = static_cast<std::size_t>(static_cast<std::uint32_t>(p.id));
  if (index_by_id_.size() <= i) index_by_id_.resize(i + 1, -1);
  index_by_id_[i] = static_cast<std::int64_t>(records_.size());
  records_.push_back(p);
}

const Packet* ArrivalLog::find(PacketId id) const {
  const auto i = static_cast<std::size_t>(static_cast<std::uint32_t>(id));
  if (i >= index_by_id_.size() || index_by_id_[i] < 0) return nullptr;
  return &records_[static_cast<std::size_t>(index_by_id_[i])];
}

void ArrivalLog::serialize(util::BinWriter& out) const {
  out.u8(keep_ ? 1 : 0);
  out.u64(count_);
  if (!keep_) return;
  out.u64(records_.size());
  for (const Packet& p : records_) write_packet_record(out, p);
}

void ArrivalLog::deserialize(util::BinReader& in, std::uint64_t next_id) {
  HP_REQUIRE(count_ == 0, "ArrivalLog::deserialize needs a fresh log");
  const bool kept = in.u8() != 0;
  HP_REQUIRE(kept == keep_,
             "checkpoint was written with archive_arrivals = " +
                 std::string(kept ? "true" : "false") +
                 " but this engine has it = " +
                 std::string(keep_ ? "true" : "false"));
  const std::uint64_t count = in.u64();
  if (!keep_) {
    count_ = count;
    return;
  }
  const std::uint64_t n = in.u64();
  HP_REQUIRE(n == count,
             "checkpoint is corrupt (arrival record count mismatch)");
  for (std::uint64_t i = 0; i < n; ++i) {
    const Packet p = read_packet_record(in);
    HP_REQUIRE(static_cast<std::uint32_t>(p.id) < next_id,
               "checkpoint is corrupt (archived packet id " +
                   std::to_string(static_cast<std::uint32_t>(p.id)) +
                   " was never issued)");
    append(p);
  }
  HP_REQUIRE(count_ == count,
             "checkpoint is corrupt (arrival records do not replay)");
}

std::size_t ArrivalLog::memory_bytes() const {
  return records_.capacity() * sizeof(Packet) +
         index_by_id_.capacity() * sizeof(std::int64_t);
}

}  // namespace hp::sim
