#include "sim/livelock.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/binio.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hp::sim {

namespace {

/// Strong 128-bit hash of one packet's routing state. The two words are
/// independent splitmix64 chains over an injective two-word encoding of
/// (id, position, entry arc, history bits).
StateDigest hash_packet_state(PacketId id, net::NodeId pos, net::Dir dir,
                              bool prev_advanced, int prev_num_good) {
  const std::uint64_t w1 =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(pos));
  const std::uint64_t w2 =
      (static_cast<std::uint64_t>(static_cast<std::uint8_t>(dir)) << 16) |
      (static_cast<std::uint64_t>(prev_advanced) << 8) |
      static_cast<std::uint64_t>(static_cast<std::uint8_t>(prev_num_good + 1));

  std::uint64_t lo = 0x243f6a8885a308d3ULL ^ (w1 * 0x9ddfea08eb382d69ULL);
  lo = splitmix64(lo);
  lo ^= w2 * 0x9ddfea08eb382d69ULL;
  lo = splitmix64(lo);

  std::uint64_t hi = 0x13198a2e03707344ULL ^ (~w1 * 0x9ddfea08eb382d69ULL);
  hi = splitmix64(hi);
  hi ^= ~w2 * 0x9ddfea08eb382d69ULL;
  hi = splitmix64(hi);
  return {lo, hi};
}

}  // namespace

StateDigest digest_state(const FlightTable& flight) {
  StateDigest d{0, 0};
  for (FlightTable::Slot s = 0; s < flight.end_slot(); ++s) {
    const StateDigest h =
        hash_packet_state(flight.id(s), flight.pos(s), flight.entry_dir(s),
                          flight.prev_advanced(s), flight.prev_num_good(s));
    d.lo += h.lo;  // commutative: traversal order must not matter
    d.hi += h.hi;
  }
  return d;
}

StateDigest digest_state(const std::vector<Packet>& packets) {
  StateDigest d{0, 0};
  for (const Packet& p : packets) {
    if (p.arrived()) continue;
    const StateDigest h = hash_packet_state(p.id, p.pos, p.last_move_dir,
                                            p.prev_advanced, p.prev_num_good);
    d.lo += h.lo;
    d.hi += h.hi;
  }
  return d;
}

std::uint64_t LivelockDetector::record(const StateDigest& digest,
                                       std::uint64_t step) {
  auto [it, inserted] = seen_.try_emplace(digest.lo, Entry{digest.hi, step});
  if (inserted) return kNoRepeat;
  if (it->second.hi == digest.hi) return it->second.step;
  // A 64-bit half-collision with distinct upper halves: genuinely distinct
  // states. Keep the first entry; this can at worst delay detection.
  return kNoRepeat;
}

void LivelockDetector::serialize(util::BinWriter& w) const {
  std::vector<std::pair<std::uint64_t, Entry>> entries;
  entries.reserve(seen_.size());
  // The sort below makes the byte stream independent of bucket order.
  for (const auto& [lo, entry] : seen_) entries.emplace_back(lo, entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u64(entries.size());
  for (const auto& [lo, entry] : entries) {
    w.u64(lo);
    w.u64(entry.hi);
    w.u64(entry.step);
  }
}

void LivelockDetector::deserialize(util::BinReader& r) {
  HP_REQUIRE(seen_.empty(),
             "LivelockDetector::deserialize needs a fresh detector");
  // No reserve(n): a corrupt count must end in the reader's truncation
  // error, not in one huge allocation.
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t lo = r.u64();
    Entry e;
    e.hi = r.u64();
    e.step = r.u64();
    HP_REQUIRE(seen_.emplace(lo, e).second,
               "duplicate livelock digest in checkpoint");
  }
}

}  // namespace hp::sim
