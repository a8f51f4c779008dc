// Livelock detection by configuration hashing.
//
// The state of a synchronous hot-potato system is exactly the multiset of
// in-flight packets with their positions and one step of history. For a
// deterministic policy the next state is a function of the current state,
// so a repeated state proves an infinite loop (livelock) — the situation
// Section 1.2 warns about for unrestricted greedy routing.
//
// The digest is a commutative combination of strong per-packet hashes, so
// it is independent of the order in which the in-flight set is traversed —
// the flight table's slot order changes as packets arrive (swap-remove),
// and the digest must not.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/flight_table.hpp"
#include "sim/packet.hpp"

namespace hp::util {
class BinWriter;
class BinReader;
}  // namespace hp::util

namespace hp::sim {

/// 128-bit configuration fingerprint: a sum of independent 128-bit
/// per-packet hashes. The collision probability over any realistic run
/// length is negligible.
struct StateDigest {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  friend bool operator==(const StateDigest&, const StateDigest&) = default;
};

/// Computes the digest of the current configuration: every in-flight
/// packet's (id, position, last move, history bits). Order-independent.
StateDigest digest_state(const FlightTable& flight);

/// Same digest computed from explicit packet records (arrived packets are
/// ignored). Used by tests and tools that hold plain Packet vectors.
StateDigest digest_state(const std::vector<Packet>& packets);

/// Remembers digests of visited configurations and reports repeats.
class LivelockDetector {
 public:
  /// Records the configuration at time `step`. Returns the step at which
  /// the same configuration was first seen, or kNoRepeat if new.
  std::uint64_t record(const StateDigest& digest, std::uint64_t step);

  static constexpr std::uint64_t kNoRepeat = ~std::uint64_t{0};

  /// Writes the seen-state map to a checkpoint, sorted by digest key so
  /// the byte stream is independent of bucket order.
  void serialize(util::BinWriter& w) const;
  /// Restores the map from a checkpoint. The detector must be fresh.
  void deserialize(util::BinReader& r);

 private:
  struct Entry {
    std::uint64_t hi;
    std::uint64_t step;
  };
  // hp-lint: allow(unordered-member) lookup/insert in the hot path; the
  // only iteration (checkpoint serialize) sorts by key first. The digest
  // keying this map is a commutative sum over the in-flight set (see
  // digest_state), so no result ever depends on bucket order.
  std::unordered_map<std::uint64_t, Entry> seen_;
};

}  // namespace hp::sim
