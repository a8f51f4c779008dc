// Checkpoint/restore of the full engine state, and the state fingerprint
// the round-trip tests compare (docs/SCALE.md).
//
// A checkpoint captures everything the next step's outcome depends on:
// the run counters (clock, id watermark, delivered/deflection totals),
// every FlightTable column in slot order plus the id locator window, the
// arrival archive, and the livelock detector's seen-state map. Policy
// randomness needs no state — the engine derives each step's streams from
// (seed, step, node) — so a restored engine replays the interrupted run
// bit-for-bit, for every thread count.
//
// Format v1: little-endian, magic "HPCK" + version word, a header naming
// the topology / policy / seed the checkpoint belongs to, the state
// sections, and an FNV-1a digest trailer over the whole payload. Any
// truncation, corruption, version skew, or mismatched header fails with a
// clear hp::CheckError — never undefined behavior.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace hp::sim {

class Engine;

inline constexpr std::uint32_t kCheckpointMagic = 0x4b435048;  // "HPCK"
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Writes a checkpoint of `engine` at its current step boundary: the
/// archived records, or only their count when archive_arrivals is off.
/// The path overload throws hp::CheckError if the file cannot be written.
void save_checkpoint(const Engine& engine, std::ostream& out);
void save_checkpoint(const Engine& engine, const std::string& path);

/// Restores a checkpoint into a freshly constructed engine (no steps run,
/// no packets injected — use an empty workload::Problem). The engine must
/// have been built over the same topology, policy, seed, and
/// archive_arrivals flag the checkpoint names; the thread count may differ.
/// The path overload throws hp::CheckError if the file cannot be opened.
void restore_checkpoint(Engine& engine, std::istream& in);
void restore_checkpoint(Engine& engine, const std::string& path);

/// FNV-1a digest of the engine's step-boundary state: run counters, every
/// flight column in slot order, the locator window, and the arrival
/// archive. Two engines with equal fingerprints continue identically;
/// slot order is part of the determinism contract, so the fingerprint is
/// thread-count invariant. A count-only archive (archive_arrivals off)
/// contributes its count.
std::uint64_t state_fingerprint(const Engine& engine);

}  // namespace hp::sim
