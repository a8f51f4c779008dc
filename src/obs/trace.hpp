// Bounded ring-buffer event tracer with Chrome trace_event JSON export.
//
// Events produced by the engine observer carry *virtual* timestamps — one
// engine step maps to one trace microsecond — so a trace stream is a pure
// function of the simulated trajectory: bit-identical across thread counts
// and across reruns with the same seed, like every other observability
// artifact. Wall-clock spans (engine phase timings) enter a ring only when
// the phase profiler is explicitly attached as a sink, and are documented
// as non-deterministic.
//
// The ring is bounded: once `capacity` events are held, each push
// overwrites the oldest event and is counted in dropped(), so tracing
// composes with continuous-injection runs of unbounded length. The export
// loads in chrome://tracing and Perfetto.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/observer.hpp"

namespace hp::obs {

/// One Chrome trace_event record. Only the fields the exporters use:
/// complete spans (ph 'X', with dur), counters (ph 'C', with value) and
/// instants (ph 'i').
struct TraceEvent {
  std::string name;
  std::string cat = "engine";
  char phase = 'X';       ///< Chrome "ph" letter
  std::uint64_t ts = 0;   ///< microseconds (virtual: engine steps)
  std::uint64_t dur = 0;  ///< span length; 'X' events only
  std::uint32_t tid = 0;  ///< track within pid 0
  std::int64_t value = 0;      ///< single "v" argument, 'C' events
  bool has_value = false;      ///< whether `value` is meaningful
};

/// Fixed-capacity ring of trace events. push() overwrites the oldest event
/// once the ring is full; dropped() counts the overwritten ones so an
/// export can say what it lost. Storage grows lazily up to `capacity`.
class TraceRing {
 public:
  /// `capacity` must be at least 1 (throws hp::CheckError otherwise).
  explicit TraceRing(std::size_t capacity);

  void push(TraceEvent event);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }
  bool empty() const { return size_ == 0; }

  /// Retained events oldest-first; `i` < size().
  const TraceEvent& at(std::size_t i) const;

  void clear();

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> events_;
  std::size_t next_ = 0;  ///< slot the next push writes (once saturated)
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Writes the ring as one Chrome trace_event JSON document:
/// {"displayTimeUnit": "ms", "traceEvents": [...]} with pid 0 throughout.
/// Dropped-event counts are recorded in an "otherData" note so a truncated
/// trace is distinguishable from a complete one.
void write_chrome_trace(std::ostream& out, const TraceRing& ring);

/// Engine observer emitting the deterministic packet-lifecycle trace:
///   * one complete span per delivered packet (ts = injection step,
///     dur = latency, on track id mod 64),
///   * one in-flight counter sample per step.
/// All timestamps are virtual (step = 1 us); see the header comment.
class TraceObserver : public sim::StepObserver {
 public:
  explicit TraceObserver(TraceRing& ring) : ring_(ring) {}

  void on_step(const sim::Engine& engine,
               const sim::StepRecord& record) override;

 private:
  TraceRing& ring_;
};

}  // namespace hp::obs
