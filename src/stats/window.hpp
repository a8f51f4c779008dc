// Per-window step statistics, shared by every measurement harness that
// slices a continuous-injection run into fixed step windows: the
// steady-state meter (steady_state.cpp) and the closed-loop admission
// controller's engine adapter (sweep.cpp). One observer instance stays
// attached across windows; begin_window() rolls it over at a boundary, and
// measurement() turns a finished window into the one sim::WindowMeasurement
// every harness reports. Everything here is virtual-time only, so the
// numbers are bit-identical across engine thread counts.
#pragma once

#include <cstdint>

#include "sim/admission.hpp"
#include "sim/observer.hpp"
#include "util/stats.hpp"

namespace hp::stats {

class WindowStats final : public sim::StepObserver {
 public:
  /// Starts a fresh window at `engine`'s current step. The next
  /// `warmup_steps` steps are ignored, and latency samples are taken only
  /// from packets injected after them, so cross-window stragglers inflate
  /// nothing.
  void begin_window(const sim::Engine& engine, std::uint64_t warmup_steps = 0);

  void on_step(const sim::Engine& engine,
               const sim::StepRecord& record) override;

  /// The window arithmetic of every steady-state harness. Call once
  /// `engine` has run the warmup and the measured steps of this window;
  /// `offered` and `admitted` count the injector's attempts over both
  /// (the warmup runs at the same `rate`, so the fraction is the rate's
  /// own admission behaviour either way).
  sim::WindowMeasurement measurement(const sim::Engine& engine, double rate,
                                     std::uint64_t offered,
                                     std::uint64_t admitted) const;

 private:
  std::uint64_t begin_step_ = 0;  ///< engine step at begin_window()
  std::size_t begin_in_flight_ = 0;
  std::uint64_t start_step_ = 0;  ///< first measured step
  /// Pre-move population: packets routed in the step (each packet counts
  /// once per step it spent in the network — the L of Little's law).
  RunningStat population_;
  Samples latency_;
  std::size_t peak_ = 0;
  std::uint64_t steps_ = 0;  ///< measured steps (the warmup excluded)
  std::uint64_t delivered_ = 0;
  std::uint64_t deflections_ = 0;
};

}  // namespace hp::stats
