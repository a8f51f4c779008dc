// EngineMetrics: the StepObserver that populates a MetricsRegistry from a
// live run — packet latency, deflections per packet, per-node occupancy,
// step counters — and, when the paper's potential/surface observers are
// attached, mirrors Φ(t), B(t), G(t) and F(t) into gauges.
//
// Everything is derived from the StepRecord alone (no engine queries, no
// retained spans), so the observer composes with continuous-injection runs
// and its output is a pure function of the simulated trajectory: the
// determinism tests assert byte-identical snapshots across thread counts.
#pragma once

#include <cstdint>

#include "core/potential.hpp"
#include "core/surface.hpp"
#include "obs/metrics.hpp"
#include "sim/observer.hpp"

namespace hp::obs {

class EngineMetrics : public sim::StepObserver {
 public:
  explicit EngineMetrics(MetricsRegistry& registry);

  /// Mirror Φ(t) from a PotentialTracker registered on the same engine
  /// *before* this observer (gauges reflect the tracker's post-step
  /// state). The tracker must outlive this observer.
  void attach_potential(const core::PotentialTracker& tracker) {
    potential_ = &tracker;
  }

  /// Mirror B(t)/G(t)/F(t) from a SurfaceTracker registered on the same
  /// engine before this observer. The tracker must outlive this observer.
  void attach_surface(const core::SurfaceTracker& tracker) {
    surface_ = &tracker;
  }

  void on_step(const sim::Engine& engine,
               const sim::StepRecord& record) override;

 private:
  void potential_gauges(const core::PotentialTracker& tracker);
  void surface_gauges(const core::SurfaceTracker& tracker);

  MetricsRegistry* registry_;
  const core::PotentialTracker* potential_ = nullptr;
  const core::SurfaceTracker* surface_ = nullptr;

  // Resolved once in the constructor; registry references are stable.
  Counter& steps_;
  Counter& delivered_;
  Counter& advances_;
  Counter& deflections_;
  Counter& bad_node_steps_;
  Gauge& in_flight_now_;
  Gauge& bad_nodes_now_;
  Distribution& latency_;
  Distribution& stretch_;
  Distribution& deflections_per_packet_;
  Distribution& occupancy_;
  Distribution& in_flight_;
};

}  // namespace hp::obs
