#include "obs/engine_metrics.hpp"

#include <cstddef>

#include "sim/engine.hpp"

namespace hp::obs {

EngineMetrics::EngineMetrics(MetricsRegistry& registry, Config config)
    : registry_(&registry),
      config_(config),
      steps_(registry.counter("engine.steps")),
      delivered_(registry.counter("packets.delivered")),
      advances_(registry.counter("packets.advances")),
      deflections_(registry.counter("packets.deflections")),
      bad_node_steps_(registry.counter("engine.bad_node_steps")),
      in_flight_now_(registry.gauge("engine.in_flight")),
      bad_nodes_now_(registry.gauge("engine.bad_nodes")),
      latency_(registry.distribution("packet.latency", 0.0,
                                     config.latency_hi, config.latency_bins)),
      stretch_(registry.distribution("packet.stretch", 0.0, 16.0, 64)),
      deflections_per_packet_(
          registry.distribution("packet.deflections", 0.0,
                                config.deflections_hi,
                                config.deflections_bins)),
      occupancy_(registry.distribution("node.occupancy", 0.0, 32.0, 32)),
      in_flight_(registry.distribution("step.in_flight", 0.0, 4096.0, 64)) {}

void EngineMetrics::on_step(const sim::Engine& engine,
                            const sim::StepRecord& record) {
  steps_.add(1);
  in_flight_now_.set(static_cast<double>(record.in_flight_after));
  in_flight_.add(static_cast<double>(record.in_flight_after));

  for (const sim::Packet& p : record.arrivals) {
    delivered_.add(1);
    const std::uint64_t latency = p.arrived_at - p.injected_at;
    latency_.add(static_cast<double>(latency));
    deflections_per_packet_.add(static_cast<double>(p.deflections));
    if (p.initial_distance > 0) {
      stretch_.add(static_cast<double>(latency) /
                   static_cast<double>(p.initial_distance));
    }
  }

  // Pre-move occupancy per node: assignments are grouped contiguously by
  // node, so each maximal same-node run is one node's packet count.
  std::uint64_t bad_nodes = 0;
  std::size_t i = 0;
  const std::size_t m = record.assignments.size();
  while (i < m) {
    const net::NodeId node = record.assignments[i].node;
    std::size_t run = 0;
    while (i < m && record.assignments[i].node == node) {
      if (record.assignments[i].advances()) {
        advances_.add(1);
      } else {
        deflections_.add(1);
      }
      ++run;
      ++i;
    }
    occupancy_.add(static_cast<double>(run));
    if (run > static_cast<std::size_t>(config_.bad_threshold)) ++bad_nodes;
  }
  bad_nodes_now_.set(static_cast<double>(bad_nodes));
  bad_node_steps_.add(bad_nodes);

  // The registrations below repeat every step so the gauges track the
  // trackers' post-step state without EngineMetrics knowing the step plan.
  if (potential_ != nullptr) {
    potential_gauges(*potential_);
  }
  if (surface_ != nullptr) {
    surface_gauges(*surface_);
  }
  if (config_.memory_gauges) {
    memory_gauges(engine);
  }
}

void EngineMetrics::potential_gauges(const core::PotentialTracker& tracker) {
  // Resolved lazily: the gauges only exist in snapshots of runs that had
  // a potential tracker attached.
  registry_->gauge("potential.phi").set(static_cast<double>(tracker.phi()));
  registry_->gauge("potential.min_slack")
      .set(static_cast<double>(tracker.min_slack()));
}

void EngineMetrics::memory_gauges(const sim::Engine& engine) {
  // Resolved lazily: the gauges only exist when Config::memory_gauges is
  // on. Capacity accounting, so values are report-only (see the Config
  // comment) — never compare them across thread counts.
  const sim::EngineMemoryStats stats = engine.memory_stats();
  registry_->gauge("engine.memory.total_bytes")
      .set(static_cast<double>(stats.total()));
  registry_->gauge("engine.memory.topology_bytes")
      .set(static_cast<double>(stats.topology_bytes));
  registry_->gauge("engine.memory.occupancy_bytes")
      .set(static_cast<double>(stats.occupancy_bytes));
  registry_->gauge("engine.memory.flight_bytes")
      .set(static_cast<double>(stats.flight_bytes));
  registry_->gauge("engine.memory.archive_bytes")
      .set(static_cast<double>(stats.archive_bytes));
  registry_->gauge("engine.memory.scratch_bytes")
      .set(static_cast<double>(stats.scratch_bytes));
}

void EngineMetrics::surface_gauges(const core::SurfaceTracker& tracker) {
  if (tracker.b_series().empty()) return;
  registry_->gauge("surface.b").set(
      static_cast<double>(tracker.b_series().back()));
  registry_->gauge("surface.g").set(
      static_cast<double>(tracker.g_series().back()));
  registry_->gauge("surface.f").set(
      static_cast<double>(tracker.f_series().back()));
}

}  // namespace hp::obs
