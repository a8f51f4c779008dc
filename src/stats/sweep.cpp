#include "stats/sweep.hpp"

namespace hp::stats {

EngineTrafficSystem::EngineTrafficSystem(const net::Network& net,
                                         sim::RoutingPolicy& policy,
                                         const workload::TrafficConfig& traffic,
                                         std::uint64_t seed,
                                         sim::EngineConfig config) {
  empty_.name = "traffic";
  config.seed = seed;
  config.archive_arrivals = false;  // unbounded run: O(in-flight) memory
  engine_ = std::make_unique<sim::Engine>(net, empty_, policy, config);
  injector_ = std::make_unique<workload::TrafficInjector>(
      net, traffic, /*rate=*/0.0, seed ^ 0x9e3779b97f4a7c15ULL);
  engine_->set_injector(injector_.get());
  engine_->add_observer(&window_);
}

EngineTrafficSystem::~EngineTrafficSystem() = default;

sim::WindowMeasurement EngineTrafficSystem::run_window(
    double rate, std::uint64_t warmup_steps, std::uint64_t measure_steps) {
  injector_->set_rate(rate);
  // Warmup relaxes the system at the new rate (draining any backlog a
  // previous unstable window left behind — the capacity rule bounds it by
  // Σ degrees, so a short warmup suffices); the window observer skips the
  // warmup steps and attributes latency only to window-injected packets.
  window_.begin_window(*engine_, warmup_steps);
  injector_->reset_counters();
  engine_->run_for(warmup_steps + measure_steps);
  return window_.measurement(*engine_, rate, injector_->offered(),
                             injector_->admitted());
}

SweepCellResult run_sweep_cell(const net::Network& net,
                               sim::RoutingPolicy& policy,
                               const workload::TrafficConfig& traffic,
                               const SweepConfig& config) {
  SweepCellResult result;
  {
    sim::EngineConfig engine_config;
    engine_config.num_threads = config.num_threads;
    EngineTrafficSystem system(net, policy, traffic, config.seed,
                               engine_config);
    result.probe = sim::AdmissionController(config.probe).probe(system);
  }
  if (result.probe.saturation_rate <= 0.0) return result;

  for (double fraction : config.load_fractions) {
    const double rate = fraction * result.probe.saturation_rate;
    sim::EngineConfig engine_config;
    engine_config.num_threads = config.num_threads;
    // Fresh engine per point: the curve samples independent operating
    // points, not the probe's path. Same seed everywhere — points differ
    // only in the offered rate.
    EngineTrafficSystem system(net, policy, traffic, config.seed,
                               engine_config);
    const sim::WindowMeasurement m =
        system.run_window(rate, config.curve_warmup, config.curve_measure);
    LoadPoint point;
    point.load_fraction = fraction;
    point.offered_rate = rate;
    point.throughput = m.throughput;
    point.admit_fraction = m.admit_fraction;
    point.mean_latency = m.mean_latency;
    point.p99_latency = m.p99_latency;
    point.mean_population = m.mean_population;
    point.peak_in_flight = static_cast<std::size_t>(m.peak_in_flight);
    point.delivered = m.delivered;
    result.curve.push_back(point);
  }
  return result;
}

}  // namespace hp::stats
