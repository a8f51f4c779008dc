#include "stats/steady_state.hpp"

#include "sim/engine.hpp"

namespace hp::stats {

SteadyStateMeter::SteadyStateMeter(sim::Engine& engine, double rate,
                                   std::uint64_t warmup, std::uint64_t seed)
    : rate_(rate), injector_(rate, seed ^ 0x5bd1e995u) {
  engine.set_injector(&injector_);
  // The shared window observer streams the measurement window's stats off
  // the step records in O(in-flight) memory.
  window_.begin_window(engine, warmup);
  engine.add_observer(&window_);
}

sim::WindowMeasurement SteadyStateMeter::measurement(
    const sim::Engine& engine) const {
  return window_.measurement(engine, rate_, injector_.offered(),
                             injector_.admitted());
}

sim::WindowMeasurement measure_steady_state(const net::Network& network,
                                            sim::RoutingPolicy& policy,
                                            double rate, std::uint64_t warmup,
                                            std::uint64_t measure,
                                            std::uint64_t seed) {
  workload::Problem empty;
  empty.name = "steady-state";
  sim::EngineConfig config;
  config.seed = seed;
  config.archive_arrivals = false;  // unbounded run: O(in-flight) memory
  sim::Engine engine(network, empty, policy, config);
  const SteadyStateMeter meter(engine, rate, warmup, seed);
  engine.run_for(warmup + measure);
  return meter.measurement(engine);
}

}  // namespace hp::stats
