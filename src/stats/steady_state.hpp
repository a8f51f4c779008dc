// Steady-state measurement of deflection networks under continuous
// Bernoulli arrivals — the operating regime of the paper's motivating
// systems ([GG], [Ma]): throughput, latency and blocked-arrival rate as a
// function of the offered load.
#pragma once

#include <cstdint>

#include "sim/admission.hpp"
#include "sim/injection.hpp"
#include "sim/policy.hpp"
#include "stats/window.hpp"
#include "topology/network.hpp"

namespace hp::stats {

/// Per-node Bernoulli(rate) arrivals plus a measurement window that skips
/// the first `warmup` steps, installed on an engine that has not stepped
/// yet. The meter must outlive the engine's last step.
class SteadyStateMeter {
 public:
  SteadyStateMeter(sim::Engine& engine, double rate, std::uint64_t warmup,
                   std::uint64_t seed);

  SteadyStateMeter(const SteadyStateMeter&) = delete;
  SteadyStateMeter& operator=(const SteadyStateMeter&) = delete;

  /// The window's statistics once `engine` has run past the warmup;
  /// latency is attributed to packets injected after it.
  sim::WindowMeasurement measurement(const sim::Engine& engine) const;

 private:
  double rate_;
  sim::BernoulliInjector injector_;
  WindowStats window_;
};

/// Runs `policy` on `network` with per-node Bernoulli(rate) arrivals for
/// `warmup + measure` steps; statistics cover the measurement window only.
sim::WindowMeasurement measure_steady_state(const net::Network& network,
                                            sim::RoutingPolicy& policy,
                                            double rate, std::uint64_t warmup,
                                            std::uint64_t measure,
                                            std::uint64_t seed);

}  // namespace hp::stats
