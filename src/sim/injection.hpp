// Continuous packet injection — the steady-state operating mode of
// deflection networks.
//
// The paper analyzes batch routing, but its motivating systems (multihop
// lightwave networks [AS], [Ma], [Sz], [ZA]; the mesh/ring analyses of
// [GG]) run deflection routing with continuous arrivals. An Injector is
// invoked by the engine at the beginning of every step and may place new
// packets at nodes with free out-slots (the hot-potato capacity rule: a
// node can never hold more packets than its out-degree).
#pragma once

#include <cstdint>

#include "topology/types.hpp"
#include "util/rng.hpp"

namespace hp::sim {

class Engine;

class Injector {
 public:
  virtual ~Injector() = default;

  /// Called once per step before routing. Implementations call
  /// Engine::try_inject(src, dst); the engine enforces the capacity rule
  /// and reports whether the packet was admitted.
  virtual void inject(Engine& engine, std::uint64_t step) = 0;
};

/// Independent Bernoulli arrivals: each node attempts to source a packet
/// with probability `rate` per step, destination uniform over all nodes
/// (excluding the source). Attempts at saturated nodes are dropped and
/// counted — the blocked-arrival rate is itself a standard deflection-
/// network metric.
class BernoulliInjector : public Injector {
 public:
  BernoulliInjector(double rate, std::uint64_t seed);

  void inject(Engine& engine, std::uint64_t step) override;

  std::uint64_t offered() const { return offered_; }
  std::uint64_t admitted() const { return admitted_; }

 private:
  double rate_;
  Rng rng_;
  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
};

}  // namespace hp::sim
