// Continuous-injection traffic shapes for the saturation-sweep subsystem.
//
// The batch generators (generators.hpp) describe one-shot many-to-many
// problems; this module describes *open-loop sources* for steady-state
// runs: every node is an independent on/off source whose destinations
// follow a configurable spatial pattern (uniform, hotspot, transpose,
// bit-reversal — the CONGA-style datacenter grid axes) and whose flow
// sizes are either unit (Bernoulli packet arrivals) or heavy-tailed
// Pareto, the standard model for datacenter flow-size distributions.
// Everything is seed-deterministic through hp::Rng, so sweep cells are
// reproducible and bit-identical across engine thread counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/injection.hpp"
#include "topology/network.hpp"
#include "util/rng.hpp"

namespace hp::workload {

/// Spatial destination pattern of a continuous traffic source.
enum class DestPattern {
  kUniform,      ///< uniform over all nodes except the source
  kHotspot,      ///< uniform over a small fixed set of hot receivers
  kTranspose,    ///< fixed (x, y) → (y, x) on a 2-D mesh
  kBitReversal,  ///< fixed bit-reversed coordinates (power-of-two side)
};

/// Parses "uniform" | "hotspot" | "transpose" | "bit-reversal" (throws
/// CheckError otherwise) / renders the canonical name back.
DestPattern pattern_from_name(const std::string& name);
const char* pattern_name(DestPattern pattern);

/// Pareto(α, x_m) sampler by inverse-CDF: P(X > x) = (x_m / x)^α for
/// x ≥ x_m. Flow sizes need a finite mean to convert a target packet rate
/// into a flow arrival rate, so shapes α ≤ 1 (infinite mean) are rejected
/// at construction.
class ParetoSampler {
 public:
  ParetoSampler(double alpha, double scale);

  /// One continuous draw (≥ scale).
  double sample_real(Rng& rng) const;

  /// One flow size in whole packets: the continuous draw rounded up,
  /// clamped to [1, cap]. cap bounds the heavy tail so a single flow
  /// cannot exceed a sweep window.
  std::uint64_t sample_size(Rng& rng, std::uint64_t cap) const;

  double alpha() const { return alpha_; }
  double scale() const { return scale_; }
  /// Analytic mean α·x_m/(α − 1); finite by the constructor guard.
  double mean() const { return alpha_ * scale_ / (alpha_ - 1.0); }

 private:
  double alpha_;
  double scale_;
};

/// Everything that shapes a traffic source, minus the offered rate (the
/// rate is the knob the admission controller turns, so it stays mutable
/// on the injector itself).
struct TrafficConfig {
  DestPattern pattern = DestPattern::kUniform;
  /// kHotspot: number of hot receiver nodes (drawn once from the seed).
  int hotspots = 4;
  /// Heavy-tailed Pareto(1.6, 1) flow sizes; false = every flow is one
  /// packet, which reduces the source to patterned Bernoulli arrivals.
  bool pareto = false;
  /// Tail clamp for one flow, in packets.
  std::uint64_t max_flow_packets = std::uint64_t{1} << 16;
};

/// Continuous patterned traffic source. Each node is an on/off source:
/// idle nodes start a flow with per-step probability rate / E[flow size]
/// (so the long-run *offered packet rate* per node is `rate`); a node
/// with an active flow offers exactly one packet per step toward the
/// flow's destination until the flow is exhausted, retrying (not
/// dropping) when the hot-potato capacity rule blocks admission — the
/// blocked fraction is the saturation signal the admission controller
/// reads. Destinations come from the configured pattern; fixed
/// permutation patterns skip their diagonal nodes (dst == src) instead
/// of offering zero-cost traffic.
class TrafficInjector final : public sim::Injector {
 public:
  /// Patterns that need mesh coordinates (transpose, bit-reversal) throw
  /// CheckError unless `net` is a suitable 2-D mesh. `rate` is the
  /// offered packets per node per step, in [0, 1].
  TrafficInjector(const net::Network& net, const TrafficConfig& config,
                  double rate, std::uint64_t seed);

  void inject(sim::Engine& engine, std::uint64_t step) override;

  /// Retunes the offered rate between windows (flow state and the RNG
  /// stream carry over — the closed probe loop keeps the system warm).
  void set_rate(double rate);
  double rate() const { return rate_; }

  std::uint64_t offered() const { return offered_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t blocked() const { return offered_ - admitted_; }
  /// Zeroes the offered/admitted counters at a window boundary.
  void reset_counters();

  const TrafficConfig& config() const { return config_; }
  /// kHotspot: the receiver set (ascending). Empty otherwise.
  const std::vector<net::NodeId>& hotspot_nodes() const { return spots_; }
  /// Fixed-pattern destination of `src`; kInvalidNode when the pattern is
  /// randomized or `src` is a skipped diagonal node.
  net::NodeId fixed_dst(net::NodeId src) const;

 private:
  net::NodeId draw_dst(net::NodeId src);
  std::uint64_t draw_flow_size();

  const net::Network& net_;
  TrafficConfig config_;
  double rate_ = 0;
  double flow_rate_ = 0;  ///< per-step flow-start probability per node
  Rng rng_;
  std::vector<net::NodeId> fixed_dst_;  ///< fixed patterns, else empty
  std::vector<net::NodeId> spots_;      ///< kHotspot receivers, ascending
  std::vector<net::NodeId> flow_dst_;   ///< per-node active-flow target
  std::vector<std::uint64_t> flow_left_;  ///< per-node packets remaining
  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
};

}  // namespace hp::workload
