#include "workload/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "sim/engine.hpp"
#include "topology/mesh.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"

namespace hp::workload {
namespace {

// Shape and scale (minimum flow size, in packets) of the Pareto flow
// sizes of TrafficConfig::pareto.
constexpr double kParetoAlpha = 1.6;
constexpr double kParetoScale = 1.0;

}  // namespace

DestPattern pattern_from_name(const std::string& name) {
  if (name == "uniform") return DestPattern::kUniform;
  if (name == "hotspot") return DestPattern::kHotspot;
  if (name == "transpose") return DestPattern::kTranspose;
  if (name == "bit-reversal") return DestPattern::kBitReversal;
  throw CheckError("unknown traffic pattern: " + name);
}

const char* pattern_name(DestPattern pattern) {
  switch (pattern) {
    case DestPattern::kUniform:
      return "uniform";
    case DestPattern::kHotspot:
      return "hotspot";
    case DestPattern::kTranspose:
      return "transpose";
    case DestPattern::kBitReversal:
      return "bit-reversal";
  }
  return "?";
}

ParetoSampler::ParetoSampler(double alpha, double scale)
    : alpha_(alpha), scale_(scale) {
  HP_REQUIRE(alpha > 1.0,
             "Pareto shape must exceed 1: alpha <= 1 has an infinite mean, "
             "so no offered packet rate corresponds to a flow arrival rate");
  HP_REQUIRE(scale > 0.0, "Pareto scale (minimum flow size) must be positive");
}

double ParetoSampler::sample_real(Rng& rng) const {
  // Inverse CDF: x_m · (1 − U)^(−1/α) with U uniform in [0, 1); 1 − U is
  // in (0, 1], so the draw is finite and ≥ x_m.
  return scale_ * std::pow(1.0 - rng.real(), -1.0 / alpha_);
}

std::uint64_t ParetoSampler::sample_size(Rng& rng, std::uint64_t cap) const {
  HP_REQUIRE(cap >= 1, "flow-size cap must be at least one packet");
  const double x = std::ceil(sample_real(rng));
  if (!(x < static_cast<double>(cap))) return cap;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(x));
}

TrafficInjector::TrafficInjector(const net::Network& net,
                                 const TrafficConfig& config, double rate,
                                 std::uint64_t seed)
    : net_(net), config_(config), rng_(seed) {
  const auto n = static_cast<std::size_t>(net.num_nodes());
  flow_dst_.assign(n, net::kInvalidNode);
  flow_left_.assign(n, 0);

  const auto* mesh = dynamic_cast<const net::Mesh*>(&net);
  switch (config_.pattern) {
    case DestPattern::kUniform:
      break;
    case DestPattern::kHotspot: {
      HP_REQUIRE(config_.hotspots >= 1, "need at least one hotspot");
      HP_REQUIRE(static_cast<std::size_t>(config_.hotspots) <= n,
                 "more hotspots than nodes");
      // Distinct receivers, drawn once; ascending order keeps the set a
      // pure function of (seed, node count).
      std::vector<net::NodeId> all(n);
      for (std::size_t v = 0; v < n; ++v) {
        all[v] = static_cast<net::NodeId>(v);
      }
      rng_.shuffle(std::span<net::NodeId>(all));
      spots_.assign(all.begin(), all.begin() + config_.hotspots);
      std::sort(spots_.begin(), spots_.end());
      break;
    }
    case DestPattern::kTranspose: {
      HP_REQUIRE(mesh != nullptr && mesh->dim() == 2,
                 "transpose traffic needs a 2-D mesh");
      fixed_dst_.assign(n, net::kInvalidNode);
      for (const PacketSpec& spec : transpose(*mesh).packets) {
        if (spec.dst != spec.src) {
          fixed_dst_[static_cast<std::size_t>(spec.src)] = spec.dst;
        }
      }
      break;
    }
    case DestPattern::kBitReversal: {
      HP_REQUIRE(mesh != nullptr && mesh->dim() == 2,
                 "bit-reversal traffic needs a 2-D mesh");
      fixed_dst_.assign(n, net::kInvalidNode);
      for (const PacketSpec& spec : bit_reversal(*mesh).packets) {
        if (spec.dst != spec.src) {
          fixed_dst_[static_cast<std::size_t>(spec.src)] = spec.dst;
        }
      }
      break;
    }
  }
  set_rate(rate);
}

void TrafficInjector::set_rate(double rate) {
  HP_REQUIRE(rate >= 0.0 && rate <= 1.0,
             "offered rate must be in [0, 1] packets per node per step");
  rate_ = rate;
  double mean_flow = 1.0;
  if (config_.pareto) {
    mean_flow = ParetoSampler(kParetoAlpha, kParetoScale).mean();
  }
  flow_rate_ = std::min(1.0, rate_ / mean_flow);
}

void TrafficInjector::reset_counters() {
  offered_ = 0;
  admitted_ = 0;
}

net::NodeId TrafficInjector::fixed_dst(net::NodeId src) const {
  if (fixed_dst_.empty()) return net::kInvalidNode;
  return fixed_dst_[static_cast<std::size_t>(src)];
}

net::NodeId TrafficInjector::draw_dst(net::NodeId src) {
  switch (config_.pattern) {
    case DestPattern::kUniform: {
      net::NodeId dst = src;
      while (dst == src) {
        dst = static_cast<net::NodeId>(rng_.uniform(net_.num_nodes()));
      }
      return dst;
    }
    case DestPattern::kHotspot: {
      // A hot node sending to itself would be zero-cost traffic; skip the
      // flow when the receiver set leaves it no other choice.
      if (spots_.size() == 1 && spots_[0] == src) return net::kInvalidNode;
      net::NodeId dst = src;
      while (dst == src) {
        dst = spots_[rng_.uniform(spots_.size())];
      }
      return dst;
    }
    case DestPattern::kTranspose:
    case DestPattern::kBitReversal:
      return fixed_dst(src);  // kInvalidNode on the diagonal: no flow
  }
  return net::kInvalidNode;
}

std::uint64_t TrafficInjector::draw_flow_size() {
  if (!config_.pareto) return 1;
  const ParetoSampler flows(kParetoAlpha, kParetoScale);
  return flows.sample_size(rng_, config_.max_flow_packets);
}

void TrafficInjector::inject(sim::Engine& engine, std::uint64_t /*step*/) {
  const auto n = static_cast<net::NodeId>(net_.num_nodes());
  for (net::NodeId v = 0; v < n; ++v) {
    const auto s = static_cast<std::size_t>(v);
    if (flow_left_[s] == 0) {
      // Idle source: flow arrivals are Bernoulli(flow_rate). The draw
      // happens every step for every idle node, so the stream of random
      // numbers — and with it the whole run — is a pure function of the
      // seed, independent of admission outcomes.
      if (!rng_.bernoulli(flow_rate_)) continue;
      const net::NodeId dst = draw_dst(v);
      if (dst == net::kInvalidNode) continue;  // pattern skips this node
      flow_dst_[s] = dst;
      flow_left_[s] = draw_flow_size();
    }
    // Active source: offer one packet per step; blocked offers retry next
    // step (the flow is not dropped), so blocked/offered measures how hard
    // the network is pushing back.
    ++offered_;
    if (engine.try_inject(v, flow_dst_[s])) {
      ++admitted_;
      --flow_left_[s];
    }
  }
}

}  // namespace hp::workload
