// The potential function of Sections 3–4, implemented as a step observer.
//
// Every packet p carries φ_p(t) = dist_p(t) + C_p(t), where C_p is the
// "additional potential" of §4.2:
//
//   1. Initially C_p = c_init (the paper uses 2n on the n×n mesh).
//   2. If after step t packet p is not restricted, or is restricted of
//      Type B, then C_p = c_init.
//   3. If after step t packet p is restricted of Type A (it was restricted
//      during step t and advanced), then:
//      (a) if p deflected no Type A packet this step, C_p ← C_p − 2;
//      (b) if p deflected a Type A packet q (there is exactly one),
//          C_p ← C_q − 2 — the two packets "switch" their loads.
//   4. When p reaches its destination, C_p = 0 (and φ_p = 0).
//
// The tracker audits, at every node in every step:
//   * Property 8 / Lemma 19: a node with ℓ ≤ d packets loses ≥ ℓ potential
//     units; a node with ℓ > d packets loses ≥ 2d − ℓ.
//   * The §4.1 structural properties: an advancing restricted packet
//     deflects at most one Type A packet, and the deflector of a Type A
//     packet is a Type B restricted packet.
//   * 0 ≤ φ_p ≤ M with M = c_init + diameter, and φ_p = 0 only on arrival.
//
// Violations are recorded, never silently dropped; for algorithms in the
// paper's class (greedy + prefers restricted packets, d = 2, c_init = 2n)
// the test suite asserts there are none.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/observer.hpp"
#include "topology/network.hpp"

namespace hp::core {

class PotentialTracker : public sim::StepObserver {
 public:
  struct Config {
    /// Initial / reset value of the additional potential C_p.
    std::int64_t c_init = 0;
    /// Mesh dimension d used by the Property 8 thresholds.
    int d = 2;
  };

  struct NodeViolation {
    std::uint64_t step = 0;
    net::NodeId node = net::kInvalidNode;
    std::int64_t lost = 0;
    std::int64_t required = 0;
  };

  /// `net` must be the network the observed engine runs on. For the paper's
  /// 2-D setting pass d = 2 and c_init = 2n.
  PotentialTracker(const net::Network& net, const sim::Engine& engine,
                   Config config);

  void on_step(const sim::Engine& engine,
               const sim::StepRecord& record) override;

  /// Global potential after the last observed step.
  std::int64_t phi() const { return phi_; }
  /// Φ(t) for t = 0 … steps observed; phi_series()[t] is the potential at
  /// the beginning of step t.
  const std::vector<std::int64_t>& phi_series() const { return phi_series_; }

  const std::vector<NodeViolation>& property8_violations() const {
    return property8_violations_;
  }
  const std::vector<std::string>& structure_violations() const {
    return structure_violations_;
  }

  /// Smallest (lost − required) over every node and step; ≥ 0 iff
  /// Property 8 held throughout.
  std::int64_t min_slack() const { return min_slack_; }
  /// Smallest C_p observed on any in-flight packet (the 2-D analysis
  /// implies this never drops below 2 for c_init = 2n).
  std::int64_t min_c() const { return min_c_; }
  /// Smallest per-packet potential φ_p observed on any in-flight packet.
  std::int64_t min_phi() const { return min_phi_; }
  /// Largest per-packet potential observed (must stay ≤ M).
  std::int64_t max_phi() const { return max_phi_; }

 private:
  const net::Network& net_;
  Config config_;
  std::vector<std::int64_t> c_;
  std::int64_t phi_ = 0;
  std::vector<std::int64_t> phi_series_;
  std::vector<NodeViolation> property8_violations_;
  std::vector<std::string> structure_violations_;
  std::int64_t min_slack_;
  std::int64_t min_c_;
  std::int64_t min_phi_;
  std::int64_t max_phi_ = 0;
};

/// Corollary 10: Φ(t+1) ≤ Φ(t) − G(t). Returns the steps t violating it.
/// `g_series[t]` must be the number of packets in good nodes at the
/// beginning of step t.
std::vector<std::uint64_t> check_corollary10(
    const std::vector<std::int64_t>& phi_series,
    const std::vector<std::int64_t>& g_series);

/// Lemma 12: Φ(t+2) ≤ Φ(t) − F(t). Returns the steps t violating it.
/// `f_series[t]` must be the number of surface arcs at the beginning of
/// step t.
std::vector<std::uint64_t> check_lemma12(
    const std::vector<std::int64_t>& phi_series,
    const std::vector<std::int64_t>& f_series);

}  // namespace hp::core
