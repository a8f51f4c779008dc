// Shared helpers for the hotpotato test suite.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkers.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/engine.hpp"
#include "stats/recorder.hpp"
#include "topology/mesh.hpp"
#include "workload/workload.hpp"

namespace hp::test {

inline net::Coord xy(int x, int y) {
  net::Coord c;
  c.push_back(x);
  c.push_back(y);
  return c;
}

inline workload::Problem make_problem(
    std::vector<workload::PacketSpec> specs) {
  workload::Problem p;
  p.name = "test";
  p.packets = std::move(specs);
  return p;
}

/// Directed arc count Σ_v degree(v): the origin capacity of a network.
inline std::size_t arc_count(const net::Network& net) {
  std::size_t arcs = 0;
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(net.num_nodes()); ++v) {
    arcs += static_cast<std::size_t>(net.degree(v));
  }
  return arcs;
}

/// The recorder's per-step rows, read back from its CSV export.
inline std::vector<stats::RunRecorder::StepRow> recorded_rows(
    const stats::RunRecorder& recorder) {
  std::ostringstream csv;
  recorder.write_csv(csv);
  std::istringstream in(csv.str());
  std::string line;
  std::getline(in, line);  // header
  std::vector<stats::RunRecorder::StepRow> rows;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    stats::RunRecorder::StepRow r;
    char comma = 0;
    fields >> r.step >> comma >> r.in_flight >> comma >> r.advanced >>
        comma >> r.deflected >> comma >> r.arrived >> comma >>
        r.total_distance;
    rows.push_back(r);
  }
  return rows;
}

/// Lowest direction in a nonempty direction mask.
inline net::Dir lowest_dir(std::uint32_t mask) {
  return static_cast<net::Dir>(std::countr_zero(mask));
}

/// A deliberately simple baseline policy for engine-mechanics tests: each
/// packet takes its first good arc if free, else the first free arc.
/// (Equivalent to sequential greedy in arrival order.)
class FirstGoodPolicy : public sim::RoutingPolicy {
 public:
  std::string name() const override { return "first-good"; }
  bool deterministic() const override { return true; }

  void route(const sim::NodeContext& ctx,
             std::span<const sim::PacketView> packets,
             std::span<net::Dir> out) override {
    std::uint32_t used = 0;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      out[i] = net::kInvalidDir;
      const std::uint32_t open = packets[i].good_mask & ~used;
      if (open == 0) continue;
      out[i] = lowest_dir(open);
      used |= std::uint32_t{1} << out[i];
    }
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if (out[i] != net::kInvalidDir) continue;
      const std::uint32_t free = ctx.arcs & ~used;
      if (free == 0) continue;
      out[i] = lowest_dir(free);
      used |= std::uint32_t{1} << out[i];
    }
  }
};

/// Runs `problem` on `net` under `policy` with the Definition 6 checker
/// attached; returns the result after asserting the greedy property held.
struct CheckedRun {
  sim::RunResult result;
  std::vector<std::string> greedy_violations;
  std::vector<std::string> preference_violations;
};

inline CheckedRun run_checked(const net::Network& network,
                              const workload::Problem& problem,
                              sim::RoutingPolicy& policy,
                              sim::EngineConfig config = {}) {
  sim::Engine engine(network, problem, policy, config);
  core::GreedyChecker greedy;
  core::RestrictedPreferenceChecker preference;
  engine.add_observer(&greedy);
  engine.add_observer(&preference);
  CheckedRun out;
  out.result = engine.run();
  out.greedy_violations = greedy.violations();
  out.preference_violations = preference.violations();
  return out;
}

}  // namespace hp::test
