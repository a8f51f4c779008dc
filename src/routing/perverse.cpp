#include "routing/perverse.hpp"

#include <bit>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace hp::routing {

namespace {

PriorityGreedyPolicy::Options perverse_options() {
  PriorityGreedyPolicy::Options options;
  options.deflect = DeflectRule::kReverseEntry;
  options.randomize_ties = false;
  return options;
}

}  // namespace

PerverseGreedyPolicy::PerverseGreedyPolicy()
    : PriorityGreedyPolicy(perverse_options()) {}

int PerverseGreedyPolicy::rank(const sim::NodeContext& ctx,
                               const sim::PacketView& packet) const {
  // Advance the farthest packets, starving the ones about to arrive.
  return -ctx.net.distance(ctx.node, packet.dst);
}

std::string PerverseGreedyPolicy::name() const { return "perverse-greedy"; }

void BounceBackPolicy::route(const sim::NodeContext& ctx,
                             std::span<const sim::PacketView> packets,
                             std::span<net::Dir> out) {
  std::uint32_t used = 0;
  // First pass: bounce every packet back through its entry arc if free.
  for (std::size_t i = 0; i < packets.size(); ++i) {
    out[i] = net::kInvalidDir;
    if (packets[i].entry_dir == net::kInvalidDir) continue;
    const net::Dir back = ctx.net.reverse_dir(packets[i].entry_dir);
    if (((ctx.arcs & ~used) >> back) & 1u) {
      out[i] = back;
      used |= std::uint32_t{1} << back;
    }
  }
  // Remaining packets (e.g. just injected): first free arc.
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (out[i] != net::kInvalidDir) continue;
    const std::uint32_t free = ctx.arcs & ~used;
    HP_CHECK(free != 0, "no free arc for resident packet");
    out[i] = static_cast<net::Dir>(std::countr_zero(free));
    used |= std::uint32_t{1} << out[i];
  }
}

LivelockSearchResult livelock_search(const net::Network& net,
                                     sim::RoutingPolicy& policy,
                                     std::size_t num_packets,
                                     std::size_t instances,
                                     std::uint64_t max_steps,
                                     std::uint64_t seed) {
  HP_REQUIRE(policy.deterministic(),
             "livelock proofs require a deterministic policy");
  LivelockSearchResult result;
  Rng rng(seed);
  const auto num_nodes = static_cast<std::uint64_t>(net.num_nodes());

  for (std::size_t trial = 0; trial < instances; ++trial) {
    workload::Problem problem;
    problem.name = "livelock-search-" + std::to_string(trial);
    std::vector<int> capacity(net.num_nodes());
    for (net::NodeId v = 0; v < static_cast<net::NodeId>(net.num_nodes());
         ++v) {
      capacity[static_cast<std::size_t>(v)] = net.degree(v);
    }
    while (problem.packets.size() < num_packets) {
      const auto src = static_cast<net::NodeId>(rng.uniform(num_nodes));
      if (capacity[static_cast<std::size_t>(src)] == 0) continue;
      --capacity[static_cast<std::size_t>(src)];
      const auto dst = static_cast<net::NodeId>(rng.uniform(num_nodes));
      problem.packets.push_back({src, dst});
    }

    sim::EngineConfig config;
    config.max_steps = max_steps;
    config.detect_livelock = true;
    sim::Engine engine(net, problem, policy, config);
    const sim::RunResult run = engine.run();
    ++result.instances_tried;
    if (run.livelocked) {
      ++result.livelocks_found;
      if (!result.example) result.example = problem;
    }
  }
  return result;
}

}  // namespace hp::routing
