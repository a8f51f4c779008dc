// A deliberately naive serial engine for the synchronous hot-potato model
// of the paper's §2, used as a test oracle for sim::Engine.
//
// It follows the model rules directly: each step every node collects its
// residents in a std::vector sorted by packet id, computes each resident's
// good directions from Definition 5 (a direction is good iff it leads to a
// node strictly closer to the destination), hands them to the routing
// policy, checks that the policy gave every resident a distinct existing
// arc, and moves every packet at once. There are no struct-of-arrays
// columns, no shards, no worker threads and no cached masks.
//
// Two engine conventions are copied on purpose, because the pinned digests
// hash them: the order in which nodes appear in a step record (first seen
// in flight-slot order, grouped by occupancy owner, injected nodes last)
// and the swap-remove slot order that drives it. Routing decisions do not
// depend on either.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/observer.hpp"
#include "sim/packet.hpp"
#include "sim/policy.hpp"
#include "topology/network.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace hp::test {

class ReferenceEngine {
 public:
  struct Step {
    std::uint64_t step = 0;
    std::vector<sim::Assignment> assignments;
    std::vector<sim::Packet> arrivals;
    std::size_t in_flight_after = 0;
  };

  ReferenceEngine(const net::Network& net, const workload::Problem& problem,
                  sim::RoutingPolicy& policy, std::uint64_t seed)
      : net_(net), policy_(policy), seed_(seed) {
    for (const auto& spec : problem.packets) {
      sim::Packet p = fresh_packet(spec.src, spec.dst);
      if (p.src != p.dst) enter(p);  // src == dst: delivered at once
    }
  }

  /// Bernoulli arrivals at `rate`, drawn exactly as sim::BernoulliInjector
  /// (src/sim/injection.cpp) draws them for the same seed.
  void set_injection(double rate, std::uint64_t seed) {
    inject_ = true;
    rate_ = rate;
    inject_rng_ = Rng(seed);
  }

  std::uint64_t now() const { return now_; }
  std::uint64_t refused() const { return refused_; }

  /// One synchronous step. False (and nothing done) when no packet is in
  /// flight and no arrivals are configured.
  bool step(Step& out) {
    if (flight_.empty() && !inject_) return false;
    const std::size_t n = net_.num_nodes();
    std::vector<std::vector<sim::PacketId>> residents(n);
    std::vector<net::NodeId> order;
    for (const sim::Packet& p : flight_) {
      auto& here = residents[static_cast<std::size_t>(p.pos)];
      if (here.empty()) order.push_back(p.pos);
      here.push_back(p.id);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](net::NodeId a, net::NodeId b) {
                       return owner(a) < owner(b);
                     });
    if (inject_) inject(residents, order);

    out = Step{};
    out.step = now_;
    for (const net::NodeId node : order) {
      auto& ids = residents[static_cast<std::size_t>(node)];
      std::sort(ids.begin(), ids.end());
      route(node, ids, out.assignments);
    }

    // Every packet moves at once; arrivals leave flight in assignment
    // order by swap-remove, as the engine's FlightTable does.
    std::vector<sim::PacketId> arrived;
    for (const sim::Assignment& a : out.assignments) {
      sim::Packet& p = find(a.pkt);
      const bool advanced = a.advances();
      p.pos = net_.neighbor(a.node, a.out);
      p.last_move_dir = a.out;
      p.prev_advanced = advanced;
      p.prev_num_good = a.num_good();
      if (!advanced) ++p.deflections;
      if (p.pos == p.dst) arrived.push_back(p.id);
    }
    for (const sim::PacketId id : arrived) {
      const std::size_t i = slot_.at(id);
      out.arrivals.push_back(flight_[i]);
      out.arrivals.back().arrived_at = now_ + 1;
      slot_.erase(id);
      if (i + 1 != flight_.size()) {
        flight_[i] = flight_.back();
        slot_[flight_[i].id] = i;
      }
      flight_.pop_back();
    }
    ++now_;
    out.in_flight_after = flight_.size();
    return true;
  }

 private:
  /// Copy of Engine::owner_of over occupancy_shard_count's shard count
  /// (src/sim/engine.cpp): one owner per 256 nodes, at most 32.
  std::size_t owner(net::NodeId node) const {
    const std::size_t n = net_.num_nodes();
    const std::size_t shards = std::clamp<std::size_t>(n / 256, 1, 32);
    return static_cast<std::size_t>(node) * shards / n;
  }

  /// Copy of node_stream_seed (src/sim/engine.cpp): the seed of the
  /// policy's random stream at (seed, step, node).
  static std::uint64_t node_stream_seed(std::uint64_t seed,
                                        std::uint64_t step,
                                        net::NodeId node) {
    std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ULL * (step + 1));
    const std::uint64_t a = splitmix64(s);
    s ^= a + 0xbf58476d1ce4e5b9ULL *
                 (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) +
                  1);
    return splitmix64(s);
  }

  sim::Packet fresh_packet(net::NodeId src, net::NodeId dst) {
    HP_CHECK(next_id_ <= 0xffffffffULL, "reference model ran out of ids");
    sim::Packet p;
    p.id = static_cast<sim::PacketId>(next_id_++);
    p.src = src;
    p.dst = dst;
    p.pos = src;
    p.injected_at = now_;
    p.initial_distance = net_.distance(src, dst);
    return p;
  }

  void enter(const sim::Packet& p) {
    slot_[p.id] = flight_.size();
    flight_.push_back(p);
  }

  sim::Packet& find(sim::PacketId id) { return flight_[slot_.at(id)]; }

  /// Copy of BernoulliInjector::inject's draw order (src/sim/injection.cpp)
  /// against the capacity rule: a node admits a packet only while it holds
  /// fewer packets than its out-degree. A refused packet takes no id.
  void inject(std::vector<std::vector<sim::PacketId>>& residents,
              std::vector<net::NodeId>& order) {
    const auto n = static_cast<net::NodeId>(net_.num_nodes());
    for (net::NodeId v = 0; v < n; ++v) {
      if (!inject_rng_.bernoulli(rate_)) continue;
      net::NodeId dst = v;
      while (dst == v) {
        dst = static_cast<net::NodeId>(inject_rng_.uniform(net_.num_nodes()));
      }
      auto& here = residents[static_cast<std::size_t>(v)];
      if (static_cast<int>(here.size()) >= std::popcount(arcs(v))) {
        ++refused_;
        continue;
      }
      if (here.empty()) order.push_back(v);
      const sim::Packet p = fresh_packet(v, dst);
      here.push_back(p.id);
      enter(p);
    }
  }

  std::uint32_t arcs(net::NodeId node) const {
    std::uint32_t mask = 0;
    for (net::Dir d = 0; d < net_.num_dirs(); ++d) {
      if (net_.neighbor(node, d) != net::kInvalidNode) mask |= 1u << d;
    }
    return mask;
  }

  /// Definition 5: direction d is good iff its neighbor is strictly closer
  /// to `dst`.
  std::uint32_t good_dirs(net::NodeId node, net::NodeId dst) const {
    std::uint32_t mask = 0;
    const int here = net_.distance(node, dst);
    for (net::Dir d = 0; d < net_.num_dirs(); ++d) {
      const net::NodeId next = net_.neighbor(node, d);
      if (next != net::kInvalidNode && net_.distance(next, dst) < here) {
        mask |= 1u << d;
      }
    }
    return mask;
  }

  void route(net::NodeId node, const std::vector<sim::PacketId>& ids,
             std::vector<sim::Assignment>& out) {
    const std::uint32_t node_arcs = arcs(node);
    HP_CHECK(static_cast<int>(ids.size()) <= std::popcount(node_arcs),
             "reference model: more packets at a node than its degree");
    std::vector<sim::PacketView> views;
    for (const sim::PacketId id : ids) {
      const sim::Packet& p = find(id);
      sim::PacketView v;
      v.id = id;
      v.dst = p.dst;
      v.entry_dir = p.last_move_dir;
      v.good_mask = good_dirs(node, p.dst);
      v.prev_advanced = p.prev_advanced;
      v.prev_num_good = p.prev_num_good;
      views.push_back(v);
    }
    Rng rng(node_stream_seed(seed_, now_, node));
    const sim::NodeContext ctx{net_, node, now_, node_arcs, rng};
    std::vector<net::Dir> dirs(ids.size(), net::kInvalidDir);
    policy_.route(ctx, views, dirs);

    std::uint32_t used = 0;
    for (std::size_t i = 0; i < views.size(); ++i) {
      const net::Dir d = dirs[i];
      HP_CHECK(d >= 0 && d < net_.num_dirs() && ((node_arcs >> d) & 1u) != 0,
               "reference model: policy chose a missing arc");
      HP_CHECK(((used >> d) & 1u) == 0,
               "reference model: policy put two packets on one arc");
      used |= 1u << d;
      out.push_back(sim::Assignment{
          views[i].id, node, views[i].good_mask, d, views[i].prev_advanced,
          static_cast<std::int8_t>(views[i].prev_num_good)});
    }
  }

  const net::Network& net_;
  sim::RoutingPolicy& policy_;
  std::uint64_t seed_;
  std::vector<sim::Packet> flight_;  // in-flight packets, engine slot order
  std::map<sim::PacketId, std::size_t> slot_;  // id -> index into flight_
  std::uint64_t next_id_ = 0;
  std::uint64_t now_ = 0;
  bool inject_ = false;
  double rate_ = 0.0;
  Rng inject_rng_{0};
  std::uint64_t refused_ = 0;
};

}  // namespace hp::test
