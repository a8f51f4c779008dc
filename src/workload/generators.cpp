#include "workload/generators.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace hp::workload {

namespace {

std::vector<int> degree_capacity(const net::Network& net) {
  std::vector<int> cap(net.num_nodes());
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(net.num_nodes()); ++v) {
    cap[static_cast<std::size_t>(v)] = net.degree(v);
  }
  return cap;
}

int reverse_bits(int x, int bits) {
  int out = 0;
  for (int i = 0; i < bits; ++i) {
    out = (out << 1) | ((x >> i) & 1);
  }
  return out;
}

}  // namespace

Problem random_many_to_many(const net::Network& net, std::size_t k, Rng& rng) {
  std::vector<int> cap = degree_capacity(net);
  const std::size_t total_cap =
      static_cast<std::size_t>(std::accumulate(cap.begin(), cap.end(), 0));
  HP_REQUIRE(k <= total_cap,
             "more packets than total origin capacity (Σ out-degrees)");
  Problem problem;
  problem.name = "random-m2m-k" + std::to_string(k);
  const auto n = static_cast<std::uint64_t>(net.num_nodes());
  while (problem.packets.size() < k) {
    const auto src = static_cast<net::NodeId>(rng.uniform(n));
    if (cap[static_cast<std::size_t>(src)] == 0) continue;
    --cap[static_cast<std::size_t>(src)];
    const auto dst = static_cast<net::NodeId>(rng.uniform(n));
    problem.packets.push_back({src, dst});
  }
  return problem;
}

Problem random_permutation(const net::Network& net, Rng& rng) {
  const auto n = static_cast<net::NodeId>(net.num_nodes());
  std::vector<net::NodeId> dest(static_cast<std::size_t>(n));
  std::iota(dest.begin(), dest.end(), 0);
  rng.shuffle(std::span<net::NodeId>(dest));
  Problem problem;
  problem.name = "random-permutation";
  for (net::NodeId v = 0; v < n; ++v) {
    problem.packets.push_back({v, dest[static_cast<std::size_t>(v)]});
  }
  return problem;
}

Problem transpose(const net::Mesh& mesh) {
  HP_REQUIRE(mesh.dim() == 2, "transpose is a 2-D permutation");
  Problem problem;
  problem.name = "transpose";
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(mesh.num_nodes());
       ++v) {
    net::Coord c = mesh.coords(v);
    net::Coord t;
    t.push_back(c[1]);
    t.push_back(c[0]);
    problem.packets.push_back({v, mesh.node_at(t)});
  }
  return problem;
}

Problem bit_reversal(const net::Mesh& mesh) {
  HP_REQUIRE(mesh.dim() == 2, "bit_reversal is a 2-D permutation");
  const int n = mesh.side();
  HP_REQUIRE((n & (n - 1)) == 0, "bit_reversal needs a power-of-two side");
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  Problem problem;
  problem.name = "bit-reversal";
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(mesh.num_nodes());
       ++v) {
    net::Coord c = mesh.coords(v);
    net::Coord r;
    r.push_back(reverse_bits(c[0], bits));
    r.push_back(reverse_bits(c[1], bits));
    problem.packets.push_back({v, mesh.node_at(r)});
  }
  return problem;
}

Problem inversion(const net::Mesh& mesh) {
  Problem problem;
  problem.name = "inversion";
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(mesh.num_nodes());
       ++v) {
    net::Coord c = mesh.coords(v);
    net::Coord m;
    for (int a = 0; a < mesh.dim(); ++a) {
      m.push_back(mesh.side() - 1 - c[static_cast<std::size_t>(a)]);
    }
    problem.packets.push_back({v, mesh.node_at(m)});
  }
  return problem;
}

Problem single_target(const net::Network& net, std::size_t k,
                      net::NodeId target, Rng& rng) {
  std::vector<int> cap = degree_capacity(net);
  Problem problem;
  problem.name = "single-target-k" + std::to_string(k);
  const auto n = static_cast<std::uint64_t>(net.num_nodes());
  while (problem.packets.size() < k) {
    const auto src = static_cast<net::NodeId>(rng.uniform(n));
    if (cap[static_cast<std::size_t>(src)] == 0) continue;
    --cap[static_cast<std::size_t>(src)];
    problem.packets.push_back({src, target});
  }
  return problem;
}

Problem hotspot(const net::Network& net, std::size_t k, int hotspots,
                Rng& rng) {
  HP_REQUIRE(hotspots >= 1, "need at least one hotspot");
  const auto n = static_cast<std::uint64_t>(net.num_nodes());
  std::vector<net::NodeId> spots;
  for (int i = 0; i < hotspots; ++i) {
    spots.push_back(static_cast<net::NodeId>(rng.uniform(n)));
  }
  std::vector<int> cap = degree_capacity(net);
  Problem problem;
  problem.name = "hotspot-" + std::to_string(hotspots);
  while (problem.packets.size() < k) {
    const auto src = static_cast<net::NodeId>(rng.uniform(n));
    if (cap[static_cast<std::size_t>(src)] == 0) continue;
    --cap[static_cast<std::size_t>(src)];
    problem.packets.push_back(
        {src, spots[rng.uniform(spots.size())]});
  }
  return problem;
}

Problem corner_to_corner(const net::Mesh& mesh, Rng& rng) {
  HP_REQUIRE(mesh.dim() == 2, "corner_to_corner is a 2-D workload");
  const int n = mesh.side();
  const int q = n / 2;
  HP_REQUIRE(q >= 1, "mesh too small for quadrants");
  Problem problem;
  problem.name = "corner-to-corner";
  for (int x = 0; x < q; ++x) {
    for (int y = 0; y < q; ++y) {
      net::Coord src;
      src.push_back(x);
      src.push_back(y);
      net::Coord dst;
      dst.push_back(n - q + static_cast<int>(rng.uniform(
                                static_cast<std::uint64_t>(q))));
      dst.push_back(n - q + static_cast<int>(rng.uniform(
                                static_cast<std::uint64_t>(q))));
      problem.packets.push_back({mesh.node_at(src), mesh.node_at(dst)});
    }
  }
  return problem;
}

Problem saturated_random(const net::Network& net, int per_node, Rng& rng) {
  HP_REQUIRE(per_node >= 1, "per_node must be positive");
  Problem problem;
  problem.name = "saturated-" + std::to_string(per_node);
  const auto n = static_cast<std::uint64_t>(net.num_nodes());
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(net.num_nodes()); ++v) {
    const int count = std::min(per_node, net.degree(v));
    for (int i = 0; i < count; ++i) {
      problem.packets.push_back(
          {v, static_cast<net::NodeId>(rng.uniform(n))});
    }
  }
  return problem;
}

}  // namespace hp::workload
