#include "core/potential.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace hp::core {

namespace {

/// True iff, after this step, the packet is a restricted packet of Type A
/// (§4.1): it was restricted (one good direction) during the step and
/// advanced. Such a packet is still restricted at its new node unless it
/// arrived — advancing along the single unaligned axis preserves alignment.
bool type_a_after(const sim::Assignment& a) {
  return a.advances() && a.num_good() == 1;
}

}  // namespace

PotentialTracker::PotentialTracker(const net::Network& net,
                                   const sim::Engine& engine, Config config)
    : net_(net),
      config_(config),
      min_slack_(std::numeric_limits<std::int64_t>::max()),
      min_c_(std::numeric_limits<std::int64_t>::max()),
      min_phi_(std::numeric_limits<std::int64_t>::max()) {
  HP_REQUIRE(config_.c_init > 0, "c_init must be positive");
  HP_REQUIRE(config_.d >= 1, "dimension must be positive");
  HP_REQUIRE(engine.now() == 0,
             "PotentialTracker must be attached before the first step");
  c_.assign(engine.num_packets(), config_.c_init);
  for (const sim::Packet& p : engine.archive()) {
    // Delivered at injection (src == dst): zero potential from the start.
    c_[static_cast<std::size_t>(p.id)] = 0;
  }
  const sim::FlightTable& flight = engine.flight();
  for (sim::FlightTable::Slot s = 0; s < flight.end_slot(); ++s) {
    phi_ += net_.distance(flight.pos(s), flight.dst(s)) + config_.c_init;
  }
  phi_series_.push_back(phi_);
}

void PotentialTracker::on_step(const sim::Engine& engine,
                               const sim::StepRecord& record) {
  const auto& as = record.assignments;
  const std::int64_t d = config_.d;
  const std::int64_t max_per_packet =
      config_.c_init + static_cast<std::int64_t>(net_.diameter());

  std::size_t group_begin = 0;
  while (group_begin < as.size()) {
    std::size_t group_end = group_begin;
    while (group_end < as.size() &&
           as[group_end].node == as[group_begin].node) {
      ++group_end;
    }
    const net::NodeId node = as[group_begin].node;
    const auto num = static_cast<std::int64_t>(group_end - group_begin);

    std::int64_t before = 0;
    std::int64_t after = 0;
    InlineVector<std::int64_t, 2 * net::kMaxDim> new_c;

    for (std::size_t i = group_begin; i < group_end; ++i) {
      const sim::Assignment& a = as[i];
      HP_CHECK(static_cast<std::size_t>(a.pkt) < c_.size(),
               "packet injected after the tracker was attached — the "
               "potential analysis covers batch problems only");
      const sim::Packet& p = engine.packet(a.pkt);
      const std::int64_t c_old = c_[static_cast<std::size_t>(a.pkt)];
      before += net_.distance(a.node, p.dst) + c_old;

      std::int64_t c_next;
      if (p.arrived()) {
        c_next = 0;  // rule 4
      } else if (type_a_after(a)) {
        // Rule 3: find the Type A packet p deflected, if any. "p deflected
        // q" means q was deflected and p advanced through an arc good for q
        // (Definition 5ff); only co-located packets qualify.
        int victims = 0;
        std::int64_t victim_c = 0;
        for (std::size_t j = group_begin; j < group_end; ++j) {
          const sim::Assignment& q = as[j];
          if (j == i || q.advances() || !q.was_type_a()) continue;
          if ((q.good_mask >> a.out) & 1u) {
            ++victims;
            victim_c = c_[static_cast<std::size_t>(q.pkt)];
          }
        }
        if (victims == 0) {
          c_next = c_old - 2;  // rule 3(a)
        } else {
          c_next = victim_c - 2;  // rule 3(b): switch loads
          if (victims > 1) {
            std::ostringstream os;
            os << "step " << record.step << " node " << node
               << ": advancing restricted packet " << a.pkt << " deflected "
               << victims << " Type A packets (§4.1 property 1 violated)";
            structure_violations_.push_back(os.str());
          }
          if (a.was_type_a()) {
            std::ostringstream os;
            os << "step " << record.step << " node " << node << ": packet "
               << a.pkt
               << " of Type A deflected a Type A packet (§4.1 property 2 "
                  "violated)";
            structure_violations_.push_back(os.str());
          }
        }
      } else {
        c_next = config_.c_init;  // rule 2
      }
      new_c.push_back(c_next);

      const std::int64_t phi_p =
          p.arrived() ? 0 : net_.distance(p.pos, p.dst) + c_next;
      after += phi_p;
      if (!p.arrived()) {
        min_c_ = std::min(min_c_, c_next);
        min_phi_ = std::min(min_phi_, phi_p);
        if (phi_p <= 0) {
          std::ostringstream os;
          os << "step " << record.step << ": packet " << a.pkt
             << " has nonpositive potential " << phi_p << " before arrival";
          structure_violations_.push_back(os.str());
        }
      }
      max_phi_ = std::max(max_phi_, phi_p);
      if (phi_p > max_per_packet) {
        std::ostringstream os;
        os << "step " << record.step << ": packet " << a.pkt << " potential "
           << phi_p << " exceeds M = " << max_per_packet;
        structure_violations_.push_back(os.str());
      }
    }

    // Commit the group's new C values (rule 3(b) reads pre-step values of
    // co-located packets, so writes must not interleave with reads).
    for (std::size_t i = group_begin; i < group_end; ++i) {
      c_[static_cast<std::size_t>(as[i].pkt)] = new_c[i - group_begin];
    }

    // Property 8 (and Lemma 19 at d = 2).
    const std::int64_t lost = before - after;
    const std::int64_t required = num <= d ? num : 2 * d - num;
    min_slack_ = std::min(min_slack_, lost - required);
    if (lost < required) {
      property8_violations_.push_back(
          NodeViolation{record.step, node, lost, required});
    }
    phi_ -= lost;

    group_begin = group_end;
  }

  phi_series_.push_back(phi_);
}

std::vector<std::uint64_t> check_corollary10(
    const std::vector<std::int64_t>& phi_series,
    const std::vector<std::int64_t>& g_series) {
  std::vector<std::uint64_t> bad;
  for (std::size_t t = 0; t < g_series.size(); ++t) {
    if (t + 1 >= phi_series.size()) break;
    if (phi_series[t + 1] > phi_series[t] - g_series[t]) {
      bad.push_back(static_cast<std::uint64_t>(t));
    }
  }
  return bad;
}

std::vector<std::uint64_t> check_lemma12(
    const std::vector<std::int64_t>& phi_series,
    const std::vector<std::int64_t>& f_series) {
  std::vector<std::uint64_t> bad;
  HP_REQUIRE(!phi_series.empty(), "empty potential series");
  for (std::size_t t = 0; t < f_series.size(); ++t) {
    // Past the end of the run the potential stays at its final value
    // (zero for completed runs), so clamp the two-step lookahead.
    const std::int64_t phi_t2 =
        (t + 2 < phi_series.size()) ? phi_series[t + 2] : phi_series.back();
    if (phi_t2 > phi_series[t] - f_series[t]) {
      bad.push_back(static_cast<std::uint64_t>(t));
    }
  }
  return bad;
}

}  // namespace hp::core
