#include "core/checkers.hpp"

#include <sstream>

#include "sim/engine.hpp"

namespace hp::core {

namespace {

/// Iterates assignments grouped by node; calls fn(begin, end) per group.
template <typename Fn>
void for_each_node_group(std::span<const sim::Assignment> as, Fn&& fn) {
  std::size_t begin = 0;
  while (begin < as.size()) {
    std::size_t end = begin;
    while (end < as.size() && as[end].node == as[begin].node) ++end;
    fn(begin, end);
    begin = end;
  }
}

}  // namespace

void GreedyChecker::on_step(const sim::Engine& /*engine*/,
                            const sim::StepRecord& record) {
  ++steps_;
  const auto& as = record.assignments;
  for_each_node_group(as, [&](std::size_t begin, std::size_t end) {
    // Which directions are used by advancing packets at this node?
    std::uint32_t advancing_mask = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (as[i].advances()) advancing_mask |= std::uint32_t{1} << as[i].out;
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (as[i].advances()) continue;
      if ((as[i].good_mask & ~advancing_mask) != 0) {
        std::ostringstream os;
        os << "step " << record.step << " node " << as[i].node << ": packet "
           << as[i].pkt
           << " was deflected while a good arc was free or used by a "
              "non-advancing packet (Definition 6 violated)";
        violations_.push_back(os.str());
      }
    }
  });
}

void RestrictedPreferenceChecker::on_step(const sim::Engine& /*engine*/,
                                          const sim::StepRecord& record) {
  const auto& as = record.assignments;
  for_each_node_group(as, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (as[i].advances() || as[i].num_good() != 1) continue;
      // Find who is using this restricted packet's single good arc.
      bool ok = false;
      for (std::size_t j = begin; j < end; ++j) {
        if (j == i || !as[j].advances()) continue;
        if ((as[i].good_mask >> as[j].out) & 1u) {
          ok = (as[j].num_good() == 1);
          break;
        }
      }
      if (!ok) {
        std::ostringstream os;
        os << "step " << record.step << " node " << as[i].node
           << ": restricted packet " << as[i].pkt
           << " deflected by a nonrestricted packet (Definition 18 violated)";
        violations_.push_back(os.str());
      }
    }
  });
}

void RestrictedCensus::on_step(const sim::Engine& /*engine*/,
                               const sim::StepRecord& record) {
  StepCounts counts;
  counts.step = record.step;
  for (const sim::Assignment& a : record.assignments) {
    const auto num_good = static_cast<std::size_t>(a.num_good());
    if (num_good >= good_hist_.size()) good_hist_.resize(num_good + 1, 0);
    ++good_hist_[num_good];
    if (num_good == 1) {
      if (a.was_type_a()) {
        ++counts.type_a;
      } else {
        ++counts.type_b;
      }
    } else {
      ++counts.unrestricted;
    }
    if (a.advances()) {
      ++counts.advancing;
    } else {
      ++counts.deflected;
    }
  }
  series_.push_back(counts);
}

}  // namespace hp::core
