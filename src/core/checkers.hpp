// Runtime verification of the paper's algorithm-class definitions.
//
// The experiments do not *trust* a policy's claim to be greedy or to prefer
// restricted packets — these observers re-derive the definitions from each
// step's routing decisions and record every violation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/observer.hpp"

namespace hp::core {

/// Definition 6: an algorithm is greedy if, whenever a packet p is
/// deflected, every good arc of p is used by another *advancing* packet.
class GreedyChecker : public sim::StepObserver {
 public:
  void on_step(const sim::Engine& engine,
               const sim::StepRecord& record) override;

  const std::vector<std::string>& violations() const { return violations_; }
  std::uint64_t steps_checked() const { return steps_; }

 private:
  std::vector<std::string> violations_;
  std::uint64_t steps_ = 0;
};

/// Definition 18: the algorithm prefers restricted packets — a
/// nonrestricted packet never deflects a restricted one. Equivalently,
/// when a restricted packet is deflected, the packet advancing through its
/// single good arc is itself restricted.
class RestrictedPreferenceChecker : public sim::StepObserver {
 public:
  void on_step(const sim::Engine& engine,
               const sim::StepRecord& record) override;

  const std::vector<std::string>& violations() const { return violations_; }

 private:
  std::vector<std::string> violations_;
};

/// Census of packet classes over time: how many packets are restricted of
/// Type A, restricted of Type B, or unrestricted at each step (the
/// taxonomy of §4.1, Figure 5), plus a histogram of good-direction counts.
class RestrictedCensus : public sim::StepObserver {
 public:
  struct StepCounts {
    std::uint64_t step = 0;
    std::int64_t type_a = 0;
    std::int64_t type_b = 0;
    std::int64_t unrestricted = 0;
    std::int64_t advancing = 0;
    std::int64_t deflected = 0;
  };

  void on_step(const sim::Engine& engine,
               const sim::StepRecord& record) override;

  const std::vector<StepCounts>& series() const { return series_; }
  /// Total packets observed with each good-direction count (index =
  /// number of good directions).
  const std::vector<std::uint64_t>& good_dir_histogram() const {
    return good_hist_;
  }

 private:
  std::vector<StepCounts> series_;
  std::vector<std::uint64_t> good_hist_;
};

}  // namespace hp::core
