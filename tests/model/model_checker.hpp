// Schedule explorer for the hp::model cooperative shim.
//
// Three modes over the same Scheduler (model_sync.hpp):
//
//   check_exhaustive  iterative-deepening DFS over thread and notify-victim
//                     decisions with a preemption bound (a context switch
//                     away from a still-runnable thread consumes budget;
//                     switches at blocking/finishing points are free —
//                     empirically almost all concurrency bugs need very few
//                     preemptions). Pruned by sleep sets (a fully-explored
//                     sibling's thread stays asleep in later branches until
//                     a conflicting operation wakes it) and by a state-hash
//                     subsumption table keyed on (shared state, per-thread
//                     progress, candidate set) and valued with the largest
//                     remaining budget already explored from that state.
//   check_random      seed-replayable uniform random walks, unbounded
//                     preemptions — the deep-schedule complement to the
//                     bounded exhaustive pass.
//   replay            re-runs one recorded decision list, with the event
//                     log enabled; every failing Result carries such a
//                     list, so any violation reproduces deterministically.
//
// A Result's `decisions` plus the deterministic setup callback are the
// whole reproducer: object ids and thread ids depend only on construction
// and spawn order.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "model_sync.hpp"
#include "util/rng.hpp"

namespace hp::model {

struct Options {
  std::uint32_t preemption_bound = 2;
  bool iterative = true;      // explore bounds 0..preemption_bound in turn
  bool state_pruning = true;  // state-hash subsumption table
  std::uint64_t max_executions = 1ULL << 20;
  std::uint64_t max_ops_per_execution = 1ULL << 16;
};

struct Result {
  bool ok = true;
  bool complete = false;  // the bounded space was exhausted within caps
  std::uint64_t executions = 0;
  std::uint64_t pruned = 0;
  Violation violation;
  std::vector<Decision> decisions;  // replayable schedule of the failure
  std::uint64_t seed = 0;           // random mode only
  std::string trace;                // event log of the replayed failure

  /// One-line human summary (multi-line on failure, with the trace).
  std::string summary() const {
    if (ok) {
      return "ok: " + std::to_string(executions) + " executions (" +
             std::to_string(pruned) + " pruned), " +
             (complete ? "space exhausted" : "budget capped");
    }
    std::string s = "VIOLATION [" + violation.kind + "] " +
                    violation.message + "\n  after " +
                    std::to_string(executions) +
                    " executions\n  replay: " + format_decisions(decisions);
    if (!trace.empty()) {
      s += "\n  schedule:\n" + trace;
    }
    return s;
  }

  static std::string format_decisions(const std::vector<Decision>& ds) {
    std::string out;
    for (const Decision& d : ds) {
      if (!out.empty()) {
        out += ",";
      }
      out += std::to_string(d.index);
      if (d.add_sleep != 0) {
        out += "s" + std::to_string(d.add_sleep);
      }
    }
    return out.empty() ? "(empty)" : out;
  }
};

namespace detail {

/// DFS state shared across the executions of one preemption bound.
class Explorer {
 public:
  Explorer(std::uint32_t bound, const Options& opts)
      : bound_(bound), opts_(opts) {}

  /// Scheduler decision callback. Replays the committed prefix, then
  /// extends the path depth-first (first affordable candidate — index 0
  /// is "continue the current thread" whenever that thread is enabled).
  Decision on_choice(const ChoicePoint& cp) {
    if (depth_ < path_.size()) {
      Node& nd = path_[depth_];
      if (cp.candidates.size() != nd.num_candidates) {
        // The setup is not deterministic; exploration is meaningless.
        error_ = "candidate set changed between replays of one prefix";
        return Decision{kPruneIndex, 0};
      }
      depth_ += 1;
      if (cp.candidates[nd.chosen].preempt) {
        budget_ -= 1;
      }
      const bool thread_node = cp.kind == ChoicePoint::Kind::kThread;
      return Decision{nd.chosen, thread_node ? nd.explored_actors : 0};
    }
    if (cp.kind == ChoicePoint::Kind::kThread && opts_.state_pruning) {
      std::uint64_t actors = 0;
      for (const Candidate& c : cp.candidates) {
        actors |= 1ULL << c.actor;
      }
      const std::uint64_t key = hash_mix(cp.state_hash, actors);
      auto it = table_.find(key);
      if (it != table_.end() && it->second >= budget_) {
        return Decision{kPruneIndex, 0};  // subtree already covered
      }
      table_[key] = budget_;
    }
    Node nd;
    nd.kind = cp.kind;
    nd.num_candidates = static_cast<std::uint32_t>(cp.candidates.size());
    nd.budget_before = budget_;
    for (std::uint32_t i = 0; i < nd.num_candidates; ++i) {
      nd.preempt |= static_cast<std::uint64_t>(cp.candidates[i].preempt)
                    << i;
      nd.actors[i] = cp.candidates[i].actor;
    }
    const std::uint32_t first = first_affordable(nd, 0);
    if (first == kPruneIndex) {
      return Decision{kPruneIndex, 0};  // only preemptions left, budget 0
    }
    nd.chosen = first;
    if (((nd.preempt >> first) & 1ULL) != 0) {
      budget_ -= 1;
    }
    path_.push_back(nd);
    depth_ += 1;
    return Decision{first, 0};
  }

  void begin_execution() {
    depth_ = 0;
    budget_ = bound_;
  }

  /// Drops any stale tail (an execution can end above the previous
  /// frontier after a prune) and backtracks: marks the deepest node's
  /// branch explored and advances it to its next affordable candidate.
  /// Returns false when the whole bounded space is exhausted.
  bool advance() {
    path_.resize(depth_);
    while (!path_.empty()) {
      Node& nd = path_.back();
      nd.explored_mask |= 1ULL << nd.chosen;
      if (nd.kind == ChoicePoint::Kind::kThread) {
        nd.explored_actors |= 1ULL << nd.actors[nd.chosen];
      }
      const std::uint32_t next = first_affordable(nd, nd.chosen + 1);
      if (next != kPruneIndex) {
        nd.chosen = next;
        return true;
      }
      path_.pop_back();
    }
    return false;
  }

  /// The decision list of the execution that just ran (for Result).
  std::vector<Decision> decisions() const {
    std::vector<Decision> out;
    out.reserve(depth_);
    for (std::size_t i = 0; i < depth_; ++i) {
      const Node& nd = path_[i];
      const bool thread_node = nd.kind == ChoicePoint::Kind::kThread;
      // explored_actors is exactly the sleep mask this run applied: new
      // nodes carry 0, replayed nodes their fully-explored siblings.
      out.push_back(
          Decision{nd.chosen, thread_node ? nd.explored_actors : 0});
    }
    return out;
  }

  const std::string& error() const { return error_; }

 private:
  static constexpr std::uint32_t kPruneIndex = ~std::uint32_t{0};

  struct Node {
    ChoicePoint::Kind kind = ChoicePoint::Kind::kThread;
    std::uint32_t num_candidates = 0;
    std::uint32_t chosen = 0;
    std::uint32_t budget_before = 0;
    std::uint64_t preempt = 0;          // bit i: candidate i is a preemption
    std::uint64_t explored_mask = 0;    // candidate indexes fully explored
    std::uint64_t explored_actors = 0;  // their thread ids (sleep re-arm)
    std::array<std::uint32_t, kMaxThreads> actors{};
  };

  std::uint32_t first_affordable(const Node& nd, std::uint32_t from) const {
    for (std::uint32_t i = from; i < nd.num_candidates; ++i) {
      if (((nd.explored_mask >> i) & 1ULL) != 0) {
        continue;
      }
      if (((nd.preempt >> i) & 1ULL) != 0 && nd.budget_before == 0) {
        continue;
      }
      return i;
    }
    return kPruneIndex;
  }

  std::uint32_t bound_;
  const Options& opts_;
  std::vector<Node> path_;
  std::size_t depth_ = 0;
  std::uint32_t budget_ = 0;
  std::map<std::uint64_t, std::uint32_t> table_;
  std::string error_;
};

}  // namespace detail

/// Re-runs one recorded schedule with the event log enabled. The returned
/// Result mirrors the original failure (or comes back ok if the decisions
/// do not reproduce one — which, for a Result produced by this header,
/// indicates a nondeterministic setup).
inline Result replay(const std::function<void()>& setup,
                     const std::vector<Decision>& decisions,
                     const Options& opts = Options{}) {
  std::size_t at = 0;
  DecisionFn chooser = [&decisions, &at](const ChoicePoint& cp) {
    if (at >= decisions.size() ||
        decisions[at].index >= cp.candidates.size()) {
      return Decision{0, 0};  // off-trace: degrade to default scheduling
    }
    return decisions[at++];
  };
  Scheduler sched(chooser);
  sched.set_max_ops(opts.max_ops_per_execution);
  sched.record_events(true);
  const Scheduler::Outcome out = sched.run_execution(setup);
  Result res;
  res.executions = 1;
  res.ok = !out.violated;
  res.complete = true;
  res.violation = out.violation;
  res.decisions = decisions;
  for (const std::string& e : out.events) {
    res.trace += "    " + e + "\n";
  }
  return res;
}

/// Exhaustive bounded exploration: every schedule of `setup`'s threads up
/// to `opts.preemption_bound` preemptions (iteratively deepened from 0).
/// On a violation the Result carries the replayable decision list and the
/// replayed event trace.
inline Result check_exhaustive(const std::function<void()>& setup,
                               const Options& opts = Options{}) {
  Result res;
  const std::uint32_t first_bound =
      opts.iterative ? 0 : opts.preemption_bound;
  for (std::uint32_t bound = first_bound; bound <= opts.preemption_bound;
       ++bound) {
    detail::Explorer ex(bound, opts);
    DecisionFn chooser = [&ex](const ChoicePoint& cp) {
      return ex.on_choice(cp);
    };
    Scheduler sched(chooser);
    sched.set_max_ops(opts.max_ops_per_execution);
    for (;;) {
      if (res.executions >= opts.max_executions) {
        return res;  // ok so far but incomplete (complete stays false)
      }
      ex.begin_execution();
      const Scheduler::Outcome out = sched.run_execution(setup);
      res.executions += 1;
      if (out.pruned) {
        res.pruned += 1;
      }
      if (!ex.error().empty()) {
        res.ok = false;
        res.violation = Violation{"nondeterminism", ex.error()};
        return res;
      }
      if (out.violated) {
        res.ok = false;
        res.violation = out.violation;
        res.decisions = ex.decisions();
        res.trace = replay(setup, res.decisions, opts).trace;
        return res;
      }
      if (!ex.advance()) {
        break;  // this bound is exhausted
      }
    }
  }
  res.complete = true;
  return res;
}

/// Seed-replayable random walks: `executions` uniform schedules with
/// unbounded preemptions. A failure records both the seed and the exact
/// decision list (the list alone replays it).
inline Result check_random(const std::function<void()>& setup,
                           std::uint64_t seed, std::uint64_t executions,
                           const Options& opts = Options{}) {
  Result res;
  res.seed = seed;
  hp::Rng rng(seed);
  std::vector<Decision> current;
  DecisionFn chooser = [&rng, &current](const ChoicePoint& cp) {
    const std::uint32_t n =
        static_cast<std::uint32_t>(cp.candidates.size());
    const Decision d{static_cast<std::uint32_t>(rng.uniform(n)), 0};
    current.push_back(d);
    return d;
  };
  Scheduler sched(chooser);
  sched.set_max_ops(opts.max_ops_per_execution);
  for (std::uint64_t i = 0; i < executions; ++i) {
    current.clear();
    const Scheduler::Outcome out = sched.run_execution(setup);
    res.executions += 1;
    if (out.violated) {
      res.ok = false;
      res.violation = out.violation;
      res.decisions = current;
      res.trace = replay(setup, res.decisions, opts).trace;
      return res;
    }
  }
  res.complete = true;
  return res;
}

}  // namespace hp::model
