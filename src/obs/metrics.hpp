// MetricsRegistry: named counters, gauges and histogram-backed
// distributions for watching long runs — the structured replacement for
// ad-hoc CSV dumps.
//
// Determinism contract: a registry snapshot is a pure function of the
// metric values. Entries are stored and exported in name order (std::map,
// never an unordered container) and numbers are formatted through the
// locale-independent helpers in obs/json.hpp, so two runs that compute the
// same values emit byte-identical JSON/CSV — the determinism tests hold
// the engine's observers to exactly that.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "util/stats.hpp"

namespace hp::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous measurement.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Sample distribution: streaming summary statistics plus a fixed-width
/// util::Histogram over [lo, hi). Out-of-range samples clamp to the edge
/// bins (documented on hp::Histogram), so the summary stats — not the
/// bins — carry the true min/max.
class Distribution {
 public:
  Distribution(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), histogram_(lo, hi, bins) {}

  void add(double x) {
    stat_.add(x);
    histogram_.add(x);
  }

  const RunningStat& stat() const { return stat_; }
  const Histogram& histogram() const { return histogram_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
  RunningStat stat_;
  Histogram histogram_;
};

/// Registry of named metrics. find-or-create accessors return references
/// that stay valid for the registry's lifetime (std::map nodes are
/// stable), so hot-path users resolve each name once and keep the
/// reference.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// The (lo, hi, bins) shape is fixed by the first call for a name;
  /// re-requesting the same name with a different shape throws
  /// hp::CheckError (a silent shape change would corrupt the series).
  Distribution& distribution(const std::string& name, double lo, double hi,
                             std::size_t bins);

  /// Read-only lookups; nullptr when the name was never registered.
  const Distribution* find_distribution(const std::string& name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && distributions_.empty();
  }
  std::size_t size() const {
    return counters_.size() + gauges_.size() + distributions_.size();
  }

  /// One JSON object (schema "hp-metrics-v1"): counters, gauges and
  /// distributions keyed by name, names sorted. See docs/OBSERVABILITY.md
  /// for the full schema.
  void write_json(std::ostream& out) const;

  /// Flat CSV, one row per metric: kind,name,value,count,mean,min,max,sum.
  /// Counters/gauges fill `value`; distributions fill the summary columns
  /// (bins are JSON-only).
  void write_csv(std::ostream& out) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Distribution> distributions_;
};

}  // namespace hp::obs
