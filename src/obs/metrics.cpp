#include "obs/metrics.hpp"

#include <cstddef>

#include "obs/json.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"

namespace hp::obs {

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Distribution& MetricsRegistry::distribution(const std::string& name,
                                            double lo, double hi,
                                            std::size_t bins) {
  auto it = distributions_.find(name);
  if (it == distributions_.end()) {
    it = distributions_.emplace(name, Distribution(lo, hi, bins)).first;
  } else {
    HP_REQUIRE(it->second.lo() == lo && it->second.hi() == hi &&
                   it->second.histogram().bins() == bins,
               "distribution '" + name +
                   "' re-requested with a different (lo, hi, bins) shape");
  }
  return it->second;
}

const Distribution* MetricsRegistry::find_distribution(
    const std::string& name) const {
  const auto it = distributions_.find(name);
  return it == distributions_.end() ? nullptr : &it->second;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\n  \"schema\": \"hp-metrics-v1\",\n  \"counters\": {";
  std::size_t i = 0;
  for (const auto& [name, c] : counters_) {
    out << (i++ ? ", " : "") << "\"" << json_escape(name)
        << "\": " << c.value();
  }
  out << "},\n  \"gauges\": {";
  i = 0;
  for (const auto& [name, g] : gauges_) {
    out << (i++ ? ", " : "") << "\"" << json_escape(name)
        << "\": " << json_number(g.value());
  }
  out << "},\n  \"distributions\": {";
  i = 0;
  for (const auto& [name, d] : distributions_) {
    out << (i++ ? "," : "") << "\n    \"" << json_escape(name) << "\": {"
        << "\"count\": " << d.stat().count()
        << ", \"mean\": " << json_number(d.stat().mean())
        << ", \"min\": " << json_number(d.stat().min())
        << ", \"max\": " << json_number(d.stat().max())
        << ", \"sum\": " << json_number(d.stat().sum())
        << ", \"lo\": " << json_number(d.lo())
        << ", \"hi\": " << json_number(d.hi()) << ", \"bins\": [";
    for (std::size_t b = 0; b < d.histogram().bins(); ++b) {
      out << (b ? "," : "") << d.histogram().bin_count(b);
    }
    out << "]}";
  }
  if (i > 0) out << "\n  ";
  out << "}\n}\n";
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  CsvWriter csv(out, {"kind", "name", "value", "count", "mean", "min", "max",
                      "sum"});
  for (const auto& [name, c] : counters_) {
    csv.row().add("counter").add(name).add(c.value()).add("").add("").add(
        "").add("").add("");
  }
  for (const auto& [name, g] : gauges_) {
    csv.row()
        .add("gauge")
        .add(name)
        .add(json_number(g.value()))
        .add("")
        .add("")
        .add("")
        .add("")
        .add("");
  }
  for (const auto& [name, d] : distributions_) {
    csv.row()
        .add("distribution")
        .add(name)
        .add("")
        .add(static_cast<std::uint64_t>(d.stat().count()))
        .add(json_number(d.stat().mean()))
        .add(json_number(d.stat().min()))
        .add(json_number(d.stat().max()))
        .add(json_number(d.stat().sum()));
  }
}

}  // namespace hp::obs
