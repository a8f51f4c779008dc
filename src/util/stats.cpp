#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace hp {

void RunningStat::add(double x) {
  ++count_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::mean() const {
  HP_REQUIRE(!values_.empty(), "mean of empty sample set");
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Samples::min() const {
  HP_REQUIRE(!values_.empty(), "min of empty sample set");
  ensure_sorted();
  return values_.front();
}

double Samples::max() const {
  HP_REQUIRE(!values_.empty(), "max of empty sample set");
  ensure_sorted();
  return values_.back();
}

double Samples::percentile(double p) const {
  HP_REQUIRE(!values_.empty(), "percentile of empty sample set");
  HP_REQUIRE(p >= 0.0 && p <= 1.0, "percentile rank out of [0,1]");
  ensure_sorted();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values_.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return values_[std::min(idx, values_.size() - 1)];
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  HP_REQUIRE(hi > lo, "histogram range must be nonempty");
  HP_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::int64_t>(t * static_cast<double>(counts_.size()));
  bin = std::clamp<std::int64_t>(bin, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

}  // namespace hp
