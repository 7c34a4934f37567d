// Sample sets and the benchmark's estimators.
//
// Every host-time figure is estimated from many short timed units. The
// host's speed flips between two levels about 2x apart, each lasting
// seconds, so the median (and the mean) of a run depends on how long the
// run happened to sit on the fast level. The 90th percentile lands on the
// slow level whenever that level covers at least a tenth of the run, which
// makes it the steady estimator of sustained speed: throughputs divide the
// work per unit by the p90 unit time. Medians are still reported, but only
// as per-layer figures that carry no bound.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using sch::u64;
using sch::usize;

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. Returns 0 for an empty set; p is clamped to
/// [0, 100].
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const usize index = rank < 1.0 ? 0 : static_cast<usize>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// Samples of one timed quantity.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] usize size() const { return values_.size(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double p(double pct) const { return percentile(values_, pct); }
  [[nodiscard]] double sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }
  [[nodiscard]] double mean() const { return empty() ? 0.0 : sum() / static_cast<double>(size()); }

 private:
  std::vector<double> values_;
};

}  // namespace perfbench
