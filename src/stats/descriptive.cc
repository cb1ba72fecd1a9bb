#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

namespace ccs::stats {

StatusOr<Summary> Summarize(const linalg::Vector& values) {
  if (values.empty()) {
    return Status::InvalidArgument("Summarize: empty input");
  }
  Summary s;
  s.count = static_cast<int64_t>(values.size());
  s.mean = values.Mean();
  s.variance = values.Variance();
  s.stddev = std::sqrt(s.variance);
  s.min = values.Min();
  s.max = values.Max();
  return s;
}

StatusOr<double> Quantile(const linalg::Vector& values, double q) {
  if (values.empty()) {
    return Status::InvalidArgument("Quantile: empty input");
  }
  if (!(q >= 0.0 && q <= 1.0)) {
    return Status::InvalidArgument("Quantile: q must be in [0,1]");
  }
  std::vector<double> sorted = values.data();
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void OnlineStats::Add(double value) {
  ++count_;
  double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  double delta = other.mean_ - mean_;
  double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

}  // namespace ccs::stats
