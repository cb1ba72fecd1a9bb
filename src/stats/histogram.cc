#include "stats/histogram.h"

#include <algorithm>

namespace ccs::stats {

StatusOr<Histogram> Histogram::Create(double lo, double hi, size_t num_bins) {
  if (num_bins == 0) {
    return Status::InvalidArgument("Histogram: num_bins must be positive");
  }
  if (!(lo < hi)) {
    return Status::InvalidArgument("Histogram: need lo < hi");
  }
  return Histogram(lo, hi, num_bins);
}

void Histogram::Add(double value) {
  double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<int64_t>((value - lo_) / width);
  bin = std::clamp<int64_t>(bin, 0,
                            static_cast<int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<size_t>(bin)];
  ++total_;
}

void Histogram::AddAll(const linalg::Vector& values) {
  for (double v : values.data()) Add(v);
}

std::vector<double> Histogram::Density(double alpha) const {
  std::vector<double> out(counts_.size(), 0.0);
  double denom = static_cast<double>(total_) +
                 alpha * static_cast<double>(counts_.size());
  if (denom <= 0.0) return out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    out[i] = (static_cast<double>(counts_[i]) + alpha) / denom;
  }
  return out;
}

}  // namespace ccs::stats
