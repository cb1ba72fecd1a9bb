// Equal-width histograms and normalized densities (used by the CD
// drift-detection baseline's per-component divergence computation).

#ifndef CCS_STATS_HISTOGRAM_H_
#define CCS_STATS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "linalg/vector.h"

namespace ccs::stats {

/// An equal-width histogram over a fixed [lo, hi] range.
class Histogram {
 public:
  /// `num_bins` equal-width bins covering [lo, hi]. Values outside the
  /// range are clamped into the first/last bin (the CD baseline compares
  /// reference vs drifted windows over the reference's range, so
  /// out-of-range mass must still be counted).
  static StatusOr<Histogram> Create(double lo, double hi, size_t num_bins);

  void Add(double value);
  void AddAll(const linalg::Vector& values);

  size_t num_bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  int64_t total_count() const { return total_; }
  int64_t bin_count(size_t i) const { return counts_[i]; }

  /// Probability mass per bin (sums to 1). With Laplace smoothing
  /// `alpha` added to each bin (needed before KL divergence).
  std::vector<double> Density(double alpha = 0.0) const;

 private:
  Histogram(double lo, double hi, size_t num_bins)
      : lo_(lo), hi_(hi), counts_(num_bins, 0) {}

  double lo_;
  double hi_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace ccs::stats

#endif  // CCS_STATS_HISTOGRAM_H_
