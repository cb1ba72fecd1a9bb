// Standard (z-score) feature scaling.

#ifndef CCS_ML_SCALER_H_
#define CCS_ML_SCALER_H_

#include "common/statusor.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace ccs::ml {

/// Per-column standardization fit on a training matrix and applied to any
/// matrix with the same width. Constant columns scale to 0 (divisor 1).
///
/// Both transforms compute each cell as (x - mean) / stddev through one
/// per-element helper, so a row transforms to the same bits as that row
/// of a transformed matrix.
class StandardScaler {
 public:
  /// Learns per-column mean and stddev from `data` (n x m, n >= 1).
  static StatusOr<StandardScaler> Fit(const linalg::Matrix& data);

  /// (x - mean) / stddev per column. Width must match the fit.
  StatusOr<linalg::Matrix> Transform(const linalg::Matrix& data) const;

  /// Transforms a single row vector.
  StatusOr<linalg::Vector> Transform(const linalg::Vector& row) const;

  const linalg::Vector& means() const { return means_; }
  const linalg::Vector& stddevs() const { return stddevs_; }

 private:
  StandardScaler(linalg::Vector means, linalg::Vector stddevs)
      : means_(std::move(means)), stddevs_(std::move(stddevs)) {}

  linalg::Vector means_;
  linalg::Vector stddevs_;
};

}  // namespace ccs::ml

#endif  // CCS_ML_SCALER_H_
