#include "ml/scaler.h"

#include <cmath>

namespace ccs::ml {

StatusOr<StandardScaler> StandardScaler::Fit(const linalg::Matrix& data) {
  if (data.rows() == 0) {
    return Status::InvalidArgument("StandardScaler::Fit: empty data");
  }
  const size_t m = data.cols();
  linalg::Vector means(m), stddevs(m);
  for (size_t j = 0; j < m; ++j) {
    linalg::Vector col = data.Col(j);
    means[j] = col.Mean();
    double sd = col.StdDev();
    stddevs[j] = (sd > 0.0) ? sd : 1.0;
  }
  return StandardScaler(std::move(means), std::move(stddevs));
}

namespace {

// The one cell transform both overloads share. Division, not a
// reciprocal multiply: the two are not bitwise equal.
double Standardize(double x, double mean, double stddev) {
  return (x - mean) / stddev;
}

}  // namespace

StatusOr<linalg::Matrix> StandardScaler::Transform(
    const linalg::Matrix& data) const {
  if (data.cols() != means_.size()) {
    return Status::InvalidArgument("StandardScaler: width mismatch");
  }
  linalg::Matrix out = data;
  for (size_t i = 0; i < out.rows(); ++i) {
    for (size_t j = 0; j < out.cols(); ++j) {
      out.At(i, j) = Standardize(out.At(i, j), means_[j], stddevs_[j]);
    }
  }
  return out;
}

StatusOr<linalg::Vector> StandardScaler::Transform(
    const linalg::Vector& row) const {
  if (row.size() != means_.size()) {
    return Status::InvalidArgument("StandardScaler: width mismatch");
  }
  linalg::Vector out(row.size());
  for (size_t j = 0; j < row.size(); ++j) {
    out[j] = Standardize(row[j], means_[j], stddevs_[j]);
  }
  return out;
}

}  // namespace ccs::ml
