#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace ccs::linalg {

namespace internal {

CCS_NOINLINE CCS_CODE_ALIGN64 void AccumulateRowsTimesMatrix(
    const double* rows, size_t row_count, size_t k_count, const Matrix& other,
    double* out) {
  // i,k,j order: k ascending, each out entry accumulating in the same
  // term order as Vector::Dot (no zero-skipping).
  const size_t out_cols = other.cols();
  for (size_t i = 0; i < row_count; ++i) {
    const double* row = rows + i * k_count;
    double* out_row = out + i * out_cols;
    for (size_t k = 0; k < k_count; ++k) {
      double aik = row[k];
      for (size_t j = 0; j < out_cols; ++j) {
        out_row[j] += aik * other.At(k, j);
      }
    }
  }
}

}  // namespace internal

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(0) {
  for (const auto& row : rows) {
    if (cols_ == 0) cols_ = row.size();
    CCS_CHECK_EQ(row.size(), cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Vector Matrix::Row(size_t r) const {
  CCS_CHECK(r < rows_);
  Vector out(cols_);
  for (size_t c = 0; c < cols_; ++c) out[c] = At(r, c);
  return out;
}

Vector Matrix::Col(size_t c) const {
  CCS_CHECK(c < cols_);
  Vector out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = At(r, c);
  return out;
}

void Matrix::SetRow(size_t r, const Vector& values) {
  CCS_CHECK(r < rows_);
  CCS_CHECK_EQ(values.size(), cols_);
  for (size_t c = 0; c < cols_; ++c) At(r, c) = values[c];
}

Matrix Matrix::Identity(size_t n) {
  Matrix out(n, n);
  for (size_t i = 0; i < n; ++i) out.At(i, i) = 1.0;
  return out;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  CCS_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  if (other.cols_ == 0 || rows_ == 0) return out;
  // i,k,j loop order with no zero-skipping: out(i,j) accumulates over k
  // in increasing order, matching Vector::Dot term order exactly (0 * NaN
  // and 0 * Inf are NaN, so skipping aik == 0 terms would diverge from
  // per-row evaluation on non-finite cells) — via the shared out-of-line
  // kernel MatrixView::MultiplyRowRange also runs.
  internal::AccumulateRowsTimesMatrix(data_.data(), rows_, cols_, other,
                                      &out.At(0, 0));
  return out;
}

CCS_NOINLINE Vector Matrix::Multiply(const Vector& v) const {
  CCS_CHECK_EQ(cols_, v.size());
  Vector out(rows_);
  for (size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += At(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out.At(j, i) = At(i, j);
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  Matrix out = *this;
  out.AddInPlace(other);
  return out;
}

void Matrix::AddInPlace(const Matrix& other) {
  CCS_CHECK_EQ(rows_, other.rows_);
  CCS_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::Scale(double alpha) {
  for (double& v : data_) v *= alpha;
}

bool Matrix::AlmostEqual(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows_ != b.rows_ || a.cols_ != b.cols_) return false;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    if (std::abs(a.data_[i] - b.data_[i]) > tol) return false;
  }
  return true;
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

bool Matrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = i + 1; j < cols_; ++j) {
      if (std::abs(At(i, j) - At(j, i)) > tol) return false;
    }
  }
  return true;
}

}  // namespace ccs::linalg
