#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "linalg/simd.h"

namespace ccs::linalg {

namespace internal {

using simd::Const;
using simd::LoadV2;
using simd::StoreV2;
using simd::V2;

CCS_NOINLINE CCS_CODE_ALIGN64 void AccumulateRowsTimesMatrix(
    const double* rows, size_t row_count, size_t k_count, const Matrix& other,
    double* out) {
  // Every out entry (i, j) takes `out += a_ik * b_kj` for k ascending —
  // Vector::Dot's term order, no zero-skipping. The walk is register-
  // blocked: a tile of kRows rows x (2 * kVecs + kTail) outputs loads its
  // out entries once, runs k over all of them, and stores them once.
  // Tiles mix outputs but never rows, so each row's values depend on its
  // own cells alone, never on which rows share its call. Each term is
  // named, then added with `+=`, so unoptimized builds too keep the
  // running sum as the first operand of every add.
  if (k_count == 0) return;
  const size_t n = other.cols();
  const double* b = other.data().data();

  // One tile: rows i0 .. i0 + kRows - 1, outputs j0 .. j0 + 2 * kVecs +
  // kTail - 1.
  auto tile = [&](auto rows_c, auto vecs_c, auto tail_c, size_t i0,
                  size_t j0) {
    constexpr int kRows = decltype(rows_c)::value;
    constexpr int kVecs = decltype(vecs_c)::value;
    constexpr int kTail = decltype(tail_c)::value;
    const double* a[kRows];
    double* dst[kRows];
    V2 acc[kRows][kVecs > 0 ? kVecs : 1];
    double tail[kRows];
    for (int r = 0; r < kRows; ++r) {
      a[r] = rows + (i0 + r) * k_count;
      dst[r] = out + (i0 + r) * n + j0;
      for (int v = 0; v < kVecs; ++v) acc[r][v] = LoadV2(dst[r] + 2 * v);
      if constexpr (kTail) tail[r] = dst[r][2 * kVecs];
    }
    const double* bk = b + j0;
    for (size_t k = 0; k < k_count; ++k, bk += n) {
      V2 bj[kVecs > 0 ? kVecs : 1];
      for (int v = 0; v < kVecs; ++v) bj[v] = LoadV2(bk + 2 * v);
      const double bt = kTail ? bk[2 * kVecs] : 0.0;
      for (int r = 0; r < kRows; ++r) {
        const double x = a[r][k];
        const V2 x2 = {x, x};
        for (int v = 0; v < kVecs; ++v) {
          const V2 term = x2 * bj[v];
          acc[r][v] += term;
        }
        if constexpr (kTail) {
          const double term = x * bt;
          tail[r] += term;
        }
      }
    }
    for (int r = 0; r < kRows; ++r) {
      for (int v = 0; v < kVecs; ++v) StoreV2(dst[r] + 2 * v, acc[r][v]);
      if constexpr (kTail) dst[r][2 * kVecs] = tail[r];
    }
  };

  // All outputs of one row tile: 8-wide tiles, then one narrower tail.
  auto row_tile = [&](auto rows_c, size_t i0) {
    size_t j = 0;
    for (; j + 8 <= n; j += 8) tile(rows_c, Const<4>(), Const<0>(), i0, j);
    switch (n - j) {
      case 1: tile(rows_c, Const<0>(), Const<1>(), i0, j); break;
      case 2: tile(rows_c, Const<1>(), Const<0>(), i0, j); break;
      case 3: tile(rows_c, Const<1>(), Const<1>(), i0, j); break;
      case 4: tile(rows_c, Const<2>(), Const<0>(), i0, j); break;
      case 5: tile(rows_c, Const<2>(), Const<1>(), i0, j); break;
      case 6: tile(rows_c, Const<3>(), Const<0>(), i0, j); break;
      case 7: tile(rows_c, Const<3>(), Const<1>(), i0, j); break;
      default: break;
    }
  };

  size_t i = 0;
  for (; i + 3 <= row_count; i += 3) row_tile(Const<3>(), i);
  switch (row_count - i) {
    case 1: row_tile(Const<1>(), i); break;
    case 2: row_tile(Const<2>(), i); break;
    default: break;
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
  // No zero-skipping: out(i,j) accumulates over k in increasing order,
  // matching Vector::Dot term order exactly (0 * NaN and 0 * Inf are
  // NaN, so skipping aik == 0 terms would diverge from per-row
  // evaluation on non-finite cells) — via the shared out-of-line kernel
  // MatrixView::MultiplyRowRange also runs.
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
