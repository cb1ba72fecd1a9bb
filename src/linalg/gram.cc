#include "linalg/gram.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "linalg/simd.h"

namespace ccs::linalg {

using simd::Const;
using simd::LoadV2;
using simd::StoreV2;
using simd::V2;

GramAccumulator::GramAccumulator(size_t num_attributes)
    : m_(num_attributes), n_(0), sum_(num_attributes + 1, num_attributes + 1) {}

CCS_NOINLINE CCS_CODE_ALIGN64 void GramAccumulator::AccumulateBlock(
    const double* rows, size_t n) {
  // The augmented tuple is (1, t0, ..., t_{m-1}). Entry (i+1, j+1) of the
  // sum receives t_i * t_j, entry (0, j+1) receives t_j, and (0, 0)
  // receives 1.0 — one term per row, added as `sum += term` in row order.
  // The walk is loop-interchanged: each register tile of upper-triangle
  // entries is loaded once, takes the terms of all n rows, and is stored
  // once. Tiles are fixed by m alone, so every entry sees the same
  // instructions whatever n is and whichever entry point called.
  // Each term is named, then added with `+=` like Matrix::AddInPlace's
  // shard merge, so unoptimized builds too keep the sum as the first
  // operand: when both are NaN, that operand's payload survives, and the
  // shard merge and the row fold must agree on which one it is.
  const size_t m = m_;
  const size_t w = m + 1;
  double* s = &sum_.At(0, 0);

  double count = s[0];
  for (size_t r = 0; r < n; ++r) count += 1.0;
  s[0] = count;

  // One tile: kRows sum rows x (2 * kVecs + kTail) columns starting at
  // data column j0. kRows == 0 is sum row 0, whose term is t_j itself;
  // otherwise the rows are i0 + 1 .. i0 + kRows, with terms t_i * t_j.
  auto tile = [&](auto rows_c, auto vecs_c, auto tail_c, size_t i0,
                  size_t j0) {
    constexpr int kRows = decltype(rows_c)::value;
    constexpr int kVecs = decltype(vecs_c)::value;
    constexpr int kTail = decltype(tail_c)::value;
    constexpr int kR = kRows == 0 ? 1 : kRows;
    double* dst[kR];
    V2 acc[kR][kVecs > 0 ? kVecs : 1];
    double tail[kR];
    for (int k = 0; k < kR; ++k) {
      dst[k] = s + (kRows == 0 ? 0 : (i0 + 1 + k) * w) + j0 + 1;
      for (int v = 0; v < kVecs; ++v) acc[k][v] = LoadV2(dst[k] + 2 * v);
      if constexpr (kTail) tail[k] = dst[k][2 * kVecs];
    }
    const double* x = rows;
    for (size_t r = 0; r < n; ++r, x += m) {
      V2 xj[kVecs > 0 ? kVecs : 1];
      for (int v = 0; v < kVecs; ++v) xj[v] = LoadV2(x + j0 + 2 * v);
      const double xt = kTail ? x[j0 + 2 * kVecs] : 0.0;
      for (int k = 0; k < kR; ++k) {
        if constexpr (kRows == 0) {
          for (int v = 0; v < kVecs; ++v) acc[k][v] += xj[v];
          if constexpr (kTail) tail[k] += xt;
        } else {
          const double xi = x[i0 + k];
          const V2 xi2 = {xi, xi};
          for (int v = 0; v < kVecs; ++v) {
            const V2 term = xi2 * xj[v];
            acc[k][v] += term;
          }
          if constexpr (kTail) {
            const double term = xi * xt;
            tail[k] += term;
          }
        }
      }
    }
    for (int k = 0; k < kR; ++k) {
      for (int v = 0; v < kVecs; ++v) StoreV2(dst[k] + 2 * v, acc[k][v]);
      if constexpr (kTail) dst[k][2 * kVecs] = tail[k];
    }
  };

  // Columns [j, m) of one strip: 8-wide tiles, then one narrower tail.
  auto strip = [&](auto rows_c, size_t i0, size_t j) {
    for (; j + 8 <= m; j += 8) tile(rows_c, Const<4>(), Const<0>(), i0, j);
    switch (m - j) {
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

  strip(Const<0>(), 0, 0);
  // Row pairs start their strip at the first row's diagonal; the second
  // row's one sub-diagonal entry is rewritten by the mirror below.
  size_t i = 0;
  for (; i + 2 <= m; i += 2) strip(Const<2>(), i, i);
  if (i < m) strip(Const<1>(), i, i);

  // Derive the lower triangle from the upper one.
  for (size_t a = 0; a < w; ++a) {
    for (size_t b = a + 1; b < w; ++b) s[b * w + a] = s[a * w + b];
  }
  n_ += static_cast<int64_t>(n);
}

void GramAccumulator::Add(const Vector& tuple) {
  CCS_CHECK_EQ(tuple.size(), m_);
  AccumulateBlock(tuple.data().data(), 1);
}

void GramAccumulator::AccumulateRowsImpl(const MatrixView& data,
                                         size_t row_begin, size_t row_end) {
  if (row_begin == row_end) return;
  // Late materialization in cache-sized blocks: gather rows into reused
  // scratch, then run the SAME compiled block kernel Add uses. No
  // full-size Matrix is allocated/zeroed/re-read, and the bits are
  // identical by construction: copying cells preserves them, and a
  // single shared kernel sidesteps the one divergence source term-order
  // reasoning cannot close — two structurally identical kernels compiled
  // with different FP operand orderings propagate different NaN
  // payloads.
  std::vector<double> scratch(
      std::min(row_end - row_begin, kViewGatherBlockRows) * m_);
  for (size_t b = row_begin; b < row_end; b += kViewGatherBlockRows) {
    const size_t e = std::min(row_end, b + kViewGatherBlockRows);
    data.GatherBlock(b, e, scratch.data());
    AccumulateBlock(scratch.data(), e - b);
  }
}

void GramAccumulator::AddView(const MatrixView& data) {
  // A mismatched width would read out of bounds.
  CCS_CHECK_EQ(data.cols(), m_);
  const size_t n = data.rows();
  const size_t shards = (n + kGramShardRows - 1) / kGramShardRows;
  if (shards <= 1) {
    AccumulateRowsImpl(data, 0, n);
    return;
  }
  // Shard boundaries depend only on n, so the summation tree — partials
  // built row-by-row, folded in ascending shard index — is the same at
  // every thread count. Only shard EXECUTION is scheduled dynamically.
  std::vector<GramAccumulator> partials(shards, GramAccumulator(m_));
  common::ParallelFor(
      shards,
      [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          partials[s].AccumulateRowsImpl(data, s * kGramShardRows,
                                         std::min(n, (s + 1) * kGramShardRows));
        }
      },
      common::ParallelOptions{/*num_threads=*/0, /*min_chunk=*/1});
  for (const GramAccumulator& partial : partials) {
    CCS_CHECK(Merge(partial).ok());
  }
}

Status GramAccumulator::Merge(const GramAccumulator& other) {
  if (other.m_ != m_) {
    return Status::InvalidArgument(
        "GramAccumulator::Merge: attribute count mismatch");
  }
  sum_.AddInPlace(other.sum_);
  n_ += other.n_;
  return Status::OK();
}

Status GramAccumulator::RestoreState(const Matrix& sum, int64_t count) {
  if (sum.rows() != m_ + 1 || sum.cols() != m_ + 1) {
    return Status::InvalidArgument(
        "GramAccumulator::RestoreState: sum must be (m+1) x (m+1)");
  }
  if (count < 0) {
    return Status::InvalidArgument(
        "GramAccumulator::RestoreState: negative count");
  }
  if (sum.At(0, 0) != static_cast<double>(count)) {
    return Status::InvalidArgument(
        "GramAccumulator::RestoreState: sum(0,0) is not the count");
  }
  // AccumulateBlock derives the lower triangle from the upper one, so an
  // asymmetric state would be silently rewritten; compare bits so NaN
  // entries must match too.
  for (size_t i = 0; i <= m_; ++i) {
    for (size_t j = i + 1; j <= m_; ++j) {
      const double upper = sum.At(i, j);
      const double lower = sum.At(j, i);
      if (std::memcmp(&upper, &lower, sizeof(double)) != 0) {
        return Status::InvalidArgument(
            "GramAccumulator::RestoreState: sum is not symmetric");
      }
    }
  }
  sum_ = sum;
  n_ = count;
  return Status::OK();
}

Matrix GramAccumulator::AugmentedGram() const { return sum_; }

Matrix GramAccumulator::Gram() const {
  Matrix out(m_, m_);
  for (size_t i = 0; i < m_; ++i) {
    for (size_t j = 0; j < m_; ++j) out.At(i, j) = sum_.At(i + 1, j + 1);
  }
  return out;
}

Vector GramAccumulator::Means() const {
  CCS_CHECK_GT(n_, 0);
  Vector mu(m_);
  for (size_t i = 0; i < m_; ++i) {
    mu[i] = sum_.At(0, i + 1) / static_cast<double>(n_);
  }
  return mu;
}

Matrix GramAccumulator::Covariance() const {
  CCS_CHECK_GT(n_, 0);
  Vector mu = Means();
  Matrix cov(m_, m_);
  double n = static_cast<double>(n_);
  for (size_t i = 0; i < m_; ++i) {
    for (size_t j = 0; j < m_; ++j) {
      cov.At(i, j) = sum_.At(i + 1, j + 1) / n - mu[i] * mu[j];
    }
  }
  return cov;
}

}  // namespace ccs::linalg
