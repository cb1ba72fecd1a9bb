#include "linalg/gram.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "linalg/simd.h"

namespace ccs::linalg {

namespace {

using simd::Load;
using simd::Splat;
using simd::Store;
using simd::V2;
using simd::V4;

// One AccumulateBlock call: n contiguous rows of m doubles, added into
// the row-major (m+1) x (m+1) sum s.
struct GramBlock {
  double* s;
  size_t m;
  const double* rows;
  size_t n;
};

// One tile: kRows sum rows x (kLanes<V> * kVecs + kTail) columns
// starting at data column j0. kRows == 0 is sum row 0, whose term is t_j
// itself; otherwise the rows are i0 + 1 .. i0 + kRows, with terms
// t_i * t_j. The tile is loaded once, takes the terms of all n rows in
// row order, and is stored once. Each term is named, then added with
// `+=` like Matrix::AddInPlace's shard merge, so unoptimized builds too
// keep the sum as the first operand: when both are NaN, that operand's
// payload survives, and the shard merge and the row fold must agree on
// which one it is.
template <class V, int kRows, int kVecs, int kTail>
CCS_ALWAYS_INLINE void GramTile(const GramBlock& g, size_t i0, size_t j0) {
  constexpr int kL = simd::kLanes<V>;
  constexpr int kR = kRows == 0 ? 1 : kRows;
  const size_t m = g.m;
  const size_t w = m + 1;
  double* dst[kR];
  V acc[kR][kVecs > 0 ? kVecs : 1];
  double tail[kR];
  for (int k = 0; k < kR; ++k) {
    dst[k] = g.s + (kRows == 0 ? 0 : (i0 + 1 + k) * w) + j0 + 1;
    for (int v = 0; v < kVecs; ++v) Load(&acc[k][v], dst[k] + kL * v);
    if constexpr (kTail) tail[k] = dst[k][kL * kVecs];
  }
  const double* x = g.rows;
  for (size_t r = 0; r < g.n; ++r, x += m) {
    V xj[kVecs > 0 ? kVecs : 1];
    for (int v = 0; v < kVecs; ++v) Load(&xj[v], x + j0 + kL * v);
    const double xt = kTail ? x[j0 + kL * kVecs] : 0.0;
    for (int k = 0; k < kR; ++k) {
      if constexpr (kRows == 0) {
        for (int v = 0; v < kVecs; ++v) acc[k][v] += xj[v];
        if constexpr (kTail) tail[k] += xt;
      } else {
        const double xi = x[i0 + k];
        V xiv;
        Splat(&xiv, xi);
        for (int v = 0; v < kVecs; ++v) {
          const V term = xiv * xj[v];
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
    for (int v = 0; v < kVecs; ++v) Store(dst[k] + kL * v, &acc[k][v]);
    if constexpr (kTail) dst[k][kL * kVecs] = tail[k];
  }
}

// Columns [j, m) of one strip: tiles of four V vectors, then two-lane
// tiles of 8 columns and one narrower two-lane tail.
template <class V, int kRows>
CCS_ALWAYS_INLINE void GramStrip(const GramBlock& g, size_t i0, size_t j) {
  constexpr size_t kWide = simd::kLanes<V> * 4;
  const size_t m = g.m;
  for (; j + kWide <= m; j += kWide) GramTile<V, kRows, 4, 0>(g, i0, j);
  for (; j + 8 <= m; j += 8) GramTile<V2, kRows, 4, 0>(g, i0, j);
  switch (m - j) {
    case 1: GramTile<V2, kRows, 0, 1>(g, i0, j); break;
    case 2: GramTile<V2, kRows, 1, 0>(g, i0, j); break;
    case 3: GramTile<V2, kRows, 1, 1>(g, i0, j); break;
    case 4: GramTile<V2, kRows, 2, 0>(g, i0, j); break;
    case 5: GramTile<V2, kRows, 2, 1>(g, i0, j); break;
    case 6: GramTile<V2, kRows, 3, 0>(g, i0, j); break;
    case 7: GramTile<V2, kRows, 3, 1>(g, i0, j); break;
    default: break;
  }
}

// The upper triangle, sum row 0 included. Tiles are fixed by m alone, so
// every entry sees the same instructions whatever n is and whichever
// entry point called.
template <class V>
CCS_ALWAYS_INLINE void GramUpperTriangle(const GramBlock& g) {
  GramStrip<V, 0>(g, 0, 0);
  // Row pairs start their strip at the first row's diagonal; the second
  // row's one sub-diagonal entry is rewritten by the mirror afterwards.
  size_t i = 0;
  for (; i + 2 <= g.m; i += 2) GramStrip<V, 2>(g, i, i);
  if (i < g.m) GramStrip<V, 1>(g, i, i);
}

// The two instances: 2 x 8 tiles of V2, and 2 x 16 tiles of V4; both
// keep 8 accumulator chains. 2 x 8 tiles of V4 (4 chains) measured
// within noise of 2 x 16 (docs/architecture.md, "Kernel instances").
CCS_NOINLINE CCS_CODE_ALIGN64 void GramUpperTriangleSse2(const GramBlock& g) {
  GramUpperTriangle<V2>(g);
}

CCS_NOINLINE CCS_CODE_ALIGN64 CCS_TARGET_AVX2 void GramUpperTriangleAvx2(
    const GramBlock& g) {
  GramUpperTriangle<V4>(g);
}

}  // namespace

GramAccumulator::GramAccumulator(size_t num_attributes)
    : m_(num_attributes), n_(0), sum_(num_attributes + 1, num_attributes + 1) {}

CCS_NOINLINE void GramAccumulator::AccumulateBlock(const double* rows,
                                                   size_t n) {
  // The augmented tuple is (1, t0, ..., t_{m-1}). Entry (i+1, j+1) of the
  // sum receives t_i * t_j, entry (0, j+1) receives t_j, and (0, 0)
  // receives 1.0 — one term per row, added as `sum += term` in row order.
  // The walk is loop-interchanged over register tiles of the upper
  // triangle, in the selected kernel instance (SelectedKernelIsa).
  const size_t w = m_ + 1;
  double* s = &sum_.At(0, 0);

  double count = s[0];
  for (size_t r = 0; r < n; ++r) count += 1.0;
  s[0] = count;

  const GramBlock g{s, m_, rows, n};
  if (SelectedKernelIsa() == KernelIsa::kAvx2) {
    GramUpperTriangleAvx2(g);
  } else {
    GramUpperTriangleSse2(g);
  }

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
