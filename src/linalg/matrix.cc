#include "linalg/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "linalg/simd.h"

namespace ccs::linalg {

namespace {

using simd::Load;
using simd::Splat;
using simd::Store;
using simd::V2;
using simd::V4;

// One AccumulateRowsTimesMatrix call: row_count x k_count `rows` times the
// k_count x n row-major `b`, accumulated into row_count x n `out`.
struct ScoreBlock {
  const double* rows;
  size_t row_count;
  size_t k_count;
  const double* b;
  size_t n;
  double* out;
};

// One tile: rows i0 .. i0 + kRows - 1, outputs j0 .. j0 + kLanes<V> *
// kVecs + kTail - 1. Every out entry (i, j) takes `out += a_ik * b_kj`
// for k ascending — Vector::Dot's term order, no zero-skipping. The
// tile loads its out entries once, runs k over all of them, and stores
// them once. Each term is named, then added with `+=`, so unoptimized
// builds too keep the running sum as the first operand of every add.
template <class V, int kRows, int kVecs, int kTail>
CCS_ALWAYS_INLINE void ScoreTile(const ScoreBlock& g, size_t i0, size_t j0) {
  constexpr int kL = simd::kLanes<V>;
  const double* a[kRows];
  double* dst[kRows];
  V acc[kRows][kVecs > 0 ? kVecs : 1];
  double tail[kRows];
  for (int r = 0; r < kRows; ++r) {
    a[r] = g.rows + (i0 + r) * g.k_count;
    dst[r] = g.out + (i0 + r) * g.n + j0;
    for (int v = 0; v < kVecs; ++v) Load(&acc[r][v], dst[r] + kL * v);
    if constexpr (kTail) tail[r] = dst[r][kL * kVecs];
  }
  const double* bk = g.b + j0;
  for (size_t k = 0; k < g.k_count; ++k, bk += g.n) {
    V bj[kVecs > 0 ? kVecs : 1];
    for (int v = 0; v < kVecs; ++v) Load(&bj[v], bk + kL * v);
    const double bt = kTail ? bk[kL * kVecs] : 0.0;
    for (int r = 0; r < kRows; ++r) {
      const double x = a[r][k];
      V xv;
      Splat(&xv, x);
      for (int v = 0; v < kVecs; ++v) {
        const V term = xv * bj[v];
        acc[r][v] += term;
      }
      if constexpr (kTail) {
        const double term = x * bt;
        tail[r] += term;
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) Store(dst[r] + kL * v, &acc[r][v]);
    if constexpr (kTail) dst[r][kL * kVecs] = tail[r];
  }
}

// All outputs of one row tile: tiles of kWideVecs V vectors, then
// two-lane tiles of 8 outputs and one narrower two-lane tail.
template <class V, int kWideVecs, int kRows>
CCS_ALWAYS_INLINE void ScoreRowTile(const ScoreBlock& g, size_t i0) {
  constexpr size_t kWide = simd::kLanes<V> * kWideVecs;
  size_t j = 0;
  for (; j + kWide <= g.n; j += kWide) {
    ScoreTile<V, kRows, kWideVecs, 0>(g, i0, j);
  }
  for (; j + 8 <= g.n; j += 8) ScoreTile<V2, kRows, 4, 0>(g, i0, j);
  switch (g.n - j) {
    case 1: ScoreTile<V2, kRows, 0, 1>(g, i0, j); break;
    case 2: ScoreTile<V2, kRows, 1, 0>(g, i0, j); break;
    case 3: ScoreTile<V2, kRows, 1, 1>(g, i0, j); break;
    case 4: ScoreTile<V2, kRows, 2, 0>(g, i0, j); break;
    case 5: ScoreTile<V2, kRows, 2, 1>(g, i0, j); break;
    case 6: ScoreTile<V2, kRows, 3, 0>(g, i0, j); break;
    case 7: ScoreTile<V2, kRows, 3, 1>(g, i0, j); break;
    default: break;
  }
}

// Every row, three at a time. Tiles are fixed by the output count
// alone, so a row takes the same instructions wherever it falls.
template <class V, int kWideVecs>
CCS_ALWAYS_INLINE void ScoreRows(const ScoreBlock& g) {
  size_t i = 0;
  for (; i + 3 <= g.row_count; i += 3) ScoreRowTile<V, kWideVecs, 3>(g, i);
  switch (g.row_count - i) {
    case 1: ScoreRowTile<V, kWideVecs, 1>(g, i); break;
    case 2: ScoreRowTile<V, kWideVecs, 2>(g, i); break;
    default: break;
  }
}

// The two instances: 3 x 8 tiles of V2 (12 accumulators), and 3 x 12
// tiles of V4 (9 accumulators). 4 x 8 and 2 x 16 tiles of V4 measured
// within noise of 3 x 12 (docs/architecture.md, "Kernel instances").
CCS_NOINLINE CCS_CODE_ALIGN64 void ScoreRowsSse2(const ScoreBlock& g) {
  ScoreRows<V2, 4>(g);
}

CCS_NOINLINE CCS_CODE_ALIGN64 CCS_TARGET_AVX2 void ScoreRowsAvx2(
    const ScoreBlock& g) {
  ScoreRows<V4, 3>(g);
}

// The selected instance, chosen on first use. Atomic only for the test
// seam: a process that never calls it reads its first choice forever.
std::atomic<KernelIsa>& SelectedIsa() {
  static std::atomic<KernelIsa> isa{
      internal::KernelIsaSupported(KernelIsa::kAvx2) ? KernelIsa::kAvx2
                                                     : KernelIsa::kSse2};
  return isa;
}

}  // namespace

KernelIsa SelectedKernelIsa() {
  return SelectedIsa().load(std::memory_order_relaxed);
}

const char* KernelIsaName(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "sse2";
}

namespace internal {

CCS_NOINLINE bool KernelIsaSupported(KernelIsa isa) {
#if CCS_HAVE_AVX2_KERNELS
  if (isa == KernelIsa::kAvx2) {
    // Needed before main(), should a static initializer get here first.
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
  }
#endif
  return isa == KernelIsa::kSse2;
}

CCS_NOINLINE void SetKernelIsaForTesting(KernelIsa isa) {
  CCS_CHECK(KernelIsaSupported(isa));
  SelectedIsa().store(isa, std::memory_order_relaxed);
}

CCS_NOINLINE void AccumulateRowsTimesMatrix(const double* rows,
                                            size_t row_count, size_t k_count,
                                            const Matrix& other, double* out) {
  if (k_count == 0) return;
  const ScoreBlock g{rows, row_count, k_count, other.data().data(),
                     other.cols(), out};
  if (SelectedKernelIsa() == KernelIsa::kAvx2) {
    ScoreRowsAvx2(g);
  } else {
    ScoreRowsSse2(g);
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
