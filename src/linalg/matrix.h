// Dense row-major matrix of doubles.

#ifndef CCS_LINALG_MATRIX_H_
#define CCS_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/logging.h"
#include "linalg/vector.h"

namespace ccs::linalg {

class Matrix;

/// The compiled instance of the scoring and Gram kernels
/// (internal::AccumulateRowsTimesMatrix, GramAccumulator): two-double
/// SSE2 lanes, or four-double AVX2 lanes. Both compute every non-NaN
/// value to the same bits; a NaN's sign and payload belong to the
/// instance.
enum class KernelIsa { kSse2, kAvx2 };

/// The instance every kernel call in this process runs: kAvx2 when the
/// build has it and the CPU supports AVX2, else kSse2. Chosen once, on
/// first use.
KernelIsa SelectedKernelIsa();

/// "sse2" or "avx2".
const char* KernelIsaName(KernelIsa isa);

namespace internal {

/// Whether this build and CPU can run `isa`.
CCS_NOINLINE bool KernelIsaSupported(KernelIsa isa);

/// Test seam: makes `isa` (CHECKed supported) the selected instance.
/// Call it only while no kernel call is in flight, e.g. between pool
/// dispatches; tests use it to run both instances on one host.
CCS_NOINLINE void SetKernelIsaForTesting(KernelIsa isa);

/// The single block kernel behind BOTH Matrix::Multiply and
/// MatrixView::MultiplyRowRange:
/// out[i*other.cols() + j] += rows[i*k_count + k] * other(k, j), each
/// entry taking its terms in ascending k — Vector::Dot's term order per
/// output entry, no zero-skipping. Register-blocked: a tile of 3 rows x
/// 8 outputs (SSE2 instance) or 12 outputs (AVX2 instance), with
/// two-lane tiles for the remaining outputs, loads its out entries
/// once, runs k over all of them, and stores them once. Tiles mix
/// outputs but never rows, so a row's values never depend on the rows
/// that share its call. Never inlined (CCS_NOINLINE), and it runs the
/// selected instance (SelectedKernelIsa): both entry points must
/// execute the same machine code, or compiler-chosen FP operand
/// orderings could propagate different NaN payloads and break the
/// bitwise path-equivalence contract.
///
/// \param rows      row_count contiguous row-major rows of k_count
///                  doubles (a whole Matrix, or a gathered view block).
/// \param row_count Number of left-factor rows.
/// \param k_count   Inner dimension; must equal other.rows().
/// \param other     Right factor.
/// \param out       row_count x other.cols() row-major doubles,
///                  accumulated into (callers pass freshly zeroed rows).
CCS_NOINLINE void AccumulateRowsTimesMatrix(const double* rows,
                                            size_t row_count, size_t k_count,
                                            const Matrix& other, double* out);

}  // namespace internal

/// A dense row-major matrix.
///
/// Sized for the paper's regime (attribute counts m in the tens; Gram
/// matrices m x m). Row counts can be large for data matrices, but all
/// quadratic-cost operations are only ever applied to m x m matrices.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix of zeros (or `fill`).
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Constructs from nested brace lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) {
    CCS_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    CCS_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(size_t r, size_t c) { return At(r, c); }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  /// Copies row `r` out as a Vector.
  Vector Row(size_t r) const;

  /// Copies column `c` out as a Vector.
  Vector Col(size_t c) const;

  /// Overwrites row `r`. Sizes must match.
  void SetRow(size_t r, const Vector& values);

  /// The n x n identity.
  static Matrix Identity(size_t n);

  /// this * other. Inner dimensions must agree. Accumulates each entry
  /// in the same ascending-k term order as MatrixView::MultiplyRowRange
  /// and Vector::Dot — no zero-skipping — so the product is bitwise
  /// identical to per-row evaluation even when either factor holds NaN
  /// or Inf cells.
  Matrix Multiply(const Matrix& other) const;

  /// this * v.
  Vector Multiply(const Vector& v) const;

  /// Transpose copy.
  Matrix Transposed() const;

  /// this + other, elementwise; shapes must match.
  ///
  /// \return A freshly allocated sum; use AddInPlace on hot paths.
  Matrix Add(const Matrix& other) const;

  /// this += other, elementwise and allocation-free; shapes must match.
  /// The reduction step of the shard-merge pattern (GramAccumulator
  /// partials are folded with it in fixed shard order).
  void AddInPlace(const Matrix& other);

  /// Scales every entry.
  void Scale(double alpha);

  /// True if |a(i,j) - b(i,j)| <= tol everywhere (and shapes match).
  static bool AlmostEqual(const Matrix& a, const Matrix& b, double tol);

  /// Max |a(i,j)| over all entries (0 for empty).
  double MaxAbs() const;

  /// True if the matrix is square and symmetric to within `tol`.
  bool IsSymmetric(double tol = 1e-9) const;

  const std::vector<double>& data() const { return data_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace ccs::linalg

#endif  // CCS_LINALG_MATRIX_H_
