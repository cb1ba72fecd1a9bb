// Non-owning columnar matrix view: kernels walk (buffer, selection)
// column refs in place, so scoring and Gram accumulation never
// materialize a per-call Matrix copy of view-backed DataFrame data.
// See docs/architecture.md, "Columnar storage & views".

#ifndef CCS_LINALG_MATRIX_VIEW_H_
#define CCS_LINALG_MATRIX_VIEW_H_

#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "linalg/matrix.h"

namespace ccs::linalg {

/// Rows per gathered block in view-walking kernels: large enough to
/// amortize the shared out-of-line kernel call, small enough that the
/// scratch block (kViewGatherBlockRows x cols doubles) stays
/// cache-resident instead of round-tripping through DRAM like a
/// full-size materialized Matrix.
inline constexpr size_t kViewGatherBlockRows = 256;

/// A non-owning, read-only n x k matrix over columnar storage.
///
/// Each column is a `(buffer, selection)` pair: `buffer` points at the
/// column's physical cell storage and `selection` (when non-null) maps
/// logical rows to physical buffer indices — exactly the representation
/// of a zero-copy DataFrame column view. An optional view-level
/// `row_indices` list adds one more logical gather on top (the
/// per-partition row subsets of disjunctive scoring), so a view of a
/// view of a row subset still reads through at most two indirections
/// and zero cell copies.
///
/// Lifetime: the view borrows everything — buffers, selections and
/// `row_indices` must outlive it (it does NOT hold the shared_ptrs a
/// DataFrame column does). It is a call-scoped kernel argument, not a
/// storage type; `DataFrame::NumericViewFor` produces it in O(columns).
///
/// Determinism: `MultiplyRowRange` accumulates each entry in the same
/// ascending-k term order as `Matrix::Multiply` and per-row
/// `Vector::Dot`, with no zero-skipping, so walking the view is bitwise
/// identical to evaluating it row by row — including on NaN/Inf cells
/// (see docs/architecture.md, "Determinism contract").
class MatrixView {
 public:
  /// One column of the view. `selection == nullptr` means the buffer is
  /// flat (logical row i lives at buffer[i]).
  struct ColumnRef {
    const double* buffer = nullptr;
    const std::vector<size_t>* selection = nullptr;
  };

  MatrixView() = default;

  /// A view of `rows` logical rows over `columns`. When `row_indices`
  /// is non-null it must hold exactly `rows` entries; logical row r
  /// then resolves to column row (*row_indices)[r] before the
  /// per-column selection applies.
  MatrixView(size_t rows, std::vector<ColumnRef> columns,
             const std::vector<size_t>* row_indices = nullptr)
      : rows_(rows),
        columns_(std::move(columns)),
        row_indices_(row_indices) {
    CCS_DCHECK(row_indices_ == nullptr || row_indices_->size() == rows_);
  }

  /// This view restricted to logical rows `*row_indices` (borrowed, and
  /// each < rows()): logical row r of the result is row
  /// (*row_indices)[r] of this one. Columns are shared as they are.
  /// This view must not carry a row list itself.
  MatrixView RowSubset(const std::vector<size_t>* row_indices) const {
    CCS_DCHECK(row_indices_ == nullptr);
    MatrixView out = *this;
    out.rows_ = row_indices->size();
    out.row_indices_ = row_indices;
    return out;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return columns_.size(); }
  bool empty() const { return rows_ == 0 || columns_.empty(); }

  /// Element access, resolved through row_indices then the column's
  /// selection.
  double At(size_t r, size_t c) const {
    CCS_DCHECK(r < rows_ && c < columns_.size());
    const ColumnRef& col = columns_[c];
    const size_t t = row_indices_ ? (*row_indices_)[r] : r;
    return col.buffer[col.selection ? (*col.selection)[t] : t];
  }

  /// Gathers logical rows [row_begin, row_end) into `out` as a
  /// row-major block of (row_end - row_begin) x cols() doubles, walking
  /// column-at-a-time (one prefetch-friendly stream per column). This
  /// is the late-materialization primitive the kernels use: a
  /// cache-sized block is gathered into reused scratch and fed to the
  /// same compiled kernel the materializing path runs, so no full-size
  /// Matrix is ever allocated and the bits cannot differ (copying cells
  /// preserves them).
  void GatherBlock(size_t row_begin, size_t row_end, double* out) const {
    CCS_DCHECK(row_begin <= row_end && row_end <= rows_);
    const size_t m = columns_.size();
    for (size_t c = 0; c < m; ++c) {
      const ColumnRef& col = columns_[c];
      double* cell = out + c;
      for (size_t r = row_begin; r < row_end; ++r, cell += m) {
        const size_t t = row_indices_ ? (*row_indices_)[r] : r;
        *cell = col.buffer[col.selection ? (*col.selection)[t] : t];
      }
    }
  }

  /// Gathers column `c` for all rows into `out` (rows() doubles,
  /// contiguous).
  void MaterializeColumn(size_t c, double* out) const;

  /// rows [row_begin, row_end) of this * other, as a
  /// (row_end - row_begin) x other.cols() matrix — the same kernel
  /// contract as Matrix::Multiply: exact ascending-k accumulation order,
  /// no zero-skipping, bitwise identical to Multiply of the materialized
  /// rows and to per-row Vector::Dot.
  ///
  /// \param row_begin  First logical row to multiply (inclusive).
  /// \param row_end    One past the last row; must be <= rows().
  /// \param other      Right factor; other.rows() must equal cols().
  /// \return The product slice, with row 0 holding row_begin's result.
  Matrix MultiplyRowRange(size_t row_begin, size_t row_end,
                          const Matrix& other) const;

  /// The view materialized as an owned Matrix (cell-by-cell gather).
  /// Equivalence suites compare kernels on the view against the same
  /// kernels on this copy.
  Matrix ToMatrix() const;

 private:
  size_t rows_ = 0;
  std::vector<ColumnRef> columns_;
  const std::vector<size_t>* row_indices_ = nullptr;
};

}  // namespace ccs::linalg

#endif  // CCS_LINALG_MATRIX_VIEW_H_
