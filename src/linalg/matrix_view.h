// Non-owning columnar matrix view: kernels walk (buffer, selection)
// column refs in place, so scoring and Gram accumulation never
// materialize a per-call Matrix copy of view-backed DataFrame data.
//
// Columns may also be *derived* — computed from source columns on the
// fly (scale, product, linear combination) as the kernels walk the
// view — so transform pipelines (scaling, polynomial expansion,
// projection evaluation) compose without materializing intermediates.
// See docs/architecture.md, "Derived columns".

#ifndef CCS_LINALG_MATRIX_VIEW_H_
#define CCS_LINALG_MATRIX_VIEW_H_

#include <cstddef>
#include <cstdint>
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

/// How a view column produces its cells.
enum class ColumnOp : uint8_t {
  /// Read through from a source buffer (the original, copy-free case).
  kSource = 0,
  /// (x - shift) / divide over one input column — the StandardScaler
  /// transform. Division (not reciprocal-multiply) on purpose: the two
  /// are not bitwise equal, and the materializing scaler divides.
  kScale,
  /// Elementwise product of two input columns, first * second — the
  /// polynomial-expansion square and cross terms.
  kProduct,
  /// sum_k weights[k] * input_k accumulated in ascending k — the
  /// projection dot product. Term order matches Vector::Dot and
  /// AccumulateRowsTimesMatrix (value * weight, no zero-skipping).
  kCombine,
};

/// One input column of a derived expression: physical cell storage plus
/// the optional logical-row -> physical-index selection, exactly the
/// (buffer, selection) pair of a source ColumnRef.
struct ViewSource {
  const double* buffer = nullptr;
  const std::vector<size_t>* selection = nullptr;
};

namespace internal {

// The three derived-column evaluation kernels. ONE compiled copy per
// op (CCS_NOINLINE): every consumer — block gather, single-cell At,
// full-column materialization, and the materializing twins in
// core/ml — funnels through these, so lazy and materialized results
// cannot diverge even on NaN payloads (two compilations of an
// identical-looking FP loop may order operands differently; one
// compilation cannot). See docs/architecture.md, "Determinism
// contract".
//
// Cell resolution in all three: logical row r maps through the view's
// `row_indices` (when non-null) and then the per-source `selection`
// (when non-null) to a physical index. Output is strided so kernels
// write row-major blocks (stride = cols) or flat columns (stride = 1)
// with the same compiled loop.

/// out[(r - row_begin) * out_stride] = (in[idx(r) * in_stride] - shift)
/// / divide for r in [row_begin, row_end). `in_stride` lets the
/// materializing StandardScaler run this same kernel down the column
/// of a row-major Matrix (in = &data[j], in_stride = cols).
CCS_NOINLINE void EvalScaleColumn(const double* in, size_t in_stride,
                                  const std::vector<size_t>* selection,
                                  const std::vector<size_t>* row_indices,
                                  size_t row_begin, size_t row_end,
                                  double shift, double divide, double* out,
                                  size_t out_stride);

/// out[(r - row_begin) * out_stride] = a(r) * b(r), first * second.
CCS_NOINLINE void EvalProductColumn(const ViewSource& a, const ViewSource& b,
                                    const std::vector<size_t>* row_indices,
                                    size_t row_begin, size_t row_end,
                                    double* out, size_t out_stride);

/// out[(r - row_begin) * out_stride] = sum over k ascending of
/// sources[k](r) * weights[k], seeded from 0.0.
CCS_NOINLINE void EvalCombineColumn(const ViewSource* sources, size_t count,
                                    const double* weights,
                                    const std::vector<size_t>* row_indices,
                                    size_t row_begin, size_t row_end,
                                    double* out, size_t out_stride);

}  // namespace internal

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
/// A column may instead be *derived* (ColumnOp != kSource): its cells
/// are computed from source columns in the view's source pool by one of
/// the internal::Eval*Column kernels, block-by-block into the same
/// scratch the kernel walk already uses — no intermediate column is
/// ever allocated. Derived columns reference the pool by index, so the
/// view stays cheaply copyable; the pool entries (and a kCombine
/// column's `weights` array) are borrowed like everything else.
///
/// Lifetime: the view borrows everything — buffers, selections,
/// `row_indices`, and combine weights must outlive it (it does NOT hold
/// the shared_ptrs a DataFrame column does). It is a call-scoped kernel
/// argument, not a storage type; `DataFrame::NumericViewFor` /
/// `DataFrame::DerivedViewFor` produce it in O(columns).
///
/// Determinism: `MultiplyRowRange` accumulates each entry in the same
/// ascending-k term order as `Matrix::Multiply` and per-row
/// `Vector::Dot`, with no zero-skipping, so walking the view is bitwise
/// identical to evaluating it row by row — including on NaN/Inf cells
/// (see docs/architecture.md, "Determinism contract"). Derived cells
/// are row-independent and evaluated by one compiled kernel per op, so
/// block evaluation, single-cell At, and full-column materialization
/// all produce identical bits.
class MatrixView {
 public:
  /// One column of the view. `selection == nullptr` means the buffer is
  /// flat (logical row i lives at buffer[i]). For derived columns
  /// (op != kSource) buffer/selection are unused; the inputs live in
  /// the view's source pool at [input_begin, input_begin + input_count).
  struct ColumnRef {
    const double* buffer = nullptr;
    const std::vector<size_t>* selection = nullptr;
    ColumnOp op = ColumnOp::kSource;
    /// First input in the view's source pool (derived ops only).
    size_t input_begin = 0;
    /// Pool inputs consumed: kScale 1, kProduct 2, kCombine n.
    size_t input_count = 0;
    /// kScale parameters: (x - shift) / divide.
    double shift = 0.0;
    double divide = 1.0;
    /// kCombine coefficients, `input_count` of them (borrowed).
    const double* weights = nullptr;
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

  /// A view with derived columns: `sources` is the input pool that
  /// derived ColumnRefs index via input_begin/input_count.
  MatrixView(size_t rows, std::vector<ColumnRef> columns,
             std::vector<ViewSource> sources,
             const std::vector<size_t>* row_indices = nullptr)
      : rows_(rows),
        columns_(std::move(columns)),
        sources_(std::move(sources)),
        row_indices_(row_indices) {
    CCS_DCHECK(row_indices_ == nullptr || row_indices_->size() == rows_);
  }

  /// This view restricted to logical rows `*row_indices` (borrowed, and
  /// each < rows()): logical row r of the result is row
  /// (*row_indices)[r] of this one. Columns and the source pool are
  /// shared as they are. This view must not carry a row list itself.
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
  /// selection. Derived cells run the same compiled kernel the block
  /// walk runs, on a one-row range — same bits by construction.
  double At(size_t r, size_t c) const {
    CCS_DCHECK(r < rows_ && c < columns_.size());
    const ColumnRef& col = columns_[c];
    if (col.op != ColumnOp::kSource) {
      double value;
      EvalDerivedColumn(col, r, r + 1, &value, 1);
      return value;
    }
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
  /// preserves them). Derived columns are evaluated into the block by
  /// their op's kernel, strided exactly like the source gather.
  void GatherBlock(size_t row_begin, size_t row_end, double* out) const {
    CCS_DCHECK(row_begin <= row_end && row_end <= rows_);
    const size_t m = columns_.size();
    for (size_t c = 0; c < m; ++c) {
      const ColumnRef& col = columns_[c];
      if (col.op != ColumnOp::kSource) {
        EvalDerivedColumn(col, row_begin, row_end, out + c, m);
        continue;
      }
      double* cell = out + c;
      for (size_t r = row_begin; r < row_end; ++r, cell += m) {
        const size_t t = row_indices_ ? (*row_indices_)[r] : r;
        *cell = col.buffer[col.selection ? (*col.selection)[t] : t];
      }
    }
  }

  /// Evaluates column `c` for all rows into `out` (rows() doubles,
  /// contiguous). The materializing twins (ExpandPolynomial,
  /// StandardScaler::Transform) build their outputs through this, so a
  /// materialized column and its lazy view share one compiled kernel
  /// per op and cannot diverge bitwise.
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

  /// The view materialized as an owned Matrix (cell-by-cell gather;
  /// derived columns evaluated by their kernels). Equivalence suites
  /// compare kernels on the view against the same kernels on this copy.
  Matrix ToMatrix() const;

 private:
  // Dispatches a derived column to its op's CCS_NOINLINE kernel,
  // writing rows [row_begin, row_end) at the given output stride.
  void EvalDerivedColumn(const ColumnRef& col, size_t row_begin,
                         size_t row_end, double* out,
                         size_t out_stride) const;

  size_t rows_ = 0;
  std::vector<ColumnRef> columns_;
  // Input pool for derived columns (empty for pure source views).
  std::vector<ViewSource> sources_;
  const std::vector<size_t>* row_indices_ = nullptr;
};

}  // namespace ccs::linalg

#endif  // CCS_LINALG_MATRIX_VIEW_H_
