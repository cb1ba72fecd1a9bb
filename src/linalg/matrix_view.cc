#include "linalg/matrix_view.h"

#include <algorithm>
#include <vector>

namespace ccs::linalg {

void MatrixView::MaterializeColumn(size_t c, double* out) const {
  CCS_CHECK(c < columns_.size());
  const ColumnRef& col = columns_[c];
  for (size_t r = 0; r < rows_; ++r) {
    const size_t t = row_indices_ ? (*row_indices_)[r] : r;
    out[r] = col.buffer[col.selection ? (*col.selection)[t] : t];
  }
}

CCS_CODE_ALIGN64 Matrix MatrixView::MultiplyRowRange(
    size_t row_begin, size_t row_end, const Matrix& other) const {
  CCS_CHECK_EQ(columns_.size(), other.rows());
  CCS_CHECK(row_begin <= row_end && row_end <= rows_);
  Matrix out(row_end - row_begin, other.cols());
  if (other.cols() == 0 || row_begin == row_end) return out;
  // Late materialization in cache-sized blocks: gather
  // kViewGatherBlockRows rows into reused scratch (column-at-a-time,
  // one stream per column), then run the SAME compiled tile kernel
  // Matrix::Multiply runs. Copying cells preserves their bits,
  // and sharing one out-of-line kernel — rather than re-stating "the
  // same loop" here — removes the one divergence source term-order
  // reasoning cannot close: two compilations of an identical-looking
  // kernel may order FP operands differently and propagate different
  // NaN payloads. The scratch block never grows with the row count, and
  // no full-size Matrix is allocated, zero-filled, written, and re-read
  // per call.
  const size_t m = columns_.size();
  std::vector<double> scratch(
      std::min(row_end - row_begin, kViewGatherBlockRows) * m);
  for (size_t b = row_begin; b < row_end; b += kViewGatherBlockRows) {
    const size_t e = std::min(row_end, b + kViewGatherBlockRows);
    GatherBlock(b, e, scratch.data());
    internal::AccumulateRowsTimesMatrix(scratch.data(), e - b, m, other,
                                        &out.At(b - row_begin, 0));
  }
  return out;
}

Matrix MatrixView::ToMatrix() const {
  Matrix out(rows_, columns_.size());
  if (rows_ == 0 || columns_.empty()) return out;
  GatherBlock(0, rows_, &out.At(0, 0));
  return out;
}

}  // namespace ccs::linalg
