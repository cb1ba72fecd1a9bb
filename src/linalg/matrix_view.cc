#include "linalg/matrix_view.h"

#include <algorithm>
#include <vector>

namespace ccs::linalg {

namespace internal {

CCS_NOINLINE void EvalScaleColumn(const double* in, size_t in_stride,
                                  const std::vector<size_t>* selection,
                                  const std::vector<size_t>* row_indices,
                                  size_t row_begin, size_t row_end,
                                  double shift, double divide, double* out,
                                  size_t out_stride) {
  for (size_t r = row_begin; r < row_end; ++r, out += out_stride) {
    const size_t t = row_indices ? (*row_indices)[r] : r;
    const size_t idx = selection ? (*selection)[t] : t;
    *out = (in[idx * in_stride] - shift) / divide;
  }
}

CCS_NOINLINE void EvalProductColumn(const ViewSource& a, const ViewSource& b,
                                    const std::vector<size_t>* row_indices,
                                    size_t row_begin, size_t row_end,
                                    double* out, size_t out_stride) {
  for (size_t r = row_begin; r < row_end; ++r, out += out_stride) {
    const size_t t = row_indices ? (*row_indices)[r] : r;
    const double va = a.buffer[a.selection ? (*a.selection)[t] : t];
    const double vb = b.buffer[b.selection ? (*b.selection)[t] : t];
    *out = va * vb;
  }
}

CCS_NOINLINE void EvalCombineColumn(const ViewSource* sources, size_t count,
                                    const double* weights,
                                    const std::vector<size_t>* row_indices,
                                    size_t row_begin, size_t row_end,
                                    double* out, size_t out_stride) {
  for (size_t r = row_begin; r < row_end; ++r, out += out_stride) {
    const size_t t = row_indices ? (*row_indices)[r] : r;
    double acc = 0.0;
    for (size_t k = 0; k < count; ++k) {
      const ViewSource& s = sources[k];
      acc += s.buffer[s.selection ? (*s.selection)[t] : t] * weights[k];
    }
    *out = acc;
  }
}

}  // namespace internal

void MatrixView::EvalDerivedColumn(const ColumnRef& col, size_t row_begin,
                                   size_t row_end, double* out,
                                   size_t out_stride) const {
  switch (col.op) {
    case ColumnOp::kScale: {
      CCS_DCHECK(col.input_count == 1 &&
                 col.input_begin < sources_.size());
      const ViewSource& s = sources_[col.input_begin];
      internal::EvalScaleColumn(s.buffer, 1, s.selection, row_indices_,
                                row_begin, row_end, col.shift, col.divide,
                                out, out_stride);
      return;
    }
    case ColumnOp::kProduct:
      CCS_DCHECK(col.input_count == 2 &&
                 col.input_begin + 1 < sources_.size());
      internal::EvalProductColumn(sources_[col.input_begin],
                                  sources_[col.input_begin + 1],
                                  row_indices_, row_begin, row_end, out,
                                  out_stride);
      return;
    case ColumnOp::kCombine:
      CCS_DCHECK(col.input_count > 0 && col.weights != nullptr &&
                 col.input_begin + col.input_count <= sources_.size());
      internal::EvalCombineColumn(&sources_[col.input_begin],
                                  col.input_count, col.weights, row_indices_,
                                  row_begin, row_end, out, out_stride);
      return;
    case ColumnOp::kSource:
      break;
  }
  // kSource: plain strided gather (MaterializeColumn funnels here).
  for (size_t r = row_begin; r < row_end; ++r, out += out_stride) {
    const size_t t = row_indices_ ? (*row_indices_)[r] : r;
    *out = col.buffer[col.selection ? (*col.selection)[t] : t];
  }
}

void MatrixView::MaterializeColumn(size_t c, double* out) const {
  CCS_CHECK(c < columns_.size());
  EvalDerivedColumn(columns_[c], 0, rows_, out, 1);
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
  // per call. Derived
  // columns are evaluated into the same scratch block by their op's
  // kernel as part of the gather — a lazy view multiplies without ever
  // materializing the derived columns either.
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
