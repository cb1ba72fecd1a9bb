// DataFrame: the in-memory relation the whole pipeline operates on.

#ifndef CCS_DATAFRAME_DATAFRAME_H_
#define CCS_DATAFRAME_DATAFRAME_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "dataframe/column.h"
#include "dataframe/schema.h"
#include "linalg/matrix.h"
#include "linalg/matrix_view.h"
#include "linalg/vector.h"

namespace ccs::dataframe {

/// A column-oriented table with a typed schema.
///
/// Columns are appended via AddNumericColumn / AddCategoricalColumn; all
/// columns must have equal length (checked). Row-subset operations
/// (Filter/Slice/Gather/Sample/PartitionBy) return zero-copy *views*:
/// the result shares the source's immutable column buffers and carries a
/// row-index selection vector, so a subset costs O(selected rows) index
/// entries, never a cell copy. Views are plain DataFrames — every
/// accessor resolves through the selection — and they keep the shared
/// buffers alive, so a view may outlive the frame it was taken from.
/// Materialize() flattens a view into owned contiguous buffers for the
/// rare caller that needs them (Concat does this internally).
class DataFrame {
 public:
  DataFrame() = default;

  /// Appends a numeric column. Fails if the name exists or the length
  /// disagrees with existing columns.
  Status AddNumericColumn(const std::string& name,
                          std::vector<double> values);

  /// Appends a categorical column under the same rules.
  Status AddCategoricalColumn(const std::string& name,
                              std::vector<std::string> values);

  /// Appends an already-built column (possibly sharing another frame's
  /// buffers) under the same rules.
  Status AddColumn(const std::string& name, Column column);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }

  /// Column lookup by name.
  StatusOr<const Column*> ColumnByName(const std::string& name) const;

  /// Numeric value at (row, column-name). Fails if the column is missing
  /// or categorical, or the row is out of range.
  StatusOr<double> NumericValue(size_t row, const std::string& name) const;

  /// Categorical value at (row, column-name).
  StatusOr<std::string> CategoricalValue(size_t row,
                                         const std::string& name) const;

  /// The numeric attributes of row `row`, in schema order of the numeric
  /// columns (the "tuple" the conformance machinery evaluates).
  linalg::Vector NumericRow(size_t row) const;

  /// All numeric columns as an n x m_N matrix (schema order).
  linalg::Matrix NumericMatrix() const;

  /// Selected columns (all must be numeric) as an n x k matrix.
  StatusOr<linalg::Matrix> NumericMatrixFor(
      const std::vector<std::string>& names) const;

  /// Selected columns restricted to the given rows (in the given order)
  /// as a rows.size() x k matrix. Row indices are validated up front
  /// (before any gathering). Cold callers only — hot kernels walk the
  /// zero-copy NumericViewFor instead.
  StatusOr<linalg::Matrix> NumericMatrixFor(
      const std::vector<std::string>& names,
      const std::vector<size_t>& rows) const;

  /// Selected columns (all must be numeric) as a non-owning n x k
  /// columnar view, built in O(k) without copying cell data — the
  /// zero-materialization twin of NumericMatrixFor for hot kernels
  /// (scoring, Gram accumulation). The view borrows this frame's
  /// buffers and selection vectors: it is valid only while this frame
  /// is alive and must not outlive it.
  StatusOr<linalg::MatrixView> NumericViewFor(
      const std::vector<std::string>& names) const;

  /// The row-subset variant: logical rows `rows` (in the given order,
  /// repeats allowed) of the selected columns, still O(k) and zero-copy
  /// — the per-case view the batched disjunctive scorer walks. Row
  /// indices are validated up front; the view additionally borrows
  /// `rows`, which must outlive it.
  StatusOr<linalg::MatrixView> NumericViewFor(
      const std::vector<std::string>& names,
      const std::vector<size_t>& rows) const;

  /// Deleted: a temporary row list would leave the returned view
  /// holding a dangling pointer (the view borrows `rows`, it does not
  /// copy it). Bind the rows to a named vector that outlives the view.
  StatusOr<linalg::MatrixView> NumericViewFor(
      const std::vector<std::string>& names,
      std::vector<size_t>&& rows) const = delete;

  /// Names of numeric / categorical columns in schema order.
  std::vector<std::string> NumericNames() const;
  std::vector<std::string> CategoricalNames() const;

  /// Rows for which `predicate(row_index)` is true, as a zero-copy view.
  DataFrame Filter(const std::function<bool(size_t)>& predicate) const;

  /// Rows [begin, end), as a zero-copy view.
  DataFrame Slice(size_t begin, size_t end) const;

  /// The rows at `indices`, in the given order (repeats allowed), as a
  /// zero-copy view. Indices are logical rows of this frame (which may
  /// itself be a view; selections compose).
  DataFrame Gather(const std::vector<size_t>& indices) const;

  /// True when any column is a view (carries a selection vector).
  bool is_view() const;

  /// A frame with the same rows in owned, contiguous, selection-free
  /// buffers. Cheap (shared) when nothing is a view.
  DataFrame Materialize() const;

  /// `k` rows sampled uniformly without replacement; k is clamped to
  /// num_rows().
  DataFrame Sample(size_t k, Rng* rng) const;

  /// Row-wise concatenation; schemas must match exactly. The result is
  /// materialized (fresh flat buffers), never a view.
  StatusOr<DataFrame> Concat(const DataFrame& other) const;

  /// Splits on a categorical attribute: value -> sub-DataFrame view
  /// (paper §4.2 partitioning step). Groups on integer dictionary codes
  /// (no string hashing); each partition is a zero-copy view whose rows
  /// keep their original order. Fails if the attribute is not
  /// categorical.
  StatusOr<std::map<std::string, DataFrame>> PartitionBy(
      const std::string& attribute) const;

  /// A copy without the named columns (e.g. dropping the prediction
  /// target before constraint synthesis). Missing names are errors.
  StatusOr<DataFrame> DropColumns(const std::vector<std::string>& names) const;

  /// A copy with only the named columns, in the given order.
  StatusOr<DataFrame> SelectColumns(
      const std::vector<std::string>& names) const;

  /// Human-readable summary: per-column type, count, and basic stats.
  std::string Describe() const;

 private:
  Status CheckNewColumn(const std::string& name, size_t length) const;

  // The (buffer, selection) refs of the named numeric columns — the one
  // name resolution both NumericViewFor overloads build their views
  // from. Fails on a missing or non-numeric column.
  StatusOr<std::vector<linalg::MatrixView::ColumnRef>> NumericColumnRefs(
      const std::vector<std::string>& names) const;

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace ccs::dataframe

#endif  // CCS_DATAFRAME_DATAFRAME_H_
