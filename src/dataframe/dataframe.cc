#include "dataframe/dataframe.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"

namespace ccs::dataframe {

Status DataFrame::CheckNewColumn(const std::string& name,
                                 size_t length) const {
  if (schema_.Contains(name)) {
    return Status::AlreadyExists("column already exists: " + name);
  }
  if (!columns_.empty() && length != num_rows_) {
    return Status::InvalidArgument(
        "column " + name + " has length " + std::to_string(length) +
        " but the frame has " + std::to_string(num_rows_) + " rows");
  }
  return Status::OK();
}

Status DataFrame::AddNumericColumn(const std::string& name,
                                   std::vector<double> values) {
  CCS_RETURN_IF_ERROR(CheckNewColumn(name, values.size()));
  num_rows_ = values.size();
  CCS_RETURN_IF_ERROR(schema_.AddAttribute(name, AttributeType::kNumeric));
  columns_.push_back(Column::Numeric(std::move(values)));
  return Status::OK();
}

Status DataFrame::AddCategoricalColumn(const std::string& name,
                                       std::vector<std::string> values) {
  CCS_RETURN_IF_ERROR(CheckNewColumn(name, values.size()));
  num_rows_ = values.size();
  CCS_RETURN_IF_ERROR(schema_.AddAttribute(name, AttributeType::kCategorical));
  columns_.push_back(Column::Categorical(values));
  return Status::OK();
}

Status DataFrame::AddColumn(const std::string& name, Column column) {
  CCS_RETURN_IF_ERROR(CheckNewColumn(name, column.size()));
  num_rows_ = column.size();
  CCS_RETURN_IF_ERROR(schema_.AddAttribute(name, column.type()));
  columns_.push_back(std::move(column));
  return Status::OK();
}

StatusOr<const Column*> DataFrame::ColumnByName(const std::string& name) const {
  CCS_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  return &columns_[idx];
}

StatusOr<double> DataFrame::NumericValue(size_t row,
                                         const std::string& name) const {
  CCS_ASSIGN_OR_RETURN(const Column* col, ColumnByName(name));
  if (!col->is_numeric()) {
    return Status::InvalidArgument("column is not numeric: " + name);
  }
  if (row >= num_rows_) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  return col->NumericAt(row);
}

StatusOr<std::string> DataFrame::CategoricalValue(
    size_t row, const std::string& name) const {
  CCS_ASSIGN_OR_RETURN(const Column* col, ColumnByName(name));
  if (col->is_numeric()) {
    return Status::InvalidArgument("column is not categorical: " + name);
  }
  if (row >= num_rows_) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  return col->CategoricalAt(row);
}

linalg::Vector DataFrame::NumericRow(size_t row) const {
  CCS_CHECK(row < num_rows_);
  std::vector<size_t> numeric = schema_.NumericIndices();
  linalg::Vector out(numeric.size());
  for (size_t i = 0; i < numeric.size(); ++i) {
    out[i] = columns_[numeric[i]].NumericAt(row);
  }
  return out;
}

linalg::Matrix DataFrame::NumericMatrix() const {
  std::vector<size_t> numeric = schema_.NumericIndices();
  linalg::Matrix out(num_rows_, numeric.size());
  for (size_t j = 0; j < numeric.size(); ++j) {
    const Column& col = columns_[numeric[j]];
    for (size_t i = 0; i < num_rows_; ++i) out.At(i, j) = col.NumericAt(i);
  }
  return out;
}

StatusOr<linalg::Matrix> DataFrame::NumericMatrixFor(
    const std::vector<std::string>& names) const {
  // One pass per column over raw buffers: views gather through the
  // selection vector directly instead of re-resolving it per cell.
  linalg::Matrix out(num_rows_, names.size());
  for (size_t j = 0; j < names.size(); ++j) {
    CCS_ASSIGN_OR_RETURN(const Column* col, ColumnByName(names[j]));
    if (!col->is_numeric()) {
      return Status::InvalidArgument("column is not numeric: " + names[j]);
    }
    const std::vector<double>& buf = col->numeric_buffer();
    if (const std::vector<size_t>* sel = col->selection()) {
      for (size_t i = 0; i < num_rows_; ++i) out.At(i, j) = buf[(*sel)[i]];
    } else {
      for (size_t i = 0; i < num_rows_; ++i) out.At(i, j) = buf[i];
    }
  }
  return out;
}

StatusOr<linalg::Matrix> DataFrame::NumericMatrixFor(
    const std::vector<std::string>& names,
    const std::vector<size_t>& rows) const {
  // Validate the row subset once up front: the gather loop below then
  // runs branch-free per cell, and a bad index can no longer leave the
  // caller with partially gathered columns' worth of wasted work.
  for (size_t r : rows) {
    if (r >= num_rows_) {
      return Status::OutOfRange("NumericMatrixFor: row index out of range");
    }
  }
  linalg::Matrix out(rows.size(), names.size());
  for (size_t j = 0; j < names.size(); ++j) {
    CCS_ASSIGN_OR_RETURN(const Column* col, ColumnByName(names[j]));
    if (!col->is_numeric()) {
      return Status::InvalidArgument("column is not numeric: " + names[j]);
    }
    const std::vector<double>& buf = col->numeric_buffer();
    if (const std::vector<size_t>* sel = col->selection()) {
      for (size_t i = 0; i < rows.size(); ++i) out.At(i, j) = buf[(*sel)[rows[i]]];
    } else {
      for (size_t i = 0; i < rows.size(); ++i) out.At(i, j) = buf[rows[i]];
    }
  }
  return out;
}

StatusOr<std::vector<linalg::MatrixView::ColumnRef>>
DataFrame::NumericColumnRefs(const std::vector<std::string>& names) const {
  std::vector<linalg::MatrixView::ColumnRef> refs;
  refs.reserve(names.size());
  for (const std::string& name : names) {
    CCS_ASSIGN_OR_RETURN(const Column* col, ColumnByName(name));
    if (!col->is_numeric()) {
      return Status::InvalidArgument("column is not numeric: " + name);
    }
    refs.push_back({col->numeric_buffer().data(), col->selection()});
  }
  return refs;
}

StatusOr<linalg::MatrixView> DataFrame::NumericViewFor(
    const std::vector<std::string>& names) const {
  CCS_ASSIGN_OR_RETURN(std::vector<linalg::MatrixView::ColumnRef> refs,
                       NumericColumnRefs(names));
  return linalg::MatrixView(num_rows_, std::move(refs));
}

StatusOr<linalg::MatrixView> DataFrame::NumericViewFor(
    const std::vector<std::string>& names,
    const std::vector<size_t>& rows) const {
  for (size_t r : rows) {
    if (r >= num_rows_) {
      return Status::OutOfRange("NumericViewFor: row index out of range");
    }
  }
  CCS_ASSIGN_OR_RETURN(std::vector<linalg::MatrixView::ColumnRef> refs,
                       NumericColumnRefs(names));
  return linalg::MatrixView(rows.size(), std::move(refs), &rows);
}

std::vector<std::string> DataFrame::NumericNames() const {
  std::vector<std::string> out;
  for (size_t i : schema_.NumericIndices()) {
    out.push_back(schema_.attribute(i).name);
  }
  return out;
}

std::vector<std::string> DataFrame::CategoricalNames() const {
  std::vector<std::string> out;
  for (size_t i : schema_.CategoricalIndices()) {
    out.push_back(schema_.attribute(i).name);
  }
  return out;
}

DataFrame DataFrame::Filter(
    const std::function<bool(size_t)>& predicate) const {
  std::vector<size_t> keep;
  for (size_t i = 0; i < num_rows_; ++i) {
    if (predicate(i)) keep.push_back(i);
  }
  return Gather(keep);
}

DataFrame DataFrame::Slice(size_t begin, size_t end) const {
  begin = std::min(begin, num_rows_);
  end = std::min(std::max(end, begin), num_rows_);
  std::vector<size_t> keep;
  keep.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) keep.push_back(i);
  return Gather(keep);
}

DataFrame DataFrame::Gather(const std::vector<size_t>& indices) const {
  for (size_t i : indices) CCS_DCHECK(i < num_rows_);
  DataFrame out;
  out.schema_ = schema_;
  out.num_rows_ = indices.size();
  out.columns_.reserve(columns_.size());
  // Columns of one frame normally share one selection vector; compose
  // `indices` with each *distinct* existing selection once and share the
  // result, so a gather allocates O(#distinct selections) index vectors,
  // not O(#columns).
  std::map<const std::vector<size_t>*,
           std::shared_ptr<const std::vector<size_t>>>
      composed;
  for (const Column& col : columns_) {
    const std::vector<size_t>* sel = col.selection();
    std::shared_ptr<const std::vector<size_t>>& slot = composed[sel];
    if (!slot) {
      if (sel == nullptr) {
        slot = std::make_shared<const std::vector<size_t>>(indices);
      } else {
        auto physical = std::make_shared<std::vector<size_t>>();
        physical->reserve(indices.size());
        for (size_t i : indices) physical->push_back((*sel)[i]);
        slot = std::move(physical);
      }
    }
    out.columns_.push_back(col.WithSelection(slot));
  }
  return out;
}

DataFrame DataFrame::Sample(size_t k, Rng* rng) const {
  k = std::min(k, num_rows_);
  std::vector<size_t> perm = rng->Permutation(num_rows_);
  perm.resize(k);
  return Gather(perm);
}

StatusOr<DataFrame> DataFrame::Concat(const DataFrame& other) const {
  if (!(schema_ == other.schema_)) {
    return Status::InvalidArgument("Concat: schema mismatch");
  }
  DataFrame out;
  out.schema_ = schema_;
  out.num_rows_ = num_rows_ + other.num_rows_;
  out.columns_.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.columns_.push_back(Column::Concat(columns_[c], other.columns_[c]));
  }
  return out;
}

bool DataFrame::is_view() const {
  for (const Column& col : columns_) {
    if (col.is_view()) return true;
  }
  return false;
}

DataFrame DataFrame::Materialize() const {
  DataFrame out;
  out.schema_ = schema_;
  out.num_rows_ = num_rows_;
  out.columns_.reserve(columns_.size());
  for (const Column& col : columns_) {
    out.columns_.push_back(col.Materialize());
  }
  return out;
}

StatusOr<std::map<std::string, DataFrame>> DataFrame::PartitionBy(
    const std::string& attribute) const {
  CCS_ASSIGN_OR_RETURN(const Column* col, ColumnByName(attribute));
  if (col->is_numeric()) {
    return Status::InvalidArgument(
        "PartitionBy requires a categorical attribute: " + attribute);
  }
  // Bucket row indices by dictionary code — one integer lookup per row,
  // no string hashing — then emit one view per non-empty code. The
  // std::map keys the output by dictionary *string*, so the result
  // order matches the pre-dictionary implementation exactly.
  const std::vector<std::string>& dict = col->dictionary();
  std::vector<std::vector<size_t>> buckets(dict.size());
  for (size_t i = 0; i < num_rows_; ++i) {
    buckets[col->CodeAt(i)].push_back(i);
  }
  std::map<std::string, DataFrame> out;
  for (size_t code = 0; code < buckets.size(); ++code) {
    if (buckets[code].empty()) continue;
    out.emplace(dict[code], Gather(buckets[code]));
  }
  return out;
}

StatusOr<DataFrame> DataFrame::DropColumns(
    const std::vector<std::string>& names) const {
  for (const std::string& name : names) {
    if (!schema_.Contains(name)) {
      return Status::NotFound("DropColumns: no column named " + name);
    }
  }
  DataFrame out;
  out.num_rows_ = num_rows_;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const std::string& name = schema_.attribute(i).name;
    if (std::find(names.begin(), names.end(), name) != names.end()) continue;
    CCS_RETURN_IF_ERROR(out.schema_.AddAttribute(name, columns_[i].type()));
    out.columns_.push_back(columns_[i]);
  }
  return out;
}

StatusOr<DataFrame> DataFrame::SelectColumns(
    const std::vector<std::string>& names) const {
  DataFrame out;
  out.num_rows_ = num_rows_;
  for (const std::string& name : names) {
    CCS_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
    CCS_RETURN_IF_ERROR(
        out.schema_.AddAttribute(name, columns_[idx].type()));
    out.columns_.push_back(columns_[idx]);
  }
  return out;
}

std::string DataFrame::Describe() const {
  std::ostringstream os;
  os << "DataFrame: " << num_rows_ << " rows x " << columns_.size()
     << " columns\n";
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Attribute& attr = schema_.attribute(i);
    os << "  " << attr.name << " (" << AttributeTypeToString(attr.type)
       << ")";
    if (columns_[i].is_numeric() && num_rows_ > 0) {
      linalg::Vector v = columns_[i].ToVector();
      os << " mean=" << FormatDouble(v.Mean())
         << " std=" << FormatDouble(v.StdDev())
         << " min=" << FormatDouble(v.Min())
         << " max=" << FormatDouble(v.Max());
    } else if (!columns_[i].is_numeric()) {
      os << " distinct=" << columns_[i].DistinctValues().size();
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ccs::dataframe
