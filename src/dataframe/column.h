// Typed column storage: a column is either all-numeric or all-categorical.
//
// Storage is columnar and shared: the numeric buffer, the categorical
// code buffer, and the categorical dictionary live behind shared_ptrs,
// so copying a Column (and every row-subset DataFrame operation built on
// it) never copies cell data. Categorical cells are dictionary-encoded —
// a uint32_t code per row into a per-column vector<string> dictionary,
// interned at construction (CSV parse time for loaded data) — so
// grouping and partitioning compare integers instead of hashing strings.
//
// A Column may additionally carry a row-index *selection vector*: a
// shared list of physical row indices that makes the column a zero-copy
// view of `selection.size()` logical rows over the same buffers. All
// logical accessors (NumericAt, CategoricalAt, CodeAt, size) resolve
// through the selection; Materialize() flattens a view back into owned
// contiguous buffers for the rare caller that needs them.

#ifndef CCS_DATAFRAME_COLUMN_H_
#define CCS_DATAFRAME_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "dataframe/schema.h"
#include "linalg/vector.h"

namespace ccs::dataframe {

/// Interns strings into a growing dictionary with copy-on-write
/// snapshots: snapshot() hands out the current dictionary as a shared
/// immutable vector, and a later Intern of a *new* value clones the
/// dictionary instead of mutating what the snapshots alias. Codes are
/// stable across snapshots (the dictionary only ever appends), so codes
/// produced against an older snapshot stay valid against newer ones.
class DictionaryBuilder {
 public:
  DictionaryBuilder() : values_(std::make_shared<std::vector<std::string>>()) {}

  // Move-only: a copy would alias the same dictionary vector behind two
  // diverging index maps, letting interleaved Interns append duplicate
  // entries and break the code==value identity invariant.
  DictionaryBuilder(const DictionaryBuilder&) = delete;
  DictionaryBuilder& operator=(const DictionaryBuilder&) = delete;
  DictionaryBuilder(DictionaryBuilder&&) = default;
  DictionaryBuilder& operator=(DictionaryBuilder&&) = default;

  /// The code of `value`, interning it on first sight.
  uint32_t Intern(const std::string& value);

  /// The current dictionary as a shared immutable snapshot.
  std::shared_ptr<const std::vector<std::string>> snapshot() const;

  size_t size() const { return values_->size(); }

 private:
  std::unordered_map<std::string, uint32_t> index_;
  std::shared_ptr<std::vector<std::string>> values_;
  mutable bool snapshot_taken_ = false;
};

/// A single column of a DataFrame.
///
/// Stores doubles for numeric columns and dictionary codes for
/// categorical ones; exactly one representation is in use, selected by
/// type(). Copies are O(1) (shared buffers).
class Column {
 public:
  /// An empty column of the given type.
  explicit Column(AttributeType type);

  /// A numeric column adopting `values`.
  static Column Numeric(std::vector<double> values);

  /// A categorical column interning `values` (dictionary in
  /// first-appearance order).
  static Column Categorical(const std::vector<std::string>& values);

  /// A categorical column adopting pre-encoded codes. Every code must be
  /// < dictionary->size() and dictionary entries must be unique (both
  /// checked in debug builds) — consumers rely on code identity implying
  /// value identity. DictionaryBuilder guarantees uniqueness.
  static Column CategoricalFromCodes(
      std::vector<uint32_t> codes,
      std::shared_ptr<const std::vector<std::string>> dictionary);

  /// A zero-copy view of the physical rows `selection` of a shared
  /// numeric buffer whose producer goes on writing rows the selection
  /// does not name (stream::Windower's generation buffers). The
  /// producer must never resize the buffer, nor rewrite a row once a
  /// view names it.
  static Column NumericView(
      std::shared_ptr<std::vector<double>> buffer,
      std::shared_ptr<const std::vector<size_t>> selection);

  /// The categorical twin of NumericView: the selected codes must index
  /// `dictionary` (codes past the selection may not yet).
  static Column CategoricalView(
      std::shared_ptr<std::vector<uint32_t>> codes,
      std::shared_ptr<const std::vector<std::string>> dictionary,
      std::shared_ptr<const std::vector<size_t>> selection);

  AttributeType type() const { return type_; }
  bool is_numeric() const { return type_ == AttributeType::kNumeric; }

  /// True when this column is a zero-copy view (has a selection vector).
  bool is_view() const { return selection_ != nullptr; }

  /// Logical rows (selection size for views, buffer size otherwise).
  size_t size() const {
    if (selection_) return selection_->size();
    return is_numeric() ? numeric_->size() : codes_->size();
  }

  /// Numeric element access (logical row). Requires is_numeric().
  double NumericAt(size_t i) const {
    CCS_DCHECK(is_numeric());
    return (*numeric_)[PhysicalRow(i)];
  }

  /// Categorical element access (logical row). Requires !is_numeric().
  const std::string& CategoricalAt(size_t i) const {
    CCS_DCHECK(!is_numeric());
    return (*dictionary_)[(*codes_)[PhysicalRow(i)]];
  }

  /// Dictionary code of a categorical cell (logical row).
  uint32_t CodeAt(size_t i) const {
    CCS_DCHECK(!is_numeric());
    return (*codes_)[PhysicalRow(i)];
  }

  /// Appends to a numeric column. Detaches (copies) shared or viewed
  /// storage first, so existing views of this column are unaffected.
  void AppendNumeric(double value);

  /// Appends to a categorical column under the same detach rule.
  void AppendCategorical(const std::string& value);

  /// The column as a linalg::Vector copy (gathered through the selection
  /// for views). Requires is_numeric().
  linalg::Vector ToVector() const;

  /// The contiguous numeric buffer, zero-copy. Requires is_numeric() and
  /// !is_view() — views have no contiguous buffer; Materialize() first.
  const std::vector<double>& numeric_data() const {
    CCS_DCHECK(is_numeric());
    CCS_CHECK(!is_view());
    return *numeric_;
  }

  /// The categorical cells decoded to strings (always a copy — stored
  /// data is dictionary codes). Requires !is_numeric().
  std::vector<std::string> categorical_data() const;

  /// The dictionary of a categorical column (physical codes index it).
  const std::vector<std::string>& dictionary() const {
    CCS_DCHECK(!is_numeric());
    return *dictionary_;
  }

  const std::shared_ptr<const std::vector<std::string>>& shared_dictionary()
      const {
    CCS_DCHECK(!is_numeric());
    return dictionary_;
  }

  /// Physical (pre-selection) buffers, for one-pass gather kernels.
  const std::vector<double>& numeric_buffer() const {
    CCS_DCHECK(is_numeric());
    return *numeric_;
  }
  const std::vector<uint32_t>& code_buffer() const {
    CCS_DCHECK(!is_numeric());
    return *codes_;
  }

  /// The selection vector, or nullptr for a flat column.
  const std::vector<size_t>* selection() const { return selection_.get(); }

  /// Distinct values, in first-appearance order of the logical rows.
  std::vector<std::string> DistinctValues() const;

  /// A zero-copy view containing logical rows[i] for each i in `indices`.
  Column Gather(const std::vector<size_t>& indices) const;

  /// A view of this column's *physical* rows given by `selection`,
  /// replacing any current selection — the building block DataFrame uses
  /// to share one composed selection across columns. The caller is
  /// responsible for having composed `selection` through this column's
  /// current selection (Gather does); every entry must index the
  /// physical buffer.
  Column WithSelection(
      std::shared_ptr<const std::vector<size_t>> selection) const;

  /// A flat column owning contiguous copies of the logical rows. No-op
  /// (shared, no copy) when already flat.
  Column Materialize() const;

  /// Row-wise concatenation of two columns of the same type. The result
  /// is flat; dictionaries are merged (b's codes are re-interned into
  /// a's dictionary when they differ).
  static Column Concat(const Column& a, const Column& b);

 private:
  size_t PhysicalRow(size_t i) const {
    CCS_DCHECK(i < size());
    return selection_ ? (*selection_)[i] : i;
  }

  // Detaches shared/viewed storage so in-place mutation is safe.
  void EnsureOwnedNumeric();
  void EnsureOwnedCategorical();

  AttributeType type_;
  std::shared_ptr<std::vector<double>> numeric_;             // kNumeric
  std::shared_ptr<std::vector<uint32_t>> codes_;             // kCategorical
  std::shared_ptr<const std::vector<std::string>> dictionary_;
  std::shared_ptr<const std::vector<size_t>> selection_;     // null = flat
};

}  // namespace ccs::dataframe

#endif  // CCS_DATAFRAME_COLUMN_H_
