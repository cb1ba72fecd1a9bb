#include "dataframe/column.h"

#include <unordered_set>
#include <utility>

namespace ccs::dataframe {

uint32_t DictionaryBuilder::Intern(const std::string& value) {
  auto it = index_.find(value);
  if (it != index_.end()) return it->second;
  if (snapshot_taken_) {
    // A snapshot aliases the current vector; append into a clone so the
    // snapshot stays immutable. Codes are unchanged (append-only).
    values_ = std::make_shared<std::vector<std::string>>(*values_);
    snapshot_taken_ = false;
  }
  uint32_t code = static_cast<uint32_t>(values_->size());
  values_->push_back(value);
  index_.emplace(value, code);
  return code;
}

std::shared_ptr<const std::vector<std::string>> DictionaryBuilder::snapshot()
    const {
  snapshot_taken_ = true;
  return values_;
}

Column::Column(AttributeType type) : type_(type) {
  if (is_numeric()) {
    numeric_ = std::make_shared<std::vector<double>>();
  } else {
    codes_ = std::make_shared<std::vector<uint32_t>>();
    dictionary_ = std::make_shared<const std::vector<std::string>>();
  }
}

Column Column::Numeric(std::vector<double> values) {
  Column col(AttributeType::kNumeric);
  col.numeric_ = std::make_shared<std::vector<double>>(std::move(values));
  return col;
}

Column Column::Categorical(const std::vector<std::string>& values) {
  DictionaryBuilder dict;
  std::vector<uint32_t> codes;
  codes.reserve(values.size());
  for (const std::string& v : values) codes.push_back(dict.Intern(v));
  return CategoricalFromCodes(std::move(codes), dict.snapshot());
}

Column Column::CategoricalFromCodes(
    std::vector<uint32_t> codes,
    std::shared_ptr<const std::vector<std::string>> dictionary) {
  CCS_CHECK(dictionary != nullptr);
#ifndef NDEBUG
  for (uint32_t code : codes) CCS_DCHECK(code < dictionary->size());
  // Duplicate entries would break the code-identity == value-identity
  // assumption PartitionBy and DistinctValues group on.
  std::unordered_set<std::string> unique(dictionary->begin(),
                                         dictionary->end());
  CCS_DCHECK(unique.size() == dictionary->size());
#endif
  Column col(AttributeType::kCategorical);
  col.codes_ = std::make_shared<std::vector<uint32_t>>(std::move(codes));
  col.dictionary_ = std::move(dictionary);
  return col;
}

Column Column::NumericView(
    std::shared_ptr<std::vector<double>> buffer,
    std::shared_ptr<const std::vector<size_t>> selection) {
  CCS_CHECK(buffer != nullptr && selection != nullptr);
#ifndef NDEBUG
  for (size_t phys : *selection) CCS_DCHECK(phys < buffer->size());
#endif
  Column col(AttributeType::kNumeric);
  col.numeric_ = std::move(buffer);
  col.selection_ = std::move(selection);
  return col;
}

Column Column::CategoricalView(
    std::shared_ptr<std::vector<uint32_t>> codes,
    std::shared_ptr<const std::vector<std::string>> dictionary,
    std::shared_ptr<const std::vector<size_t>> selection) {
  CCS_CHECK(codes != nullptr && dictionary != nullptr && selection != nullptr);
#ifndef NDEBUG
  for (size_t phys : *selection) {
    CCS_DCHECK(phys < codes->size() && (*codes)[phys] < dictionary->size());
  }
#endif
  Column col(AttributeType::kCategorical);
  col.codes_ = std::move(codes);
  col.dictionary_ = std::move(dictionary);
  col.selection_ = std::move(selection);
  return col;
}

void Column::EnsureOwnedNumeric() {
  CCS_DCHECK(is_numeric());
  if (!selection_ && numeric_.use_count() == 1) return;
  auto owned = std::make_shared<std::vector<double>>();
  owned->reserve(size());
  for (size_t i = 0; i < size(); ++i) owned->push_back(NumericAt(i));
  numeric_ = std::move(owned);
  selection_ = nullptr;
}

void Column::EnsureOwnedCategorical() {
  CCS_DCHECK(!is_numeric());
  if (!selection_ && codes_.use_count() == 1) return;
  auto owned = std::make_shared<std::vector<uint32_t>>();
  owned->reserve(size());
  for (size_t i = 0; i < size(); ++i) owned->push_back(CodeAt(i));
  codes_ = std::move(owned);
  selection_ = nullptr;
}

void Column::AppendNumeric(double value) {
  CCS_DCHECK(is_numeric());
  EnsureOwnedNumeric();
  numeric_->push_back(value);
}

void Column::AppendCategorical(const std::string& value) {
  CCS_DCHECK(!is_numeric());
  EnsureOwnedCategorical();
  // The dictionary is immutable-shared; extend via clone when the value
  // is new. Appends are a cold path (tests, small fixture assembly) —
  // a linear dictionary scan keeps the column slim.
  for (uint32_t c = 0; c < dictionary_->size(); ++c) {
    if ((*dictionary_)[c] == value) {
      codes_->push_back(c);
      return;
    }
  }
  auto extended = std::make_shared<std::vector<std::string>>(*dictionary_);
  extended->push_back(value);
  codes_->push_back(static_cast<uint32_t>(dictionary_->size()));
  dictionary_ = std::move(extended);
}

linalg::Vector Column::ToVector() const {
  CCS_CHECK(is_numeric());
  if (!selection_) return linalg::Vector(*numeric_);
  std::vector<double> out;
  out.reserve(selection_->size());
  for (size_t phys : *selection_) out.push_back((*numeric_)[phys]);
  return linalg::Vector(std::move(out));
}

std::vector<std::string> Column::categorical_data() const {
  CCS_CHECK(!is_numeric());
  std::vector<std::string> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back(CategoricalAt(i));
  return out;
}

std::vector<std::string> Column::DistinctValues() const {
  CCS_CHECK(!is_numeric());
  std::vector<std::string> out;
  std::vector<bool> seen(dictionary_->size(), false);
  for (size_t i = 0; i < size(); ++i) {
    uint32_t code = CodeAt(i);
    if (!seen[code]) {
      seen[code] = true;
      out.push_back((*dictionary_)[code]);
    }
  }
  return out;
}

Column Column::Gather(const std::vector<size_t>& indices) const {
  auto physical = std::make_shared<std::vector<size_t>>();
  physical->reserve(indices.size());
  for (size_t i : indices) physical->push_back(PhysicalRow(i));
  Column out = *this;
  out.selection_ = std::move(physical);
  return out;
}

Column Column::WithSelection(
    std::shared_ptr<const std::vector<size_t>> selection) const {
#ifndef NDEBUG
  size_t physical_rows = is_numeric() ? numeric_->size() : codes_->size();
  for (size_t i : *selection) CCS_DCHECK(i < physical_rows);
#endif
  Column out = *this;
  out.selection_ = std::move(selection);
  return out;
}

Column Column::Materialize() const {
  if (!is_view()) return *this;
  if (is_numeric()) {
    std::vector<double> values;
    values.reserve(size());
    for (size_t phys : *selection_) values.push_back((*numeric_)[phys]);
    return Numeric(std::move(values));
  }
  std::vector<uint32_t> codes;
  codes.reserve(size());
  for (size_t phys : *selection_) codes.push_back((*codes_)[phys]);
  return CategoricalFromCodes(std::move(codes), dictionary_);
}

Column Column::Concat(const Column& a, const Column& b) {
  CCS_CHECK(a.type() == b.type());
  if (a.is_numeric()) {
    std::vector<double> values;
    values.reserve(a.size() + b.size());
    for (size_t i = 0; i < a.size(); ++i) values.push_back(a.NumericAt(i));
    for (size_t i = 0; i < b.size(); ++i) values.push_back(b.NumericAt(i));
    return Numeric(std::move(values));
  }
  std::vector<uint32_t> codes;
  codes.reserve(a.size() + b.size());
  if (a.dictionary_ == b.dictionary_) {
    // Shared dictionary (e.g. chunks from one CsvChunkReader): codes
    // concatenate verbatim.
    for (size_t i = 0; i < a.size(); ++i) codes.push_back(a.CodeAt(i));
    for (size_t i = 0; i < b.size(); ++i) codes.push_back(b.CodeAt(i));
    return CategoricalFromCodes(std::move(codes), a.dictionary_);
  }
  // Merge the dictionaries; both sides' codes are remapped through
  // per-dictionary-entry translation tables (O(|dicts| + rows)). With
  // unique dictionaries a's translation is the identity, but remapping
  // both sides keeps Concat correct on any range-valid input.
  DictionaryBuilder merged;
  std::vector<uint32_t> translate_a(a.dictionary_->size());
  for (uint32_t c = 0; c < a.dictionary_->size(); ++c) {
    translate_a[c] = merged.Intern((*a.dictionary_)[c]);
  }
  std::vector<uint32_t> translate_b(b.dictionary_->size());
  for (uint32_t c = 0; c < b.dictionary_->size(); ++c) {
    translate_b[c] = merged.Intern((*b.dictionary_)[c]);
  }
  for (size_t i = 0; i < a.size(); ++i) {
    codes.push_back(translate_a[a.CodeAt(i)]);
  }
  for (size_t i = 0; i < b.size(); ++i) {
    codes.push_back(translate_b[b.CodeAt(i)]);
  }
  return CategoricalFromCodes(std::move(codes), merged.snapshot());
}

}  // namespace ccs::dataframe
