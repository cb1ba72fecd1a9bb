#include "core/kernel.h"

namespace ccs::core {

StatusOr<dataframe::DataFrame> ExpandPolynomial(
    const dataframe::DataFrame& df) {
  const std::vector<std::string> numeric = df.NumericNames();
  if (numeric.empty()) {
    return Status::InvalidArgument(
        "ExpandPolynomial: no numeric attributes to expand");
  }
  CCS_ASSIGN_OR_RETURN(linalg::MatrixView view, df.NumericViewFor(numeric));
  const size_t m = numeric.size();
  const size_t n = df.num_rows();

  // Linear terms first, gathered flat so every product below reads
  // contiguous operands; then squares, then cross terms.
  std::vector<std::string> names = numeric;
  std::vector<std::vector<double>> columns(m, std::vector<double>(n));
  for (size_t j = 0; j < m; ++j) view.MaterializeColumn(j, columns[j].data());
  auto add_product = [&](size_t a, size_t b, std::string name) {
    std::vector<double> col(n);
    for (size_t i = 0; i < n; ++i) col[i] = columns[a][i] * columns[b][i];
    names.push_back(std::move(name));
    columns.push_back(std::move(col));
  };
  for (size_t j = 0; j < m; ++j) add_product(j, j, numeric[j] + "^2");
  for (size_t j = 0; j < m; ++j) {
    for (size_t k = j + 1; k < m; ++k) {
      add_product(j, k, numeric[j] + "*" + numeric[k]);
    }
  }

  dataframe::DataFrame out;
  for (size_t j = 0; j < names.size(); ++j) {
    CCS_RETURN_IF_ERROR(out.AddNumericColumn(names[j], std::move(columns[j])));
  }
  // Categorical attributes pass through for disjunctive synthesis,
  // sharing the source column's buffers (zero copy).
  for (const std::string& name : df.CategoricalNames()) {
    CCS_ASSIGN_OR_RETURN(const dataframe::Column* col, df.ColumnByName(name));
    CCS_RETURN_IF_ERROR(out.AddColumn(name, *col));
  }
  return out;
}

}  // namespace ccs::core
