#include "core/explain.h"

#include <algorithm>

#include "core/synthesizer.h"

namespace ccs::core {

NonConformanceExplainer::NonConformanceExplainer(
    SimpleConstraint constraint, std::vector<std::string> attribute_names,
    linalg::Vector training_means)
    : constraint_(std::move(constraint)),
      names_(std::move(attribute_names)),
      means_(std::move(training_means)) {
  CCS_CHECK_EQ(names_.size(), means_.size());
}

StatusOr<NonConformanceExplainer> NonConformanceExplainer::FromTrainingData(
    const dataframe::DataFrame& training) {
  Synthesizer synthesizer;
  CCS_ASSIGN_OR_RETURN(SimpleConstraint constraint,
                       synthesizer.SynthesizeSimple(training));
  std::vector<std::string> names = training.NumericNames();
  CCS_ASSIGN_OR_RETURN(linalg::MatrixView data, training.NumericViewFor(names));
  linalg::Vector means(names.size());
  linalg::Vector column(data.rows());
  for (size_t j = 0; j < names.size(); ++j) {
    data.MaterializeColumn(j, column.data().data());
    means[j] = column.Mean();
  }
  return NonConformanceExplainer(std::move(constraint), std::move(names),
                                 std::move(means));
}

size_t NonConformanceExplainer::AdditionalFixes(const linalg::Vector& tuple,
                                                size_t first_fixed) const {
  linalg::Vector current = tuple;
  current[first_fixed] = means_[first_fixed];
  if (constraint_.IsSatisfiedAligned(current)) return 0;

  std::vector<bool> fixed(names_.size(), false);
  fixed[first_fixed] = true;
  size_t additional = 0;
  while (additional < names_.size() - 1) {
    // Greedy: pick the unfixed attribute whose mean-reset most reduces
    // the quantitative violation.
    size_t best = names_.size();
    double best_violation = constraint_.ViolationAligned(current);
    bool improved = false;
    for (size_t j = 0; j < names_.size(); ++j) {
      if (fixed[j]) continue;
      double saved = current[j];
      current[j] = means_[j];
      double v = constraint_.ViolationAligned(current);
      current[j] = saved;
      if (!improved || v < best_violation) {
        best = j;
        best_violation = v;
        improved = true;
      }
    }
    if (best == names_.size()) break;
    current[best] = means_[best];
    fixed[best] = true;
    ++additional;
    if (constraint_.IsSatisfiedAligned(current)) return additional;
  }
  return names_.size();  // Defensive; the all-means tuple conforms.
}

StatusOr<std::vector<AttributeResponsibility>>
NonConformanceExplainer::ExplainTuple(
    const linalg::Vector& numeric_tuple) const {
  if (numeric_tuple.size() != names_.size()) {
    return Status::InvalidArgument("ExplainTuple: tuple width mismatch");
  }
  std::vector<AttributeResponsibility> out(names_.size());
  for (size_t j = 0; j < names_.size(); ++j) out[j].attribute = names_[j];
  if (constraint_.IsSatisfiedAligned(numeric_tuple)) {
    return out;  // Conforming: nothing to explain.
  }
  for (size_t j = 0; j < names_.size(); ++j) {
    size_t k = AdditionalFixes(numeric_tuple, j);
    out[j].responsibility = 1.0 / static_cast<double>(k + 1);
  }
  return out;
}

StatusOr<std::vector<AttributeResponsibility>>
NonConformanceExplainer::ExplainDataset(
    const dataframe::DataFrame& serving) const {
  if (serving.num_rows() == 0) {
    return Status::InvalidArgument("ExplainDataset: empty dataset");
  }
  CCS_ASSIGN_OR_RETURN(linalg::MatrixView data, serving.NumericViewFor(names_));
  std::vector<AttributeResponsibility> acc(names_.size());
  for (size_t j = 0; j < names_.size(); ++j) acc[j].attribute = names_[j];
  linalg::Vector tuple(names_.size());
  for (size_t i = 0; i < data.rows(); ++i) {
    data.GatherBlock(i, i + 1, tuple.data().data());
    CCS_ASSIGN_OR_RETURN(auto per_tuple, ExplainTuple(tuple));
    for (size_t j = 0; j < acc.size(); ++j) {
      acc[j].responsibility += per_tuple[j].responsibility;
    }
  }
  for (auto& r : acc) {
    r.responsibility /= static_cast<double>(data.rows());
  }
  return acc;
}

}  // namespace ccs::core
