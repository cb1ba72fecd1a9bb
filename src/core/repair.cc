#include "core/repair.h"

#include <algorithm>
#include <cmath>

#include "core/synthesizer.h"

// ccs-lint: allow-file(fp-accumulate): closed-form single-attribute
// repair folds conjuncts in declared order on the calling thread; one
// compiled copy, no parallel twin.

namespace ccs::core {

namespace {

// Effective quadratic weight of a conjunct: gamma * alpha^2 with the
// same alpha cap as the quantitative semantics.
double QuadraticWeight(const BoundedConstraint& c) {
  double sigma = c.stddev();
  double alpha = sigma > 0.0 ? 1.0 / sigma : 1e6;
  return c.importance() * alpha * alpha;
}

}  // namespace

StatusOr<ConstraintRepairer> ConstraintRepairer::FromTrainingData(
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
  return ConstraintRepairer(std::move(constraint), std::move(names),
                            std::move(means));
}

StatusOr<double> ConstraintRepairer::ImputeValue(const linalg::Vector& tuple,
                                                 size_t missing) const {
  if (tuple.size() != names_.size()) {
    return Status::InvalidArgument("ImputeValue: tuple width mismatch");
  }
  if (missing >= names_.size()) {
    return Status::OutOfRange("ImputeValue: missing index out of range");
  }
  // Minimize sum_k w_k (c_kj x + r_k - mu_k)^2 over x:
  //   x* = sum_k w_k c_kj (mu_k - r_k) / sum_k w_k c_kj^2.
  double numerator = 0.0;
  double denominator = 0.0;
  for (const BoundedConstraint& c : constraint_.conjuncts()) {
    const linalg::Vector& coef = c.projection().coefficients();
    double c_j = coef[missing];
    if (c_j == 0.0) continue;
    double rest = 0.0;
    for (size_t i = 0; i < coef.size(); ++i) {
      if (i != missing) rest += coef[i] * tuple[i];
    }
    double w = QuadraticWeight(c);
    numerator += w * c_j * (c.mean() - rest);
    denominator += w * c_j * c_j;
  }
  if (denominator <= 0.0) {
    // No projection uses the attribute: fall back to its training mean.
    return means_[missing];
  }
  return numerator / denominator;
}

StatusOr<linalg::Vector> ConstraintRepairer::ImputeRow(
    const linalg::Vector& tuple, size_t missing) const {
  CCS_ASSIGN_OR_RETURN(double value, ImputeValue(tuple, missing));
  linalg::Vector out = tuple;
  out[missing] = value;
  return out;
}

StatusOr<std::vector<CellError>> ConstraintRepairer::DetectErrors(
    const dataframe::DataFrame& df, double threshold) const {
  if (!(threshold >= 0.0 && threshold <= 1.0)) {
    return Status::InvalidArgument("DetectErrors: threshold must be in [0,1]");
  }
  CCS_ASSIGN_OR_RETURN(linalg::MatrixView data, df.NumericViewFor(names_));
  std::vector<CellError> out;
  linalg::Vector tuple(names_.size());
  for (size_t i = 0; i < data.rows(); ++i) {
    data.GatherBlock(i, i + 1, tuple.data().data());
    double violation = constraint_.ViolationAligned(tuple);
    if (violation <= threshold) continue;
    // Blame the cell whose repair most reduces the violation.
    CellError error;
    error.row = i;
    error.violation = violation;
    double best_after = violation;
    for (size_t j = 0; j < names_.size(); ++j) {
      auto repaired = ImputeRow(tuple, j);
      if (!repaired.ok()) continue;
      double after = constraint_.ViolationAligned(*repaired);
      if (after < best_after) {
        best_after = after;
        error.attribute = names_[j];
        error.suggested = (*repaired)[j];
        error.repaired_violation = after;
      }
    }
    if (error.attribute.empty()) {
      // No single-cell repair helps; report the tuple anyway with the
      // most responsible attribute left unnamed.
      error.repaired_violation = violation;
    }
    out.push_back(error);
  }
  std::sort(out.begin(), out.end(), [](const CellError& a, const CellError& b) {
    return a.violation > b.violation;
  });
  return out;
}

}  // namespace ccs::core
