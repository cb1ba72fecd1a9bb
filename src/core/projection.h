// Projection: a linear combination of numeric attributes (paper §3.1).
//
// The "lens" through which conformance constraints view tuples. A
// projection binds coefficient values to attribute *names*, so it can be
// evaluated against any DataFrame carrying those attributes regardless of
// column order.

#ifndef CCS_CORE_PROJECTION_H_
#define CCS_CORE_PROJECTION_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "dataframe/dataframe.h"
#include "linalg/vector.h"

namespace ccs::core {

/// F(A) = sum_j coefficients[j] * A[names[j]].
class Projection {
 public:
  Projection() = default;

  /// Binds coefficients to attribute names; sizes must match (checked).
  static StatusOr<Projection> Create(std::vector<std::string> attribute_names,
                                     linalg::Vector coefficients);

  const std::vector<std::string>& attribute_names() const { return names_; }
  const linalg::Vector& coefficients() const { return coefficients_; }
  size_t arity() const { return names_.size(); }

  /// Evaluates on a raw numeric tuple whose entries are aligned with
  /// attribute_names() (the fast path used in inner loops).
  double EvaluateAligned(const linalg::Vector& numeric_tuple) const {
    return coefficients_.Dot(numeric_tuple);
  }

  /// Evaluates on row `row` of `df`, locating attributes by name.
  StatusOr<double> Evaluate(const dataframe::DataFrame& df, size_t row) const;

  /// Evaluates on every row of `df`; returns F(D) as a vector.
  StatusOr<linalg::Vector> EvaluateAll(const dataframe::DataFrame& df) const;

  /// Unit-L2-norm copy of this projection.
  StatusOr<Projection> Normalized() const;

  /// Human-readable form, e.g. "0.7*AT - 0.7*DT - 0.14*DUR".
  /// Coefficients with |c| < 5e-7 are elided (but never all of them).
  std::string ToString() const;

 private:
  Projection(std::vector<std::string> names, linalg::Vector coefficients)
      : names_(std::move(names)), coefficients_(std::move(coefficients)) {}

  std::vector<std::string> names_;
  linalg::Vector coefficients_;
};

}  // namespace ccs::core

#endif  // CCS_CORE_PROJECTION_H_
