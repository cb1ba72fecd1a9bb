// The conformance-constraint language (paper §3.1) and its Boolean and
// quantitative semantics (§3.2).
//
// Grammar:
//   phi   := lb <= F(A) <= ub | AND(phi, ...)          (simple)
//   psi_A := OR((A = c1) |> phi_1, (A = c2) |> phi_2, ...)
//   Psi   := psi_A | AND(psi_A1, psi_A2, ...)          (compound)
//   Phi   := phi | Psi
//
// Quantitative semantics maps a tuple to a violation in [0, 1]:
//   [[lb <= F <= ub]](t) = eta(alpha * max(0, F(t)-ub, lb-F(t)))
//       with alpha = 1/sigma(F(D)), eta(z) = 1 - exp(-z)
//   [[AND(phi_k)]](t)    = sum_k gamma_k [[phi_k]](t),  sum gamma_k = 1
//   [[psi_A]](t)         = [[phi_k]](t) if t.A = c_k, else 1 (undefined simp)

#ifndef CCS_CORE_CONSTRAINT_H_
#define CCS_CORE_CONSTRAINT_H_

#include <map>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/projection.h"
#include "dataframe/dataframe.h"
#include "linalg/matrix_view.h"

namespace ccs::core {

/// lb <= F(A) <= ub, with the training-set statistics that parameterize
/// the quantitative semantics.
class BoundedConstraint {
 public:
  BoundedConstraint() = default;

  /// `mean`/`stddev` are mu(F(D)) and sigma(F(D)) on the training data;
  /// `importance` is the normalized gamma weight within the enclosing
  /// conjunction.
  BoundedConstraint(Projection projection, double lb, double ub, double mean,
                    double stddev, double importance);

  /// The constructor for untrusted parameters (the profile and
  /// checkpoint decoders): InvalidArgument, where the constructor would
  /// CHECK-fail, unless lb <= ub and stddev >= 0 — so a NaN bound or
  /// stddev is refused too.
  static StatusOr<BoundedConstraint> Create(Projection projection, double lb,
                                            double ub, double mean,
                                            double stddev, double importance);

  const Projection& projection() const { return projection_; }
  double lb() const { return lb_; }
  double ub() const { return ub_; }
  double mean() const { return mean_; }
  double stddev() const { return stddev_; }
  double importance() const { return importance_; }

  /// Boolean semantics on an aligned numeric tuple.
  bool IsSatisfiedAligned(const linalg::Vector& numeric_tuple) const;

  /// Quantitative semantics on an aligned numeric tuple, in [0, 1).
  double ViolationAligned(const linalg::Vector& numeric_tuple) const;

  /// Violation for an already-computed projection value F(t).
  double ViolationOfValue(double value) const;

 private:
  Projection projection_;
  double lb_ = 0.0;
  double ub_ = 0.0;
  double mean_ = 0.0;
  double stddev_ = 0.0;
  double importance_ = 1.0;
  double alpha_ = 1.0;  // Scaling factor 1/sigma (capped when sigma ~ 0).
};

/// A conjunction of bounded constraints over a fixed numeric-attribute
/// list; the "simple constraint" phi of the grammar.
class SimpleConstraint {
 public:
  SimpleConstraint() = default;

  /// `attribute_names` is the shared attribute order all conjuncts'
  /// projections use; every conjunct must match it (checked).
  static StatusOr<SimpleConstraint> Create(
      std::vector<std::string> attribute_names,
      std::vector<BoundedConstraint> conjuncts);

  const std::vector<std::string>& attribute_names() const { return names_; }
  const std::vector<BoundedConstraint>& conjuncts() const {
    return conjuncts_;
  }
  bool empty() const { return conjuncts_.empty(); }

  /// Boolean semantics: all conjuncts satisfied.
  bool IsSatisfiedAligned(const linalg::Vector& numeric_tuple) const;

  /// Quantitative semantics: gamma-weighted sum of conjunct violations.
  double ViolationAligned(const linalg::Vector& numeric_tuple) const;

  /// Violations of every row of a non-owning columnar view (columns in
  /// attribute_names() order). Contiguous row blocks run in parallel
  /// through one serial row-range body, whose conjunct projections are
  /// one matrix-matrix product gathered inside
  /// MatrixView::MultiplyRowRange, so scoring a view-backed frame
  /// materializes no per-call matrix. Results are bitwise identical to
  /// calling ViolationAligned row by row, at any lane count.
  ///
  /// \param num_threads  Scoring lanes; 0 means DefaultThreadCount().
  linalg::Vector ViolationAllAligned(const linalg::MatrixView& data,
                                     size_t num_threads = 0) const;

  /// Violation of row `row` of `df` (attributes located by name).
  StatusOr<double> Violation(const dataframe::DataFrame& df,
                             size_t row) const;

  /// Violations of every row of `df`; `num_threads` as for
  /// ViolationAllAligned.
  StatusOr<linalg::Vector> ViolationAll(const dataframe::DataFrame& df,
                                        size_t num_threads = 0) const;

 private:
  friend class DisjunctiveConstraint;

  // Column k holds conjunct k's projection coefficients, so one
  // data * coef product evaluates every projection on every row.
  linalg::Matrix CoefficientMatrix() const;

  // The one serial scoring body behind global and disjunctive batch
  // scoring: writes the violations of logical rows [begin, end) of
  // `data` to out[0 .. end - begin). `coef` is CoefficientMatrix().
  // Never inlined, so every caller runs the same compiled fold.
  CCS_NOINLINE void ViolationRowRange(const linalg::MatrixView& data,
                                      const linalg::Matrix& coef,
                                      size_t begin, size_t end,
                                      double* out) const;

  std::vector<std::string> names_;
  std::vector<BoundedConstraint> conjuncts_;
};

/// OR((A = c_k) |> phi_k): a disjunction switched on one categorical
/// attribute (psi_A of the grammar).
class DisjunctiveConstraint {
 public:
  DisjunctiveConstraint() = default;

  /// `attribute` is the categorical switch attribute; `cases` maps each of
  /// its values to the simple constraint learned on that partition.
  DisjunctiveConstraint(std::string attribute,
                        std::map<std::string, SimpleConstraint> cases)
      : attribute_(std::move(attribute)), cases_(std::move(cases)) {}

  const std::string& attribute() const { return attribute_; }
  const std::map<std::string, SimpleConstraint>& cases() const {
    return cases_;
  }

  /// simp(psi, t): the case for t.attribute, or NotFound when the value is
  /// unseen (simp undefined => violation 1 under quantitative semantics).
  StatusOr<const SimpleConstraint*> Simplify(const dataframe::DataFrame& df,
                                             size_t row) const;

  /// Quantitative semantics of row `row`.
  StatusOr<double> Violation(const dataframe::DataFrame& df,
                             size_t row) const;

  /// Boolean semantics of row `row` (unseen switch value => violated).
  StatusOr<bool> IsSatisfied(const dataframe::DataFrame& df,
                             size_t row) const;

  /// Quantitative semantics of every row: one parallel pass over
  /// contiguous row blocks, each grouping its own rows by switch value
  /// and scoring every group through its case's serial row-range body.
  /// Bitwise identical to Violation row by row, at any lane count.
  ///
  /// \param num_threads  Scoring lanes; 0 means DefaultThreadCount().
  StatusOr<linalg::Vector> ViolationAll(const dataframe::DataFrame& df,
                                        size_t num_threads = 0) const;

 private:
  std::string attribute_;
  std::map<std::string, SimpleConstraint> cases_;
};

/// Phi: the top-level conformance constraint — an optional global simple
/// constraint conjoined with zero or more disjunctive constraints (the
/// compound AND(psi_A1, psi_A2, ...) of the grammar).
///
/// Quantitative semantics averages the group violations (each group —
/// the global constraint or one disjunction — is internally normalized,
/// so groups contribute equally, mirroring the paper's conjunction rule
/// with uniform weights across groups).
class ConformanceConstraint {
 public:
  ConformanceConstraint() = default;

  ConformanceConstraint(SimpleConstraint global,
                        std::vector<DisjunctiveConstraint> disjunctions)
      : global_(std::move(global)), disjunctions_(std::move(disjunctions)) {}

  const SimpleConstraint& global() const { return global_; }
  const std::vector<DisjunctiveConstraint>& disjunctions() const {
    return disjunctions_;
  }

  bool has_global() const { return !global_.empty(); }
  size_t num_groups() const {
    return (has_global() ? 1 : 0) + disjunctions_.size();
  }

  /// Violation of row `row` of `df`, in [0, 1].
  StatusOr<double> Violation(const dataframe::DataFrame& df,
                             size_t row) const;

  /// Violations of every row; each group's pass uses at most
  /// `num_threads` lanes (0 means DefaultThreadCount()).
  StatusOr<linalg::Vector> ViolationAll(const dataframe::DataFrame& df,
                                        size_t num_threads = 0) const;

  /// Mean violation over the whole frame — the dataset-level
  /// non-conformance used to quantify drift (§2). `num_threads` as for
  /// ViolationAll.
  StatusOr<double> MeanViolation(const dataframe::DataFrame& df,
                                 size_t num_threads = 0) const;

  /// Boolean semantics of row `row`.
  StatusOr<bool> IsSatisfied(const dataframe::DataFrame& df,
                             size_t row) const;

 private:
  SimpleConstraint global_;
  std::vector<DisjunctiveConstraint> disjunctions_;
};

/// True iff the two constraints are exactly equal: same structure, same
/// attribute names and partition keys, and every floating-point
/// parameter (projection coefficients, bounds, means, stddevs,
/// importances) identical as a BIT PATTERN — no tolerance, -0.0 != +0.0,
/// NaN == NaN. This is the checker for the parallel-synthesis
/// determinism contract: synthesis at any thread count must produce a
/// constraint ConstraintsBitwiseEqual to the single-threaded one.
bool ConstraintsBitwiseEqual(const BoundedConstraint& a,
                             const BoundedConstraint& b);
bool ConstraintsBitwiseEqual(const SimpleConstraint& a,
                             const SimpleConstraint& b);
bool ConstraintsBitwiseEqual(const DisjunctiveConstraint& a,
                             const DisjunctiveConstraint& b);
bool ConstraintsBitwiseEqual(const ConformanceConstraint& a,
                             const ConformanceConstraint& b);

}  // namespace ccs::core

#endif  // CCS_CORE_CONSTRAINT_H_
