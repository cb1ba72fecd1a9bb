// Dataset-level drift quantification with conformance constraints (§2).
//
// Three steps: learn constraints on the reference dataset, evaluate the
// quantitative violation of every tuple in the target, aggregate.

#ifndef CCS_CORE_DRIFT_H_
#define CCS_CORE_DRIFT_H_

#include <vector>

#include "common/statusor.h"
#include "core/constraint.h"
#include "core/kernel.h"
#include "core/synthesizer.h"
#include "dataframe/dataframe.h"

namespace ccs::core {

/// Drift quantifier built on conformance constraints. Satisfies the same
/// Fit/Score shape as the baseline detectors in src/baselines.
class ConformanceDriftQuantifier {
 public:
  explicit ConformanceDriftQuantifier(
      SynthesisOptions options = SynthesisOptions())
      : synthesizer_(options) {}

  /// Learns the reference profile.
  Status Fit(const dataframe::DataFrame& reference);

  /// Learns the reference profile over a *lazy* degree-2 polynomial
  /// expansion of the reference (§5.1 nonlinear constraints): the
  /// global simple constraint is synthesized straight from
  /// ExpandPolynomialView's derived view, and Score / TupleViolations
  /// walk the same derived view of each window — no expanded frame is
  /// ever materialized, here or per window. Bitwise identical to
  /// Fit(ExpandPolynomial(reference)) scored on
  /// ExpandPolynomial(window) with a global-only constraint (the
  /// expanded profile has no categorical attributes, so no
  /// disjunctions on either path).
  Status FitExpanded(const dataframe::DataFrame& reference,
                     const PolynomialExpansionOptions& expansion);

  /// Adopts an externally synthesized constraint as the reference
  /// profile — the streaming-refresh hook (§4.3.2): an
  /// IncrementalSynthesizer can fold appended tuples into its Gram state
  /// and hand the re-synthesized constraint here without the quantifier
  /// revisiting old data. Equivalent to a successful Fit on data that
  /// synthesizes to `constraint`.
  void Adopt(ConformanceConstraint constraint);

  /// Mean violation of `window` against the reference constraints — the
  /// drift magnitude, in [0, 1].
  ///
  /// \param num_threads  Lanes the window's scoring passes may use; 0
  ///                     means DefaultThreadCount(). Never changes the
  ///                     score.
  StatusOr<double> Score(const dataframe::DataFrame& window,
                         size_t num_threads = 0) const;

  /// Per-tuple violations (for tuple-level analysis, e.g. Fig. 5);
  /// `num_threads` as for Score.
  StatusOr<linalg::Vector> TupleViolations(const dataframe::DataFrame& window,
                                           size_t num_threads = 0) const;

  /// The learned constraint, available after Fit.
  const ConformanceConstraint& constraint() const { return constraint_; }
  bool fitted() const { return fitted_; }
  /// True after FitExpanded: scoring walks lazy expanded views.
  bool expanded() const { return expanded_; }

 private:
  Synthesizer synthesizer_;
  ConformanceConstraint constraint_;
  bool fitted_ = false;
  // FitExpanded state: when set, Score/TupleViolations expand each
  // window lazily with these options before scoring.
  bool expanded_ = false;
  PolynomialExpansionOptions expansion_;
};

/// Scores a sequence of windows against the first (reference) window and
/// returns one drift value per window. Convenience for the EVL-style
/// stream experiments.
StatusOr<std::vector<double>> DriftSeries(
    const std::vector<dataframe::DataFrame>& windows,
    const SynthesisOptions& options = SynthesisOptions());

/// Min-max normalizes a series into [0, 1] (constant series map to 0),
/// mirroring the paper's per-method normalization in Fig. 8.
std::vector<double> NormalizeSeries(const std::vector<double>& series);

}  // namespace ccs::core

#endif  // CCS_CORE_DRIFT_H_
