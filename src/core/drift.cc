#include "core/drift.h"

#include <algorithm>

namespace ccs::core {

Status ConformanceDriftQuantifier::Fit(const dataframe::DataFrame& reference) {
  CCS_ASSIGN_OR_RETURN(constraint_, synthesizer_.Synthesize(reference));
  fitted_ = true;
  return Status::OK();
}

Status ConformanceDriftQuantifier::FitExpanded(
    const dataframe::DataFrame& reference,
    const PolynomialExpansionOptions& expansion) {
  // Synthesize the global simple constraint straight from the derived
  // expansion view — the expanded frame ExpandPolynomial would build
  // is never materialized. Same Gram-ingest kernel as the materialized
  // path, so the profile is ConstraintsBitwiseEqual to synthesizing on
  // ExpandPolynomial(reference).
  CCS_ASSIGN_OR_RETURN(ExpandedView expanded,
                       ExpandPolynomialView(reference, expansion));
  CCS_ASSIGN_OR_RETURN(
      SimpleConstraint global,
      synthesizer_.SynthesizeSimpleFromView(expanded.names, expanded.view));
  constraint_ = ConformanceConstraint(std::move(global), {});
  expansion_ = expansion;
  expanded_ = true;
  fitted_ = true;
  return Status::OK();
}

void ConformanceDriftQuantifier::Adopt(ConformanceConstraint constraint) {
  constraint_ = std::move(constraint);
  fitted_ = true;
}

StatusOr<double> ConformanceDriftQuantifier::Score(
    const dataframe::DataFrame& window, size_t num_threads) const {
  if (!fitted_) {
    return Status::FailedPrecondition("Score called before Fit");
  }
  if (expanded_) {
    if (window.num_rows() == 0) {
      return Status::InvalidArgument("MeanViolation: empty dataset");
    }
    CCS_ASSIGN_OR_RETURN(linalg::Vector v,
                         TupleViolations(window, num_threads));
    return v.Mean();
  }
  return constraint_.MeanViolation(window, num_threads);
}

StatusOr<linalg::Vector> ConformanceDriftQuantifier::TupleViolations(
    const dataframe::DataFrame& window, size_t num_threads) const {
  if (!fitted_) {
    return Status::FailedPrecondition("TupleViolations called before Fit");
  }
  if (expanded_) {
    // Lazy expansion of the window: the aligned scorer walks the
    // derived view in place (column order = the constraint's expanded
    // attribute order by construction). The single-group divide of
    // ConformanceConstraint::ViolationAll is x / 1.0 — a bitwise
    // no-op — so this matches the materialized global-only path
    // exactly.
    CCS_ASSIGN_OR_RETURN(ExpandedView expanded,
                         ExpandPolynomialView(window, expansion_));
    return constraint_.global().ViolationAllAligned(expanded.view,
                                                    num_threads);
  }
  return constraint_.ViolationAll(window, num_threads);
}

StatusOr<std::vector<double>> DriftSeries(
    const std::vector<dataframe::DataFrame>& windows,
    const SynthesisOptions& options) {
  if (windows.empty()) {
    return Status::InvalidArgument("DriftSeries: no windows");
  }
  ConformanceDriftQuantifier quantifier(options);
  CCS_RETURN_IF_ERROR(quantifier.Fit(windows[0]));
  std::vector<double> out;
  out.reserve(windows.size());
  for (const dataframe::DataFrame& w : windows) {
    CCS_ASSIGN_OR_RETURN(double score, quantifier.Score(w));
    out.push_back(score);
  }
  return out;
}

std::vector<double> NormalizeSeries(const std::vector<double>& series) {
  if (series.empty()) return {};
  double lo = *std::min_element(series.begin(), series.end());
  double hi = *std::max_element(series.begin(), series.end());
  std::vector<double> out(series.size(), 0.0);
  if (hi > lo) {
    for (size_t i = 0; i < series.size(); ++i) {
      out[i] = (series[i] - lo) / (hi - lo);
    }
  }
  return out;
}

}  // namespace ccs::core
