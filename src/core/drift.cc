#include "core/drift.h"

#include <algorithm>

namespace ccs::core {

Status ConformanceDriftQuantifier::Fit(const dataframe::DataFrame& reference) {
  CCS_ASSIGN_OR_RETURN(constraint_, synthesizer_.Synthesize(reference));
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
  return constraint_.MeanViolation(window, num_threads);
}

StatusOr<linalg::Vector> ConformanceDriftQuantifier::TupleViolations(
    const dataframe::DataFrame& window, size_t num_threads) const {
  if (!fitted_) {
    return Status::FailedPrecondition("TupleViolations called before Fit");
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
