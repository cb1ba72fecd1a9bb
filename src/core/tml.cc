#include "core/tml.h"

#include "common/parallel.h"

namespace ccs::core {

StatusOr<SafetyEnvelope> SafetyEnvelope::Fit(
    const dataframe::DataFrame& training,
    const std::vector<std::string>& target_attributes, double unsafe_threshold,
    SynthesisOptions options) {
  if (!(unsafe_threshold >= 0.0 && unsafe_threshold <= 1.0)) {
    return Status::InvalidArgument(
        "SafetyEnvelope: unsafe_threshold must be in [0,1]");
  }
  Synthesizer synthesizer(options);
  // Only materialize a covariate copy when columns are actually dropped;
  // the common no-target case synthesizes straight off `training`.
  if (target_attributes.empty()) {
    CCS_ASSIGN_OR_RETURN(ConformanceConstraint constraint,
                         synthesizer.Synthesize(training));
    return SafetyEnvelope(std::move(constraint), unsafe_threshold);
  }
  CCS_ASSIGN_OR_RETURN(dataframe::DataFrame covariates,
                       training.DropColumns(target_attributes));
  CCS_ASSIGN_OR_RETURN(ConformanceConstraint constraint,
                       synthesizer.Synthesize(covariates));
  return SafetyEnvelope(std::move(constraint), unsafe_threshold);
}

StatusOr<TrustAssessment> SafetyEnvelope::Assess(
    const dataframe::DataFrame& serving, size_t row) const {
  CCS_ASSIGN_OR_RETURN(double v, constraint_.Violation(serving, row));
  TrustAssessment out;
  out.violation = v;
  out.trust = 1.0 - v;
  out.unsafe = v > unsafe_threshold_;
  return out;
}

StatusOr<std::vector<TrustAssessment>> SafetyEnvelope::AssessAll(
    const dataframe::DataFrame& serving) const {
  CCS_ASSIGN_OR_RETURN(linalg::Vector v, constraint_.ViolationAll(serving));
  std::vector<TrustAssessment> out(serving.num_rows());
  common::ParallelFor(out.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i].violation = v[i];
      out[i].trust = 1.0 - v[i];
      out[i].unsafe = v[i] > unsafe_threshold_;
    }
  });
  return out;
}

StatusOr<double> SafetyEnvelope::UnsafeFraction(
    const dataframe::DataFrame& serving) const {
  if (serving.num_rows() == 0) {
    return Status::InvalidArgument("UnsafeFraction: empty dataset");
  }
  CCS_ASSIGN_OR_RETURN(auto assessments, AssessAll(serving));
  size_t unsafe = 0;
  for (const TrustAssessment& a : assessments) {
    if (a.unsafe) ++unsafe;
  }
  return static_cast<double>(unsafe) / static_cast<double>(assessments.size());
}

}  // namespace ccs::core
