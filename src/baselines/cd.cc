#include "baselines/cd.h"

#include <algorithm>

#include "linalg/gram.h"
#include "linalg/symmetric_eigen.h"
#include "stats/divergence.h"

// ccs-lint: allow-file(fp-accumulate): serial reference baseline —
// eigenvalue folds in sorted order and per-window bounds; single
// compiled path, never sharded across threads.

namespace ccs::baselines {

std::string ChangeDetection::name() const {
  return options_.metric == CdMetric::kArea ? "CD-Area" : "CD-MKL";
}

Status ChangeDetection::Fit(const dataframe::DataFrame& reference) {
  if (reference.num_rows() == 0) {
    return Status::InvalidArgument("CD::Fit: empty reference");
  }
  linalg::Matrix data = reference.NumericMatrix();
  if (data.cols() == 0) {
    return Status::InvalidArgument("CD::Fit: no numeric attributes");
  }
  CCS_ASSIGN_OR_RETURN(linalg::MatrixView view,
                       reference.NumericViewFor(reference.NumericNames()));
  linalg::GramAccumulator gram(view.cols());
  gram.AddView(view);
  mean_ = gram.Means();
  CCS_ASSIGN_OR_RETURN(linalg::EigenDecomposition eig,
                       linalg::SymmetricEigen(gram.Covariance()));

  // Keep from the HIGHEST variance down (eigenpairs sorted ascending).
  double total = 0.0;
  for (const auto& p : eig.pairs) total += std::max(p.eigenvalue, 0.0);
  if (total <= 0.0) total = 1.0;
  std::vector<size_t> keep;
  double cumulative = 0.0;
  for (size_t i = eig.pairs.size(); i > 0; --i) {
    size_t idx = i - 1;
    double ev = std::max(eig.pairs[idx].eigenvalue, 0.0);
    keep.push_back(idx);
    cumulative += ev;
    if (cumulative >= options_.variance_fraction * total) break;
  }

  axes_ = linalg::Matrix(keep.size(), data.cols());
  for (size_t r = 0; r < keep.size(); ++r) {
    axes_.SetRow(r, eig.pairs[keep[r]].eigenvector);
  }

  // Reference densities per retained component.
  reference_density_.clear();
  ranges_.clear();
  for (size_t r = 0; r < axes_.rows(); ++r) {
    linalg::Vector projected(data.rows());
    for (size_t i = 0; i < data.rows(); ++i) {
      linalg::Vector centered = data.Row(i);
      centered.Axpy(-1.0, mean_);
      projected[i] = axes_.Row(r).Dot(centered);
    }
    double lo = projected.Min();
    double hi = projected.Max();
    if (lo == hi) hi = lo + 1.0;
    // Widen slightly so typical window values stay in-range.
    double pad = 0.05 * (hi - lo);
    lo -= pad;
    hi += pad;
    CCS_ASSIGN_OR_RETURN(stats::Histogram h,
                         stats::Histogram::Create(lo, hi, options_.num_bins));
    h.AddAll(projected);
    reference_density_.push_back(h.Density(options_.smoothing));
    ranges_.emplace_back(lo, hi);
  }
  fitted_ = true;
  return Status::OK();
}

StatusOr<double> ChangeDetection::Score(const dataframe::DataFrame& window) {
  if (!fitted_) {
    return Status::FailedPrecondition("CD::Score before Fit");
  }
  if (window.num_rows() == 0) {
    return Status::InvalidArgument("CD::Score: empty window");
  }
  linalg::Matrix data = window.NumericMatrix();
  if (data.cols() != mean_.size()) {
    return Status::InvalidArgument("CD::Score: attribute mismatch");
  }
  double worst = 0.0;
  for (size_t r = 0; r < axes_.rows(); ++r) {
    CCS_ASSIGN_OR_RETURN(
        stats::Histogram h,
        stats::Histogram::Create(ranges_[r].first, ranges_[r].second,
                                 options_.num_bins));
    for (size_t i = 0; i < data.rows(); ++i) {
      linalg::Vector centered = data.Row(i);
      centered.Axpy(-1.0, mean_);
      h.Add(axes_.Row(r).Dot(centered));
    }
    std::vector<double> q = h.Density(options_.smoothing);
    double divergence = 0.0;
    if (options_.metric == CdMetric::kArea) {
      CCS_ASSIGN_OR_RETURN(double inter,
                           stats::IntersectionArea(reference_density_[r], q));
      divergence = 1.0 - inter;
    } else {
      CCS_ASSIGN_OR_RETURN(
          divergence, stats::MaxKlDivergence(reference_density_[r], q));
    }
    worst = std::max(worst, divergence);
  }
  return worst;
}

}  // namespace ccs::baselines
