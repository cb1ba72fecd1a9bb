#include "baselines/pca_spll.h"

#include <cstdio>

#include "linalg/gram.h"
#include "linalg/symmetric_eigen.h"

// ccs-lint: allow-file(fp-accumulate): serial reference baseline —
// eigenvalue folds in sorted order and per-tuple projections; single
// compiled path, never sharded across threads.

namespace ccs::baselines {

std::string PcaSpll::name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "PCA-SPLL (%.0f%%)",
                options_.variance_fraction * 100.0);
  return buf;
}

Status PcaSpll::Fit(const dataframe::DataFrame& reference) {
  if (reference.num_rows() == 0) {
    return Status::InvalidArgument("PcaSpll::Fit: empty reference");
  }
  CCS_ASSIGN_OR_RETURN(linalg::MatrixView data,
                       reference.NumericViewFor(reference.NumericNames()));
  if (data.cols() == 0) {
    return Status::InvalidArgument("PcaSpll::Fit: no numeric attributes");
  }
  linalg::GramAccumulator gram(data.cols());
  gram.AddView(data);
  mean_ = gram.Means();
  CCS_ASSIGN_OR_RETURN(linalg::EigenDecomposition eig,
                       linalg::SymmetricEigen(gram.Covariance()));

  // Eigenpairs come sorted ascending. Keep from the smallest upward while
  // cumulative explained variance stays under the threshold.
  double total = 0.0;
  for (const auto& p : eig.pairs) total += std::max(p.eigenvalue, 0.0);
  if (total <= 0.0) total = 1.0;

  std::vector<size_t> keep;
  double cumulative = 0.0;
  for (size_t i = 0; i < eig.pairs.size(); ++i) {
    double ev = std::max(eig.pairs[i].eigenvalue, 0.0);
    if (cumulative + ev > options_.variance_fraction * total) break;
    cumulative += ev;
    keep.push_back(i);
  }

  retained_axes_ = linalg::Matrix(keep.size(), data.cols());
  retained_var_ = linalg::Vector(keep.size());
  for (size_t r = 0; r < keep.size(); ++r) {
    retained_axes_.SetRow(r, eig.pairs[keep[r]].eigenvector);
    // Floor tiny variances: SPLL's Mahalanobis divides by them.
    retained_var_[r] = std::max(eig.pairs[keep[r]].eigenvalue, 1e-12);
  }
  fitted_ = true;
  return Status::OK();
}

StatusOr<double> PcaSpll::Score(const dataframe::DataFrame& window) {
  if (!fitted_) {
    return Status::FailedPrecondition("PcaSpll::Score before Fit");
  }
  if (window.num_rows() == 0) {
    return Status::InvalidArgument("PcaSpll::Score: empty window");
  }
  if (retained_axes_.rows() == 0) {
    // Discarded every component (strong global correlations): blind.
    return 0.0;
  }
  linalg::Matrix data = window.NumericMatrix();
  if (data.cols() != mean_.size()) {
    return Status::InvalidArgument("PcaSpll::Score: attribute mismatch");
  }
  double acc = 0.0;
  for (size_t i = 0; i < data.rows(); ++i) {
    linalg::Vector centered = data.Row(i);
    centered.Axpy(-1.0, mean_);
    // Squared Mahalanobis distance in the retained subspace.
    for (size_t r = 0; r < retained_axes_.rows(); ++r) {
      double proj = retained_axes_.Row(r).Dot(centered);
      acc += proj * proj / retained_var_[r];
    }
  }
  double n = static_cast<double>(data.rows());
  double k = static_cast<double>(retained_axes_.rows());
  return acc / (n * k);
}

}  // namespace ccs::baselines
