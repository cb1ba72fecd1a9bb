#include "stats/divergence.h"

#include <algorithm>
#include <cmath>

// ccs-lint: allow-file(fp-accumulate): serial folds over the fixed
// histogram bin order; single compiled path, never run concurrently.

namespace ccs::stats {

namespace {

Status CheckSizes(const std::vector<double>& p, const std::vector<double>& q) {
  if (p.size() != q.size()) {
    return Status::InvalidArgument("divergence: size mismatch");
  }
  if (p.empty()) {
    return Status::InvalidArgument("divergence: empty densities");
  }
  return Status::OK();
}

}  // namespace

StatusOr<double> KlDivergence(const std::vector<double>& p,
                              const std::vector<double>& q) {
  CCS_RETURN_IF_ERROR(CheckSizes(p, q));
  double acc = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] <= 0.0) continue;
    if (q[i] <= 0.0) {
      return Status::InvalidArgument(
          "KlDivergence: q has zero mass where p does not (smooth first)");
    }
    acc += p[i] * std::log(p[i] / q[i]);
  }
  return acc;
}

StatusOr<double> MaxKlDivergence(const std::vector<double>& p,
                                 const std::vector<double>& q) {
  CCS_ASSIGN_OR_RETURN(double pq, KlDivergence(p, q));
  CCS_ASSIGN_OR_RETURN(double qp, KlDivergence(q, p));
  return std::max(pq, qp);
}

StatusOr<double> IntersectionArea(const std::vector<double>& p,
                                  const std::vector<double>& q) {
  CCS_RETURN_IF_ERROR(CheckSizes(p, q));
  double acc = 0.0;
  for (size_t i = 0; i < p.size(); ++i) acc += std::min(p[i], q[i]);
  return acc;
}

}  // namespace ccs::stats
