#include "stats/correlation.h"

#include <cmath>

// ccs-lint: allow-file(fp-accumulate): serial product-moment sums in row
// order; single compiled path with no batched or parallel twin.

namespace ccs::stats {

StatusOr<double> PearsonCorrelation(const linalg::Vector& x,
                                    const linalg::Vector& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("PearsonCorrelation: size mismatch");
  }
  if (x.empty()) {
    return Status::InvalidArgument("PearsonCorrelation: empty input");
  }
  double mx = x.Mean();
  double my = y.Mean();
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double dx = x[i] - mx;
    double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

StatusOr<CorrelationTest> PearsonTest(const linalg::Vector& x,
                                      const linalg::Vector& y) {
  CCS_ASSIGN_OR_RETURN(double r, PearsonCorrelation(x, y));
  CorrelationTest out;
  out.pcc = r;
  size_t n = x.size();
  if (n < 3 || std::abs(r) >= 1.0) {
    out.p_value = (std::abs(r) >= 1.0) ? 0.0 : 1.0;
    return out;
  }
  double t = r * std::sqrt(static_cast<double>(n - 2) / (1.0 - r * r));
  // Two-sided p under the standard normal approximation to t_{n-2}.
  double z = std::abs(t);
  double p = std::erfc(z / std::sqrt(2.0));
  out.p_value = p;
  return out;
}

}  // namespace ccs::stats
