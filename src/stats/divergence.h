// Divergence measures between discrete densities.
//
// The CD baseline [63] scores drift per principal component using either
// max-KL divergence (CD-MKL) or the complement of the intersection area
// (CD-Area); both operate on binned densities.

#ifndef CCS_STATS_DIVERGENCE_H_
#define CCS_STATS_DIVERGENCE_H_

#include <vector>

#include "common/statusor.h"

namespace ccs::stats {

/// KL(p || q) = sum p_i log(p_i / q_i). Requires equal sizes; bins with
/// p_i = 0 contribute 0; q must be strictly positive wherever p is (use
/// Laplace-smoothed densities).
StatusOr<double> KlDivergence(const std::vector<double>& p,
                              const std::vector<double>& q);

/// max(KL(p||q), KL(q||p)) — the symmetric divergence used by CD-MKL.
StatusOr<double> MaxKlDivergence(const std::vector<double>& p,
                                 const std::vector<double>& q);

/// sum_i min(p_i, q_i), in [0,1] for normalized densities. CD-Area uses
/// 1 - intersection as the drift magnitude.
StatusOr<double> IntersectionArea(const std::vector<double>& p,
                                  const std::vector<double>& q);

}  // namespace ccs::stats

#endif  // CCS_STATS_DIVERGENCE_H_
