// Pearson correlation (the rho of Definition 9) and a large-sample p-value.

#ifndef CCS_STATS_CORRELATION_H_
#define CCS_STATS_CORRELATION_H_

#include "common/statusor.h"
#include "linalg/vector.h"

namespace ccs::stats {

/// Pearson correlation coefficient of two equally-sized samples.
/// Returns 0 when either sample has zero variance (the paper's projections
/// treat uncorrelated and degenerate alike for combination purposes).
StatusOr<double> PearsonCorrelation(const linalg::Vector& x,
                                    const linalg::Vector& y);

/// Pearson correlation plus a two-sided p-value from the large-sample
/// normal approximation of the t statistic (adequate at the sample sizes
/// the experiments use; reported alongside pcc as in §6.1).
struct CorrelationTest {
  double pcc = 0.0;
  double p_value = 1.0;
};
StatusOr<CorrelationTest> PearsonTest(const linalg::Vector& x,
                                      const linalg::Vector& y);

}  // namespace ccs::stats

#endif  // CCS_STATS_CORRELATION_H_
