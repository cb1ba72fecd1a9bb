// CCSynth: conformance-constraint synthesis (paper §4).
//
// Simple constraints come from Algorithm 1: eigenvectors of the
// ones-augmented Gram matrix give pairwise-uncorrelated projections
// including the minimum-variance one (Theorem 13); bounds are mu +/- C
// sigma (§4.1.1); importance factors are 1/log(2 + sigma) normalized
// (Appendix A). Compound constraints partition on low-cardinality
// categorical attributes and learn a simple constraint per partition
// (§4.2).
//
// The pipeline is parallel end to end: Gram accumulation is sharded
// across rows (GramAccumulator::AddView) and disjunctive partitions
// synthesize concurrently over a work queue (ParallelForEach). Both
// stages commit their results in a fixed order that does not depend on
// the thread count, so every synthesized constraint — coefficients,
// bounds, means, stddevs, importances, partition keys — is bitwise
// identical whether synthesis runs on 1 thread or N (verified by
// ConstraintsBitwiseEqual in tests/synthesizer_test.cc and by
// bench_lanes before it reports any throughput number).

#ifndef CCS_CORE_SYNTHESIZER_H_
#define CCS_CORE_SYNTHESIZER_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/constraint.h"
#include "dataframe/dataframe.h"
#include "linalg/gram.h"

namespace ccs::core {

/// Which synthesized projections to keep — an ablation axis. The paper
/// keeps all of them (weighted by importance); classic PCA-style analysis
/// would keep only the high-variance ones.
enum class ProjectionFilter {
  kAll,
  kLowVarianceHalf,
  kHighVarianceHalf,
  /// Only the single minimum-variance projection — what total least
  /// squares would find (Appendix L's comparison point).
  kMinimumVarianceOnly,
};

/// How the (unnormalized) importance factor gamma is derived from a
/// projection's stddev — an ablation axis. The paper uses kInverseLog.
enum class ImportanceMapping {
  kInverseLog,     ///< 1 / log(2 + sigma)   (paper, Appendix A)
  kInverseLinear,  ///< 1 / (1 + sigma)
  kUniform,        ///< 1
};

/// Synthesis options; defaults reproduce the paper's configuration.
struct SynthesisOptions {
  /// C in lb/ub = mu -/+ C*sigma (§4.1.1; the paper sets 4).
  double bound_multiplier = 4.0;

  /// Partition on categorical attributes with at most this many distinct
  /// values (§4.2; the paper uses 50).
  size_t max_categorical_domain = 50;

  /// Also learn the global (partition-free) simple constraint.
  bool include_global = true;

  /// Learn disjunctive constraints over categorical attributes.
  bool include_disjunctive = true;

  /// Partitions smaller than this are skipped (their switch value then
  /// yields "simp undefined" = violation 1 — too little data to profile).
  size_t min_partition_rows = 2;

  /// Projections whose truncated eigenvector norm falls below this are
  /// dropped (they point almost entirely along the constant column).
  double min_projection_norm = 1e-9;

  ProjectionFilter projection_filter = ProjectionFilter::kAll;
  ImportanceMapping importance_mapping = ImportanceMapping::kInverseLog;
};

/// Synthesizes conformance constraints for datasets.
class Synthesizer {
 public:
  explicit Synthesizer(SynthesisOptions options = SynthesisOptions())
      : options_(options) {}

  const SynthesisOptions& options() const { return options_; }

  /// Algorithm 1 on the numeric attributes of `df`: a simple (conjunctive)
  /// constraint with one bounded conjunct per retained projection. The
  /// Gram accumulation underneath is row-shard parallel.
  ///
  /// \param df  Training data; needs >= 1 numeric attribute and 1 row.
  /// \return The conjunctive constraint, or InvalidArgument on
  ///         degenerate input.
  StatusOr<SimpleConstraint> SynthesizeSimple(
      const dataframe::DataFrame& df) const;

  /// Algorithm 1 from a pre-accumulated Gram matrix (the streaming /
  /// partition-merge path of §4.3.2).
  ///
  /// \param attribute_names  Column order the accumulator was fed with.
  /// \param gram             Accumulated state; count() must be > 0.
  StatusOr<SimpleConstraint> SynthesizeSimpleFromGram(
      const std::vector<std::string>& attribute_names,
      const linalg::GramAccumulator& gram) const;

  /// One disjunctive constraint switched on `attribute` (must be
  /// categorical with a small-enough domain). Partitions synthesize
  /// concurrently over a work queue; cases are committed in switch-value
  /// order so the result is identical at any thread count.
  ///
  /// \param df         Training data carrying `attribute`.
  /// \param attribute  The categorical switch attribute.
  StatusOr<DisjunctiveConstraint> SynthesizeDisjunctive(
      const dataframe::DataFrame& df, const std::string& attribute) const;

  /// The full compound constraint: global simple constraint (if enabled)
  /// conjoined with one disjunction per eligible categorical attribute.
  /// Runs the whole parallel pipeline; see the file comment for the
  /// determinism contract.
  StatusOr<ConformanceConstraint> Synthesize(
      const dataframe::DataFrame& df) const;

 private:
  SynthesisOptions options_;
};

}  // namespace ccs::core

#endif  // CCS_CORE_SYNTHESIZER_H_
