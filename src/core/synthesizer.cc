#include "core/synthesizer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/parallel.h"
#include "linalg/symmetric_eigen.h"
#include "obs/trace.h"

namespace ccs::core {

namespace {

double RawImportance(ImportanceMapping mapping, double stddev) {
  switch (mapping) {
    case ImportanceMapping::kInverseLog:
      return 1.0 / std::log(2.0 + stddev);
    case ImportanceMapping::kInverseLinear:
      return 1.0 / (1.0 + stddev);
    case ImportanceMapping::kUniform:
      return 1.0;
  }
  return 1.0;
}

}  // namespace

StatusOr<SimpleConstraint> Synthesizer::SynthesizeSimple(
    const dataframe::DataFrame& df) const {
  obs::ObsSpan span("synth.simple", "synth");
  std::vector<std::string> names = df.NumericNames();
  if (names.empty()) {
    return Status::InvalidArgument(
        "SynthesizeSimple: dataset has no numeric attributes");
  }
  if (df.num_rows() == 0) {
    return Status::InvalidArgument("SynthesizeSimple: empty dataset");
  }
  // Line 1-2 of Algorithm 1: drop non-numeric attributes, augment with a
  // ones column — both folded into the streaming Gram accumulator, which
  // walks the frame's columnar storage in place (no per-call matrix even
  // when df is a partition view).
  linalg::GramAccumulator gram(names.size());
  CCS_ASSIGN_OR_RETURN(linalg::MatrixView data, df.NumericViewFor(names));
  gram.AddView(data);
  return SynthesizeSimpleFromGram(names, gram);
}

StatusOr<SimpleConstraint> Synthesizer::SynthesizeSimpleFromGram(
    const std::vector<std::string>& attribute_names,
    const linalg::GramAccumulator& gram) const {
  if (gram.num_attributes() != attribute_names.size()) {
    return Status::InvalidArgument(
        "SynthesizeSimpleFromGram: attribute count mismatch");
  }
  if (gram.count() == 0) {
    return Status::InvalidArgument("SynthesizeSimpleFromGram: no tuples");
  }

  // Line 3 of Algorithm 1, on mean-centered data: the paper's footnote 2
  // notes Theorem 13 holds exactly when attribute means are zero and that
  // centering always achieves this. Centering the ones-augmented Gram
  // matrix reduces it to the covariance matrix, whose eigenvectors give
  // projections that are EXACTLY pairwise uncorrelated and include the
  // minimum-variance one. The additive constant the ones column would
  // capture is recovered through the bounds (mu(F(D)) = w . means).
  linalg::Vector means = gram.Means();
  linalg::Matrix covariance = gram.Covariance();
  // One inf or NaN cell makes its attribute's mean and variance
  // non-finite, and every bound derived from them NaN.
  for (size_t i = 0; i < attribute_names.size(); ++i) {
    if (!std::isfinite(means[i]) || !std::isfinite(covariance.At(i, i))) {
      return Status::InvalidArgument(
          "SynthesizeSimpleFromGram: attribute '" + attribute_names[i] +
          "' has a non-finite mean or variance (an inf or NaN cell)");
    }
  }
  CCS_ASSIGN_OR_RETURN(linalg::EigenDecomposition eig,
                       linalg::SymmetricEigen(covariance));

  struct Candidate {
    Projection projection;
    double mean;
    double stddev;
    double raw_importance;
  };
  std::vector<Candidate> candidates;

  for (const linalg::EigenPair& pair : eig.pairs) {
    // Lines 5-6: normalize the coefficient vector (eigenvectors arrive
    // unit-norm; re-normalize defensively for near-degenerate pairs).
    linalg::Vector w = pair.eigenvector;
    double norm = w.Norm();
    if (norm < options_.min_projection_norm) continue;
    w.Scale(1.0 / norm);

    double mu = w.Dot(means);
    // var(F(D)) = w^T Cov w = eigenvalue (w is Cov's unit eigenvector).
    double var = std::max(pair.eigenvalue, 0.0);
    double sigma = std::sqrt(var);

    CCS_ASSIGN_OR_RETURN(Projection proj,
                         Projection::Create(attribute_names, std::move(w)));
    candidates.push_back(
        {std::move(proj), mu, sigma,
         RawImportance(options_.importance_mapping, sigma)});
  }
  if (candidates.empty()) {
    return Status::FailedPrecondition(
        "SynthesizeSimpleFromGram: no usable projections");
  }

  // Optional ablation filter: keep only one variance half. Candidates
  // arrive in ascending-eigenvalue (ascending-variance) order.
  if (options_.projection_filter != ProjectionFilter::kAll &&
      candidates.size() > 1) {
    size_t half = (candidates.size() + 1) / 2;
    switch (options_.projection_filter) {
      case ProjectionFilter::kLowVarianceHalf:
        candidates.resize(half);
        break;
      case ProjectionFilter::kHighVarianceHalf:
        candidates.erase(candidates.begin(),
                         candidates.end() - static_cast<long>(half));
        break;
      case ProjectionFilter::kMinimumVarianceOnly:
        candidates.resize(1);
        break;
      case ProjectionFilter::kAll:
        break;
    }
  }

  // Line 8: normalize importance factors.
  double z = 0.0;
  // ccs-lint: allow(fp-accumulate): normalizer folded in candidate
  // (attribute) order on the one synthesis thread; never sharded.
  for (const Candidate& c : candidates) z += c.raw_importance;

  std::vector<BoundedConstraint> conjuncts;
  conjuncts.reserve(candidates.size());
  const double big_c = options_.bound_multiplier;
  for (Candidate& c : candidates) {
    double lb = c.mean - big_c * c.stddev;
    double ub = c.mean + big_c * c.stddev;
    CCS_ASSIGN_OR_RETURN(
        BoundedConstraint conjunct,
        BoundedConstraint::Create(std::move(c.projection), lb, ub, c.mean,
                                  c.stddev, c.raw_importance / z));
    conjuncts.push_back(std::move(conjunct));
  }
  return SimpleConstraint::Create(attribute_names, std::move(conjuncts));
}

StatusOr<DisjunctiveConstraint> Synthesizer::SynthesizeDisjunctive(
    const dataframe::DataFrame& df, const std::string& attribute) const {
  obs::ObsSpan span("synth.disjunctive", "synth");
  CCS_ASSIGN_OR_RETURN(auto partitions, df.PartitionBy(attribute));
  if (partitions.size() > options_.max_categorical_domain) {
    return Status::InvalidArgument(
        "SynthesizeDisjunctive: domain of " + attribute + " has " +
        std::to_string(partitions.size()) + " values, exceeding the limit");
  }
  // Partitions are independent synthesis problems (§4.2): dispatch them
  // over a work queue, so one dominant switch value (skewed categorical
  // distributions are the norm) cannot serialize a whole lane behind it.
  // Eligibility filtering and the switch-value order come from the
  // std::map, so the work list — and the assembled constraint — is
  // deterministic; only the execution schedule varies.
  std::vector<const std::pair<const std::string, dataframe::DataFrame>*> work;
  work.reserve(partitions.size());
  for (const auto& entry : partitions) {
    if (entry.second.num_rows() < options_.min_partition_rows) continue;
    work.push_back(&entry);
  }
  if (work.empty()) {
    return Status::FailedPrecondition(
        "SynthesizeDisjunctive: every partition of " + attribute +
        " was below min_partition_rows");
  }
  std::vector<StatusOr<SimpleConstraint>> results(
      work.size(), Status::Internal("partition not synthesized"));
  common::ParallelForEach(work.size(), [&](size_t i) {
    results[i] = SynthesizeSimple(work[i]->second);
  });
  // Commit in switch-value order; the first failing partition (in that
  // fixed order, not completion order) determines the returned error.
  std::map<std::string, SimpleConstraint> cases;
  for (size_t i = 0; i < work.size(); ++i) {
    if (!results[i].ok()) return std::move(results[i]).status();
    cases.emplace(work[i]->first, std::move(results[i]).value());
  }
  return DisjunctiveConstraint(attribute, std::move(cases));
}

StatusOr<ConformanceConstraint> Synthesizer::Synthesize(
    const dataframe::DataFrame& df) const {
  obs::ObsSpan span("synth.full", "synth");
  SimpleConstraint global;
  if (options_.include_global) {
    CCS_ASSIGN_OR_RETURN(global, SynthesizeSimple(df));
  }
  std::vector<DisjunctiveConstraint> disjunctions;
  if (options_.include_disjunctive) {
    for (const std::string& attr : df.CategoricalNames()) {
      CCS_ASSIGN_OR_RETURN(const dataframe::Column* col,
                           df.ColumnByName(attr));
      if (col->DistinctValues().size() > options_.max_categorical_domain) {
        continue;  // Greedy small-domain rule (§4.2).
      }
      auto disj = SynthesizeDisjunctive(df, attr);
      if (!disj.ok()) continue;  // e.g. all partitions too small.
      disjunctions.push_back(std::move(disj).value());
    }
  }
  if (!options_.include_global && disjunctions.empty()) {
    return Status::FailedPrecondition(
        "Synthesize: no global constraint and no usable categorical "
        "attribute for disjunctions");
  }
  return ConformanceConstraint(std::move(global), std::move(disjunctions));
}

}  // namespace ccs::core
