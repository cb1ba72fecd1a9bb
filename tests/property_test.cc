// Randomized property suites (TEST_P over seeds): invariants that must
// hold for ANY dataset, not just the curated fixtures.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/random.h"
#include "core/repair.h"
#include "core/serialize.h"
#include "core/synthesizer.h"
#include "dataframe/csv.h"
#include "linalg/gram.h"
#include "stats/correlation.h"

namespace ccs {
namespace {

using core::SimpleConstraint;
using core::Synthesizer;
using dataframe::DataFrame;
using linalg::Vector;

// A random dataset: random attribute count, random linear structure
// (some attributes are noisy combinations of others), random scales,
// optional categorical attribute.
DataFrame RandomDataset(uint64_t seed, bool with_categorical) {
  Rng rng(seed);
  size_t m = static_cast<size_t>(rng.UniformInt(2, 6));
  size_t n = static_cast<size_t>(rng.UniformInt(50, 400));
  std::vector<std::vector<double>> cols(m, std::vector<double>(n));
  for (size_t j = 0; j < m; ++j) {
    double scale = std::pow(10.0, rng.Uniform(-1.0, 3.0));
    double offset = rng.Uniform(-100.0, 100.0);
    bool derived = j > 0 && rng.Bernoulli(0.5);
    for (size_t i = 0; i < n; ++i) {
      if (derived) {
        size_t parent = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(j) - 1));
        cols[j][i] = 1.7 * cols[parent][i] + offset +
                     rng.Gaussian(0.0, 0.01 * scale);
      } else {
        cols[j][i] = offset + rng.Gaussian(0.0, scale);
      }
    }
  }
  DataFrame df;
  for (size_t j = 0; j < m; ++j) {
    CCS_CHECK(df.AddNumericColumn("a" + std::to_string(j),
                                  std::move(cols[j]))
                  .ok());
  }
  if (with_categorical) {
    std::vector<std::string> g(n);
    int domain = static_cast<int>(rng.UniformInt(2, 5));
    for (size_t i = 0; i < n; ++i) {
      g[i] = "v" + std::to_string(rng.UniformInt(0, domain - 1));
    }
    CCS_CHECK(df.AddCategoricalColumn("g", std::move(g)).ok());
  }
  return df;
}

class SeedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Training tuples never violate their own constraints (the bounds are
// mu +/- 4 sigma, so even the worst training tuple is inside for data
// without > 4-sigma outliers; we assert the 95th percentile is zero and
// every violation is tiny).
TEST_P(SeedPropertyTest, TrainingViolationsAreNegligible) {
  DataFrame df = RandomDataset(GetParam(), false);
  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  auto violations = constraint->ViolationAll(df);
  ASSERT_TRUE(violations.ok());
  size_t nonzero = 0;
  for (double v : violations->data()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    if (v > 1e-9) ++nonzero;
  }
  // Definition 2: |{t : not Phi(t)}| << |D|.
  EXPECT_LT(nonzero, df.num_rows() / 10);
}

// Quantitative semantics stays in [0, 1] for arbitrary probe tuples.
TEST_P(SeedPropertyTest, ViolationsAreAlwaysInUnitInterval) {
  DataFrame df = RandomDataset(GetParam() + 1000, false);
  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  Rng rng(GetParam() * 31 + 7);
  size_t m = df.NumericNames().size();
  for (int probe = 0; probe < 50; ++probe) {
    Vector t(m);
    for (size_t j = 0; j < m; ++j) {
      t[j] = rng.Uniform(-1e6, 1e6);
    }
    double v = constraint->ViolationAligned(t);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    EXPECT_TRUE(std::isfinite(v));
  }
}

// Algorithm 1's projections are pairwise uncorrelated on any dataset
// (Theorem 13(2), exact under our mean-centered implementation).
TEST_P(SeedPropertyTest, ProjectionsUncorrelatedOnRandomData) {
  DataFrame df = RandomDataset(GetParam() + 2000, false);
  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  const auto& conjuncts = constraint->conjuncts();
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    auto fi = conjuncts[i].projection().EvaluateAll(df).value();
    for (size_t j = i + 1; j < conjuncts.size(); ++j) {
      auto fj = conjuncts[j].projection().EvaluateAll(df).value();
      double rho = stats::PearsonCorrelation(fi, fj).value();
      EXPECT_NEAR(rho, 0.0, 1e-5);
    }
  }
}

// Serialization round-trips both structure and semantics on any dataset.
TEST_P(SeedPropertyTest, SerializeRoundTripOnRandomData) {
  DataFrame df = RandomDataset(GetParam() + 3000, true);
  Synthesizer synth;
  auto phi = synth.Synthesize(df);
  ASSERT_TRUE(phi.ok());
  auto back = core::Deserialize(core::Serialize(*phi));
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < std::min<size_t>(df.num_rows(), 30); ++i) {
    EXPECT_DOUBLE_EQ(phi->Violation(df, i).value(),
                     back->Violation(df, i).value());
  }
}

// CSV round-trips any numeric/categorical frame we generate.
TEST_P(SeedPropertyTest, CsvRoundTripOnRandomData) {
  DataFrame df = RandomDataset(GetParam() + 4000, true);
  std::ostringstream out;
  ASSERT_TRUE(dataframe::WriteCsv(df, out).ok());
  std::istringstream in(out.str());
  auto back = dataframe::ReadCsv(in);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), df.num_rows());
  ASSERT_TRUE(back->schema() == df.schema());
  for (size_t i = 0; i < std::min<size_t>(df.num_rows(), 20); ++i) {
    for (const auto& name : df.NumericNames()) {
      EXPECT_NEAR(back->NumericValue(i, name).value(),
                  df.NumericValue(i, name).value(),
                  std::abs(df.NumericValue(i, name).value()) * 1e-9 + 1e-9);
    }
  }
}

// Streaming Gram accumulation over arbitrary partitionings equals the
// single-pass result (the §4.3.2 parallel/merge claim).
TEST_P(SeedPropertyTest, GramMergeInvariantOnRandomPartitions) {
  DataFrame df = RandomDataset(GetParam() + 5000, false);
  size_t m = df.NumericNames().size();
  auto data = df.NumericMatrix();
  auto view = df.NumericViewFor(df.NumericNames());
  ASSERT_TRUE(view.ok());
  linalg::GramAccumulator whole(m);
  whole.AddView(*view);

  Rng rng(GetParam() * 13 + 5);
  size_t parts = static_cast<size_t>(rng.UniformInt(2, 5));
  std::vector<linalg::GramAccumulator> accumulators(
      parts, linalg::GramAccumulator(m));
  for (size_t i = 0; i < data.rows(); ++i) {
    accumulators[static_cast<size_t>(
                     rng.UniformInt(0, static_cast<int64_t>(parts) - 1))]
        .Add(data.Row(i));
  }
  linalg::GramAccumulator merged = accumulators[0];
  for (size_t p = 1; p < parts; ++p) {
    ASSERT_TRUE(merged.Merge(accumulators[p]).ok());
  }
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_TRUE(linalg::Matrix::AlmostEqual(
      merged.AugmentedGram(), whole.AugmentedGram(),
      1e-6 * std::max(1.0, whole.AugmentedGram().MaxAbs())));
}

// Repair fixed point: imputing an attribute of a CONFORMING tuple must
// not break conformance (the imputed tuple stays near the trend).
TEST_P(SeedPropertyTest, ImputationPreservesConformance) {
  DataFrame df = RandomDataset(GetParam() + 6000, false);
  auto repairer = core::ConstraintRepairer::FromTrainingData(df);
  ASSERT_TRUE(repairer.ok());
  auto data = df.NumericMatrix();
  size_t checked = 0;
  for (size_t i = 0; i < data.rows() && checked < 10; ++i) {
    Vector tuple = data.Row(i);
    if (repairer->constraint().ViolationAligned(tuple) > 1e-9) continue;
    ++checked;
    for (size_t j = 0; j < tuple.size(); ++j) {
      auto repaired = repairer->ImputeRow(tuple, j);
      ASSERT_TRUE(repaired.ok());
      EXPECT_LT(repairer->constraint().ViolationAligned(*repaired), 0.05)
          << "seed " << GetParam() << " row " << i << " attr " << j;
    }
  }
  EXPECT_GT(checked, 0u);
}

// Drift self-consistency: a dataset scored against its own profile has
// (near-)zero mean violation; a heavily shifted copy scores higher.
TEST_P(SeedPropertyTest, ShiftIncreasesDrift) {
  DataFrame df = RandomDataset(GetParam() + 7000, false);
  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  auto self = constraint->ViolationAll(df).value().Mean();

  // Shift ONLY the first attribute by 20 of its standard deviations.
  // (Shifting every attribute by its own sigma can move exactly along the
  // learned trend and legitimately stay conforming.)
  DataFrame shifted;
  bool first = true;
  for (const auto& name : df.NumericNames()) {
    auto col = df.ColumnByName(name).value()->ToVector();
    std::vector<double> values = col.data();
    if (first) {
      double delta = 20.0 * (col.StdDev() > 0 ? col.StdDev() : 1.0);
      for (double& v : values) v += delta;
      first = false;
    }
    ASSERT_TRUE(shifted.AddNumericColumn(name, std::move(values)).ok());
  }
  auto drifted = constraint->ViolationAll(shifted).value().Mean();
  EXPECT_GT(drifted, self + 0.02);  // Low-importance dirs may score low.
  EXPECT_GT(drifted, 3.0 * self + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace ccs
