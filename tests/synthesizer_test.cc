// Tests for core/synthesizer: Algorithm 1 and its guarantees
// (Theorem 13), Example 6/7 scenarios, disjunctive synthesis (§4.2), and
// the parallel-synthesis determinism contract (bitwise-identical
// constraints at every thread count).

#include <gtest/gtest.h>

#include <cmath>

#include "common/parallel.h"
#include "common/random.h"
#include "core/synthesizer.h"
#include "linalg/gram.h"
#include "stats/correlation.h"

namespace ccs::core {
namespace {

using dataframe::DataFrame;
using linalg::Vector;

// The Example 6 dataset: {(1,1.1),(2,1.7),(3,3.2)} over attributes X, Y.
DataFrame Example6() {
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("X", {1.0, 2.0, 3.0}).ok());
  CCS_CHECK(df.AddNumericColumn("Y", {1.1, 1.7, 3.2}).ok());
  return df;
}

// Correlated two-attribute data: y = slope*x + small noise.
DataFrame CorrelatedFrame(size_t n, double slope, double noise,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-10.0, 10.0);
    y[i] = slope * x[i] + rng.Gaussian(0.0, noise);
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  return df;
}

TEST(SynthesizerTest, TrainingTuplesAreConforming) {
  DataFrame df = Example6();
  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  for (size_t i = 0; i < df.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(constraint->Violation(df, i).value(), 0.0)
        << "training tuple " << i << " must satisfy its own constraints";
  }
}

TEST(SynthesizerTest, ImportanceFactorsAreNormalized) {
  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(CorrelatedFrame(200, 2.0, 0.1, 1));
  ASSERT_TRUE(constraint.ok());
  double total = 0.0;
  for (const auto& c : constraint->conjuncts()) {
    EXPECT_GT(c.importance(), 0.0);
    total += c.importance();
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SynthesizerTest, LowVarianceProjectionGetsHigherImportance) {
  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(CorrelatedFrame(500, 2.0, 0.05, 2));
  ASSERT_TRUE(constraint.ok());
  // Find min- and max-stddev conjuncts; importance must be anti-monotone.
  const BoundedConstraint* lo = nullptr;
  const BoundedConstraint* hi = nullptr;
  for (const auto& c : constraint->conjuncts()) {
    if (lo == nullptr || c.stddev() < lo->stddev()) lo = &c;
    if (hi == nullptr || c.stddev() > hi->stddev()) hi = &c;
  }
  ASSERT_NE(lo, hi);
  EXPECT_GT(lo->importance(), hi->importance());
}

// Theorem 13(2): projections from Algorithm 1 are pairwise uncorrelated.
TEST(SynthesizerTest, ProjectionsArePairwiseUncorrelated) {
  Rng rng(3);
  // Three attributes with strong cross-correlations.
  std::vector<double> a(400), b(400), c(400);
  for (size_t i = 0; i < 400; ++i) {
    a[i] = rng.Uniform(-5.0, 5.0);
    b[i] = 0.7 * a[i] + rng.Gaussian(0.0, 0.5);
    c[i] = -0.4 * a[i] + 0.9 * b[i] + rng.Gaussian(0.0, 0.3);
  }
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("a", std::move(a)).ok());
  ASSERT_TRUE(df.AddNumericColumn("b", std::move(b)).ok());
  ASSERT_TRUE(df.AddNumericColumn("c", std::move(c)).ok());

  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  const auto& conjuncts = constraint->conjuncts();
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    auto fi = conjuncts[i].projection().EvaluateAll(df);
    ASSERT_TRUE(fi.ok());
    for (size_t j = i + 1; j < conjuncts.size(); ++j) {
      auto fj = conjuncts[j].projection().EvaluateAll(df);
      ASSERT_TRUE(fj.ok());
      double rho = stats::PearsonCorrelation(*fi, *fj).value();
      EXPECT_NEAR(rho, 0.0, 1e-6)
          << "projections " << i << " and " << j << " are correlated";
    }
  }
}

// Theorem 13(1): no unit-norm linear projection has smaller stddev than
// the best synthesized one (checked against random probes).
TEST(SynthesizerTest, MinVarianceProjectionIsOptimalAmongProbes) {
  DataFrame df = CorrelatedFrame(300, 1.5, 0.2, 5);
  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  double best_sigma = 1e300;
  for (const auto& c : constraint->conjuncts()) {
    best_sigma = std::min(best_sigma, c.stddev());
  }
  Rng rng(7);
  for (int probe = 0; probe < 200; ++probe) {
    Vector w{rng.Gaussian(), rng.Gaussian()};
    if (w.Norm() < 1e-9) continue;
    w = w.Normalized();
    auto p = Projection::Create({"x", "y"}, w);
    ASSERT_TRUE(p.ok());
    auto values = p->EvaluateAll(df);
    ASSERT_TRUE(values.ok());
    EXPECT_GE(values->StdDev() + 1e-9, best_sigma);
  }
}

// Example 6/7: the synthesized conformance zone must exclude the
// incongruous tuples (0,4) and (4,0) that per-attribute bounds admit.
TEST(SynthesizerTest, IncongruousTuplesAreExcluded) {
  DataFrame df = Example6();
  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  EXPECT_GT(constraint->ViolationAligned(Vector{0.0, 4.0}), 0.3);
  EXPECT_GT(constraint->ViolationAligned(Vector{4.0, 0.0}), 0.3);
}

// The trend-following tuple (e.g. (4, 4.2) extends the X≈Y trend) should
// conform even though it lies outside the training range — the paper's
// argument against convex-polytope overfitting.
TEST(SynthesizerTest, TrendFollowingTupleConforms) {
  DataFrame df = CorrelatedFrame(500, 10.0, 0.02, 11);  // y = 10x.
  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  // (5, 50) follows the trend but may exceed the per-attribute ranges.
  EXPECT_LT(constraint->ViolationAligned(Vector{5.0, 50.0}), 0.05);
  // (5, 0) breaks the trend.
  EXPECT_GT(constraint->ViolationAligned(Vector{5.0, 0.0}), 0.5);
}

TEST(SynthesizerTest, BoundsAreMeanPlusMinusCSigma) {
  DataFrame df = CorrelatedFrame(300, 2.0, 0.5, 13);
  SynthesisOptions options;
  options.bound_multiplier = 3.0;
  Synthesizer synth(options);
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  for (const auto& c : constraint->conjuncts()) {
    EXPECT_NEAR(c.lb(), c.mean() - 3.0 * c.stddev(), 1e-9);
    EXPECT_NEAR(c.ub(), c.mean() + 3.0 * c.stddev(), 1e-9);
  }
}

TEST(SynthesizerTest, GramPathMatchesDataFramePath) {
  DataFrame df = CorrelatedFrame(100, -1.0, 0.3, 17);
  Synthesizer synth;
  auto direct = synth.SynthesizeSimple(df);
  ASSERT_TRUE(direct.ok());

  linalg::GramAccumulator gram(2);
  auto data = df.NumericViewFor({"x", "y"});
  ASSERT_TRUE(data.ok());
  gram.AddView(*data);
  auto from_gram = synth.SynthesizeSimpleFromGram({"x", "y"}, gram);
  ASSERT_TRUE(from_gram.ok());

  ASSERT_EQ(direct->conjuncts().size(), from_gram->conjuncts().size());
  for (size_t k = 0; k < direct->conjuncts().size(); ++k) {
    EXPECT_NEAR(direct->conjuncts()[k].stddev(),
                from_gram->conjuncts()[k].stddev(), 1e-9);
    EXPECT_NEAR(direct->conjuncts()[k].lb(), from_gram->conjuncts()[k].lb(),
                1e-6);
  }
}

TEST(SynthesizerTest, ErrorsOnDegenerateInput) {
  Synthesizer synth;
  DataFrame empty;
  EXPECT_FALSE(synth.SynthesizeSimple(empty).ok());

  DataFrame categorical_only;
  ASSERT_TRUE(categorical_only.AddCategoricalColumn("c", {"a"}).ok());
  EXPECT_FALSE(synth.SynthesizeSimple(categorical_only).ok());
}

TEST(SynthesizerTest, ConstantAttributeYieldsEqualityLikeConstraint) {
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("k", {7.0, 7.0, 7.0, 7.0}).ok());
  ASSERT_TRUE(df.AddNumericColumn("v", {1.0, 2.0, 3.0, 4.0}).ok());
  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  // A tuple with k != 7 must be flagged hard.
  EXPECT_GT(constraint->ViolationAligned(Vector{8.0, 2.5}), 0.3);
  EXPECT_DOUBLE_EQ(constraint->ViolationAligned(Vector{7.0, 2.5}), 0.0);
}

// --------------------- disjunctive synthesis --------------------------

DataFrame PiecewiseFrame() {
  // Two partitions with opposite linear trends (Appendix F's motivation):
  // group "a": y = x; group "b": y = -x.
  Rng rng(19);
  std::vector<double> x, y;
  std::vector<std::string> g;
  for (int i = 0; i < 200; ++i) {
    double v = rng.Uniform(-5.0, 5.0);
    x.push_back(v);
    y.push_back(v + rng.Gaussian(0.0, 0.05));
    g.push_back("a");
  }
  for (int i = 0; i < 200; ++i) {
    double v = rng.Uniform(-5.0, 5.0);
    x.push_back(v);
    y.push_back(-v + rng.Gaussian(0.0, 0.05));
    g.push_back("b");
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  CCS_CHECK(df.AddCategoricalColumn("g", std::move(g)).ok());
  return df;
}

TEST(DisjunctiveSynthesisTest, OneCasePerPartition) {
  DataFrame df = PiecewiseFrame();
  Synthesizer synth;
  auto disj = synth.SynthesizeDisjunctive(df, "g");
  ASSERT_TRUE(disj.ok());
  EXPECT_EQ(disj->attribute(), "g");
  EXPECT_EQ(disj->cases().size(), 2u);
}

TEST(DisjunctiveSynthesisTest, PartitionConstraintsAreTighter) {
  // Per-partition constraints catch a tuple that matches the WRONG
  // partition's trend; a global constraint cannot.
  DataFrame df = PiecewiseFrame();
  Synthesizer synth;
  auto disj = synth.SynthesizeDisjunctive(df, "g");
  ASSERT_TRUE(disj.ok());

  DataFrame probe;
  ASSERT_TRUE(probe.AddNumericColumn("x", {3.0}).ok());
  ASSERT_TRUE(probe.AddNumericColumn("y", {-3.0}).ok());  // Trend of "b".
  ASSERT_TRUE(probe.AddCategoricalColumn("g", {"a"}).ok());  // Claimed "a".
  EXPECT_GT(disj->Violation(probe, 0).value(), 0.4);

  DataFrame probe_ok;
  ASSERT_TRUE(probe_ok.AddNumericColumn("x", {3.0}).ok());
  ASSERT_TRUE(probe_ok.AddNumericColumn("y", {3.0}).ok());
  ASSERT_TRUE(probe_ok.AddCategoricalColumn("g", {"a"}).ok());
  EXPECT_LT(disj->Violation(probe_ok, 0).value(), 0.05);
}

TEST(DisjunctiveSynthesisTest, SmallPartitionsSkipped) {
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {1.0, 2.0, 3.0}).ok());
  ASSERT_TRUE(df.AddCategoricalColumn("g", {"big", "big", "tiny"}).ok());
  SynthesisOptions options;
  options.min_partition_rows = 2;
  Synthesizer synth(options);
  auto disj = synth.SynthesizeDisjunctive(df, "g");
  ASSERT_TRUE(disj.ok());
  EXPECT_EQ(disj->cases().size(), 1u);
  EXPECT_TRUE(disj->cases().count("big"));
}

TEST(DisjunctiveSynthesisTest, RejectsNumericSwitch) {
  DataFrame df = PiecewiseFrame();
  Synthesizer synth;
  EXPECT_FALSE(synth.SynthesizeDisjunctive(df, "x").ok());
}

// --------------------- compound synthesis -----------------------------

TEST(CompoundSynthesisTest, GlobalPlusDisjunctions) {
  DataFrame df = PiecewiseFrame();
  Synthesizer synth;
  auto phi = synth.Synthesize(df);
  ASSERT_TRUE(phi.ok());
  EXPECT_TRUE(phi->has_global());
  ASSERT_EQ(phi->disjunctions().size(), 1u);
  EXPECT_EQ(phi->disjunctions()[0].attribute(), "g");
}

TEST(CompoundSynthesisTest, LargeDomainCategoricalIsSkipped) {
  Rng rng(23);
  std::vector<double> x;
  std::vector<std::string> id;
  for (int i = 0; i < 100; ++i) {
    x.push_back(rng.Uniform());
    id.push_back("row" + std::to_string(i));  // 100 distinct values.
  }
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", std::move(x)).ok());
  ASSERT_TRUE(df.AddCategoricalColumn("id", std::move(id)).ok());
  SynthesisOptions options;
  options.max_categorical_domain = 50;
  Synthesizer synth(options);
  auto phi = synth.Synthesize(df);
  ASSERT_TRUE(phi.ok());
  EXPECT_TRUE(phi->disjunctions().empty());
}

TEST(CompoundSynthesisTest, GlobalOnlyOption) {
  DataFrame df = PiecewiseFrame();
  SynthesisOptions options;
  options.include_disjunctive = false;
  Synthesizer synth(options);
  auto phi = synth.Synthesize(df);
  ASSERT_TRUE(phi.ok());
  EXPECT_TRUE(phi->disjunctions().empty());
  EXPECT_TRUE(phi->has_global());
}

// ------------------ option/ablation parameterization ------------------

class BoundMultiplierTest : public ::testing::TestWithParam<double> {};

TEST_P(BoundMultiplierTest, LargerCMakesLooserConstraints) {
  DataFrame df = CorrelatedFrame(300, 2.0, 0.5, 29);
  SynthesisOptions options;
  options.bound_multiplier = GetParam();
  Synthesizer synth(options);
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  // An off-trend probe: violation must not increase with C.
  Vector probe{4.0, -8.0};
  double violation = constraint->ViolationAligned(probe);

  SynthesisOptions looser = options;
  looser.bound_multiplier = GetParam() * 2.0;
  auto loose = Synthesizer(looser).SynthesizeSimple(df);
  ASSERT_TRUE(loose.ok());
  EXPECT_LE(loose->ViolationAligned(probe), violation + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Cs, BoundMultiplierTest,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0));

class ImportanceMappingTest
    : public ::testing::TestWithParam<ImportanceMapping> {};

TEST_P(ImportanceMappingTest, AllMappingsYieldNormalizedWeights) {
  DataFrame df = CorrelatedFrame(200, 3.0, 0.2, 31);
  SynthesisOptions options;
  options.importance_mapping = GetParam();
  Synthesizer synth(options);
  auto constraint = synth.SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  double total = 0.0;
  for (const auto& c : constraint->conjuncts()) total += c.importance();
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Mappings, ImportanceMappingTest,
                         ::testing::Values(ImportanceMapping::kInverseLog,
                                           ImportanceMapping::kInverseLinear,
                                           ImportanceMapping::kUniform));

class ProjectionFilterTest
    : public ::testing::TestWithParam<ProjectionFilter> {};

TEST_P(ProjectionFilterTest, FilterControlsConjunctCount) {
  Rng rng(37);
  std::vector<double> a(200), b(200), c(200), d(200);
  for (size_t i = 0; i < 200; ++i) {
    a[i] = rng.Gaussian();
    b[i] = rng.Gaussian();
    c[i] = a[i] + 0.1 * rng.Gaussian();
    d[i] = b[i] - a[i] + 0.1 * rng.Gaussian();
  }
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("a", std::move(a)).ok());
  ASSERT_TRUE(df.AddNumericColumn("b", std::move(b)).ok());
  ASSERT_TRUE(df.AddNumericColumn("c", std::move(c)).ok());
  ASSERT_TRUE(df.AddNumericColumn("d", std::move(d)).ok());

  SynthesisOptions all_options;
  all_options.projection_filter = ProjectionFilter::kAll;
  auto all = Synthesizer(all_options).SynthesizeSimple(df);
  ASSERT_TRUE(all.ok());

  SynthesisOptions options;
  options.projection_filter = GetParam();
  auto filtered = Synthesizer(options).SynthesizeSimple(df);
  ASSERT_TRUE(filtered.ok());
  if (GetParam() == ProjectionFilter::kAll) {
    EXPECT_EQ(filtered->conjuncts().size(), all->conjuncts().size());
  } else {
    EXPECT_LT(filtered->conjuncts().size(), all->conjuncts().size());
  }
}

INSTANTIATE_TEST_SUITE_P(Filters, ProjectionFilterTest,
                         ::testing::Values(ProjectionFilter::kAll,
                                           ProjectionFilter::kLowVarianceHalf,
                                           ProjectionFilter::kHighVarianceHalf));

// ---------------- parallel-synthesis determinism ----------------------
//
// Contract: Synthesize / SynthesizeDisjunctive / SynthesizeSimple return
// constraints that are ConstraintsBitwiseEqual — every coefficient,
// bound, and partition key compared with ==, no tolerance — at 1, 2, and
// N threads. Shard boundaries (kGramShardRows) and merge order are fixed
// independently of the thread count, so this is exact, not approximate.

// Restores the process-default thread count even if a test fails.
class ThreadCountGuard {
 public:
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { common::SetDefaultThreadCount(0); }
};

// A frame wide and tall enough to cross several Gram shard boundaries,
// with a skewed categorical switch (one dominant partition, several
// small ones, and singleton partitions that min_partition_rows skips).
DataFrame ShardCrossingFrame() {
  const size_t n = 3 * linalg::kGramShardRows + 137;  // Partial last shard.
  Rng rng(47);
  std::vector<double> x(n), y(n), z(n);
  std::vector<std::string> g(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-10.0, 10.0);
    y[i] = 0.5 * x[i] + rng.Gaussian(0.0, 0.2);
    z[i] = -x[i] + y[i] + rng.Gaussian(0.0, 0.3);
    if (i < 2) {
      g[i] = "singleton" + std::to_string(i);  // Below min_partition_rows.
    } else if (rng.Bernoulli(0.7)) {
      g[i] = "dominant";
    } else {
      g[i] = "minor" + std::to_string(rng.UniformInt(0, 3));
    }
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  CCS_CHECK(df.AddNumericColumn("z", std::move(z)).ok());
  CCS_CHECK(df.AddCategoricalColumn("g", std::move(g)).ok());
  return df;
}

TEST(ParallelSynthesisTest, SimpleConstraintBitwiseIdenticalAcrossThreads) {
  ThreadCountGuard guard;
  DataFrame df = ShardCrossingFrame();
  Synthesizer synth;
  common::SetDefaultThreadCount(1);
  auto serial = synth.SynthesizeSimple(df);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u, 8u}) {
    common::SetDefaultThreadCount(threads);
    auto parallel = synth.SynthesizeSimple(df);
    ASSERT_TRUE(parallel.ok());
    EXPECT_TRUE(ConstraintsBitwiseEqual(*serial, *parallel))
        << "SynthesizeSimple diverged at " << threads << " threads";
  }
}

TEST(ParallelSynthesisTest, CompoundConstraintBitwiseIdenticalAcrossThreads) {
  ThreadCountGuard guard;
  DataFrame df = ShardCrossingFrame();
  Synthesizer synth;
  common::SetDefaultThreadCount(1);
  auto serial = synth.Synthesize(df);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(serial->has_global());
  ASSERT_EQ(serial->disjunctions().size(), 1u);
  // Singleton partitions are skipped; dominant + minor0..3 remain.
  EXPECT_EQ(serial->disjunctions()[0].cases().size(), 5u);
  for (size_t threads : {2u, 4u, 8u}) {
    common::SetDefaultThreadCount(threads);
    auto parallel = synth.Synthesize(df);
    ASSERT_TRUE(parallel.ok());
    EXPECT_TRUE(ConstraintsBitwiseEqual(*serial, *parallel))
        << "Synthesize diverged at " << threads << " threads";
  }
}

TEST(ParallelSynthesisTest, AllRowsInOnePartitionSkew) {
  // Extreme skew: every row carries the same switch value, so the work
  // queue holds exactly one (large) partition.
  ThreadCountGuard guard;
  const size_t n = linalg::kGramShardRows + 50;
  Rng rng(53);
  std::vector<double> x(n), y(n);
  std::vector<std::string> g(n, "only");
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-5.0, 5.0);
    y[i] = 2.0 * x[i] + rng.Gaussian(0.0, 0.1);
  }
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", std::move(x)).ok());
  ASSERT_TRUE(df.AddNumericColumn("y", std::move(y)).ok());
  ASSERT_TRUE(df.AddCategoricalColumn("g", std::move(g)).ok());

  Synthesizer synth;
  common::SetDefaultThreadCount(1);
  auto serial = synth.SynthesizeDisjunctive(df, "g");
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->cases().size(), 1u);
  common::SetDefaultThreadCount(8);
  auto parallel = synth.SynthesizeDisjunctive(df, "g");
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(ConstraintsBitwiseEqual(*serial, *parallel));
}

TEST(ParallelSynthesisTest, SinglePartitionsBelowMinimumFailIdentically) {
  // Every partition is a singleton: no case survives, and the error is
  // the same FailedPrecondition at any thread count (an "empty
  // partition set" must not depend on scheduling).
  ThreadCountGuard guard;
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {1.0, 2.0, 3.0, 4.0}).ok());
  ASSERT_TRUE(df.AddCategoricalColumn("g", {"a", "b", "c", "d"}).ok());
  Synthesizer synth;
  for (size_t threads : {1u, 8u}) {
    common::SetDefaultThreadCount(threads);
    auto disj = synth.SynthesizeDisjunctive(df, "g");
    ASSERT_FALSE(disj.ok());
    EXPECT_EQ(disj.status().code(), StatusCode::kFailedPrecondition)
        << "at " << threads << " threads";
  }
}

TEST(ParallelSynthesisTest, GramViewPathIdenticalAcrossThreads) {
  // The layer below the synthesizer: AddView itself must produce the
  // same bits at any thread count (fixed shards, ordered merge).
  ThreadCountGuard guard;
  const size_t n = 2 * linalg::kGramShardRows + 11;
  Rng rng(59);
  DataFrame df;
  const std::vector<std::string> names = {"a", "b", "c"};
  for (const std::string& name : names) {
    std::vector<double> column(n);
    for (double& v : column) v = rng.Gaussian();
    ASSERT_TRUE(df.AddNumericColumn(name, std::move(column)).ok());
  }
  auto data = df.NumericViewFor(names);
  ASSERT_TRUE(data.ok());
  common::SetDefaultThreadCount(1);
  linalg::GramAccumulator serial(3);
  serial.AddView(*data);
  for (size_t threads : {2u, 8u}) {
    common::SetDefaultThreadCount(threads);
    linalg::GramAccumulator parallel(3);
    parallel.AddView(*data);
    ASSERT_EQ(parallel.count(), serial.count());
    linalg::Matrix serial_gram = serial.AugmentedGram();
    linalg::Matrix parallel_gram = parallel.AugmentedGram();
    const auto& a = serial_gram.data();
    const auto& b = parallel_gram.data();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "Gram entry " << i << " differs at "
                            << threads << " threads";
    }
  }
}

TEST(ProjectionFilterTest, MinimumVarianceOnlyKeepsSingleConjunct) {
  DataFrame df = CorrelatedFrame(200, 2.0, 0.1, 41);
  SynthesisOptions options;
  options.projection_filter = ProjectionFilter::kMinimumVarianceOnly;
  auto constraint = Synthesizer(options).SynthesizeSimple(df);
  ASSERT_TRUE(constraint.ok());
  ASSERT_EQ(constraint->conjuncts().size(), 1u);
  EXPECT_NEAR(constraint->conjuncts()[0].importance(), 1.0, 1e-12);
  // It is the lowest-variance projection: the (y - 2x)-like direction.
  SynthesisOptions all;
  auto full = Synthesizer(all).SynthesizeSimple(df);
  ASSERT_TRUE(full.ok());
  double min_sigma = 1e300;
  for (const auto& c : full->conjuncts()) {
    min_sigma = std::min(min_sigma, c.stddev());
  }
  EXPECT_NEAR(constraint->conjuncts()[0].stddev(), min_sigma, 1e-9);
}

}  // namespace
}  // namespace ccs::core
