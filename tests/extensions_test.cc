// Tests for the paper's stated extensions, implemented as real features:
// decision-tree constraints (§8), dataset diff (Appendix H), and
// violation-guided repair/imputation (Appendix H).

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/datadiff.h"
#include "core/repair.h"
#include "core/tree.h"

namespace ccs::core {
namespace {

using dataframe::DataFrame;
using linalg::Vector;

// Two-level piecewise data: region ("east"/"west") selects the slope of
// y = slope * x; within east, the tier ("a"/"b") selects an offset.
DataFrame Hierarchical(size_t rows_per_leaf, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x, y;
  std::vector<std::string> region, tier;
  auto emit = [&](const std::string& r, const std::string& t, double slope,
                  double offset) {
    for (size_t i = 0; i < rows_per_leaf; ++i) {
      double v = rng.Uniform(-4.0, 4.0);
      x.push_back(v);
      y.push_back(slope * v + offset + rng.Gaussian(0.0, 0.05));
      region.push_back(r);
      tier.push_back(t);
    }
  };
  emit("east", "a", 1.0, 0.0);
  emit("east", "b", 1.0, 5.0);
  emit("west", "a", -1.0, 0.0);
  emit("west", "b", -1.0, 0.0);
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  CCS_CHECK(df.AddCategoricalColumn("region", std::move(region)).ok());
  CCS_CHECK(df.AddCategoricalColumn("tier", std::move(tier)).ok());
  return df;
}

// ----------------------------- tree -----------------------------------

TEST(ConstraintTreeTest, SplitsOnInformativeAttribute) {
  DataFrame df = Hierarchical(80, 1);
  auto tree = ConstraintTree::Fit(df);
  ASSERT_TRUE(tree.ok());
  // The root split must be "region" (slope flip dominates the variance).
  EXPECT_EQ(tree->root().split_attribute, "region");
  EXPECT_GE(tree->num_leaves(), 2u);
  EXPECT_GE(tree->depth(), 1u);
}

TEST(ConstraintTreeTest, TrainingDataConforms) {
  DataFrame df = Hierarchical(80, 2);
  auto tree = ConstraintTree::Fit(df);
  ASSERT_TRUE(tree.ok());
  auto mean = tree->MeanViolation(df);
  ASSERT_TRUE(mean.ok());
  EXPECT_LT(*mean, 0.01);
}

TEST(ConstraintTreeTest, WrongRegionTrendIsFlagged) {
  DataFrame df = Hierarchical(80, 3);
  auto tree = ConstraintTree::Fit(df);
  ASSERT_TRUE(tree.ok());
  // A west-labeled tuple following the east trend (y = +x).
  DataFrame probe;
  ASSERT_TRUE(probe.AddNumericColumn("x", {3.0}).ok());
  ASSERT_TRUE(probe.AddNumericColumn("y", {3.0}).ok());
  ASSERT_TRUE(probe.AddCategoricalColumn("region", {"west"}).ok());
  ASSERT_TRUE(probe.AddCategoricalColumn("tier", {"a"}).ok());
  EXPECT_GT(tree->Violation(probe, 0).value(), 0.4);

  // The same numbers labeled east conform.
  DataFrame probe_east;
  ASSERT_TRUE(probe_east.AddNumericColumn("x", {3.0}).ok());
  ASSERT_TRUE(probe_east.AddNumericColumn("y", {3.0}).ok());
  ASSERT_TRUE(probe_east.AddCategoricalColumn("region", {"east"}).ok());
  ASSERT_TRUE(probe_east.AddCategoricalColumn("tier", {"a"}).ok());
  EXPECT_LT(tree->Violation(probe_east, 0).value(), 0.1);
}

TEST(ConstraintTreeTest, UnseenBranchValueIsPenalized) {
  DataFrame df = Hierarchical(80, 4);
  auto tree = ConstraintTree::Fit(df);
  ASSERT_TRUE(tree.ok());
  DataFrame probe;
  ASSERT_TRUE(probe.AddNumericColumn("x", {0.0}).ok());
  ASSERT_TRUE(probe.AddNumericColumn("y", {0.0}).ok());
  ASSERT_TRUE(probe.AddCategoricalColumn("region", {"north"}).ok());
  ASSERT_TRUE(probe.AddCategoricalColumn("tier", {"a"}).ok());
  EXPECT_GE(tree->Violation(probe, 0).value(), 0.4);
}

TEST(ConstraintTreeTest, DepthZeroIsGlobalConstraint) {
  DataFrame df = Hierarchical(80, 5);
  TreeOptions options;
  options.max_depth = 0;
  auto tree = ConstraintTree::Fit(df, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->root().is_leaf());
  EXPECT_EQ(tree->num_leaves(), 1u);
}

TEST(ConstraintTreeTest, MinLeafRowsBlocksSplits) {
  DataFrame df = Hierarchical(20, 6);
  TreeOptions options;
  options.min_leaf_rows = 100;  // Larger than any partition.
  auto tree = ConstraintTree::Fit(df, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->root().is_leaf());
}

TEST(ConstraintTreeTest, ToStringShowsStructure) {
  DataFrame df = Hierarchical(80, 7);
  auto tree = ConstraintTree::Fit(df);
  ASSERT_TRUE(tree.ok());
  std::string rendered = tree->ToString();
  EXPECT_NE(rendered.find("split on region"), std::string::npos);
  EXPECT_NE(rendered.find("leaf"), std::string::npos);
}

TEST(ConstraintTreeTest, EmptyDatasetIsError) {
  EXPECT_FALSE(ConstraintTree::Fit(DataFrame()).ok());
}

TEST(ConstraintTreeTest, TreeBeatsFlatGlobalOnHierarchicalData) {
  DataFrame df = Hierarchical(80, 8);
  auto tree = ConstraintTree::Fit(df);
  ASSERT_TRUE(tree.ok());
  TreeOptions flat_options;
  flat_options.max_depth = 0;
  auto flat = ConstraintTree::Fit(df, flat_options);
  ASSERT_TRUE(flat.ok());
  // Off-trend probe: east-labeled tuple on the west trend with the east-b
  // offset missing. The tree localizes; the flat profile dilutes.
  DataFrame probe;
  ASSERT_TRUE(probe.AddNumericColumn("x", {3.0}).ok());
  ASSERT_TRUE(probe.AddNumericColumn("y", {-3.0}).ok());
  ASSERT_TRUE(probe.AddCategoricalColumn("region", {"east"}).ok());
  ASSERT_TRUE(probe.AddCategoricalColumn("tier", {"a"}).ok());
  EXPECT_GT(tree->Violation(probe, 0).value(),
            flat->Violation(probe, 0).value());
}

// ----------------------------- datadiff --------------------------------

TEST(DataDiffTest, IdenticalDistributionsShowNoDrift) {
  DataFrame a = Hierarchical(60, 9);
  DataFrame b = Hierarchical(60, 10);
  auto diff = DiffDatasets(a, b);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff->violation_b_against_a, 0.02);
  EXPECT_LT(diff->violation_a_against_b, 0.02);
}

TEST(DataDiffTest, LocalizedChangeShowsInPartitionBreakdown) {
  DataFrame a = Hierarchical(60, 11);
  // B: the west slope flipped to +1 (only west partitions drift).
  Rng rng(12);
  std::vector<double> x, y;
  std::vector<std::string> region, tier;
  auto emit = [&](const std::string& r, const std::string& t, double slope,
                  double offset) {
    for (size_t i = 0; i < 60; ++i) {
      double v = rng.Uniform(-4.0, 4.0);
      x.push_back(v);
      y.push_back(slope * v + offset + rng.Gaussian(0.0, 0.05));
      region.push_back(r);
      tier.push_back(t);
    }
  };
  emit("east", "a", 1.0, 0.0);
  emit("east", "b", 1.0, 5.0);
  emit("west", "a", 1.0, 0.0);  // Flipped!
  emit("west", "b", 1.0, 0.0);  // Flipped!
  DataFrame b;
  ASSERT_TRUE(b.AddNumericColumn("x", std::move(x)).ok());
  ASSERT_TRUE(b.AddNumericColumn("y", std::move(y)).ok());
  ASSERT_TRUE(b.AddCategoricalColumn("region", std::move(region)).ok());
  ASSERT_TRUE(b.AddCategoricalColumn("tier", std::move(tier)).ok());

  auto diff = DiffDatasets(a, b);
  ASSERT_TRUE(diff.ok());
  EXPECT_GT(diff->violation_b_against_a, 0.05);
  ASSERT_FALSE(diff->partitions.empty());
  // The top partition entry must be region=west.
  EXPECT_EQ(diff->partitions[0].attribute, "region");
  EXPECT_EQ(diff->partitions[0].value, "west");
  // East partitions stay low.
  for (const auto& p : diff->partitions) {
    if (p.attribute == "region" && p.value == "east") {
      EXPECT_LT(p.violation_b_against_a, 0.05);
    }
  }
}

TEST(DataDiffTest, ValueMissingFromReferenceIsFullViolation) {
  DataFrame a = Hierarchical(60, 13);
  DataFrame b = Hierarchical(60, 14);
  // Rename one region value in B so A has no profile for it.
  std::vector<std::string> region =
      b.ColumnByName("region").value()->categorical_data();
  for (auto& r : region) {
    if (r == "west") r = "south";
  }
  DataFrame b2 = b.DropColumns({"region"}).value();
  ASSERT_TRUE(b2.AddCategoricalColumn("region", std::move(region)).ok());
  auto diff = DiffDatasets(a, b2);
  ASSERT_TRUE(diff.ok());
  bool found = false;
  for (const auto& p : diff->partitions) {
    if (p.attribute == "region" && p.value == "south") {
      EXPECT_DOUBLE_EQ(p.violation_b_against_a, 1.0);
      EXPECT_EQ(p.rows_a, 0u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DataDiffTest, ReportRendersKeySections) {
  DataFrame a = Hierarchical(60, 15);
  DataFrame b = Hierarchical(60, 16);
  auto diff = DiffDatasets(a, b);
  ASSERT_TRUE(diff.ok());
  std::string report = diff->ToString();
  EXPECT_NE(report.find("violation(B | profile of A)"), std::string::npos);
  EXPECT_NE(report.find("attribute responsibility"), std::string::npos);
}

TEST(DataDiffTest, SchemaMismatchIsError) {
  DataFrame a = Hierarchical(40, 17);
  DataFrame b;
  ASSERT_TRUE(b.AddNumericColumn("x", {1.0}).ok());
  EXPECT_FALSE(DiffDatasets(a, b).ok());
  EXPECT_FALSE(DiffDatasets(a, DataFrame()).ok());
}

// ----------------------------- repair ----------------------------------

// y = 2x + 1 with small noise, plus an independent attribute z.
DataFrame LinearTrend(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n), y(n), z(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-5.0, 5.0);
    y[i] = 2.0 * x[i] + 1.0 + rng.Gaussian(0.0, 0.05);
    z[i] = rng.Gaussian(10.0, 2.0);
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  CCS_CHECK(df.AddNumericColumn("z", std::move(z)).ok());
  return df;
}

TEST(RepairTest, ImputesFromLinearRelationship) {
  auto repairer = ConstraintRepairer::FromTrainingData(LinearTrend(500, 18));
  ASSERT_TRUE(repairer.ok());
  // x = 2, y missing -> expect ~5 (= 2*2 + 1).
  Vector tuple{2.0, 0.0, 10.0};
  auto imputed = repairer->ImputeValue(tuple, 1);
  ASSERT_TRUE(imputed.ok());
  EXPECT_NEAR(*imputed, 5.0, 0.3);
  // y = 7, x missing -> expect ~3.
  Vector tuple2{0.0, 7.0, 10.0};
  EXPECT_NEAR(repairer->ImputeValue(tuple2, 0).value(), 3.0, 0.3);
}

TEST(RepairTest, ImputedRowConforms) {
  auto repairer = ConstraintRepairer::FromTrainingData(LinearTrend(500, 19));
  ASSERT_TRUE(repairer.ok());
  Vector broken{2.0, -100.0, 10.0};
  auto repaired = repairer->ImputeRow(broken, 1);
  ASSERT_TRUE(repaired.ok());
  EXPECT_GT(repairer->constraint().ViolationAligned(broken), 0.5);
  EXPECT_LT(repairer->constraint().ViolationAligned(*repaired), 0.05);
}

TEST(RepairTest, UnconstrainedAttributeFallsBackToMean) {
  auto repairer = ConstraintRepairer::FromTrainingData(LinearTrend(500, 20));
  ASSERT_TRUE(repairer.ok());
  // z participates only in its own (wide) constraint; the imputation is
  // pulled toward its mean (~10).
  Vector tuple{1.0, 3.0, 0.0};
  EXPECT_NEAR(repairer->ImputeValue(tuple, 2).value(), 10.0, 1.0);
}

TEST(RepairTest, DetectErrorsFindsAndFixesCorruptedCells) {
  DataFrame clean = LinearTrend(500, 21);
  auto repairer = ConstraintRepairer::FromTrainingData(clean);
  ASSERT_TRUE(repairer.ok());

  // Corrupt y in rows 3 and 7 of a serving sample.
  DataFrame serving = LinearTrend(20, 22);
  std::vector<double> y =
      serving.ColumnByName("y").value()->numeric_data();
  double x3 = serving.NumericValue(3, "x").value();
  double x7 = serving.NumericValue(7, "x").value();
  y[3] += 50.0;
  y[7] -= 80.0;
  DataFrame corrupted = serving.DropColumns({"y"}).value();
  ASSERT_TRUE(corrupted.AddNumericColumn("y", std::move(y)).ok());

  auto errors = repairer->DetectErrors(corrupted, 0.1);
  ASSERT_TRUE(errors.ok());
  ASSERT_EQ(errors->size(), 2u);
  for (const auto& e : *errors) {
    EXPECT_TRUE(e.row == 3 || e.row == 7);
    EXPECT_EQ(e.attribute, "y");
    EXPECT_LT(e.repaired_violation, 0.05);
    double expected = 2.0 * (e.row == 3 ? x3 : x7) + 1.0;
    EXPECT_NEAR(e.suggested, expected, 0.5);
  }
}

TEST(RepairTest, CleanDataYieldsNoErrors) {
  DataFrame clean = LinearTrend(300, 23);
  auto repairer = ConstraintRepairer::FromTrainingData(clean);
  ASSERT_TRUE(repairer.ok());
  auto errors = repairer->DetectErrors(LinearTrend(100, 24), 0.1);
  ASSERT_TRUE(errors.ok());
  EXPECT_TRUE(errors->empty());
}

TEST(RepairTest, InputValidation) {
  auto repairer = ConstraintRepairer::FromTrainingData(LinearTrend(100, 25));
  ASSERT_TRUE(repairer.ok());
  EXPECT_FALSE(repairer->ImputeValue(Vector{1.0}, 0).ok());
  EXPECT_FALSE(repairer->ImputeValue(Vector{1.0, 2.0, 3.0}, 9).ok());
  EXPECT_FALSE(
      repairer->DetectErrors(LinearTrend(10, 26), -0.5).ok());
  EXPECT_FALSE(
      repairer->DetectErrors(LinearTrend(10, 26), std::nan("")).ok());
}

}  // namespace
}  // namespace ccs::core
