// Tests for stats/: histograms, divergences, correlation.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "stats/correlation.h"
#include "stats/divergence.h"
#include "stats/histogram.h"

namespace ccs::stats {
namespace {

using linalg::Vector;

// --------------------------- histogram -------------------------------

TEST(HistogramTest, BinAssignment) {
  auto h = Histogram::Create(0.0, 10.0, 5);
  ASSERT_TRUE(h.ok());
  h->Add(1.0);   // Bin 0.
  h->Add(9.9);   // Bin 4.
  h->Add(5.0);   // Bin 2.
  EXPECT_EQ(h->bin_count(0), 1);
  EXPECT_EQ(h->bin_count(2), 1);
  EXPECT_EQ(h->bin_count(4), 1);
  EXPECT_EQ(h->total_count(), 3);
}

TEST(HistogramTest, OutOfRangeClampsToEdgeBins) {
  auto h = Histogram::Create(0.0, 1.0, 4);
  ASSERT_TRUE(h.ok());
  h->Add(-100.0);
  h->Add(100.0);
  EXPECT_EQ(h->bin_count(0), 1);
  EXPECT_EQ(h->bin_count(3), 1);
}

TEST(HistogramTest, DensitySumsToOne) {
  auto h = Histogram::Create(1.0, 5.0, 4);
  ASSERT_TRUE(h.ok());
  h->AddAll(Vector{1.0, 2.0, 3.0, 4.0, 5.0});
  double total = 0.0;
  for (double d : h->Density()) total += d;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(HistogramTest, SmoothedDensityIsStrictlyPositive) {
  auto h = Histogram::Create(0.0, 1.0, 10);
  ASSERT_TRUE(h.ok());
  h->Add(0.5);
  for (double d : h->Density(0.1)) EXPECT_GT(d, 0.0);
}

TEST(HistogramTest, Errors) {
  EXPECT_FALSE(Histogram::Create(0.0, 1.0, 0).ok());
  EXPECT_FALSE(Histogram::Create(2.0, 1.0, 4).ok());
}

// --------------------------- divergence ------------------------------

TEST(DivergenceTest, IdenticalDensitiesScoreZero) {
  std::vector<double> p = {0.25, 0.25, 0.5};
  EXPECT_NEAR(KlDivergence(p, p).value(), 0.0, 1e-12);
  EXPECT_NEAR(MaxKlDivergence(p, p).value(), 0.0, 1e-12);
  EXPECT_NEAR(IntersectionArea(p, p).value(), 1.0, 1e-12);
}

TEST(DivergenceTest, DisjointDensities) {
  std::vector<double> p = {1.0, 0.0};
  std::vector<double> q = {0.0, 1.0};
  EXPECT_NEAR(IntersectionArea(p, q).value(), 0.0, 1e-12);
}

TEST(DivergenceTest, KlKnownValue) {
  std::vector<double> p = {0.5, 0.5};
  std::vector<double> q = {0.25, 0.75};
  double expected = 0.5 * std::log(2.0) + 0.5 * std::log(0.5 / 0.75);
  EXPECT_NEAR(KlDivergence(p, q).value(), expected, 1e-12);
}

TEST(DivergenceTest, KlRequiresAbsoluteContinuity) {
  std::vector<double> p = {0.5, 0.5};
  std::vector<double> q = {1.0, 0.0};
  EXPECT_FALSE(KlDivergence(p, q).ok());
  // But zero mass in p where q has mass is fine.
  EXPECT_TRUE(KlDivergence(q, p).ok());
}

TEST(DivergenceTest, MaxKlIsSymmetric) {
  std::vector<double> p = {0.7, 0.2, 0.1};
  std::vector<double> q = {0.2, 0.5, 0.3};
  EXPECT_DOUBLE_EQ(MaxKlDivergence(p, q).value(),
                   MaxKlDivergence(q, p).value());
}

TEST(DivergenceTest, SizeMismatchAndEmptyAreErrors) {
  std::vector<double> p = {1.0};
  std::vector<double> q = {0.5, 0.5};
  EXPECT_FALSE(KlDivergence(p, q).ok());
  EXPECT_FALSE(IntersectionArea({}, {}).ok());
}

// --------------------------- correlation -----------------------------

TEST(CorrelationTest, PerfectPositiveAndNegative) {
  Vector x{1.0, 2.0, 3.0};
  Vector y{2.0, 4.0, 6.0};
  Vector z{3.0, 2.0, 1.0};
  EXPECT_NEAR(PearsonCorrelation(x, y).value(), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, z).value(), -1.0, 1e-12);
}

TEST(CorrelationTest, IndependentSamplesNearZero) {
  Rng rng(7);
  Vector x(5000), y(5000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Gaussian();
    y[i] = rng.Gaussian();
  }
  EXPECT_NEAR(PearsonCorrelation(x, y).value(), 0.0, 0.05);
}

TEST(CorrelationTest, ConstantSeriesYieldsZero) {
  Vector x{1.0, 1.0, 1.0};
  Vector y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y).value(), 0.0);
}

TEST(CorrelationTest, Errors) {
  EXPECT_FALSE(PearsonCorrelation(Vector{1.0}, Vector{1.0, 2.0}).ok());
  EXPECT_FALSE(PearsonCorrelation(Vector(), Vector()).ok());
}

TEST(CorrelationTest, PearsonTestStrongCorrelationSmallP) {
  Rng rng(11);
  Vector x(200), y(200);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Gaussian();
    y[i] = 2.0 * x[i] + rng.Gaussian(0.0, 0.1);
  }
  auto test = PearsonTest(x, y);
  ASSERT_TRUE(test.ok());
  EXPECT_GT(test->pcc, 0.95);
  EXPECT_LT(test->p_value, 1e-6);
}

TEST(CorrelationTest, PearsonTestNoCorrelationLargeP) {
  Rng rng(13);
  Vector x(100), y(100);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Gaussian();
    y[i] = rng.Gaussian();
  }
  auto test = PearsonTest(x, y);
  ASSERT_TRUE(test.ok());
  EXPECT_GT(test->p_value, 0.01);
}

}  // namespace
}  // namespace ccs::stats
