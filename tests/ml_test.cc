// Tests for ml/: scaler, regressors, metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "ml/linear_regression.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/scaler.h"

namespace ccs::ml {
namespace {

using linalg::Matrix;
using linalg::Vector;

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// --------------------------- scaler ----------------------------------

TEST(ScalerTest, TransformsToZeroMeanUnitVariance) {
  Matrix data{{1.0, 100.0}, {2.0, 200.0}, {3.0, 300.0}};
  auto scaler = StandardScaler::Fit(data);
  ASSERT_TRUE(scaler.ok());
  auto scaled = scaler->Transform(data);
  ASSERT_TRUE(scaled.ok());
  for (size_t j = 0; j < 2; ++j) {
    Vector col = scaled->Col(j);
    EXPECT_NEAR(col.Mean(), 0.0, 1e-12);
    EXPECT_NEAR(col.StdDev(), 1.0, 1e-12);
  }
}

TEST(ScalerTest, ConstantColumnMapsToZero) {
  Matrix data{{5.0}, {5.0}, {5.0}};
  auto scaler = StandardScaler::Fit(data);
  ASSERT_TRUE(scaler.ok());
  auto scaled = scaler->Transform(data);
  ASSERT_TRUE(scaled.ok());
  EXPECT_DOUBLE_EQ((*scaled)(0, 0), 0.0);
}

TEST(ScalerTest, RowTransformMatchesMatrixTransform) {
  // Both overloads share one per-element helper: every row transforms
  // to exactly the bits of that row of the transformed matrix.
  Matrix data{{1.0, 4.0}, {3.0, 8.0}, {0.1, -2.7}};
  auto scaler = StandardScaler::Fit(data);
  ASSERT_TRUE(scaler.ok());
  auto m = scaler->Transform(data);
  ASSERT_TRUE(m.ok());
  for (size_t i = 0; i < data.rows(); ++i) {
    auto r = scaler->Transform(data.Row(i));
    ASSERT_TRUE(r.ok());
    for (size_t j = 0; j < data.cols(); ++j) {
      EXPECT_TRUE(BitsEqual((*m)(i, j), (*r)[j])) << i << "," << j;
    }
  }
}

TEST(ScalerTest, Errors) {
  EXPECT_FALSE(StandardScaler::Fit(Matrix()).ok());
  Matrix data{{1.0, 2.0}};
  auto scaler = StandardScaler::Fit(data);
  ASSERT_TRUE(scaler.ok());
  EXPECT_FALSE(scaler->Transform(Matrix(1, 3)).ok());
}

// --------------------------- linear regression -----------------------

TEST(LinearRegressionTest, RecoversExactLinearFunction) {
  // y = 2x1 - 3x2 + 5.
  Rng rng(3);
  Matrix x(50, 2);
  Vector y(50);
  for (size_t i = 0; i < 50; ++i) {
    x.At(i, 0) = rng.Uniform(-5.0, 5.0);
    x.At(i, 1) = rng.Uniform(-5.0, 5.0);
    y[i] = 2.0 * x.At(i, 0) - 3.0 * x.At(i, 1) + 5.0;
  }
  auto model = LinearRegression::Fit(x, y);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->weights()[0], 2.0, 1e-8);
  EXPECT_NEAR(model->weights()[1], -3.0, 1e-8);
  EXPECT_NEAR(model->intercept(), 5.0, 1e-8);
}

TEST(LinearRegressionTest, NoInterceptOption) {
  Matrix x{{1.0}, {2.0}, {3.0}};
  Vector y{2.0, 4.0, 6.0};
  LinearRegressionOptions options;
  options.fit_intercept = false;
  auto model = LinearRegression::Fit(x, y, options);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->weights()[0], 2.0, 1e-10);
  EXPECT_DOUBLE_EQ(model->intercept(), 0.0);
}

TEST(LinearRegressionTest, NoisyFitIsUnbiased) {
  Rng rng(5);
  Matrix x(2000, 1);
  Vector y(2000);
  for (size_t i = 0; i < 2000; ++i) {
    x.At(i, 0) = rng.Uniform(0.0, 10.0);
    y[i] = 1.5 * x.At(i, 0) + rng.Gaussian(0.0, 1.0);
  }
  auto model = LinearRegression::Fit(x, y);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->weights()[0], 1.5, 0.05);
}

TEST(LinearRegressionTest, CollinearFeaturesStillFit) {
  // x2 = 2 * x1 exactly: the plain normal equations are singular; the
  // fitter must fall back to a ridge and still predict well.
  Rng rng(7);
  Matrix x(100, 2);
  Vector y(100);
  for (size_t i = 0; i < 100; ++i) {
    double v = rng.Uniform(-3.0, 3.0);
    x.At(i, 0) = v;
    x.At(i, 1) = 2.0 * v;
    y[i] = 4.0 * v;
  }
  auto model = LinearRegression::Fit(x, y);
  ASSERT_TRUE(model.ok());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(model->Predict(x.Row(i)), y[i], 1e-3);
  }
}

TEST(LinearRegressionTest, RidgeShrinksWeights) {
  Rng rng(9);
  Matrix x(50, 1);
  Vector y(50);
  for (size_t i = 0; i < 50; ++i) {
    x.At(i, 0) = rng.Uniform(-1.0, 1.0);
    y[i] = 3.0 * x.At(i, 0);
  }
  LinearRegressionOptions ridge;
  ridge.l2_penalty = 100.0;
  auto plain = LinearRegression::Fit(x, y);
  auto shrunk = LinearRegression::Fit(x, y, ridge);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(shrunk.ok());
  EXPECT_LT(std::abs(shrunk->weights()[0]), std::abs(plain->weights()[0]));
}

TEST(LinearRegressionTest, PredictAllMatchesPredict) {
  Matrix x{{1.0}, {2.0}};
  Vector y{3.0, 5.0};
  auto model = LinearRegression::Fit(x, y);
  ASSERT_TRUE(model.ok());
  Vector all = model->PredictAll(x);
  EXPECT_DOUBLE_EQ(all[0], model->Predict(x.Row(0)));
  EXPECT_DOUBLE_EQ(all[1], model->Predict(x.Row(1)));
}

TEST(LinearRegressionTest, BadShapesAreErrors) {
  EXPECT_FALSE(LinearRegression::Fit(Matrix(), Vector()).ok());
  EXPECT_FALSE(LinearRegression::Fit(Matrix(2, 1), Vector(3)).ok());
}

// --------------------------- logistic regression ---------------------

TEST(LogisticRegressionTest, SeparatesTwoGaussians) {
  Rng rng(11);
  Matrix x(200, 2);
  std::vector<std::string> labels(200);
  for (size_t i = 0; i < 200; ++i) {
    bool pos = i % 2 == 0;
    x.At(i, 0) = rng.Gaussian(pos ? 2.0 : -2.0, 0.5);
    x.At(i, 1) = rng.Gaussian(pos ? -1.0 : 1.0, 0.5);
    labels[i] = pos ? "pos" : "neg";
  }
  auto model = LogisticRegression::Fit(x, labels);
  ASSERT_TRUE(model.ok());
  auto predictions = model->PredictAll(x);
  ASSERT_TRUE(predictions.ok());
  double acc = Accuracy(labels, *predictions).value();
  EXPECT_GT(acc, 0.97);
}

TEST(LogisticRegressionTest, MulticlassSeparation) {
  Rng rng(13);
  Matrix x(300, 2);
  std::vector<std::string> labels(300);
  const double centers[3][2] = {{0.0, 4.0}, {4.0, -4.0}, {-4.0, -4.0}};
  for (size_t i = 0; i < 300; ++i) {
    size_t c = i % 3;
    x.At(i, 0) = rng.Gaussian(centers[c][0], 0.6);
    x.At(i, 1) = rng.Gaussian(centers[c][1], 0.6);
    labels[i] = "class" + std::to_string(c);
  }
  auto model = LogisticRegression::Fit(x, labels);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->classes().size(), 3u);
  auto predictions = model->PredictAll(x);
  ASSERT_TRUE(predictions.ok());
  EXPECT_GT(Accuracy(labels, *predictions).value(), 0.95);
}

TEST(LogisticRegressionTest, ProbabilitiesSumToOne) {
  Rng rng(17);
  Matrix x(60, 2);
  std::vector<std::string> labels(60);
  for (size_t i = 0; i < 60; ++i) {
    x.At(i, 0) = rng.Gaussian(i % 2 ? 1.0 : -1.0, 1.0);
    x.At(i, 1) = rng.Gaussian();
    labels[i] = i % 2 ? "a" : "b";
  }
  auto model = LogisticRegression::Fit(x, labels);
  ASSERT_TRUE(model.ok());
  auto p = model->PredictProba(x.Row(0));
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p->Sum(), 1.0, 1e-9);
  for (size_t k = 0; k < p->size(); ++k) EXPECT_GE((*p)[k], 0.0);
}

TEST(LogisticRegressionTest, SingleClassIsError) {
  Matrix x(3, 1, 1.0);
  std::vector<std::string> labels = {"same", "same", "same"};
  EXPECT_FALSE(LogisticRegression::Fit(x, labels).ok());
}

TEST(LogisticRegressionTest, ShapeMismatchIsError) {
  EXPECT_FALSE(
      LogisticRegression::Fit(Matrix(2, 1), {"a", "b", "c"}).ok());
}

// --------------------------- metrics ---------------------------------

TEST(MetricsTest, MaeAndRmseKnownValues) {
  Vector truth{1.0, 2.0, 3.0};
  Vector pred{2.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(MeanAbsoluteError(truth, pred).value(), 1.0);
  EXPECT_DOUBLE_EQ(RootMeanSquaredError(truth, pred).value(),
                   std::sqrt(5.0 / 3.0));
}

TEST(MetricsTest, PerfectPredictionScoresZeroError) {
  Vector v{1.0, -2.0, 3.5};
  EXPECT_DOUBLE_EQ(MeanAbsoluteError(v, v).value(), 0.0);
  EXPECT_DOUBLE_EQ(RootMeanSquaredError(v, v).value(), 0.0);
}

TEST(MetricsTest, Accuracy) {
  std::vector<std::string> truth = {"a", "b", "a", "c"};
  std::vector<std::string> pred = {"a", "b", "c", "c"};
  EXPECT_DOUBLE_EQ(Accuracy(truth, pred).value(), 0.75);
}

TEST(MetricsTest, AbsoluteErrorsPerTuple) {
  auto errors = AbsoluteErrors(Vector{1.0, 5.0}, Vector{3.0, 4.0});
  ASSERT_TRUE(errors.ok());
  EXPECT_DOUBLE_EQ((*errors)[0], 2.0);
  EXPECT_DOUBLE_EQ((*errors)[1], 1.0);
}

TEST(MetricsTest, Errors) {
  EXPECT_FALSE(MeanAbsoluteError(Vector{1.0}, Vector{1.0, 2.0}).ok());
  EXPECT_FALSE(Accuracy({}, {}).ok());
}

}  // namespace
}  // namespace ccs::ml
