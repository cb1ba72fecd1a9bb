// Tests for the Jacobi eigensolver, Cholesky routines, and the Gram
// accumulator — including randomized property sweeps (TEST_P).

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "linalg/cholesky.h"
#include "linalg/gram.h"
#include "linalg/matrix.h"
#include "linalg/symmetric_eigen.h"

namespace ccs::linalg {
namespace {

// Random symmetric matrix with controlled spectrum spread.
Matrix RandomSymmetric(size_t n, Rng* rng) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      double v = rng->Uniform(-2.0, 2.0);
      m.At(i, j) = v;
      m.At(j, i) = v;
    }
  }
  return m;
}

// Random SPD matrix: A = B^T B + eps I.
Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix b(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) b.At(i, j) = rng->Uniform(-1.0, 1.0);
  }
  Matrix a = b.Transposed().Multiply(b);
  for (size_t i = 0; i < n; ++i) a.At(i, i) += 0.1;
  return a;
}

// ------------------------- SymmetricEigen -----------------------------

TEST(EigenTest, DiagonalMatrixEigenvaluesAreDiagonal) {
  Matrix d{{3.0, 0.0}, {0.0, 1.0}};
  auto eig = SymmetricEigen(d);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->pairs[0].eigenvalue, 1.0, 1e-10);
  EXPECT_NEAR(eig->pairs[1].eigenvalue, 3.0, 1e-10);
}

TEST(EigenTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  Matrix m{{2.0, 1.0}, {1.0, 2.0}};
  auto eig = SymmetricEigen(m);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->pairs[0].eigenvalue, 1.0, 1e-10);
  EXPECT_NEAR(eig->pairs[1].eigenvalue, 3.0, 1e-10);
}

TEST(EigenTest, RejectsNonSquare) {
  EXPECT_FALSE(SymmetricEigen(Matrix(2, 3)).ok());
}

TEST(EigenTest, RejectsAsymmetric) {
  Matrix m{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_FALSE(SymmetricEigen(m).ok());
}

TEST(EigenTest, EmptyMatrixYieldsEmptyDecomposition) {
  auto eig = SymmetricEigen(Matrix());
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->pairs.empty());
}

TEST(EigenTest, IdentityHasAllOnesSpectrum) {
  auto eig = SymmetricEigen(Matrix::Identity(5));
  ASSERT_TRUE(eig.ok());
  for (const auto& p : eig->pairs) {
    EXPECT_NEAR(p.eigenvalue, 1.0, 1e-10);
  }
}

TEST(EigenTest, EigenvalueVectorAndMatrixAccessors) {
  Matrix m{{2.0, 1.0}, {1.0, 2.0}};
  auto eig = SymmetricEigen(m);
  ASSERT_TRUE(eig.ok());
  Vector values = eig->Eigenvalues();
  EXPECT_EQ(values.size(), 2u);
  Matrix v = eig->EigenvectorMatrix();
  EXPECT_EQ(v.rows(), 2u);
  EXPECT_EQ(v.cols(), 2u);
  // V^T M V should be diag(eigenvalues).
  Matrix diag = v.Transposed().Multiply(m).Multiply(v);
  EXPECT_NEAR(diag(0, 0), values[0], 1e-9);
  EXPECT_NEAR(diag(1, 1), values[1], 1e-9);
  EXPECT_NEAR(diag(0, 1), 0.0, 1e-9);
}

// Property sweep over sizes: A v = lambda v, orthonormality, trace.
class EigenPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EigenPropertyTest, EigenpairsSatisfyDefinition) {
  Rng rng(GetParam() * 7919 + 1);
  Matrix a = RandomSymmetric(GetParam(), &rng);
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  for (const auto& p : eig->pairs) {
    Vector av = a.Multiply(p.eigenvector);
    Vector lv = p.eigenvector * p.eigenvalue;
    EXPECT_LT(Vector::MaxAbsDiff(av, lv), 1e-8)
        << "size=" << GetParam() << " lambda=" << p.eigenvalue;
  }
}

TEST_P(EigenPropertyTest, EigenvectorsAreOrthonormal) {
  Rng rng(GetParam() * 104729 + 1);
  Matrix a = RandomSymmetric(GetParam(), &rng);
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  for (size_t i = 0; i < eig->pairs.size(); ++i) {
    for (size_t j = i; j < eig->pairs.size(); ++j) {
      double dot = eig->pairs[i].eigenvector.Dot(eig->pairs[j].eigenvector);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST_P(EigenPropertyTest, TraceEqualsEigenvalueSum) {
  Rng rng(GetParam() * 1299709 + 1);
  Matrix a = RandomSymmetric(GetParam(), &rng);
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  double trace = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) trace += a.At(i, i);
  double sum = eig->Eigenvalues().Sum();
  EXPECT_NEAR(trace, sum, 1e-8 * std::max(1.0, std::abs(trace)));
}

TEST_P(EigenPropertyTest, EigenvaluesSortedAscending) {
  Rng rng(GetParam() * 15485863 + 1);
  Matrix a = RandomSymmetric(GetParam(), &rng);
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  for (size_t i = 1; i < eig->pairs.size(); ++i) {
    EXPECT_LE(eig->pairs[i - 1].eigenvalue, eig->pairs[i].eigenvalue);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40));

// ------------------------- Cholesky -----------------------------------

TEST(CholeskyTest, FactorReconstructs) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  Matrix reconstructed = l->Multiply(l->Transposed());
  EXPECT_TRUE(Matrix::AlmostEqual(reconstructed, a, 1e-10));
}

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_FALSE(CholeskyFactor(Matrix(2, 3)).ok());
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix m{{1.0, 2.0}, {2.0, 1.0}};  // Eigenvalues 3 and -1.
  EXPECT_EQ(CholeskyFactor(m).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CholeskyTest, SolveSpdRecoversKnownSolution) {
  Matrix a{{4.0, 1.0}, {1.0, 3.0}};
  Vector x_true{1.0, -2.0};
  Vector b = a.Multiply(x_true);
  auto x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(Vector::MaxAbsDiff(*x, x_true), 1e-10);
}

TEST(CholeskyTest, InverseTimesOriginalIsIdentity) {
  Rng rng(31);
  Matrix a = RandomSpd(6, &rng);
  auto inv = InverseSpd(a);
  ASSERT_TRUE(inv.ok());
  EXPECT_TRUE(
      Matrix::AlmostEqual(a.Multiply(*inv), Matrix::Identity(6), 1e-8));
}

TEST(CholeskyTest, LogDetMatchesEigenvalueSumOfLogs) {
  Rng rng(37);
  Matrix a = RandomSpd(5, &rng);
  auto logdet = LogDetSpd(a);
  ASSERT_TRUE(logdet.ok());
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  double expected = 0.0;
  for (const auto& p : eig->pairs) expected += std::log(p.eigenvalue);
  EXPECT_NEAR(*logdet, expected, 1e-8);
}

class CholeskyPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CholeskyPropertyTest, SolveResidualIsSmall) {
  Rng rng(GetParam() * 17 + 3);
  Matrix a = RandomSpd(GetParam(), &rng);
  Vector b(GetParam());
  for (size_t i = 0; i < b.size(); ++i) b[i] = rng.Uniform(-5.0, 5.0);
  auto x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  Vector residual = a.Multiply(*x) - b;
  EXPECT_LT(residual.Norm(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyPropertyTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

// ------------------------- GramAccumulator ----------------------------

TEST(GramTest, CountsAndMeans) {
  GramAccumulator gram(2);
  gram.Add(Vector{1.0, 10.0});
  gram.Add(Vector{3.0, 30.0});
  EXPECT_EQ(gram.count(), 2);
  Vector means = gram.Means();
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 20.0);
}

TEST(GramTest, GramMatchesExplicitXtX) {
  Rng rng(41);
  Matrix x(20, 3);
  for (size_t i = 0; i < 20; ++i) {
    for (size_t j = 0; j < 3; ++j) x.At(i, j) = rng.Uniform(-3.0, 3.0);
  }
  GramAccumulator gram(3);
  for (size_t i = 0; i < 20; ++i) gram.Add(x.Row(i));
  Matrix expected = x.Transposed().Multiply(x);
  EXPECT_TRUE(Matrix::AlmostEqual(gram.Gram(), expected, 1e-9));
}

TEST(GramTest, AugmentedGramFirstEntryIsCount) {
  GramAccumulator gram(2);
  gram.Add(Vector{5.0, 6.0});
  gram.Add(Vector{7.0, 8.0});
  gram.Add(Vector{9.0, 1.0});
  Matrix aug = gram.AugmentedGram();
  EXPECT_DOUBLE_EQ(aug(0, 0), 3.0);       // Count.
  EXPECT_DOUBLE_EQ(aug(0, 1), 21.0);      // Sum of attribute 0.
  EXPECT_DOUBLE_EQ(aug(1, 0), 21.0);      // Symmetric.
}

TEST(GramTest, CovarianceMatchesDirectComputation) {
  GramAccumulator gram(2);
  // Perfectly correlated columns: y = 2x.
  for (double v : {1.0, 2.0, 3.0, 4.0}) gram.Add(Vector{v, 2.0 * v});
  Matrix cov = gram.Covariance();
  EXPECT_NEAR(cov(0, 0), 1.25, 1e-12);
  EXPECT_NEAR(cov(1, 1), 5.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), 2.5, 1e-12);
}

TEST(GramTest, MergeEqualsSinglePassOverUnion) {
  Rng rng(43);
  GramAccumulator whole(3), part1(3), part2(3);
  for (int i = 0; i < 50; ++i) {
    Vector t{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    whole.Add(t);
    if (i % 2 == 0) {
      part1.Add(t);
    } else {
      part2.Add(t);
    }
  }
  ASSERT_TRUE(part1.Merge(part2).ok());
  EXPECT_EQ(part1.count(), whole.count());
  EXPECT_TRUE(
      Matrix::AlmostEqual(part1.AugmentedGram(), whole.AugmentedGram(), 1e-9));
}

TEST(GramTest, MergeRejectsSchemaMismatch) {
  GramAccumulator a(2), b(3);
  EXPECT_FALSE(a.Merge(b).ok());
}

}  // namespace
}  // namespace ccs::linalg
