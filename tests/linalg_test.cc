// Tests for linalg/: Vector, Matrix, and the GramAccumulator and scoring
// block kernels (differentially, against the row-at-a-time loops they
// replaced, under each compiled kernel instance the host can run).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "dataframe/dataframe.h"
#include "kernel_isa_fixture.h"
#include "linalg/gram.h"
#include "linalg/matrix.h"
#include "linalg/matrix_view.h"
#include "linalg/vector.h"

namespace ccs::linalg {
namespace {

// --------------------------- Vector ----------------------------------

TEST(VectorTest, ConstructionAndAccess) {
  Vector v(3, 1.5);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.5);
  v[1] = 2.0;
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(VectorTest, InitializerList) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(VectorTest, DotProduct) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(a.Dot(b), 4.0 - 10.0 + 18.0);
}

TEST(VectorTest, DotWithSelfIsNormSquared) {
  Vector v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.Dot(v), 25.0);
}

TEST(VectorTest, SumMeanVariance) {
  Vector v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(v.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(v.Variance(), 1.25);  // Population variance.
  EXPECT_DOUBLE_EQ(v.StdDev(), std::sqrt(1.25));
}

TEST(VectorTest, ConstantVectorHasZeroVariance) {
  Vector v(10, 7.0);
  EXPECT_DOUBLE_EQ(v.Variance(), 0.0);
}

TEST(VectorTest, MinMax) {
  Vector v{3.0, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(v.Min(), -1.0);
  EXPECT_DOUBLE_EQ(v.Max(), 3.0);
}

TEST(VectorTest, AxpyAndScale) {
  Vector a{1.0, 2.0};
  Vector b{10.0, 20.0};
  a.Axpy(0.5, b);
  EXPECT_DOUBLE_EQ(a[0], 6.0);
  EXPECT_DOUBLE_EQ(a[1], 12.0);
  a.Scale(2.0);
  EXPECT_DOUBLE_EQ(a[0], 12.0);
}

TEST(VectorTest, NormalizedHasUnitNorm) {
  Vector v{3.0, 4.0};
  Vector n = v.Normalized();
  EXPECT_NEAR(n.Norm(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(n[0], 0.6);
}

TEST(VectorTest, ArithmeticOperators) {
  Vector a{1.0, 2.0};
  Vector b{3.0, 5.0};
  Vector sum = a + b;
  Vector diff = b - a;
  Vector scaled = a * 3.0;
  EXPECT_DOUBLE_EQ(sum[1], 7.0);
  EXPECT_DOUBLE_EQ(diff[0], 2.0);
  EXPECT_DOUBLE_EQ(scaled[1], 6.0);
}

TEST(VectorTest, MaxAbsDiff) {
  Vector a{1.0, 2.0};
  Vector b{1.5, 1.0};
  EXPECT_DOUBLE_EQ(Vector::MaxAbsDiff(a, b), 1.0);
  EXPECT_TRUE(std::isinf(Vector::MaxAbsDiff(a, Vector{1.0})));
}

// --------------------------- Matrix ----------------------------------

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.At(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RowAndColExtraction) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Vector row = m.Row(1);
  Vector col = m.Col(2);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[2], 6.0);
  EXPECT_DOUBLE_EQ(col[0], 3.0);
  EXPECT_DOUBLE_EQ(col[1], 6.0);
}

TEST(MatrixTest, SetRow) {
  Matrix m(2, 2);
  m.SetRow(0, Vector{9.0, 8.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
}

TEST(MatrixTest, IdentityMultiplicationIsNoop) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  Matrix i = Matrix::Identity(2);
  EXPECT_TRUE(Matrix::AlmostEqual(m.Multiply(i), m, 1e-12));
  EXPECT_TRUE(Matrix::AlmostEqual(i.Multiply(m), m, 1e-12));
}

TEST(MatrixTest, MatrixMultiply) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, RectangularMultiplyShapes) {
  Matrix a(2, 3, 1.0);
  Matrix b(3, 4, 2.0);
  Matrix c = a.Multiply(b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 4u);
  EXPECT_DOUBLE_EQ(c(0, 0), 6.0);
}

TEST(MatrixTest, MatrixVectorMultiply) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  Vector v{1.0, 1.0};
  Vector out = m.Multiply(v);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(MatrixTest, TransposedTwiceIsIdentityOp) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_TRUE(Matrix::AlmostEqual(t.Transposed(), m, 0.0));
}

TEST(MatrixTest, AddAndScale) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{3.0, 4.0}};
  Matrix c = a.Add(b);
  EXPECT_DOUBLE_EQ(c(0, 1), 6.0);
  c.Scale(0.5);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
}

TEST(MatrixTest, AlmostEqualRespectsTolerance) {
  Matrix a{{1.0}};
  Matrix b{{1.0 + 1e-6}};
  EXPECT_TRUE(Matrix::AlmostEqual(a, b, 1e-5));
  EXPECT_FALSE(Matrix::AlmostEqual(a, b, 1e-7));
  EXPECT_FALSE(Matrix::AlmostEqual(a, Matrix(1, 2), 1.0));
}

TEST(MatrixTest, MaxAbs) {
  Matrix m{{1.0, -7.0}, {3.0, 2.0}};
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 7.0);
  EXPECT_DOUBLE_EQ(Matrix().MaxAbs(), 0.0);
}

TEST(MatrixTest, IsSymmetric) {
  Matrix sym{{2.0, 1.0}, {1.0, 3.0}};
  Matrix asym{{2.0, 1.0}, {0.0, 3.0}};
  EXPECT_TRUE(sym.IsSymmetric());
  EXPECT_FALSE(asym.IsSymmetric());
  EXPECT_FALSE(Matrix(2, 3).IsSymmetric());
}

TEST(MatrixTest, MultiplyAssociatesWithTranspose) {
  // (A B)^T == B^T A^T.
  Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Matrix b{{7.0, 8.0, 9.0}, {1.0, 2.0, 3.0}};
  Matrix left = a.Multiply(b).Transposed();
  Matrix right = b.Transposed().Multiply(a.Transposed());
  EXPECT_TRUE(Matrix::AlmostEqual(left, right, 1e-12));
}

// ------------------ GramAccumulator vs. row-at-a-time -------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// The oracle: the row-at-a-time kernel the register-blocked
// GramAccumulator kernel replaced. It adds one row's (1,t)(1,t)^T to the
// full matrix, writing each off-diagonal product to both triangles.
void OracleAccumulateRow(const double* row, size_t m, Matrix* sum) {
  sum->At(0, 0) += 1.0;
  for (size_t i = 0; i < m; ++i) {
    double v = row[i];
    sum->At(0, i + 1) += v;
    sum->At(i + 1, 0) += v;
    for (size_t j = i; j < m; ++j) {
      double prod = v * row[j];
      sum->At(i + 1, j + 1) += prod;
      if (j != i) sum->At(j + 1, i + 1) += prod;
    }
  }
}

// `start` plus every row of `data`, summed by the oracle. `sharded`
// reproduces the AddView summation tree: past one
// kGramShardRows shard, each shard is summed from zero and the partials
// are folded into `start` in ascending shard order.
Matrix OracleSum(const Matrix& data, const Matrix& start, bool sharded) {
  const size_t n = data.rows();
  const size_t m = data.cols();
  const double* rows = data.data().data();
  Matrix sum = start;
  if (!sharded || n <= kGramShardRows) {
    for (size_t r = 0; r < n; ++r) OracleAccumulateRow(rows + r * m, m, &sum);
    return sum;
  }
  for (size_t b = 0; b < n; b += kGramShardRows) {
    Matrix partial(m + 1, m + 1);
    for (size_t r = b; r < std::min(n, b + kGramShardRows); ++r) {
      OracleAccumulateRow(rows + r * m, m, &partial);
    }
    sum.AddInPlace(partial);
  }
  return sum;
}

// A finite value of random sign and magnitude in [1e-6, 1e6], so that
// any reassociation of a sum changes its bits.
double MixedMagnitude(Rng& rng) {
  const double magnitude = std::pow(10.0, rng.Uniform(-6.0, 6.0));
  return rng.Bernoulli(0.5) ? magnitude : -magnitude;
}

// n x m data, about 1% non-finite cells overall. They are concentrated in
// every fifth column from the first (5% there), so the entries between
// the other columns stay finite and keep the comparison sharp at large n.
Matrix OracleData(size_t n, size_t m, Rng& rng) {
  Matrix data(n, m);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < m; ++c) {
      double v = MixedMagnitude(rng);
      if (c % 5 == 0 && rng.Bernoulli(0.05)) {
        const double u = rng.Uniform();
        v = u < 0.4 ? kNaN : (u < 0.7 ? kInf : -kInf);
      }
      data.At(r, c) = v;
    }
  }
  return data;
}

// A non-zero, symmetric start state whose (0,0) entry is its count.
Matrix OracleStart(size_t m, int64_t count, Rng& rng) {
  Matrix start(m + 1, m + 1);
  for (size_t i = 0; i <= m; ++i) {
    for (size_t j = i; j <= m; ++j) {
      start.At(i, j) = start.At(j, i) = MixedMagnitude(rng);
    }
  }
  start.At(0, 0) = static_cast<double>(count);
  return start;
}

// Rows of the padded base frame OracleFrames builds: data row r sits at
// base row kOracleSkip + 2r, every other base row is NaN.
constexpr size_t kOracleSkip = 3;

// Three frames whose numeric view over c0..c{m-1} is exactly `data`:
// owned, a view of a view (a slice, then every second row), and the
// padded base the view selects from, whose skipped rows hold NaN so a
// mis-selected row cannot go unnoticed. Each also holds a column "pad",
// so the row count survives m = 0.
std::vector<dataframe::DataFrame> OracleFrames(const Matrix& data) {
  const size_t n = data.rows();
  dataframe::DataFrame owned, base;
  for (size_t c = 0; c <= data.cols(); ++c) {
    std::vector<double> column(n), padded(kOracleSkip + 2 * n, kNaN);
    for (size_t r = 0; c < data.cols() && r < n; ++r) {
      column[r] = padded[kOracleSkip + 2 * r] = data.At(r, c);
    }
    const std::string name =
        c < data.cols() ? "c" + std::to_string(c) : "pad";
    CCS_CHECK(owned.AddNumericColumn(name, std::move(column)).ok());
    CCS_CHECK(base.AddNumericColumn(name, std::move(padded)).ok());
  }
  dataframe::DataFrame view_of_view =
      base.Slice(kOracleSkip, base.num_rows()).Filter([](size_t i) {
        return i % 2 == 0;
      });
  return {owned, view_of_view, base};
}

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Entries of `got` that break the oracle contract: a NaN reference entry
// needs any NaN (payloads are a property of the compiled code), every
// other entry must match bit for bit.
size_t CountMismatches(const Matrix& got, const Matrix& want) {
  CCS_CHECK(got.rows() == want.rows() && got.cols() == want.cols());
  size_t bad = 0;
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      const double w = want.At(i, j);
      const double g = got.At(i, j);
      if (std::isnan(w) ? !std::isnan(g) : !BitsEqual(g, w)) ++bad;
    }
  }
  return bad;
}

class GramOracleTest : public testutil::KernelIsaTest {};
INSTANTIATE_TEST_SUITE_P(Isa, GramOracleTest, testutil::AllKernelIsas(),
                         testutil::KernelIsaTestName);

TEST_P(GramOracleTest, EveryEntryPointMatchesRowAtATimeBitwise) {
  const size_t kAttrs[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 41, 47};
  const size_t kRows[] = {0, 1, 2, 255, 256, 257, 1023, 1024, 1025, 2600};
  constexpr int64_t kStartCount = 7;
  Rng rng(20210620);
  size_t cases = 0;
  for (size_t m : kAttrs) {
    std::vector<std::string> names;
    for (size_t c = 0; c < m; ++c) names.push_back("c" + std::to_string(c));
    for (size_t n : kRows) {
      const Matrix data = OracleData(n, m, rng);
      const Matrix start = OracleStart(m, kStartCount, rng);
      const Matrix want_serial = OracleSum(data, start, /*sharded=*/false);
      const Matrix want_sharded = OracleSum(data, start, /*sharded=*/true);
      const std::vector<dataframe::DataFrame> frames = OracleFrames(data);
      std::vector<MatrixView> views;
      for (size_t f = 0; f < 2; ++f) {
        auto view = frames[f].NumericViewFor(names);
        ASSERT_TRUE(view.ok()) << view.status();
        ASSERT_EQ(view->rows(), n);
        views.push_back(*view);
      }
      auto fresh = [&] {
        GramAccumulator gram(m);
        CCS_CHECK(gram.RestoreState(start, kStartCount).ok());
        return gram;
      };
      auto check = [&](const GramAccumulator& gram, const Matrix& want,
                       const char* path, size_t threads) {
        ++cases;
        EXPECT_EQ(gram.count(), kStartCount + static_cast<int64_t>(n));
        EXPECT_EQ(CountMismatches(gram.AugmentedGram(), want), 0u)
            << path << " m=" << m << " n=" << n << " threads=" << threads;
      };
      for (size_t threads : {1u, 4u}) {
        common::SetDefaultThreadCount(threads);
        GramAccumulator by_row = fresh();
        for (size_t r = 0; r < n; ++r) by_row.Add(data.Row(r));
        check(by_row, want_serial, "Add", threads);
        for (size_t v = 0; v < views.size(); ++v) {
          const char* frame = v == 0 ? "owned" : "view-of-view";
          GramAccumulator by_view = fresh();
          by_view.AddView(views[v]);
          check(by_view, want_sharded,
                (std::string("AddView ") + frame).c_str(), threads);
        }
      }
    }
  }
  common::SetDefaultThreadCount(0);
  EXPECT_EQ(cases, 15u * 10u * 2u * 3u);
}

// ------------- Scoring kernel vs. row-at-a-time i,k,j loop -------------

// The oracle: the row-at-a-time i,k,j loop the register-blocked
// internal::AccumulateRowsTimesMatrix replaced. Every out entry starts
// at +0.0 and takes a_ik * b_kj for k ascending, with no zero-skipping.
Matrix OracleMultiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      const double aik = a.At(i, k);
      for (size_t j = 0; j < b.cols(); ++j) out.At(i, j) += aik * b.At(k, j);
    }
  }
  return out;
}

// Mixed-magnitude cells with about 2% zeros and 1% non-finite ones:
// zeros against the Inf coefficients below make 0 * Inf = NaN terms a
// zero-skipping kernel would drop, and the magnitudes make any k
// reordering change the bits.
Matrix KernelData(size_t n, size_t k, Rng& rng) {
  Matrix data(n, k);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < k; ++c) {
      const double u = rng.Uniform();
      data.At(r, c) = u < 0.02 ? 0.0
                      : u < 0.025 ? kNaN
                      : u < 0.03 ? (rng.Bernoulli(0.5) ? kInf : -kInf)
                                  : MixedMagnitude(rng);
    }
  }
  return data;
}

// k x outs coefficients of mixed magnitude, with one +Inf in the last
// output column (for k > 0), as a scoring coefficient matrix might hold.
Matrix KernelCoefficients(size_t k, size_t outs, Rng& rng) {
  Matrix coef(k, outs);
  for (size_t r = 0; r < k; ++r) {
    for (size_t c = 0; c < outs; ++c) coef.At(r, c) = MixedMagnitude(rng);
  }
  if (k > 0) coef.At(k / 2, outs - 1) = kInf;
  return coef;
}

// Runs a * coef through every entry point of the scoring kernel —
// Matrix::Multiply, and MultiplyRowRange over owned, view-of-view and
// row-subset views, whole and split into row blocks on 1
// and 4 lanes — and expects the oracle's bits everywhere (a NaN oracle
// entry needs any NaN: payloads are a property of the compiled code).
void ExpectKernelMatchesOracle(const Matrix& a, const Matrix& coef) {
  const size_t n = a.rows();
  const size_t k = a.cols();
  const Matrix want = OracleMultiply(a, coef);
  const std::string shape = " n=" + std::to_string(n) +
                            " k=" + std::to_string(k) +
                            " outs=" + std::to_string(coef.cols());
  EXPECT_EQ(CountMismatches(a.Multiply(coef), want), 0u)
      << "Matrix::Multiply" << shape;

  std::vector<std::string> names;
  for (size_t c = 0; c < k; ++c) names.push_back("c" + std::to_string(c));
  const std::vector<dataframe::DataFrame> frames = OracleFrames(a);
  std::vector<size_t> base_rows(n);
  for (size_t r = 0; r < n; ++r) base_rows[r] = kOracleSkip + 2 * r;
  const std::vector<std::pair<std::string, StatusOr<MatrixView>>> views = {
      {"owned", frames[0].NumericViewFor(names)},
      {"view-of-view", frames[1].NumericViewFor(names)},
      {"row-subset", frames[2].NumericViewFor(names, base_rows)}};
  for (const auto& [label, view] : views) {
    ASSERT_TRUE(view.ok()) << label << ": " << view.status();
    ASSERT_EQ(view->rows(), n) << label;
    EXPECT_EQ(CountMismatches(view->MultiplyRowRange(0, n, coef), want), 0u)
        << label << shape;
    for (size_t threads : {1u, 4u}) {
      // Row blocks of about 64 rows, split wherever the lanes put them:
      // rows land at any position of the kernel's row tiles.
      Matrix blocks(n, coef.cols());
      common::ParallelFor(
          n,
          [&](size_t begin, size_t end) {
            const Matrix part = view->MultiplyRowRange(begin, end, coef);
            for (size_t r = begin; r < end; ++r) {
              for (size_t j = 0; j < coef.cols(); ++j) {
                blocks.At(r, j) = part.At(r - begin, j);
              }
            }
          },
          common::ParallelOptions{threads, /*min_chunk=*/64});
      EXPECT_EQ(CountMismatches(blocks, want), 0u)
          << label << " in row blocks" << shape << " threads=" << threads;
    }
  }
}

class ScoringKernelOracleTest : public testutil::KernelIsaTest {};
INSTANTIATE_TEST_SUITE_P(Isa, ScoringKernelOracleTest,
                         testutil::AllKernelIsas(),
                         testutil::KernelIsaTestName);

TEST_P(ScoringKernelOracleTest, RowCountsAroundTileEdges) {
  Rng rng(11);
  for (size_t n : {1, 2, 3, 4, 5, 6, 7, 255, 256, 257, 513}) {
    ExpectKernelMatchesOracle(KernelData(n, 40, rng),
                              KernelCoefficients(40, 41, rng));
  }
}

TEST_P(ScoringKernelOracleTest, OutputCountsAroundTileEdges) {
  Rng rng(12);
  for (size_t outs = 1; outs <= 25; ++outs) {
    ExpectKernelMatchesOracle(KernelData(257, 40, rng),
                              KernelCoefficients(40, outs, rng));
  }
  ExpectKernelMatchesOracle(KernelData(257, 40, rng),
                            KernelCoefficients(40, 41, rng));
}

TEST_P(ScoringKernelOracleTest, InnerDimensions) {
  Rng rng(13);
  for (size_t k : {0, 1, 2, 40}) {
    for (size_t outs : {7, 41}) {
      ExpectKernelMatchesOracle(KernelData(257, k, rng),
                                KernelCoefficients(k, outs, rng));
    }
  }
}

// A cell drawn from NaN, +-Inf, +-0.0 and magnitudes near 1e+300 and
// 1e-300 among ordinary ones, so every special-value rule of the term
// order is exercised: 0 * Inf, Inf + -Inf, -0.0 + -0.0, products that
// overflow to Inf or underflow to subnormals and zero, and tiny terms
// absorbed by huge sums. Each non-finite kind has probability
// `non_finite`.
double SpecialValue(Rng& rng, double non_finite) {
  const double u = rng.Uniform();
  if (u < non_finite) return kNaN;
  if (u < 2 * non_finite) return kInf;
  if (u < 3 * non_finite) return -kInf;
  const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
  const double v = rng.Uniform();
  if (v < 0.15) return sign * 0.0;
  if (v < 0.40) return sign * rng.Uniform(1.0, 10.0) * 1e300;
  if (v < 0.65) return sign * rng.Uniform(1.0, 10.0) * 1e-300;
  return MixedMagnitude(rng);
}

Matrix SpecialMatrix(size_t rows, size_t cols, double non_finite, Rng& rng) {
  Matrix out(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      out.At(r, c) = SpecialValue(rng, non_finite);
    }
  }
  return out;
}

// Non-finite cells stay sparse enough that most rows keep finite,
// order-sensitive outputs.
TEST_P(ScoringKernelOracleTest, NonFiniteSignedZerosAndExtremeMagnitudes) {
  Rng rng(14);
  for (size_t n : {5, 257}) {
    for (size_t outs : {9, 41}) {
      const Matrix a = SpecialMatrix(n, 40, 0.005, rng);
      ExpectKernelMatchesOracle(a, SpecialMatrix(40, outs, 0.002, rng));
    }
  }
}

// The two kernel instances against each other on the special values
// above: every non-NaN entry must match bit for bit, and every NaN entry
// must be NaN in both. (NaN payloads belong to the instance.)
TEST(KernelIsaCrossTest, InstancesAgreeOnSpecialValues) {
  if (!internal::KernelIsaSupported(KernelIsa::kAvx2)) {
    GTEST_SKIP() << "avx2 not supported here";
  }
  const KernelIsa startup = SelectedKernelIsa();
  auto under = [startup](KernelIsa isa, const auto& compute) {
    internal::SetKernelIsaForTesting(isa);
    Matrix result = compute();
    internal::SetKernelIsaForTesting(startup);
    return result;
  };
  Rng rng(15);
  for (size_t n : {5, 257}) {
    for (size_t outs : {9, 13, 23, 41}) {
      const Matrix a = SpecialMatrix(n, 40, 0.005, rng);
      const Matrix coef = SpecialMatrix(40, outs, 0.002, rng);
      auto product = [&] { return a.Multiply(coef); };
      EXPECT_EQ(CountMismatches(under(KernelIsa::kAvx2, product),
                                under(KernelIsa::kSse2, product)),
                0u)
          << "Multiply n=" << n << " outs=" << outs;
    }
  }
  // Few rows keep most Gram entries finite (extreme products overflow to
  // +-Inf, and opposite infinities sum to NaN); 2600 rows cross the
  // AddView shard edge, with non-finite cells in every fifth column only.
  for (size_t m : {7, 17, 33, 40}) {
    std::vector<std::string> names;
    for (size_t c = 0; c < m; ++c) names.push_back("c" + std::to_string(c));
    for (size_t n : {1, 2, 9, 2600}) {
      Matrix data(n, m);
      for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < m; ++c) {
          const double non_finite = n < 100 || c % 5 == 0 ? 0.01 : 0.0;
          data.At(r, c) = SpecialValue(rng, non_finite);
        }
      }
      const dataframe::DataFrame frame = OracleFrames(data)[0];
      auto view = frame.NumericViewFor(names);
      ASSERT_TRUE(view.ok()) << view.status();
      auto by_row = [&] {
        GramAccumulator gram(m);
        for (size_t r = 0; r < n; ++r) gram.Add(data.Row(r));
        return gram.AugmentedGram();
      };
      auto by_view = [&] {
        GramAccumulator gram(m);
        gram.AddView(*view);
        return gram.AugmentedGram();
      };
      EXPECT_EQ(CountMismatches(under(KernelIsa::kAvx2, by_row),
                                under(KernelIsa::kSse2, by_row)),
                0u)
          << "Add m=" << m << " n=" << n;
      EXPECT_EQ(CountMismatches(under(KernelIsa::kAvx2, by_view),
                                under(KernelIsa::kSse2, by_view)),
                0u)
          << "AddView m=" << m << " n=" << n;
    }
  }
}

TEST(GramRestoreStateTest, RefusesAsymmetricOrMiscountedState) {
  Rng rng(5);
  const Matrix start = OracleStart(3, 4, rng);
  GramAccumulator gram(3);
  ASSERT_TRUE(gram.RestoreState(start, 4).ok());

  // (0,0) is the count, exactly.
  EXPECT_EQ(gram.RestoreState(start, 5).code(), StatusCode::kInvalidArgument);

  // One flipped bit in the lower triangle.
  Matrix flipped = start;
  uint64_t bits;
  std::memcpy(&bits, &flipped.At(3, 1), sizeof(bits));
  bits ^= 1;
  std::memcpy(&flipped.At(3, 1), &bits, sizeof(bits));
  EXPECT_EQ(gram.RestoreState(flipped, 4).code(),
            StatusCode::kInvalidArgument);

  // NaN entries compare by bits: NaNs of different signs are asymmetric,
  // the same NaN on both sides is not.
  Matrix nan = start;
  nan.At(1, 2) = kNaN;
  nan.At(2, 1) = -kNaN;
  EXPECT_EQ(gram.RestoreState(nan, 4).code(), StatusCode::kInvalidArgument);

  // A refused state leaves the accumulator as it was.
  EXPECT_EQ(gram.count(), 4);
  EXPECT_EQ(CountMismatches(gram.AugmentedGram(), start), 0u);

  nan.At(2, 1) = kNaN;
  EXPECT_TRUE(gram.RestoreState(nan, 4).ok());
}

}  // namespace
}  // namespace ccs::linalg
