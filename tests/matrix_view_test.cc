// Equivalence and safety suite for the zero-materialization kernel
// layer: linalg::MatrixView, DataFrame::NumericViewFor, and the view
// entry points of the scoring and Gram-accumulation hot paths.
//
// The contract under test is bitwise: walking a (buffer, selection)
// view inside a kernel must produce the SAME DOUBLES as evaluating the
// materialized rows one at a time (or multiplying them as a Matrix) —
// on owned frames, views, and views of views, at 1 and 4 threads, and
// on data containing NaN and ±Inf cells (where any zero-skipping or
// term reordering shows up as divergent bits).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "core/constraint.h"
#include "core/projection.h"
#include "dataframe/dataframe.h"
#include "linalg/gram.h"
#include "linalg/matrix.h"
#include "linalg/matrix_view.h"

namespace ccs::linalg {
namespace {

using core::BoundedConstraint;
using core::DisjunctiveConstraint;
using core::Projection;
using core::SimpleConstraint;
using dataframe::DataFrame;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectMatricesBitwiseEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_TRUE(BitsEqual(a.At(i, j), b.At(i, j))) << i << "," << j;
    }
  }
}

void ExpectVectorsBitwiseEqual(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(BitsEqual(a[i], b[i])) << "index " << i;
  }
}

// A numeric frame with a categorical switch column; when `non_finite`,
// NaN/±Inf cells are sprinkled across every numeric column.
DataFrame MakeFrame(size_t n, uint64_t seed, bool non_finite) {
  Rng rng(seed);
  std::vector<double> x(n), y(n), z(n);
  std::vector<std::string> tag(n);
  const char* tags[] = {"a", "b", "c"};
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-5.0, 5.0);
    y[i] = 1.5 * x[i] + rng.Gaussian(0.0, 0.5);
    z[i] = rng.Gaussian(2.0, 1.0);
    tag[i] = tags[rng.UniformInt(0, 2)];
    if (non_finite) {
      if (i % 11 == 3) x[i] = kNaN;
      if (i % 13 == 5) y[i] = kInf;
      if (i % 17 == 7) z[i] = -kInf;
      if (i % 19 == 11) x[i] = 0.0;  // Exact zeros next to non-finites.
    }
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  CCS_CHECK(df.AddCategoricalColumn("tag", std::move(tag)).ok());
  CCS_CHECK(df.AddNumericColumn("z", std::move(z)).ok());
  return df;
}

// A view-of-a-view of `df`: drop the first `skip` rows, keep every
// second remaining row.
DataFrame ViewOfView(const DataFrame& df, size_t skip) {
  DataFrame sliced = df.Slice(skip, df.num_rows());
  return sliced.Filter([](size_t i) { return i % 2 == 0; });
}

// A 2-conjunct constraint over {x, y, z} with hand-picked parameters
// (synthesis is not under test here, the kernels are).
SimpleConstraint MakeConstraint() {
  std::vector<std::string> names = {"x", "y", "z"};
  auto p1 = Projection::Create(names, Vector({0.5, -0.25, 1.0}));
  auto p2 = Projection::Create(names, Vector({0.0, 1.0, -0.5}));
  CCS_CHECK(p1.ok() && p2.ok());
  std::vector<BoundedConstraint> conjuncts;
  conjuncts.emplace_back(std::move(*p1), -1.0, 1.0, 0.1, 0.7, 0.6);
  conjuncts.emplace_back(std::move(*p2), -2.0, 2.0, -0.2, 1.3, 0.4);
  auto constraint = SimpleConstraint::Create(names, std::move(conjuncts));
  CCS_CHECK(constraint.ok());
  return *constraint;
}

// ------------------------- view construction ---------------------------

TEST(MatrixViewTest, MatchesNumericMatrixForOnOwnedViewAndViewOfView) {
  DataFrame owned = MakeFrame(120, 1, /*non_finite=*/true);
  std::vector<std::string> names = {"z", "x"};  // Reordered subset.
  for (const DataFrame& frame :
       {owned, owned.Gather({5, 5, 0, 119, 63}), ViewOfView(owned, 10)}) {
    auto view = frame.NumericViewFor(names);
    auto matrix = frame.NumericMatrixFor(names);
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(matrix.ok());
    EXPECT_EQ(view->rows(), frame.num_rows());
    EXPECT_EQ(view->cols(), names.size());
    ExpectMatricesBitwiseEqual(view->ToMatrix(), *matrix);
    for (size_t i = 0; i < view->rows(); ++i) {
      for (size_t j = 0; j < view->cols(); ++j) {
        EXPECT_TRUE(BitsEqual(view->At(i, j), matrix->At(i, j)));
      }
    }
  }
}

TEST(MatrixViewTest, RowSubsetOverloadMatchesNumericMatrixFor) {
  DataFrame owned = MakeFrame(90, 2, /*non_finite=*/true);
  DataFrame view_frame = ViewOfView(owned, 4);
  std::vector<std::string> names = {"y", "z", "x"};
  std::vector<size_t> rows = {7, 0, 7, 3, view_frame.num_rows() - 1};
  for (const DataFrame& frame : {owned, view_frame}) {
    auto view = frame.NumericViewFor(names, rows);
    auto matrix = frame.NumericMatrixFor(names, rows);
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(matrix.ok());
    EXPECT_EQ(view->rows(), rows.size());
    ExpectMatricesBitwiseEqual(view->ToMatrix(), *matrix);
    // MaterializeColumn gathers through both indirections too.
    for (size_t j = 0; j < names.size(); ++j) {
      std::vector<double> column(view->rows());
      view->MaterializeColumn(j, column.data());
      for (size_t i = 0; i < column.size(); ++i) {
        EXPECT_TRUE(BitsEqual(column[i], matrix->At(i, j))) << i << "," << j;
      }
    }
  }
}

TEST(MatrixViewTest, ErrorsMirrorNumericMatrixFor) {
  DataFrame df = MakeFrame(20, 3, /*non_finite=*/false);
  EXPECT_EQ(df.NumericViewFor({"tag"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(df.NumericViewFor({"nope"}).status().code(),
            StatusCode::kNotFound);
  // The row-subset overload resolves names the same way.
  std::vector<size_t> rows = {0, 1};
  EXPECT_EQ(df.NumericViewFor({"tag"}, rows).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(df.NumericViewFor({"nope"}, rows).status().code(),
            StatusCode::kNotFound);
  // Row bounds are validated up front, before any per-column work.
  std::vector<size_t> bad_rows = {0, df.num_rows()};
  EXPECT_EQ(df.NumericViewFor({"x"}, bad_rows).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(df.NumericMatrixFor({"x"}, bad_rows).status().code(),
            StatusCode::kOutOfRange);
}

TEST(MatrixViewTest, EmptySelections) {
  DataFrame df = MakeFrame(10, 4, /*non_finite=*/false);
  DataFrame empty = df.Gather({});
  auto view = empty.NumericViewFor({"x", "y", "z"});
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->rows(), 0u);
  EXPECT_EQ(view->cols(), 3u);
  EXPECT_EQ(view->ToMatrix().rows(), 0u);
  std::vector<size_t> no_rows;
  auto subset = df.NumericViewFor({"x"}, no_rows);
  ASSERT_TRUE(subset.ok());
  EXPECT_EQ(subset->rows(), 0u);
}

// --------------------------- kernel equivalence ------------------------

TEST(MatrixViewTest, MultiplyRowRangeBitwiseMatchesMaterializedKernel) {
  DataFrame owned = MakeFrame(200, 5, /*non_finite=*/true);
  std::vector<std::string> names = {"x", "y", "z"};
  Matrix coef(3, 2);
  coef.At(0, 0) = 0.3;
  coef.At(1, 0) = kNaN;  // Non-finite coefficients too.
  coef.At(2, 0) = -1.2;
  coef.At(0, 1) = 0.0;
  coef.At(1, 1) = 2.0;
  coef.At(2, 1) = kInf;
  for (const DataFrame& frame : {owned, ViewOfView(owned, 7)}) {
    auto view = frame.NumericViewFor(names);
    ASSERT_TRUE(view.ok());
    Matrix materialized = view->ToMatrix();
    const size_t n = view->rows();
    const std::vector<std::pair<size_t, size_t>> ranges = {
        {0, n}, {0, n / 2}, {n / 3, n - 1}, {n, n}};
    for (const auto& [begin, end] : ranges) {
      // The same rows, materialized, through Matrix::Multiply.
      Matrix slice(end - begin, names.size());
      for (size_t r = begin; r < end; ++r) {
        slice.SetRow(r - begin, materialized.Row(r));
      }
      ExpectMatricesBitwiseEqual(view->MultiplyRowRange(begin, end, coef),
                                 slice.Multiply(coef));
    }
  }
}

// Regression for the Matrix::Multiply zero-skip: with a NaN/Inf in the
// RHS, skipping aik == 0 terms turns 0*NaN (= NaN) into 0, so Multiply
// disagreed with per-row Vector::Dot. Every entry must match the dot
// product bit for bit (a NaN entry needs a NaN: payloads are a property
// of the compiled code).
TEST(MatrixMultiplyTest, MultiplyMatchesPerRowDotOnNonFinite) {
  Matrix a = {{0.0, 1.0}, {2.0, 0.0}, {0.0, 0.0}};
  Matrix b = {{kNaN, 1.0, kInf}, {2.0, -kInf, 0.5}};
  Matrix whole = a.Multiply(b);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      const double dot = a.Row(i).Dot(b.Col(j));
      if (std::isnan(dot)) {
        EXPECT_TRUE(std::isnan(whole.At(i, j))) << i << "," << j;
      } else {
        EXPECT_TRUE(BitsEqual(whole.At(i, j), dot)) << i << "," << j;
      }
    }
  }
  // The zero rows must propagate NaN (0*NaN and Inf + -Inf are NaN),
  // not report clean zeros.
  EXPECT_TRUE(std::isnan(whole.At(0, 0)));  // 0*NaN + 1*2
  EXPECT_TRUE(std::isnan(whole.At(2, 0)));
  EXPECT_TRUE(std::isnan(whole.At(2, 1)));
  EXPECT_TRUE(std::isnan(whole.At(2, 2)));
  // A deterministic non-NaN spot check: 0*1 + 1*(-Inf) is exactly -Inf.
  EXPECT_TRUE(BitsEqual(whole.At(0, 1), -kInf));
}

// ------------------------- Gram accumulation ---------------------------

TEST(GramViewTest, AddViewBitwiseMatchesPerRowAdd) {
  // > 2 shards of kGramShardRows so the parallel path really shards.
  const size_t n = 2 * kGramShardRows + 513;
  DataFrame owned = MakeFrame(n, 6, /*non_finite=*/true);
  std::vector<std::string> names = {"x", "y", "z"};
  for (const DataFrame& frame : {owned, ViewOfView(owned, 9)}) {
    auto view = frame.NumericViewFor(names);
    ASSERT_TRUE(view.ok());
    Matrix materialized = view->ToMatrix();
    for (size_t threads : {1u, 4u}) {
      common::SetDefaultThreadCount(threads);
      GramAccumulator by_row(names.size());
      for (size_t r = 0; r < materialized.rows(); ++r) {
        by_row.Add(materialized.Row(r));
      }
      GramAccumulator by_view(names.size());
      by_view.AddView(*view);
      EXPECT_EQ(by_view.count(), by_row.count());
      ExpectMatricesBitwiseEqual(by_view.AugmentedGram(),
                                 by_row.AugmentedGram());
    }
  }
  common::SetDefaultThreadCount(0);
}

TEST(GramViewTest, RowSubsetAddViewMatchesAdd) {
  DataFrame df = MakeFrame(64, 7, /*non_finite=*/true);
  std::vector<size_t> rows;
  for (size_t r = 8; r < 40; ++r) rows.push_back(r);
  auto view = df.NumericViewFor({"x", "y", "z"}, rows);
  ASSERT_TRUE(view.ok());
  Matrix materialized = view->ToMatrix();
  GramAccumulator from_view(3), by_row(3);
  from_view.AddView(*view);
  for (size_t r = 0; r < materialized.rows(); ++r) {
    by_row.Add(materialized.Row(r));
  }
  EXPECT_EQ(from_view.count(), 32);
  ExpectMatricesBitwiseEqual(from_view.AugmentedGram(),
                             by_row.AugmentedGram());
}

TEST(GramViewDeathTest, AddViewValidatesWidth) {
  GramAccumulator gram(3);  // Expects 3 attributes; the view has 2.
  DataFrame df = MakeFrame(8, 8, /*non_finite=*/false);
  auto view = df.NumericViewFor({"x", "y"});
  ASSERT_TRUE(view.ok());
  EXPECT_DEATH(gram.AddView(*view), "CHECK failed");
}

// ------------------- scoring: per-row vs batch vs view -----------------

TEST(ViewScoringTest, PerRowBatchAndViewKernelsBitwiseAgreeOnNonFinite) {
  SimpleConstraint constraint = MakeConstraint();
  DataFrame owned = MakeFrame(300, 9, /*non_finite=*/true);
  for (const DataFrame& frame :
       {owned, owned.Gather({17, 3, 3, 250, 299, 0}), ViewOfView(owned, 5)}) {
    auto view = frame.NumericViewFor(constraint.attribute_names());
    ASSERT_TRUE(view.ok());
    for (size_t threads : {1u, 4u}) {
      common::SetDefaultThreadCount(threads);
      // Per-row reference semantics.
      Vector per_row(frame.num_rows());
      for (size_t r = 0; r < frame.num_rows(); ++r) {
        auto v = constraint.Violation(frame, r);
        ASSERT_TRUE(v.ok());
        per_row[r] = *v;
      }
      // Batched kernel walking the view (and the DataFrame entry point).
      Vector via_view = constraint.ViolationAllAligned(*view);
      auto via_frame = constraint.ViolationAll(frame);
      ASSERT_TRUE(via_frame.ok());
      ExpectVectorsBitwiseEqual(via_view, per_row);
      ExpectVectorsBitwiseEqual(*via_frame, per_row);
    }
  }
  common::SetDefaultThreadCount(0);
}

TEST(ViewScoringTest, DisjunctiveRowSubsetViewsBitwiseMatchPerRow) {
  // Per-case scoring now walks NumericViewFor(names, rows) — prove the
  // row-subset views agree with per-row evaluation, non-finites and all.
  std::map<std::string, SimpleConstraint> cases;
  cases.emplace("a", MakeConstraint());
  cases.emplace("b", MakeConstraint());  // "c" unseen => violation 1.
  DisjunctiveConstraint disj("tag", std::move(cases));
  DataFrame owned = MakeFrame(240, 10, /*non_finite=*/true);
  for (const DataFrame& frame : {owned, ViewOfView(owned, 3)}) {
    for (size_t threads : {1u, 4u}) {
      common::SetDefaultThreadCount(threads);
      auto all = disj.ViolationAll(frame);
      ASSERT_TRUE(all.ok());
      for (size_t r = 0; r < frame.num_rows(); ++r) {
        auto v = disj.Violation(frame, r);
        ASSERT_TRUE(v.ok());
        EXPECT_TRUE(BitsEqual((*all)[r], *v)) << "row " << r;
      }
    }
  }
  common::SetDefaultThreadCount(0);
}

}  // namespace
}  // namespace ccs::linalg
