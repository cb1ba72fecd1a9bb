// Tests for core/projection and core/constraint: the conformance language
// and its Boolean + quantitative semantics (paper §3).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/line_reader.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/constraint.h"
#include "core/projection.h"
#include "core/serialize.h"
#include "core/synthesizer.h"
#include "synth/airlines.h"
#include "synth/evl.h"
#include "synth/har.h"
#include "synth/led.h"
#include "synth/tabular.h"

namespace ccs::core {
namespace {

using dataframe::DataFrame;
using linalg::Vector;

Projection MakeProjection(std::vector<std::string> names, Vector coefs) {
  auto p = Projection::Create(std::move(names), std::move(coefs));
  CCS_CHECK(p.ok());
  return std::move(p).value();
}

// --------------------------- Projection ------------------------------

TEST(ProjectionTest, EvaluateAligned) {
  Projection p = MakeProjection({"a", "b"}, Vector{2.0, -1.0});
  EXPECT_DOUBLE_EQ(p.EvaluateAligned(Vector{3.0, 4.0}), 2.0);
}

TEST(ProjectionTest, EvaluateLocatesAttributesByName) {
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("b", {10.0}).ok());
  ASSERT_TRUE(df.AddNumericColumn("a", {1.0}).ok());
  Projection p = MakeProjection({"a", "b"}, Vector{1.0, 1.0});
  EXPECT_DOUBLE_EQ(p.Evaluate(df, 0).value(), 11.0);
}

TEST(ProjectionTest, EvaluateAllMatchesRowwise) {
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("a", {1.0, 2.0, 3.0}).ok());
  Projection p = MakeProjection({"a"}, Vector{3.0});
  auto all = p.EvaluateAll(df);
  ASSERT_TRUE(all.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ((*all)[i], p.Evaluate(df, i).value());
  }
}

TEST(ProjectionTest, MissingAttributeIsError) {
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("a", {1.0}).ok());
  Projection p = MakeProjection({"z"}, Vector{1.0});
  EXPECT_FALSE(p.Evaluate(df, 0).ok());
}

TEST(ProjectionTest, NormalizedUnitNorm) {
  Projection p = MakeProjection({"a", "b"}, Vector{3.0, 4.0});
  auto n = p.Normalized();
  ASSERT_TRUE(n.ok());
  EXPECT_NEAR(n->coefficients().Norm(), 1.0, 1e-12);
}

TEST(ProjectionTest, CreateRejectsBadInput) {
  EXPECT_FALSE(Projection::Create({"a"}, Vector{1.0, 2.0}).ok());
  EXPECT_FALSE(Projection::Create({}, Vector()).ok());
}

TEST(ProjectionTest, ToStringReadable) {
  Projection p = MakeProjection({"AT", "DT", "DUR"}, Vector{1.0, -1.0, -1.0});
  EXPECT_EQ(p.ToString(), "AT - DT - DUR");
  Projection q = MakeProjection({"x", "y"}, Vector{0.5, 0.0});
  EXPECT_EQ(q.ToString(), "0.5*x");
}

// ----------------------- BoundedConstraint ---------------------------

// The Example 4 setting: projection AT - DT - DUR with sigma = 3.6.
BoundedConstraint ExampleConstraint() {
  Projection p = MakeProjection({"AT", "DT", "DUR"}, Vector{1.0, -1.0, -1.0});
  return BoundedConstraint(std::move(p), /*lb=*/-5.0, /*ub=*/5.0,
                           /*mean=*/-0.5, /*stddev=*/3.6, /*importance=*/1.0);
}

TEST(BoundedConstraintTest, SatisfiedTupleHasZeroViolation) {
  BoundedConstraint c = ExampleConstraint();
  // t1 of Fig. 1: 18:20 - 14:30 = 230 min scheduled, duration 230.
  Vector t1{1100.0, 870.0, 230.0};
  EXPECT_TRUE(c.IsSatisfiedAligned(t1));
  EXPECT_DOUBLE_EQ(c.ViolationAligned(t1), 0.0);
}

TEST(BoundedConstraintTest, OvernightFlightViolatesStrongly) {
  BoundedConstraint c = ExampleConstraint();
  // t5 of Fig. 1: arrival 06:10 (370), departure 22:30 (1350), 458 min.
  Vector t5{370.0, 1350.0, 458.0};
  EXPECT_FALSE(c.IsSatisfiedAligned(t5));
  // Example 4 computes the violation as ~1.
  EXPECT_NEAR(c.ViolationAligned(t5), 1.0, 1e-9);
}

TEST(BoundedConstraintTest, ViolationIsInUnitInterval) {
  BoundedConstraint c = ExampleConstraint();
  for (double v : {-1e9, -100.0, 0.0, 5.0, 5.1, 100.0, 1e9}) {
    double violation = c.ViolationOfValue(v);
    EXPECT_GE(violation, 0.0);
    EXPECT_LT(violation, 1.0 + 1e-12);
  }
}

TEST(BoundedConstraintTest, ViolationZeroExactlyInsideBounds) {
  BoundedConstraint c = ExampleConstraint();
  EXPECT_DOUBLE_EQ(c.ViolationOfValue(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(c.ViolationOfValue(5.0), 0.0);
  EXPECT_DOUBLE_EQ(c.ViolationOfValue(0.0), 0.0);
  EXPECT_GT(c.ViolationOfValue(5.0001), 0.0);
  EXPECT_GT(c.ViolationOfValue(-5.0001), 0.0);
}

TEST(BoundedConstraintTest, ViolationMonotoneInDistance) {
  BoundedConstraint c = ExampleConstraint();
  double prev = 0.0;
  for (double v = 5.0; v < 50.0; v += 1.0) {
    double violation = c.ViolationOfValue(v);
    EXPECT_GE(violation, prev);
    prev = violation;
  }
}

TEST(BoundedConstraintTest, ZeroStddevActsAsEqualityConstraint) {
  Projection p = MakeProjection({"x"}, Vector{1.0});
  BoundedConstraint c(std::move(p), 2.0, 2.0, 2.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(c.ViolationAligned(Vector{2.0}), 0.0);
  // Any deviation saturates violation to ~1 (alpha is huge).
  EXPECT_NEAR(c.ViolationAligned(Vector{2.0001}), 1.0, 1e-9);
}

// Lemma 5: larger standardized deviation => no smaller violation, across
// two different constraints.
TEST(BoundedConstraintTest, Lemma5CrossConstraintMonotonicity) {
  Projection p1 = MakeProjection({"x"}, Vector{1.0});
  Projection p2 = MakeProjection({"x"}, Vector{1.0});
  BoundedConstraint narrow(std::move(p1), -1.0, 1.0, 0.0, 0.25, 1.0);
  BoundedConstraint wide(std::move(p2), -4.0, 4.0, 0.0, 1.0, 1.0);
  for (double x : {1.5, 2.0, 5.0, 10.0}) {
    double z_narrow = std::abs(x - 0.0) / 0.25;
    double z_wide = std::abs(x - 0.0) / 1.0;
    ASSERT_GT(z_narrow, z_wide);
    EXPECT_GE(narrow.ViolationAligned(Vector{x}),
              wide.ViolationAligned(Vector{x}));
  }
}

// ----------------------- SimpleConstraint ----------------------------

SimpleConstraint MakeSimple() {
  Projection p1 = MakeProjection({"x", "y"}, Vector{1.0, 0.0});
  Projection p2 = MakeProjection({"x", "y"}, Vector{0.0, 1.0});
  std::vector<BoundedConstraint> conjuncts;
  conjuncts.emplace_back(std::move(p1), -1.0, 1.0, 0.0, 0.5, 0.7);
  conjuncts.emplace_back(std::move(p2), -2.0, 2.0, 0.0, 1.0, 0.3);
  auto c = SimpleConstraint::Create({"x", "y"}, std::move(conjuncts));
  CCS_CHECK(c.ok());
  return std::move(c).value();
}

TEST(SimpleConstraintTest, ConjunctionBooleanSemantics) {
  SimpleConstraint c = MakeSimple();
  EXPECT_TRUE(c.IsSatisfiedAligned(Vector{0.5, 1.0}));
  EXPECT_FALSE(c.IsSatisfiedAligned(Vector{1.5, 0.0}));   // First violated.
  EXPECT_FALSE(c.IsSatisfiedAligned(Vector{0.0, 3.0}));   // Second violated.
}

TEST(SimpleConstraintTest, ViolationIsImportanceWeightedSum) {
  SimpleConstraint c = MakeSimple();
  Vector t{10.0, 0.0};  // Violates only the first conjunct.
  double v1 = c.conjuncts()[0].ViolationAligned(t);
  EXPECT_NEAR(c.ViolationAligned(t), 0.7 * v1, 1e-12);
}

TEST(SimpleConstraintTest, ViolationBoundedByOne) {
  SimpleConstraint c = MakeSimple();
  EXPECT_LE(c.ViolationAligned(Vector{1e12, -1e12}), 1.0);
}

TEST(SimpleConstraintTest, ViolationAllMatchesPerRow) {
  SimpleConstraint c = MakeSimple();
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {0.0, 5.0}).ok());
  ASSERT_TRUE(df.AddNumericColumn("y", {0.0, 5.0}).ok());
  auto all = c.ViolationAll(df);
  ASSERT_TRUE(all.ok());
  EXPECT_DOUBLE_EQ((*all)[0], c.Violation(df, 0).value());
  EXPECT_DOUBLE_EQ((*all)[1], c.Violation(df, 1).value());
  EXPECT_DOUBLE_EQ((*all)[0], 0.0);
  EXPECT_GT((*all)[1], 0.0);
}

TEST(SimpleConstraintTest, CreateRejectsMismatchedConjuncts) {
  Projection p = MakeProjection({"other"}, Vector{1.0});
  std::vector<BoundedConstraint> conjuncts;
  conjuncts.emplace_back(std::move(p), 0.0, 1.0, 0.5, 0.1, 1.0);
  EXPECT_FALSE(SimpleConstraint::Create({"x"}, std::move(conjuncts)).ok());
}

TEST(SimpleConstraintTest, RowOutOfRangeIsError) {
  SimpleConstraint c = MakeSimple();
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {0.0}).ok());
  ASSERT_TRUE(df.AddNumericColumn("y", {0.0}).ok());
  EXPECT_FALSE(c.Violation(df, 5).ok());
}

// --------------------- DisjunctiveConstraint -------------------------

DataFrame MonthFrame() {
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", {0.0, 0.0, 10.0}).ok());
  CCS_CHECK(df.AddCategoricalColumn("m", {"May", "June", "August"}).ok());
  return df;
}

DisjunctiveConstraint MakeDisjunctive() {
  auto make_case = [](double lb, double ub) {
    Projection p = MakeProjection({"x"}, Vector{1.0});
    std::vector<BoundedConstraint> cs;
    cs.emplace_back(std::move(p), lb, ub, (lb + ub) / 2.0, 1.0, 1.0);
    auto c = SimpleConstraint::Create({"x"}, std::move(cs));
    CCS_CHECK(c.ok());
    return std::move(c).value();
  };
  std::map<std::string, SimpleConstraint> cases;
  cases.emplace("May", make_case(-2.0, 2.0));
  cases.emplace("June", make_case(-1.0, 5.0));
  return DisjunctiveConstraint("m", std::move(cases));
}

TEST(DisjunctiveConstraintTest, DispatchesOnSwitchValue) {
  DisjunctiveConstraint d = MakeDisjunctive();
  DataFrame df = MonthFrame();
  EXPECT_DOUBLE_EQ(d.Violation(df, 0).value(), 0.0);  // May, x=0 in bounds.
  EXPECT_DOUBLE_EQ(d.Violation(df, 1).value(), 0.0);  // June.
}

TEST(DisjunctiveConstraintTest, UnseenValueMeansMaximalViolation) {
  DisjunctiveConstraint d = MakeDisjunctive();
  DataFrame df = MonthFrame();
  // Row 2 is "August": simp undefined => violation 1 (paper §3.2).
  EXPECT_DOUBLE_EQ(d.Violation(df, 2).value(), 1.0);
  EXPECT_FALSE(d.IsSatisfied(df, 2).value());
}

TEST(DisjunctiveConstraintTest, SimplifyReturnsCase) {
  DisjunctiveConstraint d = MakeDisjunctive();
  DataFrame df = MonthFrame();
  auto c = d.Simplify(df, 0);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c.value()).conjuncts().size(), 1u);
  EXPECT_EQ(d.Simplify(df, 2).status().code(), StatusCode::kNotFound);
}

TEST(DisjunctiveConstraintTest, ViolationAllMatchesPerRow) {
  DisjunctiveConstraint d = MakeDisjunctive();
  DataFrame df = MonthFrame();
  auto all = d.ViolationAll(df);
  ASSERT_TRUE(all.ok());
  for (size_t i = 0; i < df.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ((*all)[i], d.Violation(df, i).value());
  }
}

// Regression for the old fallback path: cases with DIFFERENT attribute
// orders used to re-simplify and re-align per row; now each case's rows
// are grouped and aligned once. Semantics must be unchanged.
TEST(DisjunctiveConstraintTest, MixedAttributeOrderMatchesPerRow) {
  auto make_case = [](std::vector<std::string> names, Vector coefs) {
    Projection p = MakeProjection(names, std::move(coefs));
    std::vector<BoundedConstraint> cs;
    cs.emplace_back(std::move(p), -1.0, 1.0, 0.0, 0.5, 1.0);
    auto c = SimpleConstraint::Create(std::move(names), std::move(cs));
    CCS_CHECK(c.ok());
    return std::move(c).value();
  };
  std::map<std::string, SimpleConstraint> cases;
  cases.emplace("a", make_case({"x", "y"}, Vector{1.0, -1.0}));
  cases.emplace("b", make_case({"y", "x"}, Vector{2.0, 0.5}));
  DisjunctiveConstraint d("m", std::move(cases));

  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {0.1, 3.0, -2.0, 0.4, 9.0}).ok());
  ASSERT_TRUE(df.AddNumericColumn("y", {0.2, 1.0, -2.5, 0.0, -9.0}).ok());
  ASSERT_TRUE(
      df.AddCategoricalColumn("m", {"a", "b", "b", "a", "unseen"}).ok());

  auto all = d.ViolationAll(df);
  ASSERT_TRUE(all.ok());
  for (size_t i = 0; i < df.num_rows(); ++i) {
    EXPECT_EQ((*all)[i], d.Violation(df, i).value()) << "row " << i;
  }
  EXPECT_EQ((*all)[4], 1.0);  // Unseen switch value.
}

// ------------------- disjunctive row-block pass ----------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// `n` rows over x, y, z (about 1% NaN cells in each) and a switch m
// skewed across six values, two of which ("u1", "u2") no case covers.
DataFrame SkewedSwitchFrame(size_t n, uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> values = {"a", "b", "c", "d", "u1", "u2"};
  const std::vector<double> weights = {0.70, 0.15, 0.06, 0.04, 0.03, 0.02};
  std::vector<double> x(n), y(n), z(n);
  std::vector<std::string> m(n);
  auto maybe_nan = [&rng](double v) {
    return rng.Bernoulli(0.01) ? std::nan("") : v;
  };
  for (size_t i = 0; i < n; ++i) {
    const double xi = rng.Gaussian(0.0, 1.0);
    x[i] = maybe_nan(xi);
    y[i] = maybe_nan(xi + rng.Gaussian(0.0, 0.3));
    z[i] = maybe_nan(rng.Uniform(-2.0, 2.0));
    m[i] = values[rng.Categorical(weights)];
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  CCS_CHECK(df.AddNumericColumn("z", std::move(z)).ok());
  CCS_CHECK(df.AddCategoricalColumn("m", std::move(m)).ok());
  return df;
}

// Three conjuncts over `names` with random projections and bounds tight
// enough that a good share of rows violate them.
SimpleConstraint RandomSimple(const std::vector<std::string>& names,
                              Rng& rng) {
  std::vector<BoundedConstraint> conjuncts;
  for (int k = 0; k < 3; ++k) {
    Vector coefs(names.size());
    for (size_t j = 0; j < names.size(); ++j) {
      coefs[j] = rng.Uniform(-1.0, 1.0);
    }
    conjuncts.emplace_back(MakeProjection(names, std::move(coefs)), -0.8,
                           0.8, 0.0, rng.Uniform(0.2, 1.0), 1.0 / 3.0);
  }
  auto c = SimpleConstraint::Create(names, std::move(conjuncts));
  CCS_CHECK(c.ok());
  return std::move(c).value();
}

// A global constraint over (x, y, z) and a disjunction on m whose case
// "d" lists the same attributes in another order.
ConformanceConstraint SkewedSwitchConstraint(uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> global_order = {"x", "y", "z"};
  std::map<std::string, SimpleConstraint> cases;
  for (const char* value : {"a", "b", "c"}) {
    cases.emplace(value, RandomSimple(global_order, rng));
  }
  cases.emplace("d", RandomSimple({"z", "x", "y"}, rng));
  return ConformanceConstraint(
      RandomSimple(global_order, rng),
      {DisjunctiveConstraint("m", std::move(cases))});
}

// The row-block pass at 1, 2 and 4 lanes over 5 x 2048 + 300 rows (six
// blocks at 2 lanes, so blocks split every case's rows), on the frame
// and on a view of it: bit for bit the per-row Violation.
TEST(DisjunctiveConstraintTest, RowBlockPassMatchesPerRowAtAnyLaneCount) {
  const DataFrame owned = SkewedSwitchFrame(5 * 2048 + 300, 31);
  const DataFrame view = owned.Slice(77, owned.num_rows()).Filter(
      [](size_t i) { return i % 7 != 3; });
  const ConformanceConstraint phi = SkewedSwitchConstraint(32);
  const DisjunctiveConstraint& psi = phi.disjunctions()[0];
  for (const DataFrame* df : {&owned, &view}) {
    std::vector<double> psi_rows, phi_rows;
    size_t unseen = 0, nan_rows = 0;
    for (size_t i = 0; i < df->num_rows(); ++i) {
      psi_rows.push_back(psi.Violation(*df, i).value());
      phi_rows.push_back(phi.Violation(*df, i).value());
      const std::string m = df->CategoricalValue(i, "m").value();
      if (m == "u1" || m == "u2") ++unseen;
      if (std::isnan(df->NumericValue(i, "x").value())) ++nan_rows;
    }
    ASSERT_GT(unseen, 0u);
    ASSERT_GT(nan_rows, 0u);
    for (size_t lanes : {size_t{1}, size_t{2}, size_t{4}}) {
      auto psi_all = psi.ViolationAll(*df, lanes);
      auto phi_all = phi.ViolationAll(*df, lanes);
      ASSERT_TRUE(psi_all.ok()) << psi_all.status();
      ASSERT_TRUE(phi_all.ok()) << phi_all.status();
      size_t psi_bad = 0, phi_bad = 0;
      for (size_t i = 0; i < df->num_rows(); ++i) {
        if (!SameBits((*psi_all)[i], psi_rows[i])) ++psi_bad;
        if (!SameBits((*phi_all)[i], phi_rows[i])) ++phi_bad;
      }
      EXPECT_EQ(psi_bad, 0u) << lanes << " lane(s)";
      EXPECT_EQ(phi_bad, 0u) << lanes << " lane(s)";
    }
  }
}

// A case whose attribute the frame lacks (or holds as categorical)
// fails ViolationAll with the frame's own lookup Status once a row
// selects it, and costs nothing while no row does.
TEST(DisjunctiveConstraintTest, UnalignableCaseFailsOnlyWhenSelected) {
  auto make_case = [](std::vector<std::string> names) {
    std::vector<BoundedConstraint> cs;
    cs.emplace_back(MakeProjection(names, Vector(names.size(), 1.0)), -1.0,
                    1.0, 0.0, 1.0, 1.0);
    auto c = SimpleConstraint::Create(std::move(names), std::move(cs));
    CCS_CHECK(c.ok());
    return std::move(c).value();
  };
  std::map<std::string, SimpleConstraint> cases;
  cases.emplace("a", make_case({"x"}));
  cases.emplace("b", make_case({"x", "w"}));  // No column w.
  cases.emplace("c", make_case({"m"}));       // m is categorical.
  const DisjunctiveConstraint d("m", std::move(cases));

  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {0.5, 0.1, 2.0, 0.3}).ok());
  ASSERT_TRUE(df.AddCategoricalColumn("m", {"a", "a", "b", "c"}).ok());
  const Status missing = df.ColumnByName("w").status();
  ASSERT_FALSE(missing.ok());
  const DataFrame no_c = df.Slice(0, 3);
  for (size_t lanes : {size_t{1}, size_t{4}}) {
    auto all = d.ViolationAll(no_c, lanes);
    ASSERT_FALSE(all.ok());
    EXPECT_EQ(all.status().code(), missing.code());
    EXPECT_EQ(all.status().message(), missing.message());
  }

  const DataFrame no_b = df.Filter([](size_t i) { return i != 2; });
  auto categorical = d.ViolationAll(no_b);
  ASSERT_FALSE(categorical.ok());
  EXPECT_EQ(categorical.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(categorical.status().message(), "column is not numeric: m");

  // Both selected: the first row that selects a broken case decides.
  auto both = d.ViolationAll(df);
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().message(), missing.message());

  // No row selects either broken case: they are never aligned.
  const DataFrame only_a = df.Slice(0, 2);
  auto fine = d.ViolationAll(only_a);
  ASSERT_TRUE(fine.ok()) << fine.status();
  for (size_t i = 0; i < only_a.num_rows(); ++i) {
    EXPECT_TRUE(SameBits((*fine)[i], d.Violation(only_a, i).value()));
  }
}

// The scoring setup is built once: each SimpleConstraint keeps the
// coefficient matrix Create built, and ViolationAll resolves one aligned
// view per distinct attribute list. Cases sharing a list ("a", "b", "c")
// share a view; "d" and "e" list the same attributes in other orders
// (a view each); "f" cannot be aligned, and no row selects it although
// its value is in the frame's dictionary; "u1"/"u2" have no case. At 1
// and 4 lanes, on the frame and on a view of it, the pass is bit for bit
// the per-row Violation — for the original constraint, for one whose
// cases went through AppendSimple/ReadSimple, and for a copy.
TEST(DisjunctiveConstraintTest, ScoringPlanMatchesPerRowAcrossViewsAndCopies) {
  Rng rng(91);
  const std::vector<std::string> xyz = {"x", "y", "z"};
  std::map<std::string, SimpleConstraint> cases;
  for (const char* value : {"a", "b", "c"}) {
    cases.emplace(value, RandomSimple(xyz, rng));
  }
  cases.emplace("d", RandomSimple({"z", "x", "y"}, rng));
  cases.emplace("e", RandomSimple({"y", "z", "x"}, rng));
  cases.emplace("f", RandomSimple({"x", "w"}, rng));  // No column w.
  const DisjunctiveConstraint original("m", cases);

  std::map<std::string, SimpleConstraint> decoded_cases;
  for (const auto& [value, simple] : cases) {
    std::string text;
    AppendSimple(simple, &text);
    common::LineReader reader(text, "end of block");
    auto decoded = ReadSimple(&reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_TRUE(ConstraintsBitwiseEqual(*decoded, simple)) << value;
    decoded_cases.emplace(value, std::move(decoded).value());
  }
  const DisjunctiveConstraint decoded("m", std::move(decoded_cases));
  const DisjunctiveConstraint copied = original;

  // SkewedSwitchFrame's switch takes a..d, u1, u2; remap a share of the
  // rows to "e", and name "f" in the dictionary through a row the view
  // below filters out.
  DataFrame base = SkewedSwitchFrame(3000, 92);
  std::vector<std::string> m;
  for (size_t i = 0; i < base.num_rows(); ++i) {
    std::string value = base.CategoricalValue(i, "m").value();
    if (i % 11 == 4) value = "e";
    if (i == 5) value = "f";
    m.push_back(std::move(value));
  }
  DataFrame owned;
  for (const char* name : {"x", "y", "z"}) {
    ASSERT_TRUE(
        owned.AddColumn(name, *base.ColumnByName(name).value()).ok());
  }
  ASSERT_TRUE(owned.AddCategoricalColumn("m", std::move(m)).ok());
  const DataFrame view =
      owned.Slice(3, owned.num_rows()).Filter([](size_t i) { return i != 2; });

  // Selecting "f" fails the call, as scoring that row alone would.
  auto selected = original.ViolationAll(owned, 1);
  ASSERT_FALSE(selected.ok());
  EXPECT_EQ(selected.status().message(),
            owned.ColumnByName("w").status().message());

  std::map<std::string, size_t> seen;
  for (size_t i = 0; i < view.num_rows(); ++i) {
    ++seen[view.CategoricalValue(i, "m").value()];
  }
  for (const char* value : {"a", "b", "c", "d", "e", "u1", "u2"}) {
    ASSERT_GT(seen[value], 0u) << value;
  }
  ASSERT_EQ(seen.count("f"), 0u);

  std::vector<double> rows;
  for (size_t i = 0; i < view.num_rows(); ++i) {
    rows.push_back(original.Violation(view, i).value());
  }
  for (const DisjunctiveConstraint* d : {&original, &decoded, &copied}) {
    for (size_t lanes : {size_t{1}, size_t{4}}) {
      auto all = d->ViolationAll(view, lanes);
      ASSERT_TRUE(all.ok()) << all.status();
      size_t bad = 0;
      for (size_t i = 0; i < view.num_rows(); ++i) {
        if (!SameBits((*all)[i], rows[i])) ++bad;
        if (!SameBits(d->Violation(view, i).value(), rows[i])) ++bad;
      }
      EXPECT_EQ(bad, 0u) << lanes << " lane(s)";
    }
  }

  // The global path: a decoded and a copied SimpleConstraint score
  // bitwise like the original.
  const SimpleConstraint& simple = cases.at("a");
  const SimpleConstraint simple_copy = simple;
  const SimpleConstraint& simple_decoded = decoded.cases().at("a");
  for (size_t lanes : {size_t{1}, size_t{4}}) {
    auto want = simple.ViolationAll(view, lanes);
    ASSERT_TRUE(want.ok()) << want.status();
    for (const SimpleConstraint* c : {&simple_copy, &simple_decoded}) {
      auto got = c->ViolationAll(view, lanes);
      ASSERT_TRUE(got.ok()) << got.status();
      for (size_t i = 0; i < view.num_rows(); ++i) {
        ASSERT_TRUE(SameBits((*got)[i], (*want)[i])) << "row " << i;
        ASSERT_TRUE(SameBits((*got)[i], simple.Violation(view, i).value()))
            << "row " << i;
      }
    }
  }
}

// --------------------- ConformanceConstraint -------------------------

TEST(ConformanceConstraintTest, AveragesGroups) {
  SimpleConstraint global = MakeSimple();
  DisjunctiveConstraint disj = MakeDisjunctive();
  ConformanceConstraint phi(global, {disj});
  EXPECT_EQ(phi.num_groups(), 2u);

  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {0.0}).ok());
  ASSERT_TRUE(df.AddNumericColumn("y", {0.0}).ok());
  ASSERT_TRUE(df.AddCategoricalColumn("m", {"August"}).ok());
  // Global satisfied (0), disjunctive unseen (1): average 0.5.
  EXPECT_DOUBLE_EQ(phi.Violation(df, 0).value(), 0.5);
}

TEST(ConformanceConstraintTest, EmptyConstraintIsError) {
  ConformanceConstraint phi;
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {0.0}).ok());
  EXPECT_FALSE(phi.Violation(df, 0).ok());
}

TEST(ConformanceConstraintTest, MeanViolationAveragesRows) {
  SimpleConstraint global = MakeSimple();
  ConformanceConstraint phi(global, {});
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {0.0, 1e9}).ok());
  ASSERT_TRUE(df.AddNumericColumn("y", {0.0, 0.0}).ok());
  auto mean = phi.MeanViolation(df);
  ASSERT_TRUE(mean.ok());
  auto v1 = phi.Violation(df, 1).value();
  EXPECT_NEAR(*mean, v1 / 2.0, 1e-12);
}

TEST(ConformanceConstraintTest, IsSatisfiedMatchesZeroViolation) {
  SimpleConstraint global = MakeSimple();
  ConformanceConstraint phi(global, {});
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {0.0, 99.0}).ok());
  ASSERT_TRUE(df.AddNumericColumn("y", {0.0, 0.0}).ok());
  EXPECT_TRUE(phi.IsSatisfied(df, 0).value());
  EXPECT_FALSE(phi.IsSatisfied(df, 1).value());
}

// ------------------- batch vs per-row equivalence --------------------

// ViolationAll must reproduce the per-row Violation EXACTLY (same
// floating-point evaluation order), for constraints synthesized on every
// synthetic workload, with the batched kernel running on 1 and N threads.
// Restores the process-wide thread-count default even when an ASSERT
// bails out of the calling helper early.
struct ThreadCountGuard {
  ~ThreadCountGuard() { common::SetDefaultThreadCount(0); }
};

void ExpectBatchMatchesPerRow(const dataframe::DataFrame& train,
                              const dataframe::DataFrame& serving) {
  Synthesizer synthesizer;
  auto constraint = synthesizer.Synthesize(train);
  ASSERT_TRUE(constraint.ok()) << constraint.status().ToString();
  ThreadCountGuard guard;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    common::SetDefaultThreadCount(threads);
    auto all = constraint->ViolationAll(serving);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    ASSERT_EQ(all->size(), serving.num_rows());
    for (size_t i = 0; i < serving.num_rows(); ++i) {
      auto row = constraint->Violation(serving, i);
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      ASSERT_EQ((*all)[i], *row) << "row " << i << ", " << threads
                                 << " thread(s)";
    }
  }
}

TEST(BatchEquivalenceTest, AirlinesFlights) {
  Rng rng(1);
  auto train = synth::GenerateFlights(synth::FlightKind::kDaytime, 400, &rng);
  // Large enough to split into several parallel chunks (min_chunk 2048),
  // so the N-thread pass exercises real multi-chunk dispatch.
  auto serving = synth::GenerateFlights(synth::FlightKind::kOvernight, 6000,
                                        &rng);
  ExpectBatchMatchesPerRow(train, serving);
}

TEST(BatchEquivalenceTest, Har) {
  Rng rng(2);
  auto persons = synth::HarPersons(2);
  auto train = synth::GenerateHar(persons, synth::AllActivities(), 40, &rng);
  ASSERT_TRUE(train.ok());
  auto serving = synth::GenerateHar(persons, synth::AllActivities(), 20, &rng);
  ASSERT_TRUE(serving.ok());
  ExpectBatchMatchesPerRow(*train, *serving);
}

TEST(BatchEquivalenceTest, EvlWindows) {
  Rng rng(3);
  auto train = synth::GenerateEvlWindow("4CR", 0.0, 400, &rng);
  ASSERT_TRUE(train.ok());
  auto serving = synth::GenerateEvlWindow("4CR", 0.7, 200, &rng);
  ASSERT_TRUE(serving.ok());
  ExpectBatchMatchesPerRow(*train, *serving);
}

TEST(BatchEquivalenceTest, LedStream) {
  Rng rng(4);
  auto stream = synth::GenerateLedStream(6, 150, synth::DefaultLedSchedule(),
                                         &rng);
  ASSERT_TRUE(stream.ok());
  ExpectBatchMatchesPerRow(stream->front(), stream->back());
}

TEST(BatchEquivalenceTest, TabularCardioMobileHouse) {
  Rng rng(5);
  auto cardio_ref = synth::GenerateCardio(300, false, &rng);
  auto cardio_tgt = synth::GenerateCardio(150, true, &rng);
  ASSERT_TRUE(cardio_ref.ok() && cardio_tgt.ok());
  ExpectBatchMatchesPerRow(*cardio_ref, *cardio_tgt);

  auto mobile_ref = synth::GenerateMobile(300, false, &rng);
  auto mobile_tgt = synth::GenerateMobile(150, true, &rng);
  ASSERT_TRUE(mobile_ref.ok() && mobile_tgt.ok());
  ExpectBatchMatchesPerRow(*mobile_ref, *mobile_tgt);

  auto house_ref = synth::GenerateHouse(300, false, &rng);
  auto house_tgt = synth::GenerateHouse(150, true, &rng);
  ASSERT_TRUE(house_ref.ok() && house_tgt.ok());
  ExpectBatchMatchesPerRow(*house_ref, *house_tgt);
}

}  // namespace
}  // namespace ccs::core
