// Tests for core/explain (ExTuNe responsibility), core/serialize, and
// core/kernel (polynomial expansion).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "core/explain.h"
#include "core/kernel.h"
#include "core/serialize.h"
#include "core/synthesizer.h"

namespace ccs::core {
namespace {

using dataframe::DataFrame;
using linalg::Vector;

DataFrame TwoAttrTrend(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n), y(n), z(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-3.0, 3.0);
    y[i] = x[i] + rng.Gaussian(0.0, 0.05);
    z[i] = rng.Gaussian(0.0, 1.0);  // Unconstrained attribute.
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  CCS_CHECK(df.AddNumericColumn("z", std::move(z)).ok());
  return df;
}

// --------------------------- explain ----------------------------------

TEST(ExplainTest, ConformingTupleHasZeroResponsibilities) {
  auto explainer = NonConformanceExplainer::FromTrainingData(
      TwoAttrTrend(400, 1));
  ASSERT_TRUE(explainer.ok());
  auto r = explainer->ExplainTuple(Vector{1.0, 1.0, 0.0});
  ASSERT_TRUE(r.ok());
  for (const auto& attr : *r) {
    EXPECT_DOUBLE_EQ(attr.responsibility, 0.0);
  }
}

TEST(ExplainTest, CulpritAttributeGetsTopResponsibility) {
  auto explainer = NonConformanceExplainer::FromTrainingData(
      TwoAttrTrend(400, 2));
  ASSERT_TRUE(explainer.ok());
  // Break the x≈y trend through y: y is way off given x.
  auto r = explainer->ExplainTuple(Vector{0.0, 50.0, 0.0});
  ASSERT_TRUE(r.ok());
  double y_resp = 0.0, z_resp = 0.0;
  for (const auto& attr : *r) {
    if (attr.attribute == "y") y_resp = attr.responsibility;
    if (attr.attribute == "z") z_resp = attr.responsibility;
  }
  EXPECT_GT(y_resp, 0.0);
  EXPECT_GE(y_resp, z_resp);
}

TEST(ExplainTest, ResponsibilityIsInverseOfAdditionalFixes) {
  auto explainer = NonConformanceExplainer::FromTrainingData(
      TwoAttrTrend(400, 3));
  ASSERT_TRUE(explainer.ok());
  // Fixing y alone restores conformance, so resp(y) should be 1/(0+1)=1.
  auto r = explainer->ExplainTuple(Vector{0.0, 50.0, 0.0});
  ASSERT_TRUE(r.ok());
  for (const auto& attr : *r) {
    EXPECT_GE(attr.responsibility, 0.0);
    EXPECT_LE(attr.responsibility, 1.0);
    if (attr.attribute == "y") {
      EXPECT_DOUBLE_EQ(attr.responsibility, 1.0);
    }
  }
}

TEST(ExplainTest, DatasetAggregationAveragesTuples) {
  auto explainer = NonConformanceExplainer::FromTrainingData(
      TwoAttrTrend(400, 4));
  ASSERT_TRUE(explainer.ok());
  // Serving set: half conforming, half broken through y.
  Rng rng(5);
  std::vector<double> x, y, z;
  for (int i = 0; i < 20; ++i) {
    double v = rng.Uniform(-2.0, 2.0);
    x.push_back(v);
    y.push_back(i % 2 == 0 ? v : v + 100.0);
    z.push_back(0.0);
  }
  DataFrame serving;
  ASSERT_TRUE(serving.AddNumericColumn("x", std::move(x)).ok());
  ASSERT_TRUE(serving.AddNumericColumn("y", std::move(y)).ok());
  ASSERT_TRUE(serving.AddNumericColumn("z", std::move(z)).ok());
  auto r = explainer->ExplainDataset(serving);
  ASSERT_TRUE(r.ok());
  double y_resp = 0.0;
  for (const auto& attr : *r) {
    if (attr.attribute == "y") y_resp = attr.responsibility;
  }
  // Half the tuples are broken through y (some also need an x fix when
  // |x| is large, halving their per-tuple responsibility).
  EXPECT_GT(y_resp, 0.2);
  EXPECT_LE(y_resp, 0.75);
}

TEST(ExplainTest, WidthMismatchIsError) {
  auto explainer = NonConformanceExplainer::FromTrainingData(
      TwoAttrTrend(100, 6));
  ASSERT_TRUE(explainer.ok());
  EXPECT_FALSE(explainer->ExplainTuple(Vector{1.0}).ok());
}

// --------------------------- serialize --------------------------------

ConformanceConstraint SynthesizeExample(uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x, y;
  std::vector<std::string> g;
  for (int i = 0; i < 100; ++i) {
    double v = rng.Uniform(-5.0, 5.0);
    x.push_back(v);
    y.push_back(2.0 * v + rng.Gaussian(0.0, 0.1));
    g.push_back(i % 2 ? "odd" : "even");
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  CCS_CHECK(df.AddCategoricalColumn("g", std::move(g)).ok());
  Synthesizer synth;
  auto phi = synth.Synthesize(df);
  CCS_CHECK(phi.ok());
  return std::move(phi).value();
}

TEST(SerializeTest, RoundTripPreservesStructure) {
  ConformanceConstraint phi = SynthesizeExample(7);
  std::string text = Serialize(phi);
  auto back = Deserialize(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->has_global(), phi.has_global());
  EXPECT_EQ(back->disjunctions().size(), phi.disjunctions().size());
  EXPECT_EQ(back->global().conjuncts().size(),
            phi.global().conjuncts().size());
}

TEST(SerializeTest, RoundTripPreservesSemantics) {
  ConformanceConstraint phi = SynthesizeExample(8);
  auto back = Deserialize(Serialize(phi));
  ASSERT_TRUE(back.ok());
  Rng rng(9);
  DataFrame probe;
  std::vector<double> x, y;
  std::vector<std::string> g;
  for (int i = 0; i < 20; ++i) {
    x.push_back(rng.Uniform(-10.0, 10.0));
    y.push_back(rng.Uniform(-20.0, 20.0));
    g.push_back(i % 3 == 0 ? "unseen" : (i % 2 ? "odd" : "even"));
  }
  ASSERT_TRUE(probe.AddNumericColumn("x", std::move(x)).ok());
  ASSERT_TRUE(probe.AddNumericColumn("y", std::move(y)).ok());
  ASSERT_TRUE(probe.AddCategoricalColumn("g", std::move(g)).ok());
  for (size_t i = 0; i < probe.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(phi.Violation(probe, i).value(),
                     back->Violation(probe, i).value());
  }
}

TEST(SerializeTest, RejectsCorruptedInput) {
  EXPECT_FALSE(Deserialize("").ok());
  EXPECT_FALSE(Deserialize("garbage\n").ok());
  EXPECT_FALSE(Deserialize("ccs-constraint v999\nglobal 0\nend\n").ok());
  ConformanceConstraint phi = SynthesizeExample(10);
  std::string text = Serialize(phi);
  text.resize(text.size() / 2);  // Truncate mid-stream.
  EXPECT_FALSE(Deserialize(text).ok());
}

// The exact text of `values` as a conjunct line: lb, ub, mean, stddev,
// importance, then the coefficients.
std::string ConjunctLine(std::initializer_list<double> values) {
  std::string line = "c";
  for (double v : values) line += " " + HexBits(DoubleBits(v));
  return line;
}

// A v2 profile whose global block has one conjunct line over "x".
std::string OneConjunctProfile(const std::string& conjunct) {
  return "ccs-constraint v2\nglobal 1\nsimple 1 1\na \"x\"\n" + conjunct +
         "\nend\n";
}

TEST(SerializeTest, HostileConjunctIsAnErrorNotACrash) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // The well-formed base case parses, so each variant below fails at its
  // own check, not at the header.
  ASSERT_TRUE(
      Deserialize(OneConjunctProfile(ConjunctLine({0, 1, 0, 1, 1, 1}))).ok());
  // lb > ub would CHECK-fail in the BoundedConstraint constructor; a NaN
  // bound, a negative stddev and a NaN stddev fail the same way.
  for (const std::string& conjunct :
       {ConjunctLine({2, 1, 0, 1, 1, 1}), ConjunctLine({kNaN, 1, 0, 1, 1, 1}),
        ConjunctLine({0, 1, 0, -1, 1, 1}),
        ConjunctLine({0, 1, 0, kNaN, 1, 1})}) {
    auto parsed = Deserialize(OneConjunctProfile(conjunct));
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << conjunct;
    EXPECT_NE(parsed.status().message().find("BoundedConstraint"),
              std::string::npos)
        << parsed.status();
  }
  // Fields that do not fill exactly 16 hex digits, a stray separator
  // and a missing coefficient fail on the conjunct line (line 5).
  const std::string good = ConjunctLine({0, 1, 0, 1, 1, 1});
  for (const std::string& conjunct :
       {good.substr(0, good.size() - 1), good + "0", good + " ",
        ConjunctLine({0, 1, 0, 1, 1})}) {
    auto parsed = Deserialize(OneConjunctProfile(conjunct));
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << conjunct;
    EXPECT_NE(parsed.status().message().find("constraint block line 5: "),
              std::string::npos)
        << parsed.status();
  }
  // A v1 profile is refused with a pointer to the fix.
  auto v1 = Deserialize(
      "ccs-constraint v1\nglobal 1\nsimple 1 1\na x\nc 0 1 0 1 1 1\nend\n");
  EXPECT_EQ(v1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v1.status().message().find("re-run ccsynth learn"),
            std::string::npos)
      << v1.status();
  // Counts are exact unsigned decimals: no sign, no value but 0 or 1 for
  // global, no padding and no trailing text.
  const std::string v2 = "ccs-constraint v2\n";
  const std::string block = "a \"x\"\n" + good + "\nend\n";
  for (const std::string& text :
       {v2 + "global 2\nend\n", v2 + "global 01\nend\n",
        v2 + "global 1 \nsimple 1 1\n" + block,
        v2 + "global 1\nsimple -1 1\n" + block,
        v2 + "global 1\nsimple 1 +1\n" + block,
        v2 + "global 1\nsimple 01 1\n" + block,
        v2 + "global 1\nsimple 1 1x\n" + block,
        v2 + "global 1\nsimple 1 1 \n" + block,
        v2 + "global 0\ndisj 1x \"g\"\nend\n"}) {
    auto parsed = Deserialize(text);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(parsed.status().message().find("bad "), std::string::npos)
        << parsed.status();
  }
}

// A NaN with a non-default payload: the codec must keep every bit.
double PayloadNaN() {
  const uint64_t bits = 0x7ff8000000000123ull;
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// A random double: finite across the whole exponent range (subnormals
// included), or, when `non_finite`, one of +-inf, +-NaN and a NaN with
// a payload a third of the time.
double RandomDouble(Rng& rng, bool non_finite) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  if (non_finite && rng.Bernoulli(1.0 / 3.0)) {
    const double special[] = {kInf, -kInf, kNaN, -kNaN, PayloadNaN()};
    return special[rng.UniformInt(0, 4)];
  }
  return std::ldexp(rng.Uniform(-1.0, 1.0),
                    static_cast<int>(rng.UniformInt(-1074, 1023)));
}

// A simple constraint over `names` whose bounds are often +-inf and
// whose mean, importance and coefficients are often +-inf or +-NaN.
SimpleConstraint RandomNonFiniteSimple(Rng& rng,
                                       const std::vector<std::string>& names) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<BoundedConstraint> conjuncts;
  const int64_t count = rng.UniformInt(1, 3);
  for (int64_t k = 0; k < count; ++k) {
    Vector coefs(names.size());
    for (size_t j = 0; j < names.size(); ++j) {
      coefs[j] = RandomDouble(rng, /*non_finite=*/true);
    }
    auto projection = Projection::Create(names, std::move(coefs));
    CCS_CHECK(projection.ok());
    const double center = RandomDouble(rng, /*non_finite=*/false);
    const double lb = rng.Bernoulli(0.5) ? -kInf : center;
    const double ub = rng.Bernoulli(0.5) ? kInf : center;
    const double stddev =
        rng.Bernoulli(0.2) ? kInf
                           : std::abs(RandomDouble(rng, /*non_finite=*/false));
    conjuncts.emplace_back(std::move(*projection), lb, ub,
                           RandomDouble(rng, /*non_finite=*/true), stddev,
                           RandomDouble(rng, /*non_finite=*/true));
  }
  auto simple = SimpleConstraint::Create(names, std::move(conjuncts));
  CCS_CHECK(simple.ok());
  return std::move(simple).value();
}

// Names a line codec could mangle: padding, a newline, a quote, empty.
const std::vector<std::string> kAwkwardNames = {" g ", "y\nz", "a\"b", ""};

TEST(SerializeTest, NonFiniteValuesRoundTripBitwise) {
  Rng rng(20210620);
  bool saw_payload = false;
  for (int trial = 0; trial < 200; ++trial) {
    // Odd trials name attributes, the switch and its values awkwardly.
    const bool awkward = trial % 2 == 1;
    std::vector<std::string> names;
    const int64_t arity = rng.UniformInt(1, 4);
    for (int64_t j = 0; j < arity; ++j) {
      names.push_back(awkward ? kAwkwardNames[j] : "a" + std::to_string(j));
    }
    std::map<std::string, SimpleConstraint> cases;
    cases.emplace(awkward ? kAwkwardNames[trial % 4] : "u",
                  RandomNonFiniteSimple(rng, names));
    cases.emplace(awkward ? kAwkwardNames[(trial + 1) % 4] : "v",
                  RandomNonFiniteSimple(rng, names));
    std::vector<DisjunctiveConstraint> disjunctions;
    disjunctions.emplace_back(awkward ? kAwkwardNames[(trial + 2) % 4] : "g",
                              std::move(cases));
    ConformanceConstraint phi(RandomNonFiniteSimple(rng, names),
                              std::move(disjunctions));
    const std::string text = Serialize(phi);
    saw_payload |= text.find(HexBits(DoubleBits(PayloadNaN()))) !=
                   std::string::npos;
    auto back = Deserialize(text);
    ASSERT_TRUE(back.ok()) << back.status() << "\n" << text;
    EXPECT_TRUE(ConstraintsBitwiseEqual(*back, phi)) << text;
    EXPECT_EQ(Serialize(*back), text);
  }
  EXPECT_TRUE(saw_payload);
}

TEST(SerializeTest, PrettyStringMentionsAttributesAndBounds) {
  ConformanceConstraint phi = SynthesizeExample(11);
  std::string pretty = ToPrettyString(phi);
  EXPECT_NE(pretty.find("GLOBAL"), std::string::npos);
  EXPECT_NE(pretty.find("DISJUNCTION on g"), std::string::npos);
  EXPECT_NE(pretty.find("<="), std::string::npos);
  EXPECT_NE(pretty.find("weight="), std::string::npos);
}

TEST(SerializeTest, SqlCheckHasExpectedShape) {
  ConformanceConstraint phi = SynthesizeExample(12);
  std::string sql = ToSqlCheck(phi);
  EXPECT_NE(sql.find("BETWEEN"), std::string::npos);
  EXPECT_NE(sql.find("CASE"), std::string::npos);
  EXPECT_NE(sql.find("ELSE FALSE END"), std::string::npos);
  EXPECT_NE(sql.find("\"x\""), std::string::npos);
}

// --------------------------- kernel -----------------------------------

TEST(KernelTest, ExpansionAddsSquaresAndCrossTerms) {
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("a", {1.0, 2.0}).ok());
  ASSERT_TRUE(df.AddNumericColumn("b", {3.0, 4.0}).ok());
  auto expanded = ExpandPolynomial(df);
  ASSERT_TRUE(expanded.ok());
  // a, b, a^2, b^2, a*b = 5 numeric columns.
  EXPECT_EQ(expanded->NumericNames().size(), 5u);
  EXPECT_DOUBLE_EQ(expanded->NumericValue(1, "a^2").value(), 4.0);
  EXPECT_DOUBLE_EQ(expanded->NumericValue(1, "a*b").value(), 8.0);
}

TEST(KernelTest, CategoricalColumnsPassThrough) {
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("a", {1.0}).ok());
  ASSERT_TRUE(df.AddCategoricalColumn("g", {"v"}).ok());
  auto expanded = ExpandPolynomial(df);
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(expanded->CategoricalValue(0, "g").value(), "v");
}

TEST(KernelTest, OptionsControlTerms) {
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("a", {1.0}).ok());
  ASSERT_TRUE(df.AddNumericColumn("b", {2.0}).ok());
  PolynomialExpansionOptions options;
  options.include_squares = false;
  options.include_cross_terms = true;
  options.keep_linear = false;
  auto expanded = ExpandPolynomial(df, options);
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(expanded->NumericNames(), (std::vector<std::string>{"a*b"}));
}

TEST(KernelTest, QuadraticConstraintBecomesLearnable) {
  // Data on the circle x^2 + y^2 = 25 (plus noise): linear synthesis sees
  // nothing, degree-2 synthesis finds the invariant.
  Rng rng(13);
  std::vector<double> x, y;
  for (int i = 0; i < 400; ++i) {
    double theta = rng.Uniform(0.0, 6.28318);
    double r = 5.0 + rng.Gaussian(0.0, 0.02);
    x.push_back(r * std::cos(theta));
    y.push_back(r * std::sin(theta));
  }
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", std::move(x)).ok());
  ASSERT_TRUE(df.AddNumericColumn("y", std::move(y)).ok());
  auto expanded = ExpandPolynomial(df);
  ASSERT_TRUE(expanded.ok());
  Synthesizer synth;
  auto constraint = synth.SynthesizeSimple(*expanded);
  ASSERT_TRUE(constraint.ok());

  // Probe: a point well inside the circle, expanded the same way.
  DataFrame probe;
  ASSERT_TRUE(probe.AddNumericColumn("x", {0.5}).ok());
  ASSERT_TRUE(probe.AddNumericColumn("y", {0.5}).ok());
  auto probe_expanded = ExpandPolynomial(probe);
  ASSERT_TRUE(probe_expanded.ok());
  EXPECT_GT(constraint->Violation(*probe_expanded, 0).value(), 0.3);

  // A point on the circle conforms.
  DataFrame on_circle;
  ASSERT_TRUE(on_circle.AddNumericColumn("x", {5.0}).ok());
  ASSERT_TRUE(on_circle.AddNumericColumn("y", {0.0}).ok());
  auto on_expanded = ExpandPolynomial(on_circle);
  ASSERT_TRUE(on_expanded.ok());
  EXPECT_LT(constraint->Violation(*on_expanded, 0).value(), 0.1);
}

TEST(KernelTest, NoNumericAttributesIsError) {
  DataFrame df;
  ASSERT_TRUE(df.AddCategoricalColumn("g", {"a"}).ok());
  EXPECT_FALSE(ExpandPolynomial(df).ok());
}

}  // namespace
}  // namespace ccs::core
