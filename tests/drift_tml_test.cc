// Tests for core/drift, core/tml, core/monitor: dataset-level drift
// quantification, the safety envelope, and streaming maintenance.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "core/drift.h"
#include "core/monitor.h"
#include "core/tml.h"
#include "obs/trace.h"

namespace ccs::core {
namespace {

using dataframe::DataFrame;
using linalg::Vector;

// y = x + noise, optionally shifted off-trend by `offset` on y.
DataFrame TrendFrame(size_t n, double offset, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-5.0, 5.0);
    y[i] = x[i] + offset + rng.Gaussian(0.0, 0.1);
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  return df;
}

// TrendFrame plus a categorical switch g skewed across three values, so
// scoring runs the global pass and the disjunctive row-block pass.
DataFrame SwitchedTrendFrame(size_t n, double offset, uint64_t seed) {
  DataFrame df = TrendFrame(n, offset, seed);
  Rng rng(seed + 1000);
  std::vector<std::string> g(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.Uniform();
    g[i] = u < 0.8 ? "p" : (u < 0.95 ? "q" : "r");
  }
  CCS_CHECK(df.AddCategoricalColumn("g", std::move(g)).ok());
  return df;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ------------------------ drift quantifier ----------------------------

TEST(DriftQuantifierTest, SelfScoreIsNearZero) {
  ConformanceDriftQuantifier q;
  DataFrame reference = TrendFrame(500, 0.0, 1);
  ASSERT_TRUE(q.Fit(reference).ok());
  EXPECT_LT(q.Score(reference).value(), 0.01);
}

TEST(DriftQuantifierTest, HeldOutSameDistributionScoresLow) {
  ConformanceDriftQuantifier q;
  ASSERT_TRUE(q.Fit(TrendFrame(500, 0.0, 2)).ok());
  EXPECT_LT(q.Score(TrendFrame(500, 0.0, 3)).value(), 0.02);
}

TEST(DriftQuantifierTest, DriftIncreasesScoreMonotonically) {
  ConformanceDriftQuantifier q;
  ASSERT_TRUE(q.Fit(TrendFrame(500, 0.0, 4)).ok());
  double prev = -1.0;
  for (double offset : {0.0, 1.0, 2.0, 4.0, 8.0}) {
    double score = q.Score(TrendFrame(300, offset, 5)).value();
    EXPECT_GE(score, prev - 0.005) << "offset " << offset;
    prev = score;
  }
  EXPECT_GT(q.Score(TrendFrame(300, 8.0, 6)).value(), 0.5);
}

TEST(DriftQuantifierTest, ScoreBeforeFitIsError) {
  ConformanceDriftQuantifier q;
  EXPECT_FALSE(q.Score(TrendFrame(10, 0.0, 7)).ok());
  EXPECT_FALSE(q.TupleViolations(TrendFrame(10, 0.0, 7)).ok());
}

TEST(DriftSeriesTest, FirstWindowIsReference) {
  std::vector<DataFrame> windows;
  for (double offset : {0.0, 0.5, 1.0, 2.0}) {
    windows.push_back(TrendFrame(300, offset, 8));
  }
  auto series = DriftSeries(windows);
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 4u);
  EXPECT_LT((*series)[0], 0.01);
  EXPECT_LT((*series)[0], (*series)[3]);
}

TEST(NormalizeSeriesTest, MapsToUnitRange) {
  auto out = NormalizeSeries({2.0, 4.0, 3.0});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 0.5);
}

TEST(NormalizeSeriesTest, ConstantSeriesMapsToZero) {
  auto out = NormalizeSeries({3.0, 3.0});
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_TRUE(NormalizeSeries({}).empty());
}

// ------------------------ safety envelope -----------------------------

TEST(SafetyEnvelopeTest, ConformingTuplesAreTrusted) {
  DataFrame train = TrendFrame(500, 0.0, 9);
  auto envelope = SafetyEnvelope::Fit(train, {});
  ASSERT_TRUE(envelope.ok());
  DataFrame serving = TrendFrame(100, 0.0, 10);
  auto verdicts = envelope->AssessAll(serving);
  ASSERT_TRUE(verdicts.ok());
  size_t unsafe = 0;
  for (const auto& v : *verdicts) {
    if (v.unsafe) ++unsafe;
  }
  EXPECT_LT(unsafe, 5u);
}

TEST(SafetyEnvelopeTest, OffTrendTuplesAreUnsafe) {
  DataFrame train = TrendFrame(500, 0.0, 11);
  auto envelope = SafetyEnvelope::Fit(train, {});
  ASSERT_TRUE(envelope.ok());
  DataFrame serving = TrendFrame(100, 10.0, 12);
  EXPECT_GT(envelope->UnsafeFraction(serving).value(), 0.9);
}

TEST(SafetyEnvelopeTest, TargetAttributeIsExcluded) {
  DataFrame train = TrendFrame(200, 0.0, 13);
  auto envelope = SafetyEnvelope::Fit(train, {"y"});
  ASSERT_TRUE(envelope.ok());
  // The envelope must not reference y at all: a wild y is fine.
  DataFrame serving;
  ASSERT_TRUE(serving.AddNumericColumn("x", {0.0}).ok());
  ASSERT_TRUE(serving.AddNumericColumn("y", {1e9}).ok());
  auto verdict = envelope->Assess(serving, 0);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->unsafe);
}

TEST(SafetyEnvelopeTest, TrustIsOneMinusViolation) {
  DataFrame train = TrendFrame(200, 0.0, 14);
  auto envelope = SafetyEnvelope::Fit(train, {});
  ASSERT_TRUE(envelope.ok());
  DataFrame serving = TrendFrame(10, 5.0, 15);
  auto verdict = envelope->Assess(serving, 0);
  ASSERT_TRUE(verdict.ok());
  EXPECT_NEAR(verdict->trust, 1.0 - verdict->violation, 1e-12);
}

// Batch verdicts over 8192 tuples (several row blocks per scoring pass)
// are bit for bit the per-row ones at 1 and 4 lanes.
TEST(SafetyEnvelopeTest, AssessAllMatchesPerRowOnEveryLane) {
  auto envelope = SafetyEnvelope::Fit(SwitchedTrendFrame(1000, 0.0, 17), {});
  ASSERT_TRUE(envelope.ok());
  ASSERT_EQ(envelope->constraint().disjunctions().size(), 1u);
  const DataFrame serving = SwitchedTrendFrame(8192, 0.3, 18);
  for (size_t lanes : {size_t{1}, size_t{4}}) {
    common::SetDefaultThreadCount(lanes);
    auto all = envelope->AssessAll(serving);
    ASSERT_TRUE(all.ok()) << all.status();
    size_t bad = 0;
    for (size_t i = 0; i < serving.num_rows(); ++i) {
      auto one = envelope->Assess(serving, i);
      ASSERT_TRUE(one.ok()) << one.status();
      if (!SameBits(one->violation, (*all)[i].violation) ||
          !SameBits(one->trust, (*all)[i].trust) ||
          one->unsafe != (*all)[i].unsafe) {
        ++bad;
      }
    }
    EXPECT_EQ(bad, 0u) << lanes << " lane(s)";
  }
  common::SetDefaultThreadCount(0);
}

TEST(SafetyEnvelopeTest, InvalidThresholdIsError) {
  DataFrame train = TrendFrame(50, 0.0, 16);
  EXPECT_FALSE(SafetyEnvelope::Fit(train, {}, -0.1).ok());
  EXPECT_FALSE(SafetyEnvelope::Fit(train, {}, 1.5).ok());
  EXPECT_FALSE(
      SafetyEnvelope::Fit(train, {}, std::numeric_limits<double>::quiet_NaN())
          .ok());
}

// --------------------- incremental synthesizer ------------------------

TEST(IncrementalSynthesizerTest, MatchesBatchSynthesis) {
  DataFrame df = TrendFrame(300, 0.0, 17);
  Synthesizer batch;
  auto batch_constraint = batch.SynthesizeSimple(df);
  ASSERT_TRUE(batch_constraint.ok());

  IncrementalSynthesizer incremental({"x", "y"});
  ASSERT_TRUE(incremental.ObserveAll(df).ok());
  auto inc_constraint = incremental.Synthesize();
  ASSERT_TRUE(inc_constraint.ok());

  ASSERT_EQ(batch_constraint->conjuncts().size(),
            inc_constraint->conjuncts().size());
  for (size_t k = 0; k < batch_constraint->conjuncts().size(); ++k) {
    EXPECT_NEAR(batch_constraint->conjuncts()[k].stddev(),
                inc_constraint->conjuncts()[k].stddev(), 1e-9);
  }
}

TEST(IncrementalSynthesizerTest, MergePartitionsEqualsWhole) {
  DataFrame df = TrendFrame(200, 0.0, 18);
  IncrementalSynthesizer whole({"x", "y"});
  IncrementalSynthesizer part1({"x", "y"});
  IncrementalSynthesizer part2({"x", "y"});
  ASSERT_TRUE(whole.ObserveAll(df).ok());
  ASSERT_TRUE(part1.ObserveAll(df.Slice(0, 100)).ok());
  ASSERT_TRUE(part2.ObserveAll(df.Slice(100, 200)).ok());
  ASSERT_TRUE(part1.Merge(part2).ok());
  EXPECT_EQ(part1.count(), whole.count());
  auto a = whole.Synthesize();
  auto b = part1.Synthesize();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->conjuncts()[0].stddev(), b->conjuncts()[0].stddev(), 1e-9);
}

TEST(IncrementalSynthesizerTest, MergeRejectsSchemaMismatch) {
  IncrementalSynthesizer a({"x"});
  IncrementalSynthesizer b({"y"});
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(IncrementalSynthesizerTest, ObserveSingleTuples) {
  IncrementalSynthesizer inc({"x", "y"});
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    double x = rng.Uniform(-2.0, 2.0);
    inc.Observe(Vector{x, 2.0 * x});
  }
  EXPECT_EQ(inc.count(), 100);
  auto constraint = inc.Synthesize();
  ASSERT_TRUE(constraint.ok());
  // The 2x-x trend must be captured: the off-trend probe violates.
  EXPECT_GT(constraint->ViolationAligned(Vector{1.0, -2.0}), 0.5);
}

// --------------------------- StreamMonitor ----------------------------

TEST(StreamMonitorTest, AlarmsOnDriftedWindowOnly) {
  DataFrame reference = TrendFrame(500, 0.0, 20);
  auto monitor = StreamMonitor::Create(reference, 0.1);
  ASSERT_TRUE(monitor.ok());

  auto ok_score = monitor->ObserveWindow(TrendFrame(200, 0.0, 21));
  ASSERT_TRUE(ok_score.ok());
  EXPECT_FALSE(ok_score->alarm);

  auto drift_score = monitor->ObserveWindow(TrendFrame(200, 6.0, 22));
  ASSERT_TRUE(drift_score.ok());
  EXPECT_TRUE(drift_score->alarm);

  ASSERT_EQ(monitor->history().size(), 2u);
  EXPECT_EQ(monitor->history()[1].window_index, 1u);
}

// ObserveWindows' lane count bounds every scoring pass, not only the
// spread across windows: one lane never touches the pool, even for a
// window large enough to split, and the scores match those at 4 lanes.
TEST(StreamMonitorTest, ThreadCountBoundsEveryScoringLane) {
  const DataFrame reference = SwitchedTrendFrame(1000, 0.0, 24);
  const std::vector<DataFrame> windows = {SwitchedTrendFrame(8192, 0.5, 25),
                                          SwitchedTrendFrame(8192, 2.0, 26)};
  auto observe = [&](size_t lanes, uint64_t* pool_tasks) {
    auto monitor = StreamMonitor::Create(reference, 0.1);
    CCS_CHECK(monitor.ok());
    CCS_CHECK_EQ(monitor->reference_constraint().disjunctions().size(), 1u);
    obs::ObsSession session;
    auto scores = monitor->ObserveWindows(windows, lanes);
    CCS_CHECK(scores.ok());
    *pool_tasks = session.AggregateByName()["pool.task"].count;
    std::vector<double> drifts;
    for (const WindowScore& score : *scores) drifts.push_back(score.drift);
    return drifts;
  };
  uint64_t serial_tasks = 0, parallel_tasks = 0;
  const std::vector<double> serial = observe(1, &serial_tasks);
  const std::vector<double> parallel = observe(4, &parallel_tasks);
  EXPECT_EQ(serial_tasks, 0u);
  // The probe sees the pool whenever it is used.
  EXPECT_GT(parallel_tasks, 0u);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(SameBits(serial[i], parallel[i])) << "window " << i;
  }
}

TEST(StreamMonitorTest, InvalidThresholdIsError) {
  DataFrame reference = TrendFrame(50, 0.0, 23);
  EXPECT_FALSE(StreamMonitor::Create(reference, -0.5).ok());
  EXPECT_FALSE(StreamMonitor::Create(reference, 2.0).ok());
  EXPECT_FALSE(
      StreamMonitor::Create(reference, std::numeric_limits<double>::quiet_NaN())
          .ok());
}

}  // namespace
}  // namespace ccs::core
