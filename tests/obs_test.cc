// Tests for the observability layer (src/obs/): counter striping,
// gauge max semantics, histogram percentile edge cases (empty, single
// sample, overflow bucket), registry interning and JSON export,
// SafeRate degeneracy, trace spans, ring-buffer overwrite accounting,
// and the no-session no-op fast path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ccs::obs {
namespace {

TEST(SafeRateTest, DegenerateInputsReportZero) {
  EXPECT_EQ(SafeRate(0.0, 1.0), 0.0);
  EXPECT_EQ(SafeRate(100.0, 0.0), 0.0);
  EXPECT_EQ(SafeRate(100.0, 1e-12), 0.0);  // Near-zero elapsed.
  EXPECT_EQ(SafeRate(100.0, -1.0), 0.0);
  EXPECT_EQ(SafeRate(100.0, std::numeric_limits<double>::quiet_NaN()), 0.0);
  EXPECT_EQ(SafeRate(100.0, std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_EQ(SafeRate(std::numeric_limits<double>::quiet_NaN(), 1.0), 0.0);
  EXPECT_DOUBLE_EQ(SafeRate(100.0, 2.0), 50.0);
}

TEST(CounterTest, SumsAcrossStripesExactly) {
  Counter c;
  for (int i = 0; i < 1000; ++i) c.Increment();
  c.Add(24);
  EXPECT_EQ(c.value(), 1024u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, UpdateMaxNeverLowers) {
  Gauge g;
  g.Set(10);
  g.UpdateMax(5);
  EXPECT_EQ(g.value(), 10);
  g.UpdateMax(50);
  EXPECT_EQ(g.value(), 50);
  g.Set(3);  // Set always wins.
  EXPECT_EQ(g.value(), 3);
}

TEST(HistogramTest, EmptyHistogramReportsZeroPercentiles) {
  Histogram h({1.0, 10.0, 100.0});
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total_count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.Percentile(50.0), 0.0);
  EXPECT_EQ(snap.p99(), 0.0);
}

TEST(HistogramTest, SingleSamplePercentiles) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(5.0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total_count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 5.0);
  // The one sample owns every percentile; interpolation lands at the
  // upper bound of its (1, 10] bucket for rank 1 of 1.
  const double p50 = snap.p50();
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 10.0);
  EXPECT_EQ(snap.p50(), snap.p99());
}

TEST(HistogramTest, OverflowBucketClampsToLastBound) {
  Histogram h({1.0, 10.0});
  h.Observe(1e9);  // Far above the last finite bound.
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);  // 2 bounds + overflow.
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.p50(), 10.0);  // Clamped, not extrapolated.
  EXPECT_EQ(snap.p99(), 10.0);
}

TEST(HistogramTest, NanCountsInOverflowAndIsExcludedFromSum) {
  Histogram h({1.0, 10.0});
  h.Observe(2.0);
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total_count, 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 2.0);
}

TEST(HistogramTest, PercentilesInterpolateWithinBuckets) {
  Histogram h({10.0, 20.0, 30.0});
  // 10 samples in (10, 20]: p50 is rank 5 of 10 -> midpoint-ish.
  for (int i = 0; i < 10; ++i) h.Observe(15.0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Percentile(50.0), 15.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(100.0), 20.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), 11.0);  // Rank clamps to 1.
}

TEST(HistogramTest, DefaultBoundsAreAscending) {
  std::vector<double> bounds = Histogram::DefaultLatencyBoundsUs();
  ASSERT_GT(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(RegistryTest, InternsStablePointersByName) {
  Registry& reg = Registry::Global();
  Counter* a = reg.GetCounter("test.interned");
  Counter* b = reg.GetCounter("test.interned");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.GetCounter("test.other"));
  // Namespaces are separate: a gauge may share a counter's name.
  EXPECT_NE(static_cast<void*>(reg.GetGauge("test.interned")),
            static_cast<void*>(a));
}

TEST(RegistryTest, ToJsonIsOneWellFormedLine) {
  Registry& reg = Registry::Global();
  reg.GetCounter("test.json.counter")->Add(7);
  reg.GetGauge("test.json.gauge")->Set(-3);
  reg.GetHistogram("test.json.hist")->Observe(42.0);
  std::string json = reg.ToJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\":7"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\":-3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  // Balanced braces/brackets — a cheap well-formedness proxy; the CI
  // observability smoke step runs a real JSON parse.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ObsSpanTest, NoSessionMeansNoRecording) {
  ASSERT_EQ(ObsSession::Active(), nullptr);
  { ObsSpan span("orphan", "test"); }  // Must be a safe no-op.
  ObsSession session;
  EXPECT_TRUE(session.Collect().empty());
}

TEST(ObsSpanTest, SpansRecordIntoActiveSession) {
  ObsSession session;
  {
    ObsSpan outer("outer", "test");
    ObsSpan inner("inner", "test");
  }
  std::vector<TraceEvent> events = session.Collect();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer_ev = nullptr;
  const TraceEvent* inner_ev = nullptr;
  for (const TraceEvent& ev : events) {
    if (std::string(ev.name) == "outer") outer_ev = &ev;
    if (std::string(ev.name) == "inner") inner_ev = &ev;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  // Inner nests inside outer: opened no earlier, closed no later (RAII
  // destruction order).
  EXPECT_GE(inner_ev->start_ns, outer_ev->start_ns);
  EXPECT_LE(inner_ev->start_ns + inner_ev->dur_ns,
            outer_ev->start_ns + outer_ev->dur_ns);
  EXPECT_STREQ(outer_ev->category, "test");
}

TEST(ObsSpanTest, SessionsAreIndependent) {
  {
    ObsSession first;
    ObsSpan span("in-first", "test");
  }
  ObsSession second;
  { ObsSpan span("in-second", "test"); }
  std::vector<TraceEvent> events = second.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "in-second");
}

TEST(ObsSpanTest, LongNamesTruncateSafely) {
  ObsSession session;
  std::string long_name(200, 'x');
  { ObsSpan span(long_name.c_str(), "test"); }
  std::vector<TraceEvent> events = session.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name).size(), sizeof(events[0].name) - 1);
}

TEST(SpanRingTest, OverwritesOldestAndCountsDrops) {
  ObsSession session(/*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    // Named string so it outlives the span (the name is copied into the
    // ring only when the span closes).
    std::string name = "span" + std::to_string(i);
    ObsSpan span(name.c_str(), "test");
  }
  std::vector<TraceEvent> events = session.Collect();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(session.dropped(), 6u);
  // The survivors are the newest four, oldest first.
  EXPECT_STREQ(events[0].name, "span6");
  EXPECT_STREQ(events[3].name, "span9");
}

TEST(ObsSessionTest, ChromeTraceJsonShape) {
  ObsSession session;
  { ObsSpan span("alpha \"quoted\"", "test"); }
  // A control character without a short escape takes the \u00XX form.
  { ObsSpan span("bell\x07" "end\ttab", "test"); }
  std::string json = session.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("alpha \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("bell\\u0007end\\ttab"), std::string::npos);
}

TEST(ObsSessionTest, AggregateByNameSumsDurations) {
  ObsSession session;
  { ObsSpan span("stage", "test"); }
  { ObsSpan span("stage", "test"); }
  { ObsSpan span("other", "test"); }
  auto agg = session.AggregateByName();
  ASSERT_EQ(agg.count("stage"), 1u);
  EXPECT_EQ(agg["stage"].count, 2u);
  EXPECT_EQ(agg["other"].count, 1u);
}

}  // namespace
}  // namespace ccs::obs
