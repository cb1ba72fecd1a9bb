// Tests for the deterministic fault-injection registry (common/fault.h):
// spec JSON round-trips, trigger semantics, shared hit ordinals, and the
// headline determinism contract — the same (seed, spec) injects at the
// same pipeline sites at 1 and 4 threads.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "dataframe/csv.h"
#include "dataframe/dataframe.h"
#include "stream/pipeline.h"

namespace ccs::common::fault {
namespace {

// Disarms around every test: the injector is process-global, and a spec
// leaked into the next test would inject faults it never armed.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { Injector::Global().Disarm(); }
  void TearDown() override { Injector::Global().Disarm(); }
};

FaultSpec SpecWith(FaultPoint point, uint64_t seed = 0) {
  FaultSpec spec;
  spec.seed = seed;
  spec.points.push_back(std::move(point));
  return spec;
}

TEST_F(FaultTest, DisarmedCheckIsOk) {
  EXPECT_FALSE(Injector::Global().armed());
  EXPECT_TRUE(Injector::Global().Check("stream.score.window").ok());
  EXPECT_EQ(Injector::Global().injected(), 0u);
}

TEST_F(FaultTest, OnceTriggerFiresOnExactlyThatHit) {
  FaultPoint p;
  p.point = "test.op";
  p.trigger = "once";
  p.at = 3;
  ASSERT_TRUE(Injector::Global().Arm(SpecWith(p)).ok());

  EXPECT_TRUE(Injector::Global().Check("test.op").ok());
  EXPECT_TRUE(Injector::Global().Check("test.op").ok());
  Status third = Injector::Global().Check("test.op");
  EXPECT_EQ(third.code(), StatusCode::kUnavailable) << third;
  EXPECT_TRUE(Injector::Global().Check("test.op").ok());
  EXPECT_EQ(Injector::Global().injected(), 1u);
  EXPECT_EQ(Injector::Global().hits("test.op"), 4u);
  // Unarmed points pass through without being counted.
  EXPECT_TRUE(Injector::Global().Check("test.other").ok());
  EXPECT_EQ(Injector::Global().hits("test.other"), 0u);
}

TEST_F(FaultTest, EveryTriggerFiresOnThePeriod) {
  FaultPoint p;
  p.point = "test.op";
  p.trigger = "every";
  p.every = 2;
  p.code = "internal";
  p.message = "boom";
  ASSERT_TRUE(Injector::Global().Arm(SpecWith(p)).ok());

  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    Status s = Injector::Global().Check("test.op");
    fired.push_back(!s.ok());
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kInternal);
      EXPECT_EQ(s.message(), "boom");
    }
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, true, false, true}));
}

TEST_F(FaultTest, ProbabilityTriggerIsSeedDeterministic) {
  FaultPoint p;
  p.point = "test.op";
  p.trigger = "probability";
  p.probability = 0.5;

  auto pattern = [&](uint64_t seed) {
    CCS_CHECK(Injector::Global().Arm(SpecWith(p, seed)).ok());
    std::string bits;
    for (int i = 0; i < 64; ++i) {
      bits.push_back(Injector::Global().Check("test.op").ok() ? '0' : '1');
    }
    return bits;
  };
  std::string a = pattern(7);
  std::string b = pattern(7);
  std::string c = pattern(8);
  EXPECT_EQ(a, b);       // Same seed: identical decision sequence.
  EXPECT_NE(a, c);       // Different seed: a different (still fixed) one.
  EXPECT_NE(a.find('1'), std::string::npos);  // p=0.5 actually fires.
  EXPECT_NE(a.find('0'), std::string::npos);
}

TEST_F(FaultTest, EntriesOnOnePointShareTheHitOrdinal) {
  // A spec composing two triggers on the same point: both see the same
  // ordinal stream, so "once at=2" and "once at=4" fire on the 2nd and
  // 4th hit — not on independent counters.
  FaultSpec spec;
  FaultPoint a;
  a.point = "test.op";
  a.trigger = "once";
  a.at = 2;
  FaultPoint b = a;
  b.at = 4;
  b.code = "io-error";
  spec.points = {a, b};
  ASSERT_TRUE(Injector::Global().Arm(spec).ok());

  EXPECT_TRUE(Injector::Global().Check("test.op").ok());
  EXPECT_EQ(Injector::Global().Check("test.op").code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(Injector::Global().Check("test.op").ok());
  EXPECT_EQ(Injector::Global().Check("test.op").code(), StatusCode::kIoError);
  EXPECT_EQ(Injector::Global().injected(), 2u);
}

TEST_F(FaultTest, ArmRejectsMalformedSpecs) {
  FaultPoint p;
  p.point = "test.op";
  p.trigger = "sometimes";
  EXPECT_EQ(Injector::Global().Arm(SpecWith(p)).code(),
            StatusCode::kInvalidArgument);
  p.trigger = "every";  // every == 0.
  EXPECT_EQ(Injector::Global().Arm(SpecWith(p)).code(),
            StatusCode::kInvalidArgument);
  p.every = 5;
  p.action = "detonate";
  EXPECT_EQ(Injector::Global().Arm(SpecWith(p)).code(),
            StatusCode::kInvalidArgument);
  p.action = "error";
  p.code = "teapot";
  EXPECT_EQ(Injector::Global().Arm(SpecWith(p)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(Injector::Global().armed());
}

TEST_F(FaultTest, SpecJsonRoundTrips) {
  const std::string text =
      "{\"seed\": 7, \"points\": [\n"
      "  {\"point\": \"stream.score.window\", \"trigger\": \"once\", "
      "\"at\": 5},\n"
      "  {\"point\": \"stream.ingest.read\", \"trigger\": \"every\", "
      "\"every\": 100, \"code\": \"io-error\", \"message\": \"flaky disk\"},\n"
      "  {\"point\": \"stream.window.push\", \"trigger\": \"probability\", "
      "\"probability\": 0.25, \"action\": \"crash\"},\n"
      "  {\"point\": \"stream.window.push\", \"trigger\": \"once\", "
      "\"message\": \"line\\none\\ttab \\\"quoted\\\" \\/ \\u0001\"}\n"
      "]}";
  auto spec = ParseFaultSpecJson(text);
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->points.size(), 4u);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->points[0].at, 5u);
  EXPECT_EQ(spec->points[1].every, 100u);
  EXPECT_EQ(spec->points[1].message, "flaky disk");
  EXPECT_EQ(spec->points[2].action, "crash");
  EXPECT_EQ(spec->points[3].message,
            std::string("line\none\ttab \"quoted\" / \x01"));

  // Serialize -> parse -> serialize is a fixed point.
  std::string serialized = FaultSpecToJson(*spec);
  auto reparsed = ParseFaultSpecJson(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(FaultSpecToJson(*reparsed), serialized);
}

TEST_F(FaultTest, SpecJsonIntegersAreExact) {
  FaultPoint p;
  p.point = "stream.score.window";
  p.at = UINT64_MAX;
  FaultSpec spec = SpecWith(p, UINT64_MAX);
  auto parsed = ParseFaultSpecJson(FaultSpecToJson(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->seed, UINT64_MAX);
  EXPECT_EQ(parsed->points[0].at, UINT64_MAX);
  auto odd = ParseFaultSpecJson("{\"seed\": 9007199254740993}");
  ASSERT_TRUE(odd.ok()) << odd.status();
  EXPECT_EQ(odd->seed, 9007199254740993u);  // Not ...992 via a double.

  // Fractions, exponents, signs and overflow are errors, never a cast.
  for (const char* bad :
       {"{\"seed\": 1e30}", "{\"seed\": 1e3}", "{\"seed\": -1}",
        "{\"seed\": -0}", "{\"seed\": 18446744073709551616}",
        "{\"points\": [{\"point\": \"p\", \"at\": 2.5}]}",
        "{\"points\": [{\"point\": \"p\", \"trigger\": \"every\", "
        "\"every\": 2.0}]}"}) {
    EXPECT_EQ(ParseFaultSpecJson(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST_F(FaultTest, SpecJsonRejectsUnknownKeysAndBadValues) {
  EXPECT_EQ(ParseFaultSpecJson("{\"sede\": 7}").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFaultSpecJson(
                "{\"points\": [{\"point\": \"p\", \"trigegr\": \"once\"}]}")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Structural validation happens at parse time too, not only at Arm.
  EXPECT_EQ(ParseFaultSpecJson(
                "{\"points\": [{\"point\": \"p\", \"trigger\": \"every\"}]}")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Escapes outside the supported set, raw control characters, and
  // non-JSON numbers are rejected; errors keep the fault-spec prefix.
  for (const char* bad :
       {"{\"points\": [{\"point\": \"a\\qb\"}]}",
        "{\"points\": [{\"point\": \"a\\u00e9\"}]}",
        "{\"points\": [{\"point\": \"a\\u00\"}]}",
        "{\"points\": [{\"point\": \"a\nb\"}]}",
        "{\"seed\": +7}", "{\"seed\": 07}", "{\"seed\": 7,}",
        "{\"seed\": 7} x", "{\"seed\": 7"}) {
    Status status = ParseFaultSpecJson(bad).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(status.message().rfind("fault spec JSON: ", 0), 0u)
        << status.message();
  }
}

// ---- The determinism contract, end to end through the pipeline.

dataframe::DataFrame TrendFrame(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-5.0, 5.0);
    y[i] = x[i] + rng.Gaussian(0.0, 0.1);
  }
  dataframe::DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  return df;
}

TEST_F(FaultTest, InjectionSitesAreThreadCountInvariant) {
  // Same (seed, spec): the pipeline quarantines exactly the same window
  // ordinals — and commits bitwise-identical survivor scores — at 1 and
  // 4 scoring threads. This is the fault analog of the pipeline's
  // serial-equivalence contract.
  dataframe::DataFrame reference = TrendFrame(300, 41);
  std::ostringstream csv;
  CCS_CHECK(dataframe::WriteCsv(TrendFrame(900, 42), csv).ok());

  FaultPoint p;
  p.point = "stream.score.window";
  p.trigger = "probability";
  p.probability = 0.3;

  auto run = [&](size_t threads) {
    CCS_CHECK(Injector::Global().Arm(SpecWith(p, /*seed=*/9)).ok());
    stream::StreamPipelineOptions options;
    options.window_rows = 30;
    options.chunk_rows = 17;
    options.max_batch_windows = threads == 1 ? 2 : 5;  // Vary batching too.
    options.num_threads = threads;
    options.score_policy.mode = stream::FailureMode::kQuarantine;
    auto pipeline = stream::StreamPipeline::Create(reference, options);
    CCS_CHECK(pipeline.ok()) << pipeline.status().ToString();
    std::istringstream in(csv.str());
    auto result = pipeline->Run(in);
    CCS_CHECK(result.ok()) << result.status.ToString();
    Injector::Global().Disarm();
    struct Outcome {
      std::vector<size_t> quarantined;
      std::vector<core::WindowScore> history;
      size_t faults;
    } outcome;
    for (const auto& record : result->quarantine) {
      outcome.quarantined.push_back(record.index);
    }
    outcome.history = pipeline->history();
    outcome.faults = result->faults_injected;
    return outcome;
  };

  auto serial = run(1);
  auto threaded = run(4);
  EXPECT_GT(serial.faults, 0u);  // The spec actually fired.
  EXPECT_EQ(serial.faults, threaded.faults);
  EXPECT_EQ(serial.quarantined, threaded.quarantined);
  ASSERT_EQ(serial.history.size(), threaded.history.size());
  for (size_t i = 0; i < serial.history.size(); ++i) {
    EXPECT_EQ(serial.history[i].window_index, threaded.history[i].window_index);
    EXPECT_EQ(serial.history[i].drift, threaded.history[i].drift)
        << "window " << i;
    EXPECT_EQ(serial.history[i].alarm, threaded.history[i].alarm);
  }
}

}  // namespace
}  // namespace ccs::common::fault
