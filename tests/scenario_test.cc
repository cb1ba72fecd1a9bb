// Scenario gauntlet tests: catalogue coverage, byte-replayable
// rendering, bitwise trace determinism (reruns, 1 vs 4 threads, chunk
// sizing), spec JSON round-trips, and the checked-in golden alarm
// traces under tests/golden/ that pin every scenario's observable
// behavior across PRs (regenerate with
// `ccsynth gauntlet --update-golden tests/golden`).

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "kernel_isa_fixture.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace ccs::scenario {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(CCS_GOLDEN_DIR) + "/" + name + ".trace";
}

// Reads a golden trace; empty optional-style "" means missing.
bool ReadGolden(const std::string& name, std::string* out) {
  std::ifstream in(GoldenPath(name));
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// ------------------------------ catalogue ------------------------------

TEST(ScenarioCatalogueTest, EnumeratesTheRequiredCoverage) {
  const std::vector<std::string>& names = CatalogueNames();
  EXPECT_GE(names.size(), 8u);
  std::set<std::string> set(names.begin(), names.end());
  // The acceptance floor: drift, schema evolution, cardinality blow-up,
  // NaN/Inf, duplicates, reordering.
  for (const char* required :
       {"abrupt-drift", "gradual-drift", "recurring-drift",
        "schema-add-column", "schema-drop-column", "cardinality-blowup",
        "nan-burst", "inf-burst", "duplicate-flood", "reordered",
        "short-stream", "empty-stream"}) {
    EXPECT_TRUE(set.count(required)) << "catalogue lost " << required;
  }
}

TEST(ScenarioCatalogueTest, EveryNameResolvesAndRenders) {
  for (const std::string& name : CatalogueNames()) {
    auto spec = CatalogueSpec(name);
    ASSERT_TRUE(spec.ok()) << name << ": " << spec.status();
    EXPECT_EQ(spec->name, name);
    auto rendered = Render(*spec, /*seed=*/1);
    ASSERT_TRUE(rendered.ok()) << name << ": " << rendered.status();
    EXPECT_GT(rendered->reference.num_rows(), 0u) << name;
  }
}

TEST(ScenarioCatalogueTest, UnknownNameIsNotFound) {
  auto spec = CatalogueSpec("no-such-scenario");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
}

TEST(ScenarioCatalogueTest, ScaleMultipliesGeometry) {
  auto base = CatalogueSpec("abrupt-drift", 1);
  auto scaled = CatalogueSpec("abrupt-drift", 3);
  ASSERT_TRUE(base.ok() && scaled.ok());
  EXPECT_EQ(scaled->stream_rows, 3 * base->stream_rows);
  EXPECT_EQ(scaled->window_rows, 3 * base->window_rows);
  ASSERT_EQ(scaled->stages.size(), base->stages.size());
  EXPECT_EQ(scaled->stages[0].begin_row, 3 * base->stages[0].begin_row);
}

// ------------------------------ rendering ------------------------------

TEST(ScenarioRenderTest, ByteReplayableAndSeedSensitive) {
  auto spec = CatalogueSpec("reordered");
  ASSERT_TRUE(spec.ok());
  auto a = Render(*spec, 42);
  auto b = Render(*spec, 42);
  auto c = Render(*spec, 43);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->stream.ToCsv(), b->stream.ToCsv());
  EXPECT_NE(a->stream.ToCsv(), c->stream.ToCsv());
  // Reference replays bitwise too.
  ASSERT_EQ(a->reference.num_rows(), b->reference.num_rows());
  for (size_t r = 0; r < a->reference.num_rows(); ++r) {
    EXPECT_EQ(a->reference.NumericValue(r, "x").value(),
              b->reference.NumericValue(r, "x").value());
  }
}

TEST(ScenarioRenderTest, AppendingAStageDoesNotReseedEarlierOnes) {
  auto base = CatalogueSpec("abrupt-drift");
  ASSERT_TRUE(base.ok());
  ScenarioSpec extended = *base;
  StageSpec extra;
  extra.kind = "reorder";
  extra.begin_row = extended.stream_rows;  // Empty range: no visible effect,
  extra.end_row = extended.stream_rows;    // but it owns a fresh seed stream.
  extended.stages.push_back(extra);
  auto a = Render(*base, 7);
  auto b = Render(extended, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->stream.ToCsv(), b->stream.ToCsv());
}

TEST(ScenarioRenderTest, MissingStageColumnFailsTheRender) {
  auto spec = CatalogueSpec("abrupt-drift");
  ASSERT_TRUE(spec.ok());
  spec->stages[0].column = "no-such-column";
  auto rendered = Render(*spec, 1);
  ASSERT_FALSE(rendered.ok());
  EXPECT_EQ(rendered.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScenarioRenderTest, UnknownGeneratorAndKindAreErrors) {
  ScenarioSpec spec;
  spec.generator = "no-such-generator";
  EXPECT_FALSE(Render(spec, 1).ok());
  spec.generator = "trend";
  StageSpec stage;
  stage.kind = "no-such-kind";
  spec.stages = {stage};
  EXPECT_FALSE(Render(spec, 1).ok());
  spec.generator = "evl:not-a-dataset";
  spec.stages.clear();
  EXPECT_FALSE(Render(spec, 1).ok());
}

TEST(ScenarioRenderTest, CsvQuotesHostileCells) {
  RawStream stream;
  stream.header = {"a", "b"};
  stream.rows = {{"plain", "with,comma"}, {"with\"quote", "with\nnewline"}};
  EXPECT_EQ(stream.ToCsv(),
            "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",\"with\nnewline\"\n");
}

// ------------------------------- traces --------------------------------

TEST(ScenarioTraceTest, ReplayIsBitwiseIdentical) {
  for (const char* name : {"abrupt-drift", "nan-burst", "cardinality-blowup"}) {
    auto spec = CatalogueSpec(name);
    ASSERT_TRUE(spec.ok());
    auto a = RunScenario(*spec, 1, 1);
    auto b = RunScenario(*spec, 1, 1);
    ASSERT_TRUE(a.ok() && b.ok()) << name;
    EXPECT_TRUE(TracesIdentical(*a, *b)) << name;
  }
}

TEST(ScenarioTraceTest, OneVsFourThreadsIsBitwiseIdentical) {
  // Covers a clean drift run, a refresh cadence, a mid-stream teardown,
  // and a degenerate empty stream — the determinism contract
  // (docs/architecture.md) at the whole-trace level.
  for (const char* name :
       {"abrupt-drift", "cardio-onset", "garbled-cell", "empty-stream"}) {
    auto spec = CatalogueSpec(name);
    ASSERT_TRUE(spec.ok());
    auto serial = RunScenario(*spec, 1, 1);
    auto threaded = RunScenario(*spec, 1, 4);
    ASSERT_TRUE(serial.ok() && threaded.ok()) << name;
    EXPECT_TRUE(TracesIdentical(*serial, *threaded))
        << name << "\n-- 1 thread --\n"
        << serial->ToString() << "-- 4 threads --\n"
        << threaded->ToString();
  }
}

TEST(ScenarioTraceTest, TeardownIsChunkSizeIndependent) {
  // The CsvChunkReader delivers every good row before surfacing a
  // malformed-row error, so the committed windows and the terminal
  // status cannot depend on where chunk boundaries fall.
  auto spec = CatalogueSpec("nan-burst");
  ASSERT_TRUE(spec.ok());
  ScenarioSpec small = *spec, big = *spec;
  small.chunk_rows = 7;
  big.chunk_rows = 512;
  auto a = RunScenario(small, 1, 1);
  auto b = RunScenario(big, 1, 1);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->events.size(), b->events.size());
  EXPECT_EQ(a->terminal.ToString(), b->terminal.ToString());
  EXPECT_EQ(a->windows_scored, b->windows_scored);
  for (size_t i = 0; i < a->events.size(); ++i) {
    EXPECT_EQ(a->events[i].score, b->events[i].score) << i;
  }
}

TEST(ScenarioTraceTest, MalformedStreamsTearDownWithStructuredErrors) {
  struct Case {
    const char* name;
    const char* needle;  // Substring the structured error must carry.
  };
  for (const Case& c : {Case{"nan-burst", "column 'y'"},
                        Case{"garbled-cell", "column 'x'"},
                        Case{"schema-add-column", "fields, expected"},
                        Case{"schema-drop-column", "fields, expected"}}) {
    auto spec = CatalogueSpec(c.name);
    ASSERT_TRUE(spec.ok());
    auto trace = RunScenario(*spec, 1, 1);
    ASSERT_TRUE(trace.ok()) << c.name;
    EXPECT_EQ(trace->terminal.code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_NE(trace->terminal.message().find(c.needle), std::string::npos)
        << c.name << ": " << trace->terminal.message();
    EXPECT_NE(trace->terminal.message().find("line "), std::string::npos)
        << c.name << " should report the physical line";
    // The good prefix was scored before teardown.
    EXPECT_GT(trace->windows_scored, 0u) << c.name;
  }
}

TEST(ScenarioTraceTest, RefreshEventsLandAtTheCadence) {
  auto spec = CatalogueSpec("cardinality-blowup");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->refresh_every, 4u);
  auto trace = RunScenario(*spec, 1, 1);
  ASSERT_TRUE(trace.ok());
  size_t refreshes = 0;
  for (const TraceEvent& e : trace->events) {
    if (e.kind != TraceEvent::Kind::kRefresh) continue;
    ++refreshes;
    EXPECT_EQ(e.window_index % 4, 0u);
  }
  EXPECT_EQ(refreshes, trace->refreshes);
  EXPECT_GT(refreshes, 0u);
}

TEST(ScenarioTraceTest, NonFiniteRefreshIsQuarantinedAtAnyLaneCount) {
  // Fuzz draw 33: an inf burst lands in the streaming Gram sum, so every
  // refresh after it fails with InvalidArgument. The score policy
  // quarantines each failing boundary and scoring continues on the last
  // good profile, identically at 1 and 4 lanes.
  auto spec = ParseSpecJson(R"({
  "name": "fuzz",
  "generator": "trend",
  "reference_rows": 273,
  "stream_rows": 692,
  "window_rows": 28,
  "slide_rows": 0,
  "alarm_threshold": 0.2291013125,
  "refresh_every": 4,
  "chunk_rows": 96,
  "score_policy": "retry:1+quarantine",
  "stages": [
    {"kind": "abrupt-drift", "column": "x", "magnitude": 3.950702763, "fraction": 0.5862223488, "begin_row": 511, "end_row": 575, "period": 92},
    {"kind": "inf-burst", "column": "x", "magnitude": 7.393076563, "fraction": 0.4843825259, "begin_row": 378, "end_row": 489, "period": 54},
    {"kind": "garble", "column": "x", "magnitude": 4.540689754, "fraction": 0.8028605647, "begin_row": 585, "end_row": 937, "period": 122}
  ],
  "faults": [
    {"point": "stream.score.window", "trigger": "every", "every": 8}
  ]
})");
  ASSERT_TRUE(spec.ok()) << spec.status();
  auto serial = RunScenario(*spec, 33, 1);
  auto threaded = RunScenario(*spec, 33, 4);
  ASSERT_TRUE(serial.ok() && threaded.ok());
  EXPECT_TRUE(TracesIdentical(*serial, *threaded))
      << "-- 1 thread --\n"
      << serial->ToString() << "-- 4 threads --\n"
      << threaded->ToString();
  size_t refresh_quarantines = 0;
  for (const TraceEvent& e : serial->events) {
    if (e.kind != TraceEvent::Kind::kQuarantine) continue;
    EXPECT_EQ(e.stage, "refresh");
    EXPECT_EQ(e.reason, StatusCode::kInvalidArgument);
    ++refresh_quarantines;
  }
  EXPECT_GT(refresh_quarantines, 0u);
  // Scoring went on past the first failing boundary.
  EXPECT_GT(serial->windows_scored, 16u);
}

// ---------------------------- golden traces ----------------------------

// Every catalogue scenario's alarm trace is pinned byte-for-byte, under
// each compiled kernel instance the host can run (the instances agree on
// every non-NaN bit, and scores carry no NaN). A mismatch here is trace
// drift: if intentional, regenerate via
//   ./build/ccsynth gauntlet --update-golden tests/golden
// and commit the diff (workflow: docs/scenarios.md).
class ScenarioGoldenTest : public testutil::KernelIsaTest {};
INSTANTIATE_TEST_SUITE_P(Isa, ScenarioGoldenTest,
                         testutil::AllKernelIsas(),
                         testutil::KernelIsaTestName);

TEST_P(ScenarioGoldenTest, CatalogueTracesMatchCheckedInGoldens) {
  for (const std::string& name : CatalogueNames()) {
    auto spec = CatalogueSpec(name);
    ASSERT_TRUE(spec.ok()) << name;
    auto trace = RunScenario(*spec, /*seed=*/1, /*num_threads=*/1);
    ASSERT_TRUE(trace.ok()) << name << ": " << trace.status();
    std::string golden;
    ASSERT_TRUE(ReadGolden(name, &golden))
        << "missing golden " << GoldenPath(name)
        << " — regenerate with: ccsynth gauntlet --update-golden tests/golden";
    EXPECT_EQ(trace->ToString(), golden)
        << name << ": trace drifted from " << GoldenPath(name)
        << " — if intended, regenerate with: ccsynth gauntlet "
           "--update-golden tests/golden";
  }
}

// ------------------------------ spec JSON ------------------------------

TEST(ScenarioJsonTest, RoundTripsExactly) {
  auto spec = CatalogueSpec("reordered");
  ASSERT_TRUE(spec.ok());
  std::string json = SpecToJson(*spec);
  auto parsed = ParseSpecJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << json;
  EXPECT_EQ(SpecToJson(*parsed), json);
  // And the round-tripped spec renders identically.
  auto a = Render(*spec, 5);
  auto b = Render(*parsed, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->stream.ToCsv(), b->stream.ToCsv());

  // Strings that need escaping come back byte for byte.
  common::fault::FaultPoint fault;
  fault.point = "stream.score.window";
  fault.message = "line\none\ttab \"quoted\" back\\slash \x01";
  spec->name = "a\"b";
  spec->faults = {fault};
  json = SpecToJson(*spec);
  parsed = ParseSpecJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << json;
  EXPECT_EQ(parsed->name, spec->name);
  ASSERT_EQ(parsed->faults.size(), 1u);
  EXPECT_EQ(parsed->faults[0].message, fault.message);
  EXPECT_EQ(SpecToJson(*parsed), json);
}

TEST(ScenarioJsonTest, FuzzDrawsRoundTrip) {
  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    ScenarioSpec spec = RandomSpec(&rng);
    auto parsed = ParseSpecJson(SpecToJson(spec));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(SpecToJson(*parsed), SpecToJson(spec));
  }
}

TEST(ScenarioJsonTest, RejectsUnknownKeysAndGarbage) {
  EXPECT_FALSE(ParseSpecJson("{\"no_such_key\": 1}").ok());
  // The window stage has no policy to set.
  EXPECT_FALSE(ParseSpecJson("{\"window_policy\": \"quarantine\"}").ok());
  EXPECT_FALSE(ParseSpecJson("{\"stages\": [{\"bogus\": 1}]}").ok());
  EXPECT_FALSE(ParseSpecJson("not json at all").ok());
  EXPECT_FALSE(ParseSpecJson("{\"name\": \"x\"} trailing").ok());
  EXPECT_FALSE(ParseSpecJson("{\"stream_rows\": -5}").ok());
  // Row counts are exact integers: no fraction, exponent or overflow.
  EXPECT_FALSE(ParseSpecJson("{\"stream_rows\": 2.5}").ok());
  EXPECT_FALSE(ParseSpecJson("{\"chunk_rows\": 1e2}").ok());
  EXPECT_FALSE(
      ParseSpecJson("{\"stages\": [{\"period\": 18446744073709551616}]}")
          .ok());
  EXPECT_FALSE(ParseSpecJson("{\"faults\": [{\"bogus\": 1}]}").ok());
  EXPECT_FALSE(ParseSpecJson("{\"name\": \"a\\xb\"}").ok());
  auto ok = ParseSpecJson("{\"name\": \"x\", \"stream_rows\": 100}");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->stream_rows, 100u);
  EXPECT_EQ(ok->generator, "trend");  // Defaults survive.
}

}  // namespace
}  // namespace ccs::scenario
