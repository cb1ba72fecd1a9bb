#include "scenario/runner.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>

#include "common/fault.h"
#include "common/string_util.h"
#include "dataframe/csv.h"
#include "stream/pipeline.h"
#include "obs/trace.h"
#include "stream/windower.h"

namespace ccs::scenario {

using dataframe::DataFrame;

namespace {

std::string ScoreHuman(double score) {
  if (std::isnan(score)) return "nan";
  return FormatDouble(score);
}

bool AlarmAt(double score, double threshold) {
  // Strict >, and NaN never alarms — the AlarmSeries contract
  // (baselines/drift_detector.h).
  return score > threshold;
}

// Injector seed for a run: a fixed mix of the master seed, disjoint
// from the render streams (scenario.cc mixes streams 0, 1, 2+i off the
// same master; fault.cc re-mixes per point, so a plain XOR suffices
// here). Fixed forever — fault-scenario goldens depend on it.
uint64_t FaultSeed(uint64_t seed) { return seed ^ 0x9E3779B97F4A7C15ull; }

// Disarms the global fault injector when the run leaves scope, error
// paths included — a leaked armed spec would inject into the next run.
class ArmedFaultsGuard {
 public:
  explicit ArmedFaultsGuard(bool armed) : armed_(armed) {}
  ~ArmedFaultsGuard() {
    if (armed_) common::fault::Injector::Global().Disarm();
  }
  ArmedFaultsGuard(const ArmedFaultsGuard&) = delete;
  ArmedFaultsGuard& operator=(const ArmedFaultsGuard&) = delete;

 private:
  bool armed_;
};

std::string QuarantineLine(const std::string& stage, size_t index,
                           size_t rows_lost, StatusCode reason) {
  return "quarantine stage=" + stage + " index=" + std::to_string(index) +
         " rows=" + std::to_string(rows_lost) +
         " reason=" + StatusCodeToString(reason) + "\n";
}

}  // namespace

std::string ScenarioTrace::ToString() const {
  std::string out = "gauntlet-trace v1\n";
  out += "scenario=" + scenario + " detector=" + detector +
         " seed=" + std::to_string(seed) + "\n";
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEvent::Kind::kRefresh) {
      out += "refresh windows=" + std::to_string(e.window_index) + "\n";
      continue;
    }
    if (e.kind == TraceEvent::Kind::kQuarantine) {
      out += QuarantineLine(e.stage, e.window_index, e.rows_lost, e.reason);
      continue;
    }
    // Raw bits with NaN canonicalized to one quiet-NaN pattern: NaN
    // *payloads* are not stable across separate compilations of FP
    // kernels (observed on GCC — docs/architecture.md), but NaN-ness is.
    const double canonical =
        std::isnan(e.score) ? std::numeric_limits<double>::quiet_NaN()
                            : e.score;
    out += "window " + std::to_string(e.window_index) +
           " score=" + HexBits(DoubleBits(canonical)) + " (" +
           ScoreHuman(e.score) + ") alarm=" + (e.alarm ? "1" : "0") + "\n";
  }
  for (const stream::QuarantineRecord& q : stage_quarantine) {
    out += QuarantineLine(q.stage, q.index, q.rows_lost, q.reason.code());
  }
  // Only degraded runs carry the summary line, so fault-free traces stay
  // byte-identical to the pre-robustness format.
  if (rows_quarantined != 0 || windows_quarantined != 0 || retries != 0 ||
      faults_injected != 0) {
    out += "degraded rows_quarantined=" + std::to_string(rows_quarantined) +
           " windows_quarantined=" + std::to_string(windows_quarantined) +
           " retries=" + std::to_string(retries) +
           " faults_injected=" + std::to_string(faults_injected) + "\n";
  }
  out += "end status=" + terminal.ToString() +
         " rows=" + std::to_string(rows_ingested) +
         " windows=" + std::to_string(windows_scored) +
         " alarms=" + std::to_string(alarms) +
         " refreshes=" + std::to_string(refreshes) + "\n";
  return out;
}

StatusOr<ScenarioTrace> RunScenario(const ScenarioSpec& spec, uint64_t seed,
                                    size_t num_threads) {
  // spec.name outlives the scope; the span copies it at close.
  obs::ObsSpan span(spec.name.c_str(), "scenario");
  CCS_ASSIGN_OR_RETURN(RenderedScenario rendered, Render(spec, seed));

  ScenarioTrace trace;
  trace.scenario = spec.name;
  trace.detector = "ccsynth";
  trace.seed = seed;

  stream::StreamPipelineOptions options;
  options.window_rows = spec.window_rows;
  options.slide_rows = spec.slide_rows;
  options.alarm_threshold = spec.alarm_threshold;
  options.refresh_every = spec.refresh_every;
  options.num_threads = num_threads;
  options.chunk_rows = spec.chunk_rows;
  // A policy string that does not parse means the spec itself is
  // unusable — a harness error, not trace behavior.
  if (!spec.ingest_policy.empty()) {
    CCS_ASSIGN_OR_RETURN(options.ingest_policy,
                         stream::FailurePolicy::Parse(spec.ingest_policy));
  }
  if (!spec.score_policy.empty()) {
    CCS_ASSIGN_OR_RETURN(options.score_policy,
                         stream::FailurePolicy::Parse(spec.score_policy));
  }
  // All three callbacks run on the calling thread, in commit order.
  options.on_refresh = [&trace](size_t windows_scored) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kRefresh;
    e.window_index = windows_scored;
    trace.events.push_back(e);
    ++trace.refreshes;
  };
  options.on_quarantine = [&trace](const stream::QuarantineRecord& record) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kQuarantine;
    e.window_index = record.index;
    e.stage = record.stage;
    e.rows_lost = record.rows_lost;
    e.reason = record.reason.code();
    trace.events.push_back(e);
  };

  CCS_ASSIGN_OR_RETURN(
      stream::StreamPipeline pipeline,
      stream::StreamPipeline::Create(rendered.reference, options));

  if (!spec.faults.empty()) {
    common::fault::FaultSpec fault_spec;
    fault_spec.seed = FaultSeed(seed);
    fault_spec.points = spec.faults;
    CCS_RETURN_IF_ERROR(
        common::fault::Injector::Global().Arm(std::move(fault_spec)));
  }
  ArmedFaultsGuard fault_guard(!spec.faults.empty());

  std::istringstream in(rendered.stream.ToCsv());
  stream::PipelineRunResult result =
      pipeline.Run(in, [&trace](const core::WindowScore& score) {
        TraceEvent e;
        e.kind = TraceEvent::Kind::kWindow;
        e.window_index = score.window_index;
        e.score = score.drift;
        e.alarm = score.alarm;
        trace.events.push_back(e);
        ++trace.windows_scored;
        if (score.alarm) ++trace.alarms;
      });
  trace.rows_quarantined = result->rows_quarantined;
  trace.windows_quarantined = result->windows_quarantined;
  trace.retries = result->retries;
  trace.faults_injected = result->faults_injected;
  for (const stream::QuarantineRecord& record : result->quarantine) {
    if (record.stage == "ingest") {
      trace.stage_quarantine.push_back(record);
    }
  }
  if (result.ok()) {
    trace.rows_ingested = result->rows_ingested;
  } else {
    // Teardown error: the windows committed before it are part of the
    // trace. The partial stats are available now (PipelineRunResult),
    // but rows stays 0 on error terminals — existing goldens pin that —
    // and the degraded line carries the robustness counters instead.
    trace.terminal = result.status;
  }
  return trace;
}

StatusOr<ScenarioTrace> RunBaseline(const ScenarioSpec& spec, uint64_t seed,
                                    baselines::DriftDetector* detector) {
  CCS_ASSIGN_OR_RETURN(RenderedScenario rendered, Render(spec, seed));
  CCS_RETURN_IF_ERROR(detector->Fit(rendered.reference));

  ScenarioTrace trace;
  trace.scenario = spec.name;
  trace.detector = detector->name();
  trace.seed = seed;

  // Serial equivalent of the pipeline's ingest -> window loop (same
  // CsvChunkReader + Windower, so malformed streams tear down with the
  // identical structured error).
  std::istringstream in(rendered.stream.ToCsv());
  dataframe::CsvChunkReader reader(&in, rendered.reference.schema());
  CCS_ASSIGN_OR_RETURN(
      stream::Windower windower,
      stream::Windower::Create(spec.window_rows, spec.slide_rows));
  const size_t chunk_rows = spec.chunk_rows == 0 ? 1 : spec.chunk_rows;
  for (;;) {
    StatusOr<DataFrame> chunk = reader.ReadChunk(chunk_rows);
    if (!chunk.ok()) {
      trace.terminal = chunk.status();
      break;
    }
    if (chunk->num_rows() == 0) break;  // End of stream.
    trace.rows_ingested += chunk->num_rows();
    StatusOr<std::vector<DataFrame>> windows = windower.Push(*chunk);
    if (!windows.ok()) {
      trace.terminal = windows.status();
      break;
    }
    for (const DataFrame& window : *windows) {
      StatusOr<double> score = detector->Score(window);
      if (!score.ok()) {
        trace.terminal = score.status();
        return trace;
      }
      TraceEvent e;
      e.kind = TraceEvent::Kind::kWindow;
      e.window_index = trace.windows_scored;
      e.score = *score;
      e.alarm = AlarmAt(*score, spec.alarm_threshold);
      trace.events.push_back(e);
      ++trace.windows_scored;
      if (e.alarm) ++trace.alarms;
    }
  }
  return trace;
}

bool TracesIdentical(const ScenarioTrace& a, const ScenarioTrace& b) {
  return a.ToString() == b.ToString();
}

}  // namespace ccs::scenario
