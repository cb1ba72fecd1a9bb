// ScenarioRunner: drives the serving engine (and the baseline
// detectors) over a rendered scenario and emits a structured alarm
// trace.
//
// A trace is the scenario's observable behavior: one line per scored
// window (index, drift score, alarm bit), one line per reference
// refresh, one line per quarantined unit when the spec runs under a
// degrading failure policy (docs/robustness.md), a `degraded` summary
// line when any robustness counter is nonzero, and a terminal status
// line (clean end-of-stream or the structured teardown error a
// malformed stream produced). Scores are printed as raw IEEE-754 bits
// (NaN canonicalized to one quiet-NaN pattern — payloads are not
// stable across compilations, see docs/architecture.md) so golden
// comparison is bitwise, not approximate. The determinism contract
// makes the whole trace a pure function of (spec, seed) — fault
// injection included, since the injector's decisions are too:
// identical across reruns and across 1 vs 4 scoring threads, which
// tests/scenario_test.cc enforces and tests/golden/*.trace pin across
// PRs. Specs with no faults and fail-fast policies emit byte-identical
// traces to the pre-robustness format.

#ifndef CCS_SCENARIO_RUNNER_H_
#define CCS_SCENARIO_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/drift_detector.h"
#include "common/statusor.h"
#include "scenario/scenario.h"
#include "stream/supervisor.h"

namespace ccs::scenario {

/// One trace event: a scored window, a profile refresh, or a
/// commit-thread quarantine (score/refresh stages — the ones whose
/// records interleave deterministically with window commits).
struct TraceEvent {
  enum class Kind { kWindow, kRefresh, kQuarantine };
  Kind kind = Kind::kWindow;
  /// Window index for kWindow; windows-scored-so-far (the refresh
  /// boundary) for kRefresh; the stage-local unit ordinal for
  /// kQuarantine.
  size_t window_index = 0;
  double score = 0.0;
  bool alarm = false;
  /// kQuarantine only: which stage absorbed the unit, what it cost, why.
  std::string stage;
  size_t rows_lost = 0;
  StatusCode reason = StatusCode::kOk;
};

/// The structured alarm trace of one scenario run.
struct ScenarioTrace {
  std::string scenario;
  /// "ccsynth" for the conformance pipeline, else the baseline's name.
  std::string detector;
  uint64_t seed = 0;
  std::vector<TraceEvent> events;
  /// OK on clean end-of-stream; otherwise the structured teardown error
  /// (e.g. the CSV reader's malformed-row diagnosis). Part of the golden
  /// trace — error *behavior* is pinned too.
  Status terminal;
  size_t rows_ingested = 0;
  size_t windows_scored = 0;
  size_t alarms = 0;
  size_t refreshes = 0;
  /// Robustness counters, from PipelineStats (all zero — and absent from
  /// the text form — on a fail-fast, fault-free run).
  size_t rows_quarantined = 0;
  size_t windows_quarantined = 0;
  size_t retries = 0;
  size_t faults_injected = 0;
  /// Ingest quarantine records: they happen on whichever thread owns the
  /// reader, so they are printed as a block after the events rather
  /// than interleaved (their ordering is still deterministic).
  std::vector<stream::QuarantineRecord> stage_quarantine;

  /// Canonical text form (golden-file format, one event per line).
  /// Bitwise scores; NaN canonicalized. Two runs are "identical" iff
  /// their ToString outputs are byte-equal.
  std::string ToString() const;
};

/// Renders (spec, seed) and serves the stream through StreamPipeline /
/// StreamMonitor with `num_threads` scoring lanes. Returns the trace;
/// pipeline teardown errors land in trace.terminal, while errors that
/// mean the spec itself is unusable (unknown generator, bad monitor
/// geometry) are returned as statuses.
StatusOr<ScenarioTrace> RunScenario(const ScenarioSpec& spec, uint64_t seed,
                                    size_t num_threads = 1);

/// Same scenario, scored by a baseline detector (fit on the reference,
/// windows scored serially against AlarmSeries semantics: alarm iff
/// score > spec.alarm_threshold, NaN never alarms). Refresh events do
/// not occur (baselines have no refresh loop).
StatusOr<ScenarioTrace> RunBaseline(const ScenarioSpec& spec, uint64_t seed,
                                    baselines::DriftDetector* detector);

/// Byte-equality of the canonical text forms.
bool TracesIdentical(const ScenarioTrace& a, const ScenarioTrace& b);

}  // namespace ccs::scenario

#endif  // CCS_SCENARIO_RUNNER_H_
