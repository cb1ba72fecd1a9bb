// Per-stage failure policies for the supervised streaming pipeline.
//
// Fail-fast was the pipeline's only behavior before the robustness
// layer: the first stage error cancelled the run. A FailurePolicy lets
// the two stages that can fail on real data — ingest and commit — absorb
// a failure (quarantine-and-continue) or re-attempt a transient one
// (bounded, immediate retry), so one malformed record, a refresh that
// cannot synthesize, or an injected fault no longer kills a monitor that
// should degrade gracefully. Windowing has no policy: any window error
// ends the run.
//
// Retry semantics: only StatusCode::kUnavailable is re-attempted — it
// marks failures whose retry can succeed (injected transients, flaky
// IO). A parse error is never retried: the CsvChunkReader has already
// consumed the malformed record, so "retrying" would silently skip
// data; such errors go straight to the policy's terminal decision
// (quarantine or fail). A retry follows its failed attempt at once and
// reads no clock, so the supervised outcome sequence is a pure function
// of the stream and the armed fault spec at any thread count.

#ifndef CCS_STREAM_SUPERVISOR_H_
#define CCS_STREAM_SUPERVISOR_H_

#include <cstddef>
#include <functional>
#include <string>

#include "common/statusor.h"

namespace ccs::stream {

/// What a stage does with a failure that survives its retry budget.
enum class FailureMode {
  /// Propagate the error and cancel the run (the pre-robustness
  /// behavior, and the default).
  kFailFast,
  /// Record the failed unit (row, window, or refresh) in the quarantine
  /// channel and keep serving.
  kQuarantine,
};

/// One pipeline stage's failure policy.
struct FailurePolicy {
  FailureMode mode = FailureMode::kFailFast;
  /// Re-attempts for transient (kUnavailable) failures, on top of the
  /// first attempt.
  size_t max_retries = 0;

  /// Parses the CLI / scenario-spec string form:
  ///   "fail-fast"          | "quarantine"
  ///   "retry:N"            retry N times, then fail fast
  ///   "retry:N+quarantine" retry N times, then quarantine
  /// InvalidArgument on anything else.
  static StatusOr<FailurePolicy> Parse(const std::string& text);

  /// The inverse of Parse (round-trips exactly).
  std::string ToString() const;
};

/// One quarantined unit of work, with its structured reason. Collected
/// into PipelineStats::quarantine and mirrored into obs::Registry
/// counters.
struct QuarantineRecord {
  /// "ingest" | "score" | "refresh".
  std::string stage;
  /// Stage-local ordinal of the failed unit: good-rows-read for ingest,
  /// consumed-window ordinal for score, the refresh boundary for
  /// refresh. Deterministic — each stage's ordinal advances in stream
  /// order only.
  size_t index = 0;
  /// Data rows lost with the unit (0 when the failure consumed none,
  /// e.g. an injected fault before the read).
  size_t rows_lost = 0;
  /// The failure that sent the unit here.
  Status reason;
};

/// Outcome of one supervised operation.
enum class SuperviseAction {
  kProceed,     ///< The operation succeeded (possibly after retries).
  kQuarantine,  ///< Persistently failed; the policy absorbed it.
  kFail,        ///< Persistently failed; the policy propagates it.
};

struct SuperviseResult {
  SuperviseAction action = SuperviseAction::kProceed;
  /// The persistent failure for kQuarantine/kFail; OK for kProceed.
  Status status;
  /// Retries consumed (for the `retries` counter).
  size_t retries = 0;
};

/// Runs `attempt` under `policy`: up to 1 + max_retries attempts,
/// re-attempting only transient (kUnavailable) failures, each at once.
SuperviseResult Supervise(const FailurePolicy& policy,
                          const std::function<Status()>& attempt);

}  // namespace ccs::stream

#endif  // CCS_STREAM_SUPERVISOR_H_
