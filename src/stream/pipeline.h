// StreamPipeline: the end-to-end streaming-serving engine.
//
// Two concurrent stages connected by one bounded queue (blocking push =
// backpressure, so a fast parser can never buffer an unbounded stream):
//
//   ingest (thread)     CsvChunkReader parses schema-shaped row chunks
//   (+ pool)            (records located serially, converted in row
//                       blocks on the pool lanes, committed in row order)
//      │  BoundedQueue<DataFrame>
//   windowing, scoring  the calling thread pops each chunk and windows
//   + commit            it (Windower: tumbling/sliding windows), then
//   (caller + pool)     scores the pending windows in batches, each row
//                       once (a sliding window scores only the rows it
//                       adds and reuses the violations of the rows it
//                       shares with the previous window; fanned out over
//                       common::ParallelFor's pool lanes), and commits
//                       WindowScores strictly in arrival order; every
//                       `refresh_every` windows it folds the scored rows
//                       into an IncrementalSynthesizer and swaps the
//                       reference profile (§4.3.2 streaming Gram sum).
//
// A chunk crosses one thread boundary on its way to a verdict, and a
// window none: the calling thread blocks on the chunk queue only when no
// completed window is pending.
//
// Each stage runs under a FailurePolicy (stream/supervisor.h): fail-fast
// (the default, and the only pre-robustness behavior), bounded retry of
// transient failures, or quarantine-and-continue — failed units are
// recorded in PipelineStats::quarantine with structured reasons instead
// of killing the run. CCS_FAULT_POINT sites (common/fault.h) in every
// stage loop let tests and the scenario gauntlet inject deterministic
// failures through exactly these paths.
//
// Determinism: window contents depend only on the row stream (Windower),
// per-row violations are pure functions of (profile, row), a window's
// score is their Vector::Mean in row order however many were reused
// from the previous window, batches never span a refresh boundary, and
// refreshes happen at fixed window indices with rows ingested in window
// order — so the committed WindowScore history is bitwise identical to
// a serial ObserveWindow loop with the same refresh cadence, at any
// thread count (see docs/streaming.md and the equivalence tests in
// tests/stream_test.cc).
// Supervision preserves this: each stage's quarantine decisions depend
// only on its own deterministic unit ordinals, and checkpoint-resume
// (stream/checkpoint.h, docs/robustness.md) extends the contract to
// recovery — a resumed run's alarm trace is bitwise identical to the
// uninterrupted run from the checkpoint boundary on.

#ifndef CCS_STREAM_PIPELINE_H_
#define CCS_STREAM_PIPELINE_H_

#include <atomic>
#include <functional>
#include <istream>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/monitor.h"
#include "core/synthesizer.h"
#include "dataframe/csv.h"
#include "dataframe/dataframe.h"
#include "linalg/vector.h"
#include "stream/checkpoint.h"
#include "stream/supervisor.h"
#include "stream/windower.h"

namespace ccs::stream {

/// Tuning knobs for StreamPipeline.
struct StreamPipelineOptions {
  /// Rows per scored window.
  size_t window_rows = 256;
  /// Rows the window advances per step; 0 = tumbling (= window_rows).
  size_t slide_rows = 0;
  /// Windows scoring above this raise an alarm (in [0, 1]).
  double alarm_threshold = 0.05;
  /// Swap the reference profile after every this many windows; 0 never
  /// refreshes (the profile stays the one learned from the reference).
  size_t refresh_every = 0;
  /// Lanes for the batch scorer and for ingest's row-block conversion
  /// (CsvChunkReader::ReadChunk); 0 = DefaultThreadCount(), 1 keeps the
  /// whole run off the pool. Never changes the scores, only the wall
  /// clock.
  size_t num_threads = 0;
  /// Rows per ingest chunk (parse granularity, not window geometry).
  size_t chunk_rows = 1024;
  /// Capacity of the chunk queue between ingest and the calling thread,
  /// in chunks. This bounds how far ingest can run ahead of scoring.
  size_t queue_capacity = 4;
  /// Upper bound on windows scored per batch (one parallel scoring pass).
  size_t max_batch_windows = 32;
  /// Constraint-synthesis configuration for the reference profile and
  /// its refreshes.
  core::SynthesisOptions synthesis;
  /// Invoked on the calling thread immediately after each reference
  /// refresh, with the number of windows scored so far (the refresh
  /// boundary index). Refreshes happen at fixed window indices, so the
  /// callback sequence is deterministic at any thread count — the
  /// scenario gauntlet records it in alarm traces.
  std::function<void(size_t windows_scored)> on_refresh;

  // ---- Robustness (docs/robustness.md). All default to the strict
  // pre-robustness behavior: fail fast, no checkpoints, run to EOF.

  /// Failure policy for the ingest stage. Quarantine absorbs malformed
  /// records (the CsvChunkReader has already consumed them, so exactly
  /// one data row is lost per quarantined parse error).
  FailurePolicy ingest_policy;
  /// Failure policy for the windowing stage. Quarantine drops the whole
  /// failed chunk — incompatible with checkpointing (a dropped chunk
  /// breaks the rows-per-window equation resume depends on; Create
  /// rejects the combination).
  FailurePolicy window_policy;
  /// Failure policy for scoring, reference refresh, and the per-window
  /// fault gate on the commit thread. Quarantined windows are consumed
  /// from the stream but never scored (the history skips them);
  /// a quarantined refresh defers the profile swap one full cadence
  /// period.
  FailurePolicy score_policy;
  /// Invoked on the calling thread, in deterministic commit order, for
  /// every quarantined unit of the commit stage ("score" and "refresh"
  /// records only: ingest quarantines happen on the ingest thread and
  /// interleave nondeterministically with commits, and "window" records
  /// are kept beside them, so both are only collected into
  /// PipelineStats::quarantine).
  std::function<void(const QuarantineRecord&)> on_quarantine;

  /// Checkpoint file path; empty disables checkpointing.
  std::string checkpoint_path;
  /// Write a checkpoint after every this many consumed windows. 0 with a
  /// checkpoint_path writes only the final checkpoint at end of run.
  size_t checkpoint_every = 0;

  /// Graceful-shutdown flag (not owned; may be null). When it becomes
  /// true, ingest treats the stream as ended: buffered chunks are still
  /// windowed, completed windows are still scored and committed, the
  /// final checkpoint is still written — the run drains rather than
  /// aborts, and PipelineStats::stopped records that it was cut short.
  const std::atomic<bool>* stop = nullptr;
};

/// Counters describing one Run (all zero on a stream with no windows).
struct PipelineStats {
  size_t rows_ingested = 0;
  size_t windows_scored = 0;
  /// Rows whose violation was computed for a committed window: all of
  /// a window that starts a chain, only the `slide` rows it adds when it
  /// chains onto the previous window (score-once).
  size_t rows_scored = 0;
  size_t alarms = 0;
  size_t refreshes = 0;
  /// High-water mark of the chunk queue: how deep backpressure buffered.
  size_t chunk_queue_peak = 0;
  /// High-water mark of the windows pending on the calling thread:
  /// windowed, not yet taken into a scoring batch.
  size_t window_queue_peak = 0;
  /// Windower allocation telemetry for this Run (see stream/windower.h):
  /// rows copied into emitted windows (the whole per-emit cost; 0 for a
  /// tumbling window emitted as its chunk), rolling buffer growth
  /// events, and the final rolling-buffer capacity. A
  /// steady-state stream reallocates a handful of times up front and
  /// then never again — `ccsynth monitor --stats` surfaces these.
  size_t window_rows_copied = 0;
  size_t window_buffer_reallocs = 0;
  size_t window_buffer_capacity_rows = 0;
  double elapsed_seconds = 0.0;
  /// rows_ingested / elapsed_seconds.
  double rows_per_second = 0.0;

  // ---- Robustness counters (mirrored into obs::Registry as
  // stream.rows_quarantined / stream.degraded_windows / stream.retries /
  // stream.faults_injected).

  /// Data rows lost across all quarantined units (sum of
  /// QuarantineRecord::rows_lost).
  size_t rows_quarantined = 0;
  /// Windows consumed from the stream but never scored ("score"-stage
  /// quarantines).
  size_t windows_quarantined = 0;
  /// Retry attempts consumed across all supervised stages.
  size_t retries = 0;
  /// Faults the armed Injector fired during this Run.
  size_t faults_injected = 0;
  /// Checkpoints written during this Run (periodic + final).
  size_t checkpoints_written = 0;
  /// True when the run ended because the stop flag was raised rather
  /// than at end of stream.
  bool stopped = false;
  /// Every quarantined unit, with structured reasons: commit-thread
  /// records ("score"/"refresh") in commit order first, then ingest
  /// records, then windowing records (each stage's records are in its
  /// own deterministic order).
  std::vector<QuarantineRecord> quarantine;
};

/// What Run returns: the terminal status AND the stats collected up to
/// that point. Pre-robustness Run returned StatusOr<PipelineStats>,
/// which silently dropped every counter on a failing stream — exactly
/// when the operator most needs to know how far it got.
struct PipelineRunResult {
  Status status;
  PipelineStats stats;

  bool ok() const { return status.ok(); }
  /// The stats are meaningful whether or not the run succeeded.
  PipelineStats* operator->() { return &stats; }
  const PipelineStats* operator->() const { return &stats; }
};

/// Pipelined, backpressured serving loop over a streamed CSV.
class StreamPipeline {
 public:
  /// Learns the initial reference profile from `reference` (whose schema
  /// also types the stream) and validates `options`.
  static StatusOr<StreamPipeline> Create(const dataframe::DataFrame& reference,
                                         StreamPipelineOptions options);

  /// Runs ingest -> windowing + scoring over `in` until end of stream,
  /// graceful stop, or first unabsorbed error (a failing stage cancels
  /// the others; stats collected so far are returned either way).
  /// `on_score`, when set, is invoked on the calling thread once per
  /// window in commit order. Run may be called again to continue the
  /// monitor, profile, and refresh cadence (which counts the whole
  /// history) over another stream segment; windowing state does not
  /// carry across calls.
  PipelineRunResult Run(
      std::istream& in,
      const std::function<void(const core::WindowScore&)>& on_score = nullptr,
      const dataframe::CsvOptions& csv_options = dataframe::CsvOptions());

  /// The monitor accumulating the score history across Run calls.
  const core::StreamMonitor& monitor() const { return monitor_; }

  /// A snapshot of all committed scores, in arrival order (copies under
  /// the monitor's lock; safe to call from any thread).
  std::vector<core::WindowScore> history() const {
    return monitor_.history();
  }

  /// The pipeline's current state as a checkpoint (call between Runs or
  /// before the first; Run itself snapshots internally at the cadence).
  CheckpointData Snapshot() const;

  /// Adopts a checkpoint: rebases the score history, restores the
  /// streaming Gram state and (when present) the refreshed reference
  /// profile, and arms the next Run to skip the already-consumed rows.
  /// Must be called before the first Run; InvalidArgument when the
  /// checkpoint's geometry guards do not match this pipeline's options,
  /// FailedPrecondition once any window has been committed.
  Status Restore(const CheckpointData& data);

  /// Window step per emitted window: slide_rows, or window_rows when
  /// tumbling. rows_consumed = windows_consumed * step is the resume
  /// offset equation (stream/checkpoint.h).
  size_t step_rows() const {
    return options_.slide_rows == 0 ? options_.window_rows
                                    : options_.slide_rows;
  }

 private:
  StreamPipeline(core::StreamMonitor monitor,
                 core::IncrementalSynthesizer profile,
                 dataframe::Schema schema, StreamPipelineOptions options)
      : monitor_(std::move(monitor)),
        profile_(std::move(profile)),
        schema_(std::move(schema)),
        options_(options) {}

  // Scores `batch` (never spanning a refresh boundary) under the score
  // policy, commits survivors in order, feeds the profile, and refreshes
  // it at the cadence boundary.
  Status CommitBatch(std::vector<dataframe::DataFrame> batch,
                     const std::function<void(const core::WindowScore&)>& on_score,
                     PipelineStats* stats);

  // Appends a commit-thread quarantine record: counts it, streams it to
  // on_quarantine, and stores it in `stats`.
  void RecordQuarantine(QuarantineRecord record, PipelineStats* stats);

  core::StreamMonitor monitor_;
  core::IncrementalSynthesizer profile_;
  dataframe::Schema schema_;
  StreamPipelineOptions options_;
  // Windows taken from the window stream across Runs: committed plus
  // score-quarantined. Together with step_rows() this fixes the resume
  // row offset; committed alone (the monitor's history size) does not,
  // because quarantined windows consume rows without advancing history.
  size_t windows_consumed_ = 0;
  // Reference refreshes across Runs (PipelineStats::refreshes is
  // per-Run; the checkpoint needs the cumulative count).
  size_t refreshes_total_ = 0;
  // Good data rows the next Run must skip before live ingestion — set by
  // Restore, consumed by the next Run.
  size_t resume_skip_rows_ = 0;
  // Consumed-window count at the last checkpoint write (cadence base).
  size_t last_checkpoint_windows_ = 0;
  // Score-once state: the violations of the last scored window's rows,
  // in row order, and that window's consumed ordinal. 0 means the next
  // window must be scored whole (docs/streaming.md, "Determinism").
  linalg::Vector window_violations_;
  size_t chain_ordinal_ = 0;
};

}  // namespace ccs::stream

#endif  // CCS_STREAM_PIPELINE_H_
