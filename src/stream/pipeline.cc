#include "stream/pipeline.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "common/bounded_queue.h"
#include "common/fault.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ccs::stream {

using common::BoundedQueue;
using common::MutexLock;
using core::WindowScore;
using dataframe::DataFrame;

namespace {

// The ingest state, shared by the two threads. It is written by whichever
// thread owns the CsvChunkReader (the ingest thread, or the calling
// thread while the stream is caught up) and read back after the join.
// The same lock orders the reader's handoff from the calling thread back
// to a parked ingest thread.
struct IngestState {
  common::Mutex mu;
  Status status CCS_GUARDED_BY(mu);
  size_t rows CCS_GUARDED_BY(mu) = 0;
  size_t retries CCS_GUARDED_BY(mu) = 0;
  bool stopped CCS_GUARDED_BY(mu) = false;
  std::vector<QuarantineRecord> quarantined CCS_GUARDED_BY(mu);
  // False from the moment ingest hands the reader to the calling thread
  // until the calling thread hands it back.
  bool ingest_owns_reader CCS_GUARDED_BY(mu) = true;
  // The calling thread is done with the stream: a parked ingest thread
  // exits instead of waiting for the reader.
  bool done CCS_GUARDED_BY(mu) = false;
  common::CondVar reader_back;
};

// What one supervised read produced: a chunk, a quarantined read, or the
// end of the stream (end of input, a stop, or a failure in `status`).
enum class ReadOutcome { kChunk, kQuarantined, kEnd };

}  // namespace

StatusOr<StreamPipeline> StreamPipeline::Create(const DataFrame& reference,
                                                StreamPipelineOptions options) {
  if (options.window_rows == 0) {
    return Status::InvalidArgument("StreamPipeline: window_rows must be >= 1");
  }
  if (options.slide_rows > options.window_rows) {
    return Status::InvalidArgument(
        "StreamPipeline: slide_rows must not exceed window_rows");
  }
  if (options.chunk_rows == 0) options.chunk_rows = 1;
  if (options.queue_capacity == 0) options.queue_capacity = 1;
  if (options.max_batch_windows == 0) options.max_batch_windows = 1;

  CCS_ASSIGN_OR_RETURN(
      core::StreamMonitor monitor,
      core::StreamMonitor::Create(reference, options.alarm_threshold,
                                  options.synthesis));
  std::vector<std::string> numeric_names = reference.NumericNames();
  if (numeric_names.empty()) {
    return Status::InvalidArgument(
        "StreamPipeline: reference has no numeric attributes");
  }
  core::IncrementalSynthesizer profile(std::move(numeric_names),
                                       options.synthesis);
  if (options.refresh_every > 0) {
    // Seed the streaming Gram state with the reference, so the first
    // refresh profiles reference + everything scored so far.
    CCS_RETURN_IF_ERROR(profile.ObserveAll(reference));
  }
  return StreamPipeline(std::move(monitor), std::move(profile),
                        reference.schema(), options);
}

CheckpointData StreamPipeline::Snapshot() const {
  CheckpointData data;
  data.window_rows = options_.window_rows;
  data.slide_rows = options_.slide_rows;
  data.refresh_every = options_.refresh_every;
  data.threshold_bits = DoubleBits(options_.alarm_threshold);
  data.windows_committed = monitor_.history_size();
  data.windows_consumed = windows_consumed_;
  data.rows_consumed = windows_consumed_ * step_rows();
  data.refreshes = refreshes_total_;
  data.attribute_names = profile_.attribute_names();
  data.gram_count = profile_.gram().count();
  data.gram_sum = profile_.gram().RawSum();
  if (refreshes_total_ > 0) {
    // The adopted constraint is the product of refresh #refreshes_total_
    // and must survive bit-exactly; before any refresh the profile is
    // re-learned from the reference CSV on resume instead.
    data.has_profile = true;
    data.profile = monitor_.reference_constraint().global();
  }
  return data;
}

Status StreamPipeline::Restore(const CheckpointData& data) {
  if (data.window_rows != options_.window_rows ||
      data.slide_rows != options_.slide_rows ||
      data.refresh_every != options_.refresh_every) {
    return Status::InvalidArgument(
        "StreamPipeline::Restore: checkpoint window/slide/refresh geometry "
        "does not match this pipeline's options");
  }
  if (data.threshold_bits != DoubleBits(options_.alarm_threshold)) {
    return Status::InvalidArgument(
        "StreamPipeline::Restore: checkpoint alarm threshold does not match "
        "this pipeline's options");
  }
  if (data.attribute_names != profile_.attribute_names()) {
    return Status::InvalidArgument(
        "StreamPipeline::Restore: checkpoint attribute schema does not match "
        "the reference");
  }
  if (data.has_profile &&
      data.profile.attribute_names() != data.attribute_names) {
    // ParseCheckpoint checks this too; an in-memory CheckpointData has
    // not been through it, and the adopted profile is what scores.
    return Status::InvalidArgument(
        "StreamPipeline::Restore: checkpoint profile attributes do not "
        "match its attribute schema");
  }
  if (data.windows_consumed < data.windows_committed ||
      data.rows_consumed != data.windows_consumed * step_rows()) {
    return Status::InvalidArgument(
        "StreamPipeline::Restore: inconsistent checkpoint progress counters");
  }
  CCS_RETURN_IF_ERROR(monitor_.RestoreHistoryBase(data.windows_committed));
  CCS_RETURN_IF_ERROR(profile_.RestoreGram(data.gram_sum, data.gram_count));
  if (data.has_profile) {
    CCS_RETURN_IF_ERROR(monitor_.RefreshReference(data.profile));
  }
  windows_consumed_ = data.windows_consumed;
  chain_ordinal_ = 0;
  refreshes_total_ = data.refreshes;
  resume_skip_rows_ = data.rows_consumed;
  last_checkpoint_windows_ = data.windows_consumed;
  return Status::OK();
}

void StreamPipeline::RecordQuarantine(QuarantineRecord record,
                                      PipelineStats* stats) {
  stats->rows_quarantined += record.rows_lost;
  if (record.stage == "score") ++stats->windows_quarantined;
  if (options_.on_quarantine) options_.on_quarantine(record);
  stats->quarantine.push_back(std::move(record));
}

Status StreamPipeline::CommitBatch(
    std::vector<StampedFrame> batch,
    const std::function<void(const WindowScore&)>& on_score,
    PipelineStats* stats) {
  obs::ObsSpan commit_span("stream.commit", "stream");

  // ---- Phase A: the per-window supervision gate, in window order. Each
  // window's consumed ordinal — and therefore the fault point's hit
  // ordinal — depends only on its position in the stream, never on how
  // the windows happened to batch up.
  std::vector<DataFrame> survivors;
  std::vector<size_t> survivor_ordinals;
  std::vector<uint64_t> survivor_parsed_ns;
  std::vector<QuarantineRecord> pending_quarantine;
  survivors.reserve(batch.size());
  survivor_ordinals.reserve(batch.size());
  survivor_parsed_ns.reserve(batch.size());
  // A fail-fast gate failure is deferred until the batch prefix before it
  // has committed: a serial loop would have scored those windows before
  // reaching the failing one, and batch boundaries are the one thing in
  // this pipeline that is NOT deterministic — the termination trace must
  // not depend on them.
  Status gate_failure;
  for (StampedFrame& pending : batch) {
    DataFrame& window = pending.frame;
    ++windows_consumed_;
    auto gate = [&]() -> Status {
      CCS_FAULT_POINT("stream.score.window");
      return Status::OK();
    };
    SuperviseResult supervised = Supervise(options_.score_policy, gate);
    stats->retries += supervised.retries;
    if (supervised.action == SuperviseAction::kFail) {
      gate_failure = std::move(supervised.status);
      break;
    }
    if (supervised.action == SuperviseAction::kQuarantine) {
      // Held back until the commit walk below: emitting it now would
      // put it ahead of this batch's earlier windows, and where the
      // batch boundary fell is the one nondeterministic thing here.
      QuarantineRecord record;
      record.stage = "score";
      record.index = windows_consumed_;
      record.rows_lost = window.num_rows();
      record.reason = std::move(supervised.status);
      pending_quarantine.push_back(std::move(record));
      continue;
    }
    survivors.push_back(std::move(window));
    survivor_ordinals.push_back(windows_consumed_);
    survivor_parsed_ns.push_back(pending.parsed_ns);
  }
  if (survivors.empty()) {
    for (QuarantineRecord& record : pending_quarantine) {
      RecordQuarantine(std::move(record), stats);
    }
    return gate_failure;
  }

  // ---- Phase B: score each row once. A window that chains onto the
  // previous one (emitted next by the same Windower, under the same
  // profile) shares all but its last `slide` rows with it, so only those
  // rows are scored and the shared rows' violations are reused. A row's
  // violation depends only on (profile, row), and the drift is
  // Vector::Mean over the window's violations in row order — exactly
  // what ObserveWindow computes — so the committed bits are identical.
  // The batch is all-or-nothing: a scoring error fails it under every
  // policy.
  std::vector<WindowScore> scores;
  {
    obs::ObsSpan score_span("stream.score", "stream");
    const size_t slide = step_rows();
    const size_t overlap = options_.window_rows - slide;
    // fresh_from[i]: the first row of survivors[i] not shared with the
    // window scored before it (0 = score the whole window).
    std::vector<size_t> fresh_from(survivors.size(), 0);
    for (size_t i = 0; i < survivors.size(); ++i) {
      const size_t prev = i == 0 ? chain_ordinal_ : survivor_ordinals[i - 1];
      if (overlap > 0 && prev != 0 && survivor_ordinals[i] == prev + 1) {
        fresh_from[i] = overlap;
      }
    }
    std::vector<StatusOr<linalg::Vector>> fresh(
        survivors.size(), Status::Internal("window not scored"));
    common::ParallelFor(
        survivors.size(),
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const DataFrame& window = survivors[i];
            if (fresh_from[i] == 0) {
              fresh[i] = monitor_.TupleViolations(window, options_.num_threads);
            } else {
              fresh[i] = monitor_.TupleViolations(
                  window.Slice(fresh_from[i], window.num_rows()),
                  options_.num_threads);
            }
          }
        },
        common::ParallelOptions{options_.num_threads, /*min_chunk=*/1});
    for (const StatusOr<linalg::Vector>& rows : fresh) {
      if (!rows.ok()) return rows.status();
    }
    // Assemble each window's violations in order: shift out the previous
    // window's first `slide` values, append the fresh rows.
    std::vector<double> drifts;
    drifts.reserve(survivors.size());
    for (size_t i = 0; i < survivors.size(); ++i) {
      std::vector<double>& rows = fresh[i]->data();
      stats->rows_scored += rows.size();
      if (fresh_from[i] == 0) {
        window_violations_ = std::move(*fresh[i]);
      } else {
        std::vector<double>& window = window_violations_.data();
        std::copy(window.begin() + slide, window.end(), window.begin());
        std::copy(rows.begin(), rows.end(), window.begin() + overlap);
      }
      drifts.push_back(window_violations_.Mean());
    }
    chain_ordinal_ = survivor_ordinals.back();
    scores = monitor_.CommitDrifts(drifts);
  }
  // The commit walk: scores and gate quarantine records (both in
  // consumed-ordinal order) emitted merged in that order, so the
  // observable event sequence — not just the committed bits — is
  // independent of where the batch boundaries fell.
  obs::Histogram* window_latency =
      obs::Registry::Global().GetHistogram("stream.window_latency_us");
  size_t next_pending = 0;
  for (size_t i = 0; i < survivors.size(); ++i) {
    while (next_pending < pending_quarantine.size() &&
           pending_quarantine[next_pending].index < survivor_ordinals[i]) {
      RecordQuarantine(std::move(pending_quarantine[next_pending++]), stats);
    }
    const WindowScore& score = scores[i];
    ++stats->windows_scored;
    if (score.alarm) ++stats->alarms;
    window_latency->Observe(
        static_cast<double>(obs::NowNanos() - survivor_parsed_ns[i]) * 1e-3);
    if (on_score) on_score(score);
  }
  while (next_pending < pending_quarantine.size()) {
    RecordQuarantine(std::move(pending_quarantine[next_pending++]), stats);
  }
  if (options_.refresh_every == 0) return gate_failure;

  // ---- Phase C: fold the committed rows into the streaming Gram state
  // in window order (deterministic: the fold order and the refresh index
  // depend only on the stream, never on thread scheduling). With sliding
  // windows the overlap is re-observed, weighting recent rows —
  // acceptable for a drift profile and documented in docs/streaming.md.
  {
    obs::ObsSpan fold_span("stream.fold", "stream");
    for (const DataFrame& window : survivors) {
      CCS_RETURN_IF_ERROR(profile_.ObserveAll(window));
    }
  }
  // Cadence counts the monitor's whole history, not this Run's windows,
  // so a stream served in segments refreshes at the same absolute window
  // indices as the same stream served in one Run. Quarantined windows
  // never advance the history, so the boundary slides to the next
  // committed window; an all-quarantine batch returned above, so it
  // cannot re-fire a boundary the previous batch already handled.
  if (monitor_.history_size() % options_.refresh_every == 0) {
    obs::ObsSpan refresh_span("stream.refresh", "stream");
    auto attempt = [&]() -> Status {
      CCS_FAULT_POINT("stream.refresh.synthesize");
      CCS_ASSIGN_OR_RETURN(core::SimpleConstraint refreshed,
                           profile_.Synthesize());
      return monitor_.RefreshReference(refreshed);
    };
    SuperviseResult supervised = Supervise(options_.score_policy, attempt);
    stats->retries += supervised.retries;
    if (supervised.action == SuperviseAction::kFail) {
      return std::move(supervised.status);
    }
    if (supervised.action == SuperviseAction::kQuarantine) {
      // The profile swap is deferred one full cadence period; scoring
      // continues against the previous reference (a degraded, not
      // broken, monitor).
      QuarantineRecord record;
      record.stage = "refresh";
      record.index = monitor_.history_size();
      record.rows_lost = 0;
      record.reason = std::move(supervised.status);
      RecordQuarantine(std::move(record), stats);
    } else {
      chain_ordinal_ = 0;  // Rows scored under the old profile are stale.
      ++stats->refreshes;
      ++refreshes_total_;
      if (options_.on_refresh) options_.on_refresh(monitor_.history_size());
    }
  }
  return gate_failure;
}

PipelineRunResult StreamPipeline::Run(
    std::istream& in,
    const std::function<void(const WindowScore&)>& on_score) {
  PipelineRunResult result;
  PipelineStats& stats = result.stats;
  const uint64_t start_ns = obs::NowNanos();
  obs::ObsSpan run_span("stream.run", "stream");
  const uint64_t faults_before = common::fault::Injector::Global().injected();

  obs::Registry& registry = obs::Registry::Global();
  const size_t skip_rows = resume_skip_rows_;
  resume_skip_rows_ = 0;
  const size_t consumed_before_run = windows_consumed_;
  // Every Run windows its stream afresh, but consumed ordinals continue
  // across Runs: the first window of this Run must not chain onto the
  // last window of the previous one.
  chain_ordinal_ = 0;
  const std::atomic<bool>* stop = options_.stop;

  // The reader has one owner at a time. Ingest reads ahead on its own
  // thread while bytes are buffered (a backlog), and hands the reader to
  // the calling thread whenever the next read would wait for input, so
  // on a caught-up live stream the thread that waits for a window's last
  // row is the thread that windows, scores and commits it. Chunk
  // contents depend only on the bytes, never on the reading thread.
  dataframe::CsvChunkReader reader(&in, schema_);
  IngestState ingest;

  // One supervised read, run by whichever thread owns the reader.
  auto read_step = [&](DataFrame* chunk) -> ReadOutcome {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      MutexLock lock(&ingest.mu);
      ingest.stopped = true;  // Graceful drain: treat as end of stream.
      return ReadOutcome::kEnd;
    }
    auto attempt = [&]() -> Status {
      CCS_FAULT_POINT("stream.ingest.read");
      StatusOr<DataFrame> next = [&] {
        obs::ObsSpan ingest_span("stream.ingest", "stream");
        return reader.ReadChunk(options_.chunk_rows, options_.num_threads);
      }();
      if (!next.ok()) return std::move(next).status();
      *chunk = std::move(*next);
      return Status::OK();
    };
    SuperviseResult supervised = Supervise(options_.ingest_policy, attempt);
    MutexLock lock(&ingest.mu);
    ingest.retries += supervised.retries;
    if (supervised.action == SuperviseAction::kFail) {
      ingest.status = std::move(supervised.status);
      return ReadOutcome::kEnd;
    }
    if (supervised.action == SuperviseAction::kQuarantine) {
      QuarantineRecord record;
      record.stage = "ingest";
      record.index = reader.rows_read();
      // A parse error means the reader consumed the malformed record;
      // an injected fault fires before the read and consumes nothing.
      record.rows_lost =
          supervised.status.code() == StatusCode::kInvalidArgument ? 1 : 0;
      record.reason = std::move(supervised.status);
      ingest.quarantined.push_back(std::move(record));
      return ReadOutcome::kQuarantined;
    }
    if (chunk->num_rows() == 0) return ReadOutcome::kEnd;
    ingest.rows += chunk->num_rows();
    return ReadOutcome::kChunk;
  };

  // A chunk queue entry: a parsed chunk, or the marker ingest pushes
  // behind the chunks it has queued when it hands over the reader.
  struct Queued {
    StampedFrame chunk;
    bool reader_handoff = false;
  };
  BoundedQueue<Queued> chunk_queue(
      options_.queue_capacity,
      {registry.GetHistogram("stream.chunk_queue.push_wait_us"),
       registry.GetHistogram("stream.chunk_queue.pop_wait_us")});

  // ---- Stage 1: ingest. While it owns the reader it parses
  // schema-shaped chunks; each Push blocks while the calling thread is
  // behind (backpressure). The ccs-lint thread-spawn rule normally routes
  // work through the common/parallel pool; this spawn IS the pipeline's
  // stage structure (long-lived, joined before Run returns), which a
  // bounded task pool cannot express without risking pool-exhaustion
  // deadlock on a stage that blocks on its queue.
  // ccs-lint: allow(thread-spawn): dedicated stage thread, joined below; pool tasks must not block on queues
  std::thread ingest_thread([&] {
    // Resume skip: wind the reader past the rows the checkpointed run
    // already consumed. Parses but never scores; malformed records in
    // the consumed region were quarantined (and accounted) by the
    // pre-crash process, so they are re-skipped silently. Each ReadChunk
    // error has consumed its malformed record, so the loop always makes
    // progress.
    bool reading = true;
    size_t to_skip = skip_rows;
    while (to_skip > 0) {
      StatusOr<DataFrame> chunk =
          reader.ReadChunk(std::min(to_skip, options_.chunk_rows),
                           options_.num_threads);
      if (!chunk.ok()) continue;
      if (chunk->num_rows() == 0) {
        MutexLock lock(&ingest.mu);
        ingest.status = Status::FailedPrecondition(
            "StreamPipeline: stream ended before the checkpoint's resume "
            "offset — resuming against a different stream?");
        reading = false;
        break;
      }
      to_skip -= chunk->num_rows();
    }

    while (reading) {
      if (reader.WouldBlock()) {
        // Caught up: hand the reader over behind the queued chunks, and
        // park until it comes back or the run is over.
        {
          MutexLock lock(&ingest.mu);
          ingest.ingest_owns_reader = false;
        }
        if (!chunk_queue.Push({StampedFrame(), /*reader_handoff=*/true})) {
          break;  // Cancelled.
        }
        MutexLock lock(&ingest.mu);
        while (!ingest.ingest_owns_reader && !ingest.done) {
          ingest.reader_back.Wait(&ingest.mu);
        }
        reading = !ingest.done;
        continue;
      }
      DataFrame chunk;
      const ReadOutcome read = read_step(&chunk);
      if (read == ReadOutcome::kQuarantined) continue;
      if (read == ReadOutcome::kEnd) break;
      if (!chunk_queue.Push({{std::move(chunk), obs::NowNanos()}})) {
        break;  // Cancelled.
      }
    }
    chunk_queue.Close();
  });

  // ---- Stage 2: windowing, scoring and ordered commit, all on the
  // calling thread, so a window crosses no thread boundary, and a chunk
  // one only while ingest owns the reader. The windows each chunk
  // completes wait in `pending`, in stream order, for a batch of at most
  // max_batch_windows that never spans a refresh boundary, scored over
  // the pool and committed in arrival order.
  StatusOr<Windower> windower =
      Windower::Create(options_.window_rows, options_.slide_rows);
  CCS_CHECK(windower.ok()) << windower.status().ToString();  // Create checked.
  std::deque<StampedFrame> pending;
  size_t pending_peak = 0;
  Status window_status;
  size_t rows_windowed = 0;  // Rows of the chunks handed to the windower.
  bool chunks_open = true;
  // A windowing failure ends the chunk stream (and cancels ingest); the
  // windows already pending are still scored, as a serial loop would
  // have scored them before reaching the failing chunk.
  auto window_chunk = [&](const StampedFrame& parsed) {
    rows_windowed += parsed.frame.num_rows();
    StatusOr<std::vector<DataFrame>> windows =
        [&]() -> StatusOr<std::vector<DataFrame>> {
      CCS_FAULT_POINT("stream.window.push");
      obs::ObsSpan window_span("stream.window", "stream");
      return windower->Push(parsed.frame);
    }();
    if (!windows.ok()) {
      window_status = std::move(windows).status();
      chunks_open = false;
      chunk_queue.Close();  // Ingest's blocked Push returns false.
      return;
    }
    for (DataFrame& window : *windows) {
      pending.push_back({std::move(window), parsed.parsed_ns});
    }
    pending_peak = std::max(pending_peak, pending.size());
  };

  // Whether the calling thread owns the reader; a handoff marker passes
  // it here.
  bool caller_reads = false;
  auto take_entry = [&](Queued queued) {
    if (queued.reader_handoff) {
      caller_reads = true;
      ++stats.reader_handoffs;
    } else {
      window_chunk(queued.chunk);
    }
  };

  Status commit_status;
  const bool checkpointing = !options_.checkpoint_path.empty();
  while (true) {
    // Buffered bytes are a backlog: hand the reader back, so ingest
    // parses them on its own thread while this one scores.
    if (caller_reads && chunks_open && !reader.WouldBlock()) {
      caller_reads = false;
      ++stats.reader_handoffs;
      {
        MutexLock lock(&ingest.mu);
        ingest.ingest_owns_reader = true;
      }
      ingest.reader_back.NotifyOne();
    }
    // Take the next chunk only while no window is pending: a completed
    // window is never held back waiting for it.
    if (pending.empty() && chunks_open) {
      if (caller_reads) {
        StampedFrame parsed;
        const ReadOutcome read = read_step(&parsed.frame);
        if (read == ReadOutcome::kChunk) {
          parsed.parsed_ns = obs::NowNanos();
          window_chunk(parsed);
        } else if (read == ReadOutcome::kEnd) {
          chunks_open = false;
        }
      } else if (std::optional<Queued> queued = chunk_queue.Pop()) {
        take_entry(std::move(*queued));
      } else {
        chunks_open = false;  // Ingest finished and every chunk drained.
      }
      continue;
    }
    if (pending.empty()) break;
    size_t cap = options_.max_batch_windows;
    if (options_.refresh_every > 0) {
      // Never score past a refresh boundary: windows after it must see
      // the refreshed profile.
      size_t until_refresh =
          options_.refresh_every -
          monitor_.history_size() % options_.refresh_every;
      if (until_refresh < cap) cap = until_refresh;
    }
    // Top the batch up from chunks already queued; windows past the cap
    // stay pending for the next batch.
    while (chunks_open && !caller_reads && pending.size() < cap) {
      std::optional<Queued> queued = chunk_queue.TryPop();
      if (!queued) break;
      take_entry(std::move(*queued));
    }
    const size_t take = std::min(cap, pending.size());
    std::vector<StampedFrame> batch(
        std::make_move_iterator(pending.begin()),
        std::make_move_iterator(pending.begin() + take));
    pending.erase(pending.begin(), pending.begin() + take);
    commit_status = CommitBatch(std::move(batch), on_score, &stats);
    if (commit_status.ok() && checkpointing && options_.checkpoint_every > 0 &&
        windows_consumed_ - last_checkpoint_windows_ >=
            options_.checkpoint_every) {
      commit_status =
          WriteCheckpointFile(Snapshot(), options_.checkpoint_path);
      if (commit_status.ok()) {
        last_checkpoint_windows_ = windows_consumed_;
        ++stats.checkpoints_written;
      }
    }
    if (!commit_status.ok()) break;
  }

  // Whichever thread owns the reader, release ingest: a blocked Push
  // returns false, and a thread parked for the reader exits.
  chunk_queue.Close();
  {
    MutexLock lock(&ingest.mu);
    ingest.done = true;
  }
  ingest.reader_back.NotifyOne();
  ingest_thread.join();

  // After a commit or window failure, how far ingest read ahead is
  // timing; the ingest records before the last row the calling thread
  // consumed (good-row index below `records_below`) are not.
  size_t records_below = std::numeric_limits<size_t>::max();
  if (!commit_status.ok()) {
    records_below = skip_rows +
                    (windows_consumed_ - consumed_before_run - 1) *
                        step_rows() +
                    options_.window_rows;
  } else if (!window_status.ok()) {
    records_below = skip_rows + rows_windowed;
  }

  // Fold the stage outcomes into the stats FIRST, so a failing run still
  // reports everything it did (the whole point of PipelineRunResult).
  Status ingest_status;
  {
    MutexLock lock(&ingest.mu);
    ingest_status = std::move(ingest.status);
    stats.rows_ingested = ingest.rows;
    stats.retries += ingest.retries;
    // Stopped if a read saw the flag — or if it was raised while a read
    // was blocked on a stream that then ended out from under it (the
    // stop still happened before the run finished, and the caller's
    // exit code should say so).
    stats.stopped = ingest.stopped ||
                    (stop != nullptr && stop->load(std::memory_order_relaxed));
    for (QuarantineRecord& record : ingest.quarantined) {
      if (record.index >= records_below) break;
      stats.rows_quarantined += record.rows_lost;
      stats.quarantine.push_back(std::move(record));
    }
  }
  stats.window_rows_copied = windower->rows_copied_out();
  stats.window_buffer_reallocs = windower->buffer_reallocs();
  stats.window_buffer_capacity_rows = windower->buffer_capacity_rows();
  // The earliest failure in stream order wins, whichever thread saw it
  // first: a commit failure concerns windows completed before any chunk
  // that failed to window, and a window failure a chunk read before any
  // record that failed to parse (ingest may have read ahead of both).
  if (!commit_status.ok()) {
    result.status = std::move(commit_status);
  } else if (!window_status.ok()) {
    result.status = std::move(window_status);
  } else {
    result.status = std::move(ingest_status);
  }

  // The final checkpoint marks a cleanly ended (or gracefully stopped)
  // run; after an error the last periodic checkpoint stands, exactly as
  // after a crash.
  if (result.status.ok() && checkpointing) {
    result.status = WriteCheckpointFile(Snapshot(), options_.checkpoint_path);
    if (result.status.ok()) {
      last_checkpoint_windows_ = windows_consumed_;
      ++stats.checkpoints_written;
    }
  }

  stats.chunk_queue_peak = chunk_queue.peak_depth();
  stats.window_queue_peak = pending_peak;
  stats.faults_injected = static_cast<size_t>(
      common::fault::Injector::Global().injected() - faults_before);
  stats.elapsed_seconds =
      static_cast<double>(obs::NowNanos() - start_ns) * 1e-9;
  // SafeRate reports 0 (never inf/nan) on tiny or empty streams where
  // elapsed time is degenerate.
  stats.rows_per_second = obs::SafeRate(
      static_cast<double>(stats.rows_ingested), stats.elapsed_seconds);

  // Mirror the returned stats into the process-wide registry from the
  // very same values, so `--stats` and `--metrics-json` cannot disagree.
  // Mirrored even on error: the counters describe work actually done.
  registry.GetCounter("stream.rows_ingested")->Add(stats.rows_ingested);
  registry.GetCounter("stream.windows_scored")->Add(stats.windows_scored);
  registry.GetCounter("stream.rows_scored")->Add(stats.rows_scored);
  registry.GetCounter("stream.alarms")->Add(stats.alarms);
  registry.GetCounter("stream.refreshes")->Add(stats.refreshes);
  registry.GetCounter("stream.rows_quarantined")->Add(stats.rows_quarantined);
  registry.GetCounter("stream.degraded_windows")
      ->Add(stats.windows_quarantined);
  registry.GetCounter("stream.retries")->Add(stats.retries);
  registry.GetCounter("stream.faults_injected")->Add(stats.faults_injected);
  registry.GetCounter("stream.checkpoints")->Add(stats.checkpoints_written);
  registry.GetCounter("stream.reader_handoffs")->Add(stats.reader_handoffs);
  registry.GetCounter("stream.window.rows_copied")
      ->Add(stats.window_rows_copied);
  registry.GetCounter("stream.window.buffer_reallocs")
      ->Add(stats.window_buffer_reallocs);
  registry.GetGauge("stream.chunk_queue.peak")
      ->UpdateMax(static_cast<int64_t>(stats.chunk_queue_peak));
  registry.GetGauge("stream.window_queue.peak")
      ->UpdateMax(static_cast<int64_t>(stats.window_queue_peak));
  registry.GetGauge("stream.window.buffer_capacity_rows")
      ->UpdateMax(static_cast<int64_t>(stats.window_buffer_capacity_rows));
  return result;
}

}  // namespace ccs::stream
