// The two `ccsynth monitor`-shaped workloads: CSV bytes in, window
// verdicts out, through stream::StreamPipeline::Create/Run.
//
//   replay_tumbling     closed loop: an in-memory backfill read as fast
//                       as the pipeline pulls it.
//   live_sliding_mixed  open loop: a pacing streambuf releases each row
//                       to the reader at its due time.

#include <algorithm>
#include <chrono>
#include <functional>
#include <istream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/monitor.h"
#include "dataframe/csv.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/pipeline.h"
#include "stream/windower.h"
#include "workloads.h"

namespace ccs::perfbench {

namespace {

using core::WindowScore;
using dataframe::DataFrame;

struct MonitorWorkload {
  size_t window_rows;
  size_t slide_rows;  // 0 = tumbling.
  size_t refresh_every;
  double threshold;
  /// Offered row rate of the open loop; 0 = closed loop.
  double rows_per_s;
};

constexpr MonitorWorkload kReplay{512, 0, 16, 0.2, 0.0};
// The paced rate: one 2048-row window scores in about 2.1 ms on one lane,
// and a window is due every 12.8 ms, so scoring stays about a sixth busy.
// At a third busy or more, the slow episodes of a shared 4-vCPU VM (up
// to 3x) turned stalls into backlogs, and the latency tail moved by
// multiples between runs.
constexpr MonitorWorkload kLive{2048, 128, 0, 0.15, 10000.0};

// Scoring lanes of both monitor workloads (StreamPipelineOptions).
constexpr size_t kScoringLanes = 2;

// Unpaced rows replayed per (untraced, traced) overhead pair on the live
// workload, whose full paced stream lasts the whole measured phase.
constexpr size_t kLiveOverheadRows = 32768;

size_t Step(const MonitorWorkload& w) {
  return w.slide_rows == 0 ? w.window_rows : w.slide_rows;
}

size_t ExpectedWindows(const MonitorWorkload& w, size_t rows) {
  return rows < w.window_rows ? 0 : (rows - w.window_rows) / Step(w) + 1;
}

stream::StreamPipelineOptions PipelineOptions(const MonitorWorkload& w) {
  stream::StreamPipelineOptions o;
  o.window_rows = w.window_rows;
  o.slide_rows = w.slide_rows;
  o.alarm_threshold = w.threshold;
  o.refresh_every = w.refresh_every;
  o.num_threads = kScoringLanes;
  // As `ccsynth monitor` sets it: parse no coarser than the window step.
  o.chunk_rows = std::min(o.chunk_rows, Step(w));
  return o;
}

bool SameScores(const std::vector<WindowScore>& a,
                const std::vector<WindowScore>& b, size_t count) {
  if (a.size() < count || b.size() < count) return false;
  for (size_t i = 0; i < count; ++i) {
    if (a[i].window_index != b[i].window_index || a[i].alarm != b[i].alarm ||
        !SameBits(a[i].drift, b[i].drift)) {
      return false;
    }
  }
  return true;
}

// The reference computation: the same bytes parsed serially, windowed,
// and scored one ObserveWindow at a time with the pipeline's refresh
// cadence.
StatusOr<std::vector<WindowScore>> SerialReference(
    const MonitorInput& in, const stream::StreamPipelineOptions& o) {
  CCS_ASSIGN_OR_RETURN(
      core::StreamMonitor monitor,
      core::StreamMonitor::Create(in.reference, o.alarm_threshold, o.synthesis));
  core::IncrementalSynthesizer profile(in.reference.NumericNames(), o.synthesis);
  if (o.refresh_every > 0) CCS_RETURN_IF_ERROR(profile.ObserveAll(in.reference));
  ViewStreambuf buf(in.csv);
  std::istream source(&buf);
  dataframe::CsvChunkReader reader(&source, in.reference.schema());
  CCS_ASSIGN_OR_RETURN(stream::Windower windower,
                       stream::Windower::Create(o.window_rows, o.slide_rows));
  while (true) {
    CCS_ASSIGN_OR_RETURN(DataFrame chunk, reader.ReadChunk(4096));
    if (chunk.num_rows() == 0) break;
    CCS_ASSIGN_OR_RETURN(std::vector<DataFrame> windows, windower.Push(chunk));
    for (const DataFrame& window : windows) {
      CCS_RETURN_IF_ERROR(monitor.ObserveWindow(window).status());
      if (o.refresh_every == 0) continue;
      CCS_RETURN_IF_ERROR(profile.ObserveAll(window));
      if (monitor.history_size() % o.refresh_every == 0) {
        CCS_ASSIGN_OR_RETURN(core::SimpleConstraint refreshed,
                             profile.Synthesize());
        CCS_RETURN_IF_ERROR(monitor.RefreshReference(refreshed));
      }
    }
  }
  return monitor.history();
}

// The drift must be seen, and only where it is: no window that ends
// before the drift row alarms, and some window after it does.
void CheckAlarms(const MonitorWorkload& w, const MonitorInput& in,
                 const std::vector<WindowScore>& scores, RunResult* result) {
  size_t early = 0;
  size_t late = 0;
  for (const WindowScore& s : scores) {
    const size_t begin = s.window_index * Step(w);
    if (begin + w.window_rows <= in.drift_row && s.alarm) ++early;
    if (begin >= in.drift_row && s.alarm) ++late;
  }
  Note("alarms: %zu before drift row %zu, %zu after it (%zu windows)", early,
       in.drift_row, late, scores.size());
  if (early > 0) result->Fail("a window before the drift row alarmed");
  if (late == 0) result->Fail("no window after the drift row alarmed");
}

// Releases CSV bytes to the reader at a fixed row rate: the header and
// data row 0 are due at start, data row i at start + i / rate. Each
// underflow hands out at most one line, so the time the reader pulled
// every row is observed (its lag behind the due time is recorded).
class PacedStreambuf : public std::streambuf {
 public:
  PacedStreambuf(const MonitorInput& in, size_t rows, double rows_per_s)
      : csv_(in.csv), line_starts_(in.line_starts), rows_(rows),
        ns_per_row_(1e9 / rows_per_s) {
    lag_ms_.reserve(rows);
  }

  void Start(uint64_t start_ns) { start_ns_ = start_ns; }
  uint64_t start_ns() const { return start_ns_; }

  uint64_t DueNs(size_t row) const {
    return start_ns_ + static_cast<uint64_t>(static_cast<double>(row) * ns_per_row_);
  }

  const std::vector<double>& lag_ms() const { return lag_ms_; }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_line_ > rows_) return traits_type::eof();
    // Line 0 is the header; line k is data row k - 1.
    const size_t row = next_line_ == 0 ? 0 : next_line_ - 1;
    const uint64_t due = DueNs(row);
    uint64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    if (next_line_ > 0) lag_ms_.push_back(static_cast<double>(now - due) * 1e-6);
    char* begin = const_cast<char*>(csv_.data()) + line_starts_[next_line_];
    char* end = const_cast<char*>(csv_.data()) + line_starts_[next_line_ + 1];
    ++next_line_;
    setg(begin, begin, end);
    return traits_type::to_int_type(*gptr());
  }

 private:
  const std::string& csv_;
  const std::vector<size_t>& line_starts_;
  const size_t rows_;
  const double ns_per_row_;
  uint64_t start_ns_ = 0;
  size_t next_line_ = 0;
  std::vector<double> lag_ms_;
};

// One real pipeline run: a fresh Create (untimed), then Run (timed).
struct RealRun {
  stream::PipelineRunResult result;
  std::vector<WindowScore> history;
  double run_s = 0.0;
};

// Runs the pipeline over `csv` (the whole stream or a prefix of it) as
// fast as it pulls; `run_start`, when set, receives the time Run began.
RealRun RunUnpaced(const MonitorInput& in,
                   const stream::StreamPipelineOptions& o, const std::string& csv,
                   const std::function<void(const WindowScore&)>& on_score,
                   uint64_t* run_start = nullptr) {
  RealRun run;
  StatusOr<stream::StreamPipeline> pipeline =
      stream::StreamPipeline::Create(in.reference, o);
  CCS_CHECK(pipeline.ok()) << pipeline.status().ToString();
  ViewStreambuf buf(csv);
  std::istream source(&buf);
  const uint64_t start = NowNs();
  if (run_start != nullptr) *run_start = start;
  run.result = pipeline->Run(source, on_score);
  run.run_s = Seconds(NowNs() - start);
  run.history = pipeline->history();
  return run;
}

// Charges a real run's windows to attempted/failed: windows expected from
// the row count, against windows committed.
void Account(const MonitorWorkload& w, size_t rows, const RealRun& run,
             const std::vector<WindowScore>& serial, RunResult* result) {
  const size_t expected = ExpectedWindows(w, rows);
  result->attempted += expected;
  const size_t committed = run.result->windows_scored;
  result->failed += expected > committed ? expected - committed : 0;
  if (!run.result.ok()) result->Fail("pipeline run: " + run.result.status.ToString());
  if (run.history.size() != expected || !SameScores(run.history, serial, expected)) {
    result->Fail("pipeline verdicts differ from the serial ObserveWindow loop");
  }
}

void AddEndToEnd(double rows_per_s, const std::vector<double>& setup_s,
                 const std::vector<double>& latency_ms, RunResult* result) {
  AddVerdictLatency(latency_ms, result);
  result->Add("rows_per_s", rows_per_s, "rows/s");
  result->Add("setup_s", Median(setup_s), "s");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
}

// Closed loop: whole backfill passes until the measured phase is over.
// rows_per_s is the median pass's rows per second of Run; a verdict's
// latency is how long an in-order consumer waited for it after the
// previous one (the first from Run start) — closed-loop response time.
void MeasureClosedLoop(const MonitorWorkload& w, const MonitorInput& in,
                       const stream::StreamPipelineOptions& o,
                       const std::vector<WindowScore>& serial, double seconds,
                       RunResult* result, std::vector<double>* rates,
                       std::vector<double>* latency_ms) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  latency_ms->reserve(1 << 16);
  do {
    uint64_t last = 0;
    RealRun run = RunUnpaced(
        in, o, in.csv,
        [&](const WindowScore&) {
          const uint64_t now = NowNs();
          latency_ms->push_back(static_cast<double>(now - last) * 1e-6);
          last = now;
        },
        &last);
    Account(w, in.rows, run, serial, result);
    rates->push_back(static_cast<double>(run.result->rows_ingested) / run.run_s);
  } while (NowNs() < deadline);
  Note("backfill passes: %zu; rows/s per pass: min %.0f q1 %.0f median %.0f "
       "q3 %.0f max %.0f",
       rates->size(), Percentile(*rates, 0.0), Percentile(*rates, 25.0),
       Percentile(*rates, 50.0), Percentile(*rates, 75.0),
       Percentile(*rates, 100.0));
}

// Open loop: the whole stream paced at the offered rate. A verdict's
// latency runs from the due time of its window's last row to on_score;
// rows_per_s is committed rows per second since the first row was due.
struct PacedRun {
  RealRun run;
  double rows_per_s = 0.0;
  std::vector<double> latency_ms;
  double lag_p99_ms = 0.0;
};

PacedRun RunPaced(const MonitorWorkload& w, const MonitorInput& in,
                  const stream::StreamPipelineOptions& o) {
  PacedRun paced;
  StatusOr<stream::StreamPipeline> pipeline =
      stream::StreamPipeline::Create(in.reference, o);
  CCS_CHECK(pipeline.ok()) << pipeline.status().ToString();
  PacedStreambuf buf(in, in.rows, w.rows_per_s);
  std::istream source(&buf);
  paced.latency_ms.reserve(ExpectedWindows(w, in.rows));
  uint64_t last_commit = 0;
  auto on_score = [&](const WindowScore& s) {
    const uint64_t now = NowNs();
    const size_t last_row = s.window_index * Step(w) + w.window_rows - 1;
    const uint64_t due = buf.DueNs(last_row);
    paced.latency_ms.push_back(
        now > due ? static_cast<double>(now - due) * 1e-6 : 0.0);
    last_commit = now;
  };
  buf.Start(NowNs());
  paced.run.result = pipeline->Run(source, on_score);
  paced.run.run_s = Seconds(NowNs() - buf.start_ns());
  paced.run.history = pipeline->history();
  const size_t windows = paced.run.history.size();
  const size_t committed_rows =
      windows == 0 ? 0 : w.window_rows + (windows - 1) * Step(w);
  if (last_commit > buf.start_ns()) {
    paced.rows_per_s = static_cast<double>(committed_rows) /
                       Seconds(last_commit - buf.start_ns());
  }
  paced.lag_p99_ms = Percentile(buf.lag_ms(), 99.0);
  return paced;
}

// The traced replay: the pipeline's public layer calls, serially and in
// its order (ReadChunk -> Windower::Push -> ObserveWindows -> ObserveAll
// -> Synthesize/RefreshReference), each inside a span. Returns the
// replayed verdicts.
std::vector<WindowScore> ReplayLayers(const MonitorInput& in,
                                      const stream::StreamPipelineOptions& o,
                                      LayerTrace* trace, RunResult* result) {
  trace->Begin();
  ReplayedSynthesis replayed =
      ReplaySynthesisLayers(in.reference, o.synthesis, trace);
  StatusOr<core::StreamMonitor> monitor = trace->Span("core.synthesize", [&] {
    return core::StreamMonitor::Create(in.reference, o.alarm_threshold,
                                       o.synthesis);
  });
  CCS_CHECK(monitor.ok()) << monitor.status().ToString();
  trace->AddWork("core.synthesize",
                 PartitionCount(monitor->reference_constraint()));
  if (!ReplayMatchesProfile(replayed, monitor->reference_constraint())) {
    result->Fail("replayed Gram/eigen layers do not reproduce the profile");
  }
  core::IncrementalSynthesizer profile(in.reference.NumericNames(), o.synthesis);
  if (o.refresh_every > 0) {
    CCS_CHECK(trace->Span("core.fold", [&] {
                       return profile.ObserveAll(in.reference);
                     }).ok());
    trace->AddWork("core.fold", in.reference.num_rows());
  }

  ViewStreambuf buf(in.csv);
  std::istream source(&buf);
  dataframe::CsvChunkReader reader(&source, in.reference.schema());
  StatusOr<stream::Windower> windower =
      stream::Windower::Create(o.window_rows, o.slide_rows);
  CCS_CHECK(windower.ok());
  while (true) {
    StatusOr<DataFrame> chunk =
        trace->Span("dataframe.csv", [&] { return reader.ReadChunk(o.chunk_rows); });
    if (!chunk.ok()) {
      result->Fail("replay ReadChunk: " + chunk.status().ToString());
      break;
    }
    if (chunk->num_rows() == 0) break;
    trace->AddWork("dataframe.csv", chunk->num_rows());
    StatusOr<std::vector<DataFrame>> windows =
        trace->Span("stream.windower", [&] { return windower->Push(*chunk); });
    CCS_CHECK(windows.ok()) << windows.status().ToString();
    // Batches never span a refresh boundary, as in StreamPipeline.
    size_t next = 0;
    while (next < windows->size()) {
      size_t cap = o.max_batch_windows;
      if (o.refresh_every > 0) {
        cap = std::min(cap, o.refresh_every -
                                monitor->history_size() % o.refresh_every);
      }
      const size_t take = std::min(cap, windows->size() - next);
      std::vector<DataFrame> batch(windows->begin() + next,
                                   windows->begin() + next + take);
      next += take;
      size_t batch_rows = 0;
      for (const DataFrame& window : batch) batch_rows += window.num_rows();
      StatusOr<std::vector<WindowScore>> scores = trace->Span(
          "core.score", [&] { return monitor->ObserveWindows(batch, o.num_threads); });
      CCS_CHECK(scores.ok()) << scores.status().ToString();
      trace->AddWork("core.score", batch_rows);
      if (o.refresh_every == 0) continue;
      trace->Span("core.fold", [&] {
        for (const DataFrame& window : batch) {
          CCS_CHECK(profile.ObserveAll(window).ok());
        }
      });
      trace->AddWork("core.fold", batch_rows);
      if (monitor->history_size() % o.refresh_every == 0) {
        trace->Span("core.refresh", [&] {
          StatusOr<core::SimpleConstraint> refreshed = profile.Synthesize();
          CCS_CHECK(refreshed.ok()) << refreshed.status().ToString();
          CCS_CHECK(monitor->RefreshReference(*refreshed).ok());
        });
      }
    }
  }
  trace->End();
  trace->AddWork("dataframe.csv.bytes", in.csv.size());
  trace->AddWork("stream.windower", windower->rows_copied_out());
  trace->AddWork("stream.windower.reallocs", windower->buffer_reallocs());
  return monitor->history();
}

double HistogramSeconds(const char* name) {
  return obs::Registry::Global().GetHistogram(name)->Snapshot().sum * 1e-6;
}

// Prints the library's own spans from one real run (not metrics: the
// per-layer numbers come from the replay).
void PrintLibrarySpans(const obs::ObsSession& session) {
  for (const auto& [name, stats] : session.AggregateByName()) {
    Note("  src/obs span %-26s count %8llu total %10.3f ms", name.c_str(),
         static_cast<unsigned long long>(stats.count),
         static_cast<double>(stats.total_ns) * 1e-6);
  }
  if (session.dropped() > 0) {
    Note("  (%llu spans dropped by ring overflow)",
         static_cast<unsigned long long>(session.dropped()));
  }
}

RunResult RunMonitorWorkload(const MonitorWorkload& w, const MonitorInput& in,
                             const RunOptions& options) {
  RunResult result;
  const stream::StreamPipelineOptions o = PipelineOptions(w);
  Note("input: reference %zu rows (hash %016llx), stream %zu rows, %zu bytes "
       "(hash %016llx), drift from row %zu",
       in.reference.num_rows(),
       static_cast<unsigned long long>(HashFrame(in.reference)), in.rows,
       in.csv.size(),
       static_cast<unsigned long long>(HashBytes(in.csv.data(), in.csv.size())),
       in.drift_row);

  // ---- Correctness gate: before anything is measured.
  StatusOr<std::vector<WindowScore>> serial = SerialReference(in, o);
  if (!serial.ok()) {
    result.Fail("serial reference: " + serial.status().ToString());
    return result;
  }
  CheckAlarms(w, in, *serial, &result);

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const uint64_t start = NowNs();
    StatusOr<stream::StreamPipeline> pipeline =
        stream::StreamPipeline::Create(in.reference, o);
    setup_s.push_back(Seconds(NowNs() - start));
    if (!pipeline.ok()) result.Fail("Create: " + pipeline.status().ToString());
  }

  if (!options.trace) {
    if (w.rows_per_s > 0.0) {
      PacedRun paced = RunPaced(w, in, o);
      Account(w, in.rows, paced.run, *serial, &result);
      Note("offered %.0f rows/s for %.2f s; reader lag p99 %.3f ms", w.rows_per_s,
           paced.run.run_s, paced.lag_p99_ms);
      AddEndToEnd(paced.rows_per_s, setup_s, paced.latency_ms, &result);
    } else {
      std::vector<double> rates;
      std::vector<double> latency_ms;
      MeasureClosedLoop(w, in, o, *serial, options.seconds, &result, &rates,
                        &latency_ms);
      AddEndToEnd(Median(rates), setup_s, latency_ms, &result);
    }
    return result;
  }

  // ---- Traced run. (1) Tracing overhead on the real pipeline: the
  // closed-loop run (the live workload's first rows, unpaced) with and
  // without an active ObsSession, interleaved.
  const size_t overhead_rows =
      w.rows_per_s > 0.0 ? std::min(in.rows, kLiveOverheadRows) : in.rows;
  const std::string overhead_csv =
      in.csv.substr(0, in.line_starts[overhead_rows + 1]);
  std::vector<double> overhead_pct;
  std::vector<double> capacity;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double plain_s = 0.0;
    double traced_s = 0.0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool traced = (leg == 0) == (pair % 2 == 1);
      std::unique_ptr<obs::ObsSession> session;
      if (traced) session = std::make_unique<obs::ObsSession>(1 << 16);
      RealRun run = RunUnpaced(in, o, overhead_csv, nullptr);
      Account(w, overhead_rows, run, *serial, &result);
      (traced ? traced_s : plain_s) = run.run_s;
    }
    overhead_pct.push_back((traced_s / plain_s - 1.0) * 100.0);
    capacity.push_back(static_cast<double>(overhead_rows) / plain_s);
  }
  Note("closed-loop capacity: %.0f rows/s (median of %d untraced runs)",
       Median(capacity), kOverheadPairs);

  // (2) One real run, traced, for the queue waits, peaks, and failure
  // counts the pipeline itself records.
  PipelineObservations observed;
  obs::Registry::Global().Reset();
  {
    obs::ObsSession session(1 << 16);
    RealRun run;
    if (w.rows_per_s > 0.0) {
      PacedRun paced = RunPaced(w, in, o);
      observed.csv_lag_p99_ms = paced.lag_p99_ms;
      run = std::move(paced.run);
    } else {
      run = RunUnpaced(in, o, in.csv, nullptr);
    }
    Account(w, in.rows, run, *serial, &result);
    observed.chunk_queue_peak = static_cast<double>(run.result->chunk_queue_peak);
    observed.window_queue_peak = static_cast<double>(run.result->window_queue_peak);
    observed.rows_quarantined = static_cast<double>(run.result->rows_quarantined);
    observed.retries = static_cast<double>(run.result->retries);
    Note("real run: %.3f s", run.run_s);
    PrintLibrarySpans(session);
  }
  observed.chunk_push_wait_s = HistogramSeconds("stream.chunk_queue.push_wait_us");
  observed.chunk_pop_wait_s = HistogramSeconds("stream.chunk_queue.pop_wait_us");
  observed.window_push_wait_s = HistogramSeconds("stream.window_queue.push_wait_us");
  observed.window_pop_wait_s = HistogramSeconds("stream.window_queue.pop_wait_us");

  // (3) The serial replay behind every layer metric.
  LayerTrace trace;
  std::vector<WindowScore> replayed = ReplayLayers(in, o, &trace, &result);
  if (replayed.size() != serial->size() ||
      !SameScores(replayed, *serial, serial->size())) {
    result.Fail("replayed verdicts differ from the pipeline's");
  }
  Note("replay: %.3f s wall, coverage %.4f", trace.wall_s(), trace.coverage());
  if (trace.coverage() < 0.9) result.Fail("layer spans cover < 90% of the replay");
  AddLayerMetrics(trace, observed, Median(overhead_pct), &result);
  return result;
}

}  // namespace

RunResult RunReplayTumbling(const RunOptions& options) {
  common::SetDefaultThreadCount(kPoolLanes);
  const size_t reference_rows = options.smoke ? 2048 : 16384;
  const size_t rows = options.smoke ? 8192 : 65536;
  return RunMonitorWorkload(kReplay,
                            ReplayInput(options.seed, reference_rows, rows),
                            options);
}

RunResult RunLiveSlidingMixed(const RunOptions& options) {
  common::SetDefaultThreadCount(kPoolLanes);
  const size_t reference_rows = options.smoke ? 4096 : 16384;
  // The stream lasts the measured phase at the offered rate.
  const size_t rows = std::max<size_t>(
      static_cast<size_t>(kLive.rows_per_s * options.seconds),
      kLive.window_rows + 16 * Step(kLive));
  return RunMonitorWorkload(kLive,
                            LiveInput(options.seed, reference_rows, rows),
                            options);
}

}  // namespace ccs::perfbench
