// ccsynth — command-line front end for the conformance-constraint library.
//
// Subcommands:
//   ccsynth learn   <train.csv> [-o constraints.ccs] [--no-disjunctive]
//                   [--bound-multiplier C] [--sql] [--pretty]
//       Discover constraints from a CSV and write them to disk.
//   ccsynth check   <constraints.ccs> <serving.csv> [--threshold T]
//       Score every serving tuple; print per-tuple violations and the
//       unsafe fraction (exit code 2 if any tuple exceeds the threshold).
//   ccsynth drift   <reference.csv> <window.csv> [<window.csv> ...]
//       Quantify drift of each window against the reference.
//   ccsynth monitor --reference <ref.csv> <stream.csv|-> [--window N]
//                   [--slide M] [--threshold T] [--refresh-every K]
//                   [--threads N] [--json] [--stats] [--trace out.json]
//                   [--metrics-json] [--heartbeat N]
//                   [--checkpoint ckpt [--checkpoint-every K] [--resume]]
//                   [--faults spec.json|'{...}'] [--ingest-policy P]
//                   [--score-policy P]
//       Tail a CSV stream through the pipelined serving engine: one
//       score line per window (CSV or JSON lines), alarms when a window
//       exceeds the threshold (exit code 2 if any fired), optional
//       periodic incremental re-synthesis of the reference profile.
//       --stats additionally reports per-window allocation behaviour
//       (rows copied per emit, rolling-buffer reallocations and
//       capacity), the rows actually scored, the reader handoffs
//       between the ingest and scoring threads, peak RSS, and the kernel
//       instance the host selected (sse2 or avx2), making the zero-copy
//       windowing and score-once scoring observable from the CLI.
//       --trace records stage spans into a Chrome trace-event
//       file (chrome://tracing / Perfetto);
//       --metrics-json dumps the metrics registry (counters, queue-wait
//       histograms) as one JSON line on stderr after the run;
//       --heartbeat emits a progress line to stderr every N windows
//       (window-count based, so output is deterministic). See
//       docs/observability.md.
//       Robustness (docs/robustness.md): --checkpoint writes resumable
//       state every --checkpoint-every consumed windows (and at end of
//       run); --resume continues from that file after a crash, with the
//       resumed alarm trace bitwise identical to the uninterrupted run.
//       --checkpoint-every and --resume without --checkpoint exit 1.
//       --faults arms the deterministic fault injector from a JSON spec
//       (a file path or an inline '{...}' literal); --ingest-policy and
//       --score-policy take "fail-fast" (default), "quarantine",
//       "retry:N", or "retry:N+quarantine". SIGINT/SIGTERM drain
//       in-flight windows, write the final checkpoint, and exit 3.
//       Exit codes: 0 clean, 1 error, 2 alarms fired, 3 stopped by
//       signal (see README).
//   ccsynth explain <train.csv> <serving.csv>
//       Per-attribute responsibility for serving non-conformance.
//   ccsynth diff    <a.csv> <b.csv>
//       Dataset diff report (asymmetric violations, partitions, blame).
//   ccsynth gauntlet [--scenario <name|spec.json>] [--seed N]
//                    [--threads N] [--json] [--list] [--all]
//                    [--check-golden DIR] [--update-golden DIR] [--fuzz N]
//                    [--trace out.json]
//       Run adversarial stream scenarios (src/scenario/) through the
//       serving engine and emit deterministic alarm traces. --list
//       enumerates the catalogue; --check-golden diffs every catalogue
//       trace against DIR/<name>.trace (exit 1 on drift, printing the
//       regeneration command); --update-golden rewrites them; --fuzz
//       composes N random scenarios and verifies trace determinism
//       (rerun + 1-vs-4-thread bitwise identity), printing the failing
//       spec JSON and seed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/datadiff.h"
#include "core/drift.h"
#include "core/explain.h"
#include "core/serialize.h"
#include "core/synthesizer.h"
#include "dataframe/csv.h"
#include "linalg/matrix.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "stream/checkpoint.h"
#include "stream/pipeline.h"
#include "stream/supervisor.h"

namespace {

using namespace ccs;  // NOLINT

int Fail(const Status& status) {
  std::fprintf(stderr, "ccsynth: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ccsynth "
               "<learn|check|drift|monitor|explain|diff|gauntlet> ...\n"
               "  learn    <train.csv> [-o out.ccs] [--no-disjunctive]\n"
               "           [--bound-multiplier C] [--sql] [--pretty]\n"
               "  check    <constraints.ccs> <serving.csv> [--threshold T]\n"
               "  drift    <reference.csv> <window.csv>...\n"
               "  monitor  --reference <ref.csv> <stream.csv|-> [--window N]\n"
               "           [--slide M] [--threshold T] [--refresh-every K]\n"
               "           [--threads N] [--json] [--stats]\n"
               "           [--trace out.json] [--metrics-json] [--heartbeat N]\n"
               "           [--checkpoint ckpt [--checkpoint-every K]\n"
               "           [--resume]] [--faults spec.json|'{...}']\n"
               "           [--ingest-policy P] [--score-policy P]\n"
               "  explain  <train.csv> <serving.csv>\n"
               "  diff     <a.csv> <b.csv>\n"
               "  gauntlet [--scenario <name|spec.json>] [--seed N]\n"
               "           [--threads N] [--json] [--list] [--all]\n"
               "           [--check-golden DIR] [--update-golden DIR]\n"
               "           [--fuzz N] [--trace out.json]\n");
  return 1;
}

StatusOr<dataframe::DataFrame> Load(const std::string& path) {
  return dataframe::ReadCsvFile(path);
}

// SIGINT/SIGTERM raise the pipeline's stop flag; the run drains and
// exits 3. async-signal-safe: a lone atomic store.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true); }

int RunLearn(const std::vector<std::string>& args) {
  std::string train_path, out_path;
  bool emit_sql = false, emit_pretty = false;
  core::SynthesisOptions options;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i] == "--no-disjunctive") {
      options.include_disjunctive = false;
    } else if (args[i] == "--bound-multiplier" && i + 1 < args.size()) {
      auto c = ParseDouble(args[++i]);
      if (!c.has_value() || *c <= 0.0) {
        return Fail(Status::InvalidArgument("bad --bound-multiplier"));
      }
      options.bound_multiplier = *c;
    } else if (args[i] == "--sql") {
      emit_sql = true;
    } else if (args[i] == "--pretty") {
      emit_pretty = true;
    } else if (train_path.empty()) {
      train_path = args[i];
    } else {
      return Usage();
    }
  }
  if (train_path.empty()) return Usage();

  auto df = Load(train_path);
  if (!df.ok()) return Fail(df.status());
  core::Synthesizer synthesizer(options);
  auto phi = synthesizer.Synthesize(*df);
  if (!phi.ok()) return Fail(phi.status());

  if (emit_pretty || (out_path.empty() && !emit_sql)) {
    std::printf("%s", core::ToPrettyString(*phi).c_str());
  }
  if (emit_sql) {
    std::printf("%s\n", core::ToSqlCheck(*phi).c_str());
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << core::Serialize(*phi);
    if (!out.flush()) return Fail(Status::IoError("cannot write " + out_path));
    std::fprintf(stderr, "ccsynth: wrote %s (%zu rows, %zu groups)\n",
                 out_path.c_str(), df->num_rows(), phi->num_groups());
  }
  return 0;
}

int RunCheck(const std::vector<std::string>& args) {
  std::string constraint_path, serving_path;
  double threshold = 0.05;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threshold" && i + 1 < args.size()) {
      auto t = ParseDouble(args[++i]);
      if (!t.has_value()) {
        return Fail(Status::InvalidArgument("bad --threshold"));
      }
      threshold = *t;
    } else if (constraint_path.empty()) {
      constraint_path = args[i];
    } else if (serving_path.empty()) {
      serving_path = args[i];
    } else {
      return Usage();
    }
  }
  if (serving_path.empty()) return Usage();

  std::ifstream in(constraint_path);
  if (!in) return Fail(Status::IoError("cannot read " + constraint_path));
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto phi = core::Deserialize(buffer.str());
  if (!phi.ok()) return Fail(phi.status());

  auto serving = Load(serving_path);
  if (!serving.ok()) return Fail(serving.status());
  auto violations = phi->ViolationAll(*serving);
  if (!violations.ok()) return Fail(violations.status());

  size_t unsafe = 0;
  for (size_t i = 0; i < violations->size(); ++i) {
    bool flagged = (*violations)[i] > threshold;
    if (flagged) ++unsafe;
    std::printf("%zu\t%.6f\t%s\n", i, (*violations)[i],
                flagged ? "UNSAFE" : "ok");
  }
  std::fprintf(stderr,
               "ccsynth: %zu / %zu tuples unsafe (threshold %.3f), mean "
               "violation %.6f\n",
               unsafe, violations->size(), threshold, violations->Mean());
  return unsafe > 0 ? 2 : 0;
}

int RunDrift(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  auto reference = Load(args[0]);
  if (!reference.ok()) return Fail(reference.status());
  core::ConformanceDriftQuantifier quantifier;
  Status fitted = quantifier.Fit(*reference);
  if (!fitted.ok()) return Fail(fitted);
  std::printf("%-32s %s\n", "window", "drift");
  for (size_t i = 1; i < args.size(); ++i) {
    auto window = Load(args[i]);
    if (!window.ok()) return Fail(window.status());
    auto score = quantifier.Score(*window);
    if (!score.ok()) return Fail(score.status());
    std::printf("%-32s %.6f\n", args[i].c_str(), *score);
  }
  return 0;
}

int RunMonitor(const std::vector<std::string>& args) {
  std::string reference_path, stream_path, trace_path, faults_arg;
  bool emit_json = false;
  bool emit_stats = false;
  bool emit_metrics_json = false;
  bool resume = false;
  bool checkpoint_every_given = false;
  size_t heartbeat = 0;
  stream::StreamPipelineOptions options;
  options.alarm_threshold = 0.05;
  for (size_t i = 0; i < args.size(); ++i) {
    auto flag_value = [&](const char* name) -> const std::string* {
      if (args[i] == name && i + 1 < args.size()) return &args[++i];
      return nullptr;
    };
    if (const std::string* v = flag_value("--reference")) {
      reference_path = *v;
    } else if (const std::string* v = flag_value("--window")) {
      auto n = ParseInt(*v);
      if (!n.has_value() || *n <= 0) {
        return Fail(Status::InvalidArgument("bad --window"));
      }
      options.window_rows = static_cast<size_t>(*n);
    } else if (const std::string* v = flag_value("--slide")) {
      auto n = ParseInt(*v);
      if (!n.has_value() || *n <= 0) {
        return Fail(Status::InvalidArgument("bad --slide"));
      }
      options.slide_rows = static_cast<size_t>(*n);
    } else if (const std::string* v = flag_value("--threshold")) {
      auto t = ParseDouble(*v);
      if (!t.has_value()) return Fail(Status::InvalidArgument("bad --threshold"));
      options.alarm_threshold = *t;
    } else if (const std::string* v = flag_value("--refresh-every")) {
      auto n = ParseInt(*v);
      if (!n.has_value() || *n < 0) {
        return Fail(Status::InvalidArgument("bad --refresh-every"));
      }
      options.refresh_every = static_cast<size_t>(*n);
    } else if (const std::string* v = flag_value("--threads")) {
      auto n = ParseInt(*v);
      if (!n.has_value() || *n < 0) {
        return Fail(Status::InvalidArgument("bad --threads"));
      }
      options.num_threads = static_cast<size_t>(*n);
    } else if (const std::string* v = flag_value("--trace")) {
      trace_path = *v;
    } else if (const std::string* v = flag_value("--heartbeat")) {
      auto n = ParseInt(*v);
      if (!n.has_value() || *n <= 0) {
        return Fail(Status::InvalidArgument("bad --heartbeat"));
      }
      heartbeat = static_cast<size_t>(*n);
    } else if (const std::string* v = flag_value("--checkpoint")) {
      options.checkpoint_path = *v;
    } else if (const std::string* v = flag_value("--checkpoint-every")) {
      auto n = ParseInt(*v);
      if (!n.has_value() || *n < 0) {
        return Fail(Status::InvalidArgument("bad --checkpoint-every"));
      }
      options.checkpoint_every = static_cast<size_t>(*n);
      checkpoint_every_given = true;
    } else if (const std::string* v = flag_value("--faults")) {
      faults_arg = *v;
    } else if (const std::string* v = flag_value("--ingest-policy")) {
      auto policy = stream::FailurePolicy::Parse(*v);
      if (!policy.ok()) return Fail(policy.status());
      options.ingest_policy = *policy;
    } else if (const std::string* v = flag_value("--score-policy")) {
      auto policy = stream::FailurePolicy::Parse(*v);
      if (!policy.ok()) return Fail(policy.status());
      options.score_policy = *policy;
    } else if (args[i] == "--resume") {
      resume = true;
    } else if (args[i] == "--json") {
      emit_json = true;
    } else if (args[i] == "--stats") {
      emit_stats = true;
    } else if (args[i] == "--metrics-json") {
      emit_metrics_json = true;
    } else if (stream_path.empty() && !StartsWith(args[i], "--")) {
      stream_path = args[i];
    } else {
      // Unknown flag, duplicate positional, or a flag missing its value.
      return Usage();
    }
  }
  if (reference_path.empty() || stream_path.empty()) return Usage();
  if (resume && options.checkpoint_path.empty()) {
    return Fail(Status::InvalidArgument("--resume requires --checkpoint"));
  }
  if (checkpoint_every_given && options.checkpoint_path.empty()) {
    return Fail(
        Status::InvalidArgument("--checkpoint-every requires --checkpoint"));
  }
  // Tail semantics: parse no coarser than the window step, so on a live
  // stream the first score appears as soon as its window is complete
  // instead of after a full default-sized ingest chunk.
  size_t step = options.slide_rows == 0 ? options.window_rows
                                        : options.slide_rows;
  options.chunk_rows = std::min(options.chunk_rows, step);

  // Graceful shutdown: the first SIGINT/SIGTERM drains rather than
  // kills. SA_RESETHAND restores the default disposition after it, so a
  // second signal terminates outright — the escape hatch when ingest is
  // blocked on a silent stream that never yields the flag check.
  // Installed before Create because options are copied there.
  options.stop = &g_stop;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  action.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  if (!faults_arg.empty()) {
    // An inline '{...}' literal or a spec file path.
    std::string text = faults_arg;
    if (!StartsWith(faults_arg, "{")) {
      std::ifstream spec_file(faults_arg);
      if (!spec_file) {
        return Fail(Status::IoError("cannot read " + faults_arg));
      }
      std::ostringstream buffer;
      buffer << spec_file.rdbuf();
      text = buffer.str();
    }
    auto fault_spec = common::fault::ParseFaultSpecJson(text);
    if (!fault_spec.ok()) return Fail(fault_spec.status());
    Status armed =
        common::fault::Injector::Global().Arm(std::move(*fault_spec));
    if (!armed.ok()) return Fail(armed);
  }

  auto reference = Load(reference_path);
  if (!reference.ok()) return Fail(reference.status());
  auto pipeline = stream::StreamPipeline::Create(*reference, options);
  if (!pipeline.ok()) return Fail(pipeline.status());

  if (resume) {
    auto checkpoint = stream::ReadCheckpointFile(options.checkpoint_path);
    if (checkpoint.ok()) {
      Status restored = pipeline->Restore(*checkpoint);
      if (!restored.ok()) return Fail(restored);
      std::fprintf(stderr,
                   "ccsynth: resumed from %s (windows=%zu rows=%zu "
                   "refreshes=%zu)\n",
                   options.checkpoint_path.c_str(),
                   checkpoint->windows_committed, checkpoint->rows_consumed,
                   checkpoint->refreshes);
    } else if (checkpoint.status().code() == StatusCode::kNotFound) {
      // First run: nothing to resume, start fresh.
      std::fprintf(stderr, "ccsynth: no checkpoint at %s, starting fresh\n",
                   options.checkpoint_path.c_str());
    } else {
      return Fail(checkpoint.status());
    }
  }

  std::ifstream file;
  if (stream_path != "-") {
    file.open(stream_path);
    if (!file) return Fail(Status::IoError("cannot read " + stream_path));
  } else {
    // A stdio-synced std::cin reports nothing available, so the reader
    // would refill one byte at a time. Unsynced, it reads blocks of what
    // the pipe holds and still returns once a record is complete. ccsynth
    // writes only through stdio, so no output ordering changes.
    std::ios::sync_with_stdio(false);
  }
  std::istream& in = stream_path == "-" ? std::cin : file;

  if (!emit_json) std::printf("window,drift,alarm\n");
  size_t windows_seen = 0, alarms_seen = 0;
  auto emit = [emit_json, heartbeat, &windows_seen,
               &alarms_seen](const core::WindowScore& score) {
    if (emit_json) {
      std::printf("{\"window\":%zu,\"drift\":%s,\"alarm\":%s}\n",
                  score.window_index, FormatDouble(score.drift).c_str(),
                  score.alarm ? "true" : "false");
    } else {
      std::printf("%zu,%s,%d\n", score.window_index,
                  FormatDouble(score.drift).c_str(), score.alarm ? 1 : 0);
    }
    ++windows_seen;
    if (score.alarm) ++alarms_seen;
    // Window-count cadence, not wall-clock: heartbeat output is a
    // deterministic function of the stream.
    if (heartbeat > 0 && windows_seen % heartbeat == 0) {
      std::fprintf(stderr, "ccsynth: heartbeat windows=%zu alarms=%zu\n",
                   windows_seen, alarms_seen);
      std::fflush(stderr);
    }
    // Scores must reach a piped consumer as they happen, not when the
    // (possibly endless) stream closes.
    std::fflush(stdout);
  };
  // The session (when tracing) brackets exactly the pipeline run; every
  // span inside Run closes before Run returns, so writing the trace
  // after it sees the complete recording.
  std::optional<obs::ObsSession> session;
  if (!trace_path.empty()) session.emplace();
  auto stats = pipeline->Run(in, emit);
  if (!trace_path.empty()) {
    Status written = session->WriteChromeTrace(trace_path);
    if (!written.ok()) return Fail(written);
    std::fprintf(stderr, "ccsynth: wrote trace %s (%zu spans, %llu dropped)\n",
                 trace_path.c_str(), session->Collect().size(),
                 static_cast<unsigned long long>(session->dropped()));
    session.reset();
  }
  if (!stats.ok()) {
    // Partial progress still reaches the operator: the run failed, but
    // the stats describe how far it got (the satellite fix — the old
    // StatusOr return dropped them).
    std::fprintf(stderr,
                 "ccsynth: failed after %zu rows, %zu windows, %zu alarms "
                 "(%zu quarantined rows, %zu retries)\n",
                 stats->rows_ingested, stats->windows_scored, stats->alarms,
                 stats->rows_quarantined, stats->retries);
    return Fail(stats.status);
  }

  std::fprintf(stderr,
               "ccsynth: %zu rows -> %zu windows, %zu alarms, %zu refreshes "
               "(%.0f rows/sec, queue peaks %zu/%zu)\n",
               stats->rows_ingested, stats->windows_scored, stats->alarms,
               stats->refreshes, stats->rows_per_second,
               stats->chunk_queue_peak, stats->window_queue_peak);
  if (stats->rows_quarantined != 0 || stats->windows_quarantined != 0 ||
      stats->retries != 0 || stats->faults_injected != 0) {
    std::fprintf(stderr,
                 "ccsynth: degraded: %zu rows quarantined, %zu windows "
                 "quarantined, %zu retries, %zu faults injected\n",
                 stats->rows_quarantined, stats->windows_quarantined,
                 stats->retries, stats->faults_injected);
  }
  if (stats->checkpoints_written != 0) {
    std::fprintf(stderr, "ccsynth: wrote %zu checkpoint(s) to %s\n",
                 stats->checkpoints_written, options.checkpoint_path.c_str());
  }
  if (emit_stats) {
    // The copy-free-windowing confirmation: an emitted window is a view
    // of a generation buffer, so the only rows copied are the live tails
    // carried into new generations (fewer than one window each, none on
    // an aligned tumbling run, whose windows are their chunks).
    std::fprintf(stderr,
                 "ccsynth: windows carried %zu rows over %zu generation "
                 "changes (capacity %zu rows)\n",
                 stats->window_rows_copied, stats->window_buffer_reallocs,
                 stats->window_buffer_capacity_rows);
    // Which thread read the stream: a caught-up (live) stream hands the
    // reader to the scoring thread at least once; a file is read ahead
    // on the ingest thread and hands it over only at its end.
    std::fprintf(stderr, "ccsynth: reader handoffs %zu\n",
                 stats->reader_handoffs);
    // The score-once confirmation: a sliding window scores only the
    // rows it adds, so rows scored per window falls to about the slide.
    std::fprintf(stderr,
                 "ccsynth: scored %zu rows (%.0f rows/window)\n",
                 stats->rows_scored,
                 stats->windows_scored > 0
                     ? static_cast<double>(stats->rows_scored) /
                           static_cast<double>(stats->windows_scored)
                     : 0.0);
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
      // Linux reports ru_maxrss in KiB.
      std::fprintf(stderr, "ccsynth: peak RSS %.1f MiB\n",
                   static_cast<double>(usage.ru_maxrss) / 1024.0);
    }
    // Ties throughput and NaN payloads to the host's instance.
    std::fprintf(stderr, "ccsynth: kernels: %s\n",
                 linalg::KernelIsaName(linalg::SelectedKernelIsa()));
  }
  if (emit_metrics_json) {
    // Last stderr line of the run: the registry the pipeline itself
    // reported into, so it cannot disagree with the --stats numbers.
    std::fprintf(stderr, "%s\n", obs::Registry::Global().ToJson().c_str());
  }
  if (stats->stopped) {
    // Distinct from both "clean" and "alarms fired": the operator asked
    // the run to end early and it drained. Takes precedence over 2 —
    // the alarm count above is from a cut-short stream.
    std::fprintf(stderr, "ccsynth: stopped by signal (drained cleanly)\n");
    return 3;
  }
  return stats->alarms > 0 ? 2 : 0;
}

int RunExplain(const std::vector<std::string>& args) {
  if (args.size() != 2) return Usage();
  auto train = Load(args[0]);
  if (!train.ok()) return Fail(train.status());
  auto serving = Load(args[1]);
  if (!serving.ok()) return Fail(serving.status());
  auto explainer = core::NonConformanceExplainer::FromTrainingData(*train);
  if (!explainer.ok()) return Fail(explainer.status());
  auto responsibilities = explainer->ExplainDataset(*serving);
  if (!responsibilities.ok()) return Fail(responsibilities.status());
  for (const auto& r : *responsibilities) {
    std::printf("%-24s %.4f\n", r.attribute.c_str(), r.responsibility);
  }
  return 0;
}

std::string TraceToJson(const scenario::ScenarioTrace& trace) {
  std::string out =
      "{\"scenario\":\"" + common::EscapeJson(trace.scenario) +
      "\",\"detector\":\"" + common::EscapeJson(trace.detector) +
      "\",\"seed\":" + std::to_string(trace.seed) + ",\"events\":[";
  bool first = true;
  for (const scenario::TraceEvent& e : trace.events) {
    if (!first) out += ",";
    first = false;
    if (e.kind == scenario::TraceEvent::Kind::kRefresh) {
      out += "{\"refresh\":" + std::to_string(e.window_index) + "}";
    } else {
      out += "{\"window\":" + std::to_string(e.window_index) + ",\"score\":\"" +
             FormatDouble(e.score) + "\",\"alarm\":" +
             (e.alarm ? "true" : "false") + "}";
    }
  }
  out += "],\"status\":\"" + common::EscapeJson(trace.terminal.ToString()) +
         "\",\"windows\":" + std::to_string(trace.windows_scored) +
         ",\"alarms\":" +
         std::to_string(trace.alarms) + ",\"refreshes\":" +
         std::to_string(trace.refreshes) + "}";
  return out;
}

// Resolves --scenario: a catalogue name, or a path to a spec JSON file.
StatusOr<scenario::ScenarioSpec> ResolveScenario(const std::string& arg) {
  std::ifstream file(arg);
  if (file) {
    std::stringstream buffer;
    buffer << file.rdbuf();
    auto spec = scenario::ParseSpecJson(buffer.str());
    if (spec.ok() && spec->name.empty()) spec->name = arg;
    return spec;
  }
  return scenario::CatalogueSpec(arg);
}

// Verifies one fuzz draw: the trace must be identical on a rerun and at
// 4 scoring threads. Prints the replayable (spec JSON, seed) on failure.
int CheckFuzzDraw(const scenario::ScenarioSpec& spec, uint64_t seed) {
  auto first = scenario::RunScenario(spec, seed, /*num_threads=*/1);
  auto rerun = scenario::RunScenario(spec, seed, /*num_threads=*/1);
  auto threaded = scenario::RunScenario(spec, seed, /*num_threads=*/4);
  const char* failure = nullptr;
  if (!first.ok() || !rerun.ok() || !threaded.ok()) {
    failure = "run failed";
  } else if (!scenario::TracesIdentical(*first, *rerun)) {
    failure = "trace differs across reruns";
  } else if (!scenario::TracesIdentical(*first, *threaded)) {
    failure = "trace differs at 1 vs 4 threads";
  }
  if (failure == nullptr) return 0;
  std::fprintf(stderr, "ccsynth gauntlet: FUZZ FAILURE (%s) at seed %llu\n",
               failure, static_cast<unsigned long long>(seed));
  if (!first.ok()) {
    std::fprintf(stderr, "  status: %s\n",
                 first.status().ToString().c_str());
  }
  std::fprintf(stderr, "  replay spec:\n%s\n",
               scenario::SpecToJson(spec).c_str());
  std::fprintf(stderr,
               "  replay: write the spec to spec.json and run: ccsynth "
               "gauntlet --scenario spec.json --seed %llu\n",
               static_cast<unsigned long long>(seed));
  return 1;
}

int RunGauntlet(const std::vector<std::string>& args) {
  bool list = false, emit_json = false, all = false;
  uint64_t seed = 1;
  size_t threads = 1;
  size_t fuzz = 0;
  std::string scenario_arg, check_dir, update_dir, trace_path;
  for (size_t i = 0; i < args.size(); ++i) {
    auto flag_value = [&](const char* name) -> const std::string* {
      if (args[i] == name && i + 1 < args.size()) return &args[++i];
      return nullptr;
    };
    if (const std::string* v = flag_value("--scenario")) {
      scenario_arg = *v;
    } else if (const std::string* v = flag_value("--seed")) {
      auto n = ParseInt(*v);
      if (!n.has_value() || *n < 0) {
        return Fail(Status::InvalidArgument("bad --seed"));
      }
      seed = static_cast<uint64_t>(*n);
    } else if (const std::string* v = flag_value("--threads")) {
      auto n = ParseInt(*v);
      if (!n.has_value() || *n <= 0) {
        return Fail(Status::InvalidArgument("bad --threads"));
      }
      threads = static_cast<size_t>(*n);
    } else if (const std::string* v = flag_value("--fuzz")) {
      auto n = ParseInt(*v);
      if (!n.has_value() || *n <= 0) {
        return Fail(Status::InvalidArgument("bad --fuzz"));
      }
      fuzz = static_cast<size_t>(*n);
    } else if (const std::string* v = flag_value("--check-golden")) {
      check_dir = *v;
    } else if (const std::string* v = flag_value("--update-golden")) {
      update_dir = *v;
    } else if (const std::string* v = flag_value("--trace")) {
      trace_path = *v;
    } else if (args[i] == "--list") {
      list = true;
    } else if (args[i] == "--json") {
      emit_json = true;
    } else if (args[i] == "--all") {
      all = true;
    } else {
      return Usage();
    }
  }

  if (list) {
    for (const std::string& name : scenario::CatalogueNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  // With --trace, record the whole gauntlet body (whichever mode runs)
  // under one session and write the trace even on early exits. Golden
  // traces stay bitwise identical: ObsSpans never touch the scenario's
  // alarm trace (see docs/observability.md).
  auto body = [&]() -> int {
  if (fuzz > 0) {
    size_t failures = 0;
    for (size_t i = 0; i < fuzz; ++i) {
      // One composer seed per draw, derived from --seed: each draw is
      // replayable on its own.
      uint64_t draw_seed = seed + i;
      Rng composer(draw_seed);
      scenario::ScenarioSpec spec = scenario::RandomSpec(&composer);
      failures += static_cast<size_t>(CheckFuzzDraw(spec, draw_seed));
    }
    std::fprintf(stderr, "ccsynth gauntlet: fuzz %zu draws, %zu failures\n",
                 fuzz, failures);
    return failures > 0 ? 1 : 0;
  }

  // Golden modes and --all sweep the catalogue; otherwise a single
  // --scenario is required.
  std::vector<scenario::ScenarioSpec> specs;
  if (all || !check_dir.empty() || !update_dir.empty()) {
    if (!scenario_arg.empty()) return Usage();
    for (const std::string& name : scenario::CatalogueNames()) {
      auto spec = scenario::CatalogueSpec(name);
      if (!spec.ok()) return Fail(spec.status());
      specs.push_back(std::move(*spec));
    }
  } else {
    if (scenario_arg.empty()) return Usage();
    auto spec = ResolveScenario(scenario_arg);
    if (!spec.ok()) return Fail(spec.status());
    specs.push_back(std::move(*spec));
  }

  size_t mismatches = 0;
  for (const scenario::ScenarioSpec& spec : specs) {
    auto trace = scenario::RunScenario(spec, seed, threads);
    if (!trace.ok()) return Fail(trace.status());
    if (!update_dir.empty()) {
      std::string path = update_dir + "/" + spec.name + ".trace";
      std::ofstream out(path);
      if (!out) return Fail(Status::IoError("cannot write " + path));
      out << trace->ToString();
      std::fprintf(stderr, "ccsynth gauntlet: wrote %s\n", path.c_str());
      continue;
    }
    if (!check_dir.empty()) {
      std::string path = check_dir + "/" + spec.name + ".trace";
      std::ifstream golden(path);
      if (!golden) {
        std::fprintf(stderr, "ccsynth gauntlet: MISSING golden %s\n",
                     path.c_str());
        ++mismatches;
        continue;
      }
      std::stringstream buffer;
      buffer << golden.rdbuf();
      if (buffer.str() == trace->ToString()) {
        std::fprintf(stderr, "ccsynth gauntlet: %-24s ok\n",
                     spec.name.c_str());
      } else {
        std::fprintf(stderr, "ccsynth gauntlet: %-24s TRACE DRIFT vs %s\n",
                     spec.name.c_str(), path.c_str());
        ++mismatches;
      }
      continue;
    }
    if (emit_json) {
      std::printf("%s\n", TraceToJson(*trace).c_str());
    } else {
      std::printf("%s", trace->ToString().c_str());
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "ccsynth gauntlet: %zu trace(s) drifted. If the change is "
                 "intended, regenerate with:\n  ccsynth gauntlet "
                 "--update-golden %s\nand commit the result (see "
                 "docs/scenarios.md).\n",
                 mismatches, check_dir.c_str());
    return 1;
  }
  return 0;
  };  // body

  if (trace_path.empty()) return body();
  obs::ObsSession session;
  int rc = body();
  Status written = session.WriteChromeTrace(trace_path);
  if (!written.ok()) return Fail(written);
  std::fprintf(stderr,
               "ccsynth gauntlet: wrote trace %s (%zu spans, %llu dropped)\n",
               trace_path.c_str(), session.Collect().size(),
               static_cast<unsigned long long>(session.dropped()));
  return rc;
}

int RunDiff(const std::vector<std::string>& args) {
  if (args.size() != 2) return Usage();
  auto a = Load(args[0]);
  if (!a.ok()) return Fail(a.status());
  auto b = Load(args[1]);
  if (!b.ok()) return Fail(b.status());
  auto diff = core::DiffDatasets(*a, *b);
  if (!diff.ok()) return Fail(diff.status());
  std::printf("%s", diff->ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "learn") return RunLearn(args);
  if (command == "check") return RunCheck(args);
  if (command == "drift") return RunDrift(args);
  if (command == "monitor") return RunMonitor(args);
  if (command == "explain") return RunExplain(args);
  if (command == "diff") return RunDiff(args);
  if (command == "gauntlet") return RunGauntlet(args);
  return Usage();
}
