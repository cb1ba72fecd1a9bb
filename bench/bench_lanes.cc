// Lane scaling (paper §6: synthesis and scoring are linear in rows and
// parallelise across partitions). One lane list {1, 2, 4, hardware}
// drives three sections, each timed best-of-k against a one-lane
// baseline:
//
//   synthesize  Synthesizer::Synthesize (sharded Gram accumulation +
//               work-queue partitions) on a wide frame with a skewed
//               12-value switch.
//   assess      SafetyEnvelope::AssessAll (chunk-parallel scoring
//               kernel) against the per-row Assess loop, serving a
//               second seed of the same frame shape.
//   pipeline    stream::StreamPipeline (CSV ingest || windowing +
//               pool-parallel scoring, refresh every 16 windows) against
//               the serial parse-then-ObserveWindow loop, plus the
//               tracing on/off overhead line.
//
// Every lane's result is CHECKed bitwise identical to the one-lane path
// before any number is reported: the determinism contract is a
// precondition of the benchmark, not an afterthought. Pass --quick for
// a CI-sized run.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/constraint.h"
#include "core/monitor.h"
#include "core/synthesizer.h"
#include "core/tml.h"
#include "dataframe/csv.h"
#include "dataframe/dataframe.h"
#include "obs/trace.h"
#include "stream/pipeline.h"
#include "stream/windower.h"

namespace {

using namespace ccs;  // NOLINT

// Geometry shared by the sections; --quick shrinks it to CI size.
struct Geometry {
  size_t wide_rows;       // synthesize + assess frame rows
  size_t reference_rows;  // pipeline reference relation
  size_t stream_rows;     // pipeline CSV stream
  size_t window_rows;     // pipeline tumbling window
  int reps;               // best-of-k repetitions
};

constexpr size_t kWideAttributes = 40;
constexpr size_t kStreamAttributes = 32;

void PrintTableHeader() {
  std::printf("\n%-28s%12s%14s%10s\n", "path", "rows/sec", "wall (ms)",
              "speedup");
}

// One table row: throughput, wall time, and speedup over `baseline_sec`.
void PrintLaneRow(const std::string& label, size_t rows, double sec,
                  double baseline_sec) {
  std::printf("%-28s%12.0f%14.2f%9.2fx\n", label.c_str(),
              static_cast<double>(rows) / sec, sec * 1e3, baseline_sec / sec);
}

std::string LaneLabel(const std::string& path, size_t lanes) {
  return path + ", " + std::to_string(lanes) +
         (lanes == 1 ? " lane" : " lanes");
}

// A wide frame: kWideAttributes correlated numeric columns plus one
// skewed categorical switch — half the rows land in one partition
// ("seg00"), the rest spread over 11 more. The skew is the point: a
// contiguous chunking of partitions would serialize on seg00, the work
// queue must not.
dataframe::DataFrame WideSkewedFrame(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(kWideAttributes,
                                        std::vector<double>(rows));
  std::vector<std::string> segment(rows);
  for (size_t r = 0; r < rows; ++r) {
    int64_t seg = rng.Bernoulli(0.5) ? 0 : rng.UniformInt(1, 11);
    segment[r] = "seg" + std::string(seg < 10 ? "0" : "") + std::to_string(seg);
    double base = rng.Gaussian(static_cast<double>(seg), 1.0);
    for (size_t c = 0; c < kWideAttributes; ++c) {
      // Each attribute follows the shared latent factor with its own
      // slope, so low-variance projections genuinely exist.
      cols[c][r] = base * (0.2 + 0.05 * static_cast<double>(c)) +
                   rng.Gaussian(0.0, 0.1);
    }
  }
  dataframe::DataFrame df;
  for (size_t c = 0; c < kWideAttributes; ++c) {
    bench::CheckOk(df.AddNumericColumn("a" + std::to_string(c),
                                       std::move(cols[c])));
  }
  bench::CheckOk(df.AddCategoricalColumn("segment", std::move(segment)));
  return df;
}

// Correlated numeric columns following a shared latent factor. From row
// `drift_from` on, odd-indexed columns drop off the factor (a shift along
// the factor itself would stay inside the low-variance projections — the
// paper's point that conformance constraints track relationship drift,
// not magnitude drift).
dataframe::DataFrame LatentFactorFrame(size_t rows, uint64_t seed,
                                       size_t drift_from) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(kStreamAttributes,
                                        std::vector<double>(rows));
  for (size_t r = 0; r < rows; ++r) {
    double base = rng.Gaussian(0.0, 1.0);
    double broken = r >= drift_from ? 4.0 : 0.0;
    for (size_t c = 0; c < kStreamAttributes; ++c) {
      double factor = c % 2 == 1 ? base + broken : base;
      cols[c][r] = factor * (0.2 + 0.05 * static_cast<double>(c)) +
                   rng.Gaussian(0.0, 0.1);
    }
  }
  dataframe::DataFrame df;
  for (size_t c = 0; c < kStreamAttributes; ++c) {
    bench::CheckOk(
        df.AddNumericColumn("a" + std::to_string(c), std::move(cols[c])));
  }
  return df;
}

// ---- synthesize -----------------------------------------------------

void SynthesizeSection(const dataframe::DataFrame& training,
                       const std::vector<size_t>& lanes, int reps) {
  bench::Banner("synthesize: Synthesizer::Synthesize\n" +
                std::to_string(training.num_rows()) +
                " rows x 40 numeric attrs + skewed 12-value switch");
  core::Synthesizer synthesizer;

  // The one-lane run (lanes[0]) is the reference result and baseline
  // time: shard/partition code paths included, determinism makes it the
  // serial path by construction.
  core::ConformanceConstraint reference;
  double serial_sec = 0.0;
  PrintTableHeader();
  for (size_t t : lanes) {
    common::SetDefaultThreadCount(t);
    core::ConformanceConstraint phi;
    double sec = bench::BestSeconds(
        [&] {
          auto result = synthesizer.Synthesize(training);
          bench::CheckOk(result.status());
          phi = std::move(*result);
        },
        reps);
    if (t == 1) {
      reference = phi;
      serial_sec = sec;
    }
    // Bitwise, not approximately: coefficients, bounds, partition keys.
    CCS_CHECK(core::ConstraintsBitwiseEqual(reference, phi))
        << "parallel synthesis diverged from the serial path at " << t
        << " lane(s)";
    PrintLaneRow(LaneLabel("Synthesize", t), training.num_rows(), sec,
                 serial_sec);
  }
  common::SetDefaultThreadCount(0);
}

// ---- assess ---------------------------------------------------------

void AssessSection(const dataframe::DataFrame& training,
                   const dataframe::DataFrame& serving,
                   const std::vector<size_t>& lanes, int reps) {
  bench::Banner("assess: SafetyEnvelope::AssessAll vs per-row Assess\n"
                "fit on the synthesize frame, serve " +
                std::to_string(serving.num_rows()) +
                " rows of a second seed");
  auto envelope = core::SafetyEnvelope::Fit(training, {});
  bench::CheckOk(envelope.status());
  const size_t rows = serving.num_rows();

  // Per-row baseline: the pre-batching loop (simplify + align each row).
  std::vector<core::TrustAssessment> baseline(rows);
  double baseline_sec = bench::BestSeconds(
      [&] {
        for (size_t i = 0; i < rows; ++i) {
          auto a = envelope->Assess(serving, i);
          bench::CheckOk(a.status());
          baseline[i] = *a;
        }
      },
      reps);

  PrintTableHeader();
  PrintLaneRow("per-row Assess", rows, baseline_sec, baseline_sec);
  for (size_t t : lanes) {
    common::SetDefaultThreadCount(t);
    std::vector<core::TrustAssessment> batched;
    double sec = bench::BestSeconds(
        [&] {
          auto all = envelope->AssessAll(serving);
          bench::CheckOk(all.status());
          batched = std::move(*all);
        },
        reps);
    // Identical results, not just close: the batched kernel preserves
    // the per-row floating-point evaluation order.
    for (size_t i = 0; i < rows; ++i) {
      CCS_CHECK(batched[i].violation == baseline[i].violation)
          << "batched/per-row mismatch at row " << i << " with " << t
          << " lane(s)";
    }
    PrintLaneRow(LaneLabel("AssessAll", t), rows, sec, baseline_sec);
  }
  common::SetDefaultThreadCount(0);
}

// ---- pipeline -------------------------------------------------------

// The serial baseline: the whole stream parsed up front, then the plain
// ObserveWindow loop with the pipeline's refresh cadence.
std::vector<core::WindowScore> SerialLoop(
    const dataframe::DataFrame& reference, const std::string& csv_text,
    const stream::StreamPipelineOptions& options) {
  auto monitor = core::StreamMonitor::Create(reference, options.alarm_threshold,
                                             options.synthesis);
  bench::CheckOk(monitor.status());
  core::IncrementalSynthesizer profile(reference.NumericNames(),
                                       options.synthesis);
  bench::CheckOk(profile.ObserveAll(reference));
  std::istringstream in(csv_text);
  auto stream_df = dataframe::ReadCsv(in);
  bench::CheckOk(stream_df.status());
  auto windower =
      stream::Windower::Create(options.window_rows, options.slide_rows);
  bench::CheckOk(windower.status());
  auto windows = windower->Push(*stream_df);
  bench::CheckOk(windows.status());
  size_t scored = 0;
  for (const dataframe::DataFrame& window : *windows) {
    bench::CheckOk(monitor->ObserveWindow(window).status());
    bench::CheckOk(profile.ObserveAll(window));
    if (++scored % options.refresh_every == 0) {
      auto refreshed = profile.Synthesize();
      bench::CheckOk(refreshed.status());
      bench::CheckOk(monitor->RefreshReference(*refreshed));
    }
  }
  return monitor->history();
}

// Runs the pipeline once over `csv_text` and CHECKs its history bitwise
// identical to the serial loop's.
void RunPipelineChecked(const dataframe::DataFrame& reference,
                        const std::string& csv_text,
                        const stream::StreamPipelineOptions& options,
                        const std::vector<core::WindowScore>& serial) {
  auto pipeline = stream::StreamPipeline::Create(reference, options);
  bench::CheckOk(pipeline.status());
  std::istringstream in(csv_text);
  bench::CheckOk(pipeline->Run(in).status);
  const std::vector<core::WindowScore>& history = pipeline->history();
  CCS_CHECK(serial.size() == history.size())
      << "window count diverged at " << options.num_threads << " lane(s)";
  for (size_t i = 0; i < serial.size(); ++i) {
    CCS_CHECK(serial[i].window_index == history[i].window_index &&
              serial[i].drift == history[i].drift &&  // Exact doubles.
              serial[i].alarm == history[i].alarm)
        << "pipeline score " << i << " diverged from the serial loop at "
        << options.num_threads << " lane(s)";
  }
}

void PipelineSection(const Geometry& g, const std::vector<size_t>& lanes) {
  bench::Banner("pipeline: stream::StreamPipeline vs serial ObserveWindow "
                "loop\n" +
                std::to_string(g.stream_rows) + "-row CSV stream x 32 attrs, " +
                std::to_string(g.window_rows) + "-row tumbling windows,\n" +
                "profile refresh every 16 windows, drift from row " +
                std::to_string(g.stream_rows / 2));

  dataframe::DataFrame reference =
      LatentFactorFrame(g.reference_rows, 42, ~0ull);
  std::ostringstream out;
  bench::CheckOk(dataframe::WriteCsv(
      LatentFactorFrame(g.stream_rows, 43, g.stream_rows / 2), out));
  const std::string csv_text = out.str();

  stream::StreamPipelineOptions options;
  options.window_rows = g.window_rows;
  options.alarm_threshold = 0.2;
  options.refresh_every = 16;
  options.chunk_rows = 2048;
  options.queue_capacity = 8;

  // Serial baseline: parse + windowing + scoring on one lane, one after
  // the other.
  common::SetDefaultThreadCount(1);
  const std::vector<core::WindowScore> serial =
      SerialLoop(reference, csv_text, options);
  CCS_CHECK(std::any_of(serial.begin(), serial.end(),
                        [](const core::WindowScore& s) { return s.alarm; }))
      << "drift scenario failed to alarm";
  double serial_sec = bench::BestSeconds(
      [&] { SerialLoop(reference, csv_text, options); }, g.reps);
  common::SetDefaultThreadCount(0);

  PrintTableHeader();
  PrintLaneRow("serial ObserveWindow loop", g.stream_rows, serial_sec,
               serial_sec);
  for (size_t t : lanes) {
    options.num_threads = t;
    double sec = bench::BestSeconds(
        [&] { RunPipelineChecked(reference, csv_text, options, serial); },
        g.reps);
    PrintLaneRow(LaneLabel("pipeline", t), g.stream_rows, sec, serial_sec);
  }

  // Observability overhead: the widest lane count once with no session
  // (spans compile to a null-ring check) and once with an active
  // ObsSession recording every stage/task span. The committed histories
  // stay bitwise identical either way — only the wall clock may move.
  const auto run = [&] {
    RunPipelineChecked(reference, csv_text, options, serial);
  };
  double off_sec = bench::BestSeconds(run, g.reps);
  double on_sec = bench::BestSeconds(
      [&] {
        obs::ObsSession session;
        run();
      },
      g.reps);
  std::printf(
      "\ntracing at %zu lanes: off %.2f ms, on %.2f ms; active-session "
      "overhead: %+.2f%% (target < 5%%)\n",
      options.num_threads, off_sec * 1e3, on_sec * 1e3,
      (on_sec / off_sec - 1.0) * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") != 0) {
      std::fprintf(stderr, "usage: bench_lanes [--quick]\n");
      return 1;
    }
    quick = true;
  }
  // Full size reproduces the recorded tables; --quick keeps every shape
  // (skewed partitions, several windows per refresh, drift halfway) at
  // CI scale.
  const Geometry g = quick ? Geometry{4000, 1000, 8000, 256, 2}
                           : Geometry{24000, 4000, 48000, 512, 3};

  const size_t hardware =
      std::max<size_t>(std::thread::hardware_concurrency(), 1);
  std::vector<size_t> lanes = {1, 2, 4, hardware};
  std::sort(lanes.begin(), lanes.end());
  lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());

  bench::Banner(std::string(quick ? "(--quick) " : "") +
                "Lane scaling: synthesize, assess, pipeline at " +
                std::to_string(lanes.size()) + " lane counts (" +
                std::to_string(hardware) + " hardware threads)");

  const dataframe::DataFrame training = WideSkewedFrame(g.wide_rows, 42);
  SynthesizeSection(training, lanes, g.reps);
  AssessSection(training, WideSkewedFrame(g.wide_rows, 43), lanes, g.reps);
  PipelineSection(g, lanes);

  std::printf(
      "\n(every lane bitwise identical to its one-lane path; the pipeline\n"
      "overlaps ingest with windowing and scoring, so speedup > 1 is\n"
      "expected even at 1 score lane on multicore hardware)\n");
  return 0;
}
