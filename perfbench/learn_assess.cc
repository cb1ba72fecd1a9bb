// The `ccsynth learn`/`check`-shaped workload (trusted ML, paper §5):
// core::SafetyEnvelope::Fit learns a profile from training covariates,
// then AssessAll scores serving requests against it. In memory, no CSV.

#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "core/tml.h"
#include "inputs.h"
#include "obs/trace.h"
#include "workloads.h"

namespace ccs::perfbench {

namespace {

using core::SafetyEnvelope;
using core::TrustAssessment;

constexpr double kUnsafeThreshold = 0.05;
// Per-row Assess checks per request in the correctness gate.
constexpr size_t kSampledRows = 256;

bool SameAssessment(const TrustAssessment& a, const TrustAssessment& b) {
  return SameBits(a.violation, b.violation) && SameBits(a.trust, b.trust) &&
         a.unsafe == b.unsafe;
}

bool SameAssessments(const std::vector<TrustAssessment>& a,
                     const std::vector<TrustAssessment>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameAssessment(a[i], b[i])) return false;
  }
  return true;
}

StatusOr<SafetyEnvelope> Fit(const dataframe::DataFrame& training) {
  return SafetyEnvelope::Fit(training, {}, kUnsafeThreshold);
}

// The correctness gate: Fit is lane-count independent, AssessAll equals
// per-row Assess on a seeded sample of rows, and perturbed tuples are the
// ones the envelope flags. Returns each request's reference verdicts.
std::vector<std::vector<TrustAssessment>> Gate(const LearnAssessInput& in,
                                               const SafetyEnvelope& envelope,
                                               uint64_t seed,
                                               RunResult* result) {
  common::SetDefaultThreadCount(1);
  StatusOr<SafetyEnvelope> serial_fit = Fit(in.training);
  common::SetDefaultThreadCount(kPoolLanes);
  if (!serial_fit.ok() ||
      !core::ConstraintsBitwiseEqual(serial_fit->constraint(),
                                     envelope.constraint())) {
    result->Fail("Fit at 1 lane differs from Fit at 4 lanes");
  }

  Rng rng(MixSeed(seed, 1000));
  std::vector<std::vector<TrustAssessment>> reference;
  size_t unsafe_perturbed = 0, perturbed = 0, unsafe_clean = 0, clean = 0;
  for (size_t i = 0; i < in.requests.size(); ++i) {
    const dataframe::DataFrame& request = in.requests[i];
    StatusOr<std::vector<TrustAssessment>> all = envelope.AssessAll(request);
    if (!all.ok()) {
      result->Fail("AssessAll: " + all.status().ToString());
      reference.emplace_back();
      continue;
    }
    for (size_t k = 0; k < kSampledRows; ++k) {
      const size_t row = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(request.num_rows()) - 1));
      StatusOr<TrustAssessment> one = envelope.Assess(request, row);
      if (!one.ok() || !SameAssessment(*one, (*all)[row])) {
        result->Fail("AssessAll differs from per-row Assess");
        break;
      }
    }
    for (size_t row = 0; row < all->size(); ++row) {
      const bool broken = in.perturbed[i][row];
      (broken ? perturbed : clean) += 1;
      if ((*all)[row].unsafe) (broken ? unsafe_perturbed : unsafe_clean) += 1;
    }
    reference.push_back(std::move(*all));
  }
  const double perturbed_rate =
      perturbed == 0 ? 0.0 : static_cast<double>(unsafe_perturbed) / perturbed;
  const double clean_rate =
      clean == 0 ? 0.0 : static_cast<double>(unsafe_clean) / clean;
  Note("flagged unsafe: %.4f of perturbed tuples, %.4f of clean tuples",
       perturbed_rate, clean_rate);
  if (perturbed_rate <= clean_rate) {
    result->Fail("perturbed tuples are not flagged more often than clean ones");
  }
  return reference;
}

// One real trusted-ML cycle: retrain, then assess every request.
double RealCycleSeconds(const LearnAssessInput& in) {
  const uint64_t start = NowNs();
  StatusOr<SafetyEnvelope> envelope = Fit(in.training);
  CCS_CHECK(envelope.ok()) << envelope.status().ToString();
  for (const dataframe::DataFrame& request : in.requests) {
    CCS_CHECK(envelope->AssessAll(request).ok());
  }
  return Seconds(NowNs() - start);
}

}  // namespace

RunResult RunLearnAssess(const RunOptions& options) {
  common::SetDefaultThreadCount(kPoolLanes);
  const size_t training_rows = options.smoke ? 24000 : 800000;
  // Serving frames of 32768 tuples: long enough calls that a preempted
  // lane on a shared host moves the tail by a fraction, not a multiple.
  const size_t request_rows = options.smoke ? 2048 : 32768;
  const size_t requests = 2;
  const LearnAssessInput in =
      MakeLearnAssessInput(options.seed, training_rows, request_rows, requests);
  uint64_t serving_hash = HashBytes(nullptr, 0);
  for (const dataframe::DataFrame& request : in.requests) {
    const uint64_t h = HashFrame(request);
    serving_hash = HashBytes(&h, sizeof(h), serving_hash);
  }
  Note("input: training %zu rows (hash %016llx), %zu requests x %zu rows "
       "(hash %016llx)",
       in.training.num_rows(),
       static_cast<unsigned long long>(HashFrame(in.training)), requests,
       request_rows, static_cast<unsigned long long>(serving_hash));

  RunResult result;
  std::vector<double> setup_s;
  std::unique_ptr<SafetyEnvelope> envelope;
  for (int i = 0; i < kSetupReps; ++i) {
    const uint64_t start = NowNs();
    StatusOr<SafetyEnvelope> fit = Fit(in.training);
    setup_s.push_back(Seconds(NowNs() - start));
    if (!fit.ok()) {
      result.Fail("Fit: " + fit.status().ToString());
      return result;
    }
    envelope = std::make_unique<SafetyEnvelope>(std::move(*fit));
  }
  const std::vector<std::vector<TrustAssessment>> reference =
      Gate(in, *envelope, options.seed, &result);
  if (!result.correct()) return result;

  if (!options.trace) {
    // Requests round-robin until the measured phase is over; each
    // AssessAll call is one verdict-latency sample.
    std::vector<double> latency_ms;
    const uint64_t deadline =
        NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
    size_t next = 0;
    do {
      const dataframe::DataFrame& request = in.requests[next];
      const uint64_t start = NowNs();
      StatusOr<std::vector<TrustAssessment>> out = envelope->AssessAll(request);
      latency_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
      result.attempted += request.num_rows();
      if (!out.ok()) {
        result.failed += request.num_rows();
      } else if (!SameAssessments(*out, reference[next])) {
        result.Fail("AssessAll verdicts changed between calls");
      }
      next = (next + 1) % in.requests.size();
    } while (NowNs() < deadline);
    AddVerdictLatency(latency_ms, &result);
    const double p50_ms = Percentile(latency_ms, 50.0);
    result.Add("rows_per_s", static_cast<double>(request_rows) / (p50_ms * 1e-3),
               "rows/s");
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }

  // ---- Traced run. (1) Overhead: the real retrain-and-assess cycle with
  // and without an active ObsSession, interleaved.
  std::vector<double> overhead_pct;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double plain_s = 0.0;
    double traced_s = 0.0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool traced = (leg == 0) == (pair % 2 == 1);
      std::unique_ptr<obs::ObsSession> session;
      if (traced) session = std::make_unique<obs::ObsSession>(1 << 16);
      (traced ? traced_s : plain_s) = RealCycleSeconds(in);
    }
    overhead_pct.push_back((traced_s / plain_s - 1.0) * 100.0);
  }

  // (2) The serial replay: NumericViewFor -> AddView -> SymmetricEigen
  // (global and per partition), then Fit (Synthesizer::Synthesize), then
  // AssessAll per request.
  LayerTrace trace;
  trace.Begin();
  ReplayedSynthesis replayed =
      ReplaySynthesisLayers(in.training, core::SynthesisOptions(), &trace);
  StatusOr<SafetyEnvelope> fit =
      trace.Span("core.synthesize", [&] { return Fit(in.training); });
  CCS_CHECK(fit.ok()) << fit.status().ToString();
  trace.AddWork("core.synthesize", PartitionCount(fit->constraint()));
  for (size_t i = 0; i < in.requests.size(); ++i) {
    StatusOr<std::vector<TrustAssessment>> out =
        trace.Span("core.score", [&] { return fit->AssessAll(in.requests[i]); });
    trace.AddWork("core.score", in.requests[i].num_rows());
    result.attempted += in.requests[i].num_rows();
    if (!out.ok()) {
      result.failed += in.requests[i].num_rows();
    } else if (!SameAssessments(*out, reference[i])) {
      result.Fail("replayed verdicts differ from the measured ones");
    }
  }
  trace.End();
  if (!ReplayMatchesProfile(replayed, fit->constraint())) {
    result.Fail("replayed Gram/eigen layers do not reproduce the profile");
  }
  Note("replay: %.3f s wall, coverage %.4f", trace.wall_s(), trace.coverage());
  if (trace.coverage() < 0.9) result.Fail("layer spans cover < 90% of the replay");
  AddLayerMetrics(trace, PipelineObservations(), Median(overhead_pct), &result);
  return result;
}

}  // namespace ccs::perfbench
