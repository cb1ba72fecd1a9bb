#include "harness.h"

#include <sys/resource.h>

#include <cmath>
#include <cstring>

#include "linalg/gram.h"
#include "linalg/symmetric_eigen.h"
#include "workloads.h"

namespace ccs::perfbench {

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void AddVerdictLatency(const std::vector<double>& latency_ms,
                       RunResult* result) {
  Note("verdict latency: %zu samples, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms",
       latency_ms.size(), Percentile(latency_ms, 50.0),
       Percentile(latency_ms, 90.0), Percentile(latency_ms, 99.0));
  result->Add("verdict_latency_p50_ms", Percentile(latency_ms, 50.0), "ms");
  result->Add("verdict_latency_p90_ms", Percentile(latency_ms, 90.0), "ms");
}

namespace {

// One Gram walk plus eigendecomposition, as SynthesizeSimple does it,
// returning the conjunct sigmas it implies.
std::vector<double> ReplaySimple(const dataframe::DataFrame& frame,
                                 LayerTrace* trace) {
  const std::vector<std::string> names = frame.NumericNames();
  linalg::GramAccumulator gram(names.size());
  trace->Span("linalg.gram", [&] {
    StatusOr<linalg::MatrixView> view = frame.NumericViewFor(names);
    CCS_CHECK(view.ok()) << view.status().ToString();
    gram.AddView(*view);
  });
  trace->AddWork("linalg.gram", frame.num_rows());
  StatusOr<linalg::EigenDecomposition> eig = trace->Span(
      "linalg.eigen", [&] { return linalg::SymmetricEigen(gram.Covariance()); });
  CCS_CHECK(eig.ok()) << eig.status().ToString();
  std::vector<double> sigmas;
  for (const linalg::EigenPair& pair : eig->pairs) {
    sigmas.push_back(std::sqrt(std::max(pair.eigenvalue, 0.0)));
  }
  return sigmas;
}

bool SigmasMatch(const std::vector<double>& sigmas,
                 const core::SimpleConstraint& constraint) {
  const auto& conjuncts = constraint.conjuncts();
  if (conjuncts.size() != sigmas.size()) return false;
  for (size_t i = 0; i < sigmas.size(); ++i) {
    if (!SameBits(conjuncts[i].stddev(), sigmas[i])) return false;
  }
  return true;
}

}  // namespace

ReplayedSynthesis ReplaySynthesisLayers(const dataframe::DataFrame& frame,
                                        const core::SynthesisOptions& options,
                                        LayerTrace* trace) {
  ReplayedSynthesis out;
  if (options.include_global) out.global = ReplaySimple(frame, trace);
  if (!options.include_disjunctive) return out;
  for (const std::string& attr : frame.CategoricalNames()) {
    StatusOr<std::map<std::string, dataframe::DataFrame>> parts =
        trace->Span("linalg.gram", [&] { return frame.PartitionBy(attr); });
    CCS_CHECK(parts.ok()) << parts.status().ToString();
    if (parts->size() > options.max_categorical_domain) continue;
    std::map<std::string, std::vector<double>>& cases = out.cases[attr];
    for (const auto& [value, part] : *parts) {
      if (part.num_rows() < options.min_partition_rows) continue;
      cases[value] = ReplaySimple(part, trace);
    }
  }
  return out;
}

bool ReplayMatchesProfile(const ReplayedSynthesis& replayed,
                          const core::ConformanceConstraint& profile) {
  if (!SigmasMatch(replayed.global, profile.global())) return false;
  if (replayed.cases.size() != profile.disjunctions().size()) return false;
  for (const core::DisjunctiveConstraint& disjunction : profile.disjunctions()) {
    auto it = replayed.cases.find(disjunction.attribute());
    if (it == replayed.cases.end() ||
        it->second.size() != disjunction.cases().size()) {
      return false;
    }
    for (const auto& [value, constraint] : disjunction.cases()) {
      auto sigmas = it->second.find(value);
      if (sigmas == it->second.end() ||
          !SigmasMatch(sigmas->second, constraint)) {
        return false;
      }
    }
  }
  return true;
}

size_t PartitionCount(const core::ConformanceConstraint& profile) {
  size_t cases = 0;
  for (const core::DisjunctiveConstraint& d : profile.disjunctions()) {
    cases += d.cases().size();
  }
  return cases;
}

void AddLayerMetrics(const LayerTrace& trace,
                     const PipelineObservations& pipeline,
                     double overhead_pct, RunResult* result) {
  const double csv_busy = trace.busy_s("dataframe.csv");
  const double csv_mb = static_cast<double>(trace.work("dataframe.csv.bytes")) * 1e-6;
  auto count = [](uint64_t n) { return static_cast<double>(n); };

  result->Add("dataframe.csv.busy_s", csv_busy, "s");
  result->Add("dataframe.csv.rows", count(trace.work("dataframe.csv")), "count");
  result->Add("dataframe.csv.mb_per_busy_s",
              csv_busy > 0.0 ? csv_mb / csv_busy : 0.0, "MB/s");
  result->Add("dataframe.csv.lag_p99_ms", pipeline.csv_lag_p99_ms, "ms");

  result->Add("stream.windower.busy_s", trace.busy_s("stream.windower"), "s");
  result->Add("stream.windower.rows_copied",
              count(trace.work("stream.windower")), "count");
  result->Add("stream.windower.buffer_reallocs",
              count(trace.work("stream.windower.reallocs")), "count");
  result->Add("stream.chunk_queue.push_wait_s", pipeline.chunk_push_wait_s, "s");
  result->Add("stream.chunk_queue.pop_wait_s", pipeline.chunk_pop_wait_s, "s");
  result->Add("stream.window_queue.push_wait_s", pipeline.window_push_wait_s,
              "s");
  result->Add("stream.window_queue.pop_wait_s", pipeline.window_pop_wait_s, "s");
  result->Add("stream.chunk_queue.peak", pipeline.chunk_queue_peak, "count");
  result->Add("stream.window_queue.peak", pipeline.window_queue_peak, "count");
  result->Add("stream.rows_quarantined", pipeline.rows_quarantined, "count");
  result->Add("stream.retries", pipeline.retries, "count");

  result->Add("core.score.busy_s", trace.busy_s("core.score"), "s");
  result->Add("core.score.rows", count(trace.work("core.score")), "count");
  result->Add("core.score.calls", count(trace.calls("core.score")), "count");
  result->Add("core.fold.busy_s", trace.busy_s("core.fold"), "s");
  result->Add("core.fold.rows", count(trace.work("core.fold")), "count");
  result->Add("core.refresh.busy_s", trace.busy_s("core.refresh"), "s");
  result->Add("core.refresh.count", count(trace.calls("core.refresh")), "count");
  result->Add("core.synthesize.busy_s", trace.busy_s("core.synthesize"), "s");
  result->Add("core.synthesize.partitions",
              count(trace.work("core.synthesize")), "count");

  result->Add("linalg.gram.busy_s", trace.busy_s("linalg.gram"), "s");
  result->Add("linalg.gram.rows", count(trace.work("linalg.gram")), "count");
  result->Add("linalg.eigen.busy_s", trace.busy_s("linalg.eigen"), "s");
  result->Add("linalg.eigen.calls", count(trace.calls("linalg.eigen")), "count");

  result->Add("trace.coverage", trace.coverage(), "fraction");
  result->Add("trace.overhead_pct", overhead_pct, "%");
}

}  // namespace ccs::perfbench
