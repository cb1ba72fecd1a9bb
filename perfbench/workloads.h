// The three benchmark workloads. Each generates its inputs from the seed,
// runs its correctness gate, and then measures either the end-to-end
// metrics (untraced) or the per-layer metrics (traced). README.md in this
// directory defines every metric.

#ifndef CCS_PERFBENCH_WORKLOADS_H_
#define CCS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/constraint.h"
#include "core/synthesizer.h"
#include "dataframe/dataframe.h"
#include "harness.h"

namespace ccs::perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// How long the measured phase runs.
  double seconds = 10.0;
  /// false: end-to-end metrics; true: the traced run's per-layer metrics.
  bool trace = false;
  /// Tiny inputs, for the benchmark's own smoke test.
  bool smoke = false;
};

/// Scoring and synthesis lanes, fixed so results do not depend on the
/// machine's core count.
inline constexpr size_t kPoolLanes = 4;

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 7;

/// Traced runs: interleaved (untraced, traced) pairs of the real run
/// behind trace.overhead_pct.
inline constexpr int kOverheadPairs = 5;

RunResult RunReplayTumbling(const RunOptions& options);
RunResult RunLiveSlidingMixed(const RunOptions& options);
RunResult RunLearnAssess(const RunOptions& options);

/// What the traced run reads from one real pipeline run (through
/// obs::Registry and PipelineStats) rather than from the replay. All zero
/// for a workload without a pipeline.
struct PipelineObservations {
  double chunk_push_wait_s = 0.0;
  double chunk_pop_wait_s = 0.0;
  double window_push_wait_s = 0.0;
  double window_pop_wait_s = 0.0;
  double chunk_queue_peak = 0.0;
  double window_queue_peak = 0.0;
  double rows_quarantined = 0.0;
  double retries = 0.0;
  /// How late the paced reader pulled rows, p99 (live workload only).
  double csv_lag_p99_ms = 0.0;
};

/// Appends verdict_latency_p50_ms and verdict_latency_p90_ms. p99 is
/// printed as a note only: on a shared host it tracks other tenants'
/// contention episodes (its run-to-run spread reached 0.56 of its median
/// over ten runs, against at most 0.11 for p90 outside such episodes).
void AddVerdictLatency(const std::vector<double>& latency_ms,
                       RunResult* result);

/// Appends every per-layer metric, in BENCHMARK.json order, from the
/// replay's spans and the real run's observations.
void AddLayerMetrics(const LayerTrace& trace,
                     const PipelineObservations& pipeline,
                     double overhead_pct, RunResult* result);

/// The conjunct sigmas implied by a replay of the synthesis layers: one
/// list for the global constraint, one per (switch attribute, value).
struct ReplayedSynthesis {
  std::vector<double> global;
  std::map<std::string, std::map<std::string, std::vector<double>>> cases;
};

/// Replays the work Synthesizer::Synthesize does inside a workload's
/// set-up through the public layer calls, each in its span: the Gram walk
/// (NumericViewFor/PartitionBy + GramAccumulator::AddView, "linalg.gram")
/// and SymmetricEigen ("linalg.eigen"), once over the whole frame and once
/// per partition of every eligible categorical switch.
ReplayedSynthesis ReplaySynthesisLayers(const dataframe::DataFrame& frame,
                                        const core::SynthesisOptions& options,
                                        LayerTrace* trace);

/// True when the replayed eigenvalues reproduce every conjunct sigma of
/// `profile` bit for bit — the replay did the work the set-up did.
bool ReplayMatchesProfile(const ReplayedSynthesis& replayed,
                          const core::ConformanceConstraint& profile);

/// Disjunctive cases in `profile` (core.synthesize.partitions).
size_t PartitionCount(const core::ConformanceConstraint& profile);

}  // namespace ccs::perfbench

#endif  // CCS_PERFBENCH_WORKLOADS_H_
