// Seeded input generators for the three workloads. Every input is a pure
// function of (seed, size): the program under test only ever sees the
// generated CSV bytes or frames, and the benchmark prints a hash of each so
// two runs can be shown to have measured the same inputs.

#ifndef CCS_PERFBENCH_INPUTS_H_
#define CCS_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataframe/dataframe.h"

namespace ccs::perfbench {

/// splitmix64 of (seed, stream): independent generator seeds per input.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Hash of a frame's schema and every cell, in schema order.
uint64_t HashFrame(const dataframe::DataFrame& df);

/// A monitor workload's inputs: the reference relation the profile is
/// learned from, and the serving stream as CSV bytes.
struct MonitorInput {
  dataframe::DataFrame reference;
  std::string csv;
  /// Byte offset of the header line, of every data row, and finally
  /// csv.size() (rows + 2 entries): the pacing reader's release points.
  std::vector<size_t> line_starts;
  size_t rows = 0;
  /// First data row of the injected relationship drift.
  size_t drift_row = 0;
};

/// 32 numeric attributes on one latent factor (the bench_stream_pipeline
/// shape, written at %.10g); from row rows/2 on, odd attributes leave the
/// factor.
MonitorInput ReplayInput(uint64_t seed, size_t reference_rows, size_t rows);

/// 24 numeric attributes (4-decimal cells) whose factor slopes depend on
/// the skewed 12-value switch `region`, plus an independent skewed
/// 6-value switch `channel`. From row rows/2 on, odd attributes of the
/// dominant region leave the factor — a local drift the disjunctive
/// profile sees.
MonitorInput LiveInput(uint64_t seed, size_t reference_rows, size_t rows);

/// learn_assess inputs: a training frame (40 numeric attributes plus a
/// skewed 12-value switch, the bench_parallel_synth shape) and serving
/// requests of the same shape, a fixed fraction of whose rows break the
/// attribute relationships.
struct LearnAssessInput {
  dataframe::DataFrame training;
  std::vector<dataframe::DataFrame> requests;
  std::vector<std::vector<bool>> perturbed;  // Per request, per row.
};

LearnAssessInput MakeLearnAssessInput(uint64_t seed, size_t training_rows,
                                      size_t request_rows, size_t requests);

}  // namespace ccs::perfbench

#endif  // CCS_PERFBENCH_INPUTS_H_
