// Composable adversarial stream scenarios — the regression gauntlet.
//
// The synth generators (src/synth/) reproduce the paper's well-behaved
// drift shapes; production must survive inputs the paper never saw. A
// ScenarioSpec composes a base generator (trend, HAR, EVL, LED, tabular)
// with an ordered list of perturbation stages — drift schedules, schema
// evolution mid-stream, categorical cardinality blow-up, NaN/±Inf
// bursts, duplicate floods, row reordering, truncation — and renders the
// result as (reference DataFrame, CSV byte stream).
//
// Seed discipline: rendering is a pure function of (spec, seed). The
// reference, the base stream, and every stage draw from their own
// Rng derived via a fixed mix of the master seed and the stage index, so
// the rendered bytes are replayable byte-for-byte and adding a stage
// never perturbs the randomness of the ones before it. No scenario code
// touches threads; the parallelism lives in the pipeline being driven
// (see scenario/runner.h and the determinism contract in
// docs/architecture.md).

#ifndef CCS_SCENARIO_SCENARIO_H_
#define CCS_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "common/statusor.h"
#include "dataframe/dataframe.h"

namespace ccs::scenario {

/// "No row limit" sentinel for StageSpec::end_row.
inline constexpr size_t kAllRows = std::numeric_limits<size_t>::max();

/// One perturbation stage, applied to the textual row stream after the
/// base generator (and any earlier stages) ran. Stage kinds:
///
///   abrupt-drift       add `magnitude` to numeric `column` in
///                      [begin_row, end_row)
///   gradual-drift      same, ramping linearly from 0 to `magnitude`
///                      across the range
///   recurring-drift    add `magnitude` on alternating `period`-row
///                      blocks inside the range
///   add-column         rows in range carry one extra trailing field
///                      (upstream schema evolved; the header did not)
///   drop-column        rows in range lose their last field
///   cardinality-blowup categorical `column` becomes unique per row in
///                      range (unbounded dictionary growth)
///   nan-burst          `column` cells in range become "NaN" with
///                      probability `fraction` (the CSV layer rejects
///                      NaN spellings -> structured ingest teardown)
///   inf-burst          `column` cells in range become "±inf" with
///                      probability `fraction` (parsed; non-finite
///                      scores propagate deterministically)
///   garble             `column` cells in range become an unparseable
///                      token with probability `fraction`
///   duplicate-flood    rows in range all become copies of the row at
///                      begin_row
///   reorder            rows in range are shuffled (stage-seeded)
///   truncate           the stream is cut to its first begin_row rows
struct StageSpec {
  std::string kind;
  /// Target column name; kinds that need one fail the render if it is
  /// absent from the stream header.
  std::string column;
  double magnitude = 0.0;
  /// Per-row hit probability for the burst kinds.
  double fraction = 1.0;
  size_t begin_row = 0;
  size_t end_row = kAllRows;
  size_t period = 0;
};

/// A full scenario: base generator, stream geometry, monitor geometry,
/// and the perturbation stages. Rendering and running are pure functions
/// of (spec, seed).
struct ScenarioSpec {
  std::string name;
  /// Base generator: "trend", "har", "cardio", "led", or "evl:<name>"
  /// (any of synth::EvlDatasetNames(), e.g. "evl:4CR").
  std::string generator = "trend";
  size_t reference_rows = 400;
  size_t stream_rows = 1200;
  /// Monitor geometry handed to StreamPipeline by the runner.
  size_t window_rows = 50;
  size_t slide_rows = 0;  ///< 0 = tumbling.
  double alarm_threshold = 0.2;
  size_t refresh_every = 0;
  size_t chunk_rows = 64;
  std::vector<StageSpec> stages;
  /// Per-stage failure policies handed to StreamPipeline by the runner,
  /// in the stream/supervisor.h string grammar ("fail-fast",
  /// "quarantine", "retry:N", "retry:N+quarantine"). Empty = fail-fast.
  std::string ingest_policy;
  std::string window_policy;
  std::string score_policy;
  /// Fault points armed for the run (common/fault.h). The injector seed
  /// is a fixed mix of the run seed, so injected faults are as
  /// replayable as the rendered stream. Error actions only in the
  /// catalogue and fuzzer; crash actions are for the CLI kill-and-resume
  /// drills.
  std::vector<common::fault::FaultPoint> faults;
};

/// The textual row stream perturbation stages operate on. Cells are CSV
/// field values (pre-quoting); rows may be ragged after schema-evolution
/// stages — that is the point.
struct RawStream {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Serializes to RFC-4180 CSV (quoting fields that need it).
  std::string ToCsv() const;
};

/// A rendered scenario: the clean reference frame the monitor learns
/// from, plus the (perturbed) serving stream as CSV bytes.
struct RenderedScenario {
  dataframe::DataFrame reference;
  RawStream stream;
};

/// Renders `spec` deterministically: equal (spec, seed) pairs yield
/// byte-identical streams and bitwise-identical references.
/// InvalidArgument on unknown generators/kinds or a missing stage
/// column.
StatusOr<RenderedScenario> Render(const ScenarioSpec& spec, uint64_t seed);

/// Names of the built-in catalogue, in a fixed order. Covers drift
/// (abrupt/gradual/recurring), schema evolution, cardinality blow-up,
/// NaN/Inf bursts, duplicates, reordering, short/empty streams, and the
/// paper-workload generators (HAR, EVL, LED, cardio).
const std::vector<std::string>& CatalogueNames();

/// The catalogue spec for `name`; NotFound otherwise. `scale` multiplies
/// every row count and row boundary (window geometry included) so
/// benches can run the same shapes at larger sizes.
StatusOr<ScenarioSpec> CatalogueSpec(const std::string& name,
                                     size_t scale = 1);

/// Draws a random-but-valid spec (generator, geometry, stages) from
/// `rng` — the fuzzing harness' composer. The result renders and runs
/// on any seed.
ScenarioSpec RandomSpec(Rng* rng);

/// Parses a scenario spec from its JSON form (see docs/scenarios.md),
/// in the common/json.h grammar. Unknown keys are rejected so typos
/// cannot silently no-op.
StatusOr<ScenarioSpec> ParseSpecJson(const std::string& text);

/// Serializes a spec to the JSON form ParseSpecJson accepts —
/// round-trips exactly, so a failing fuzz draw can be replayed from the
/// printed JSON.
std::string SpecToJson(const ScenarioSpec& spec);

}  // namespace ccs::scenario

#endif  // CCS_SCENARIO_SCENARIO_H_
