#include "scenario/scenario.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "synth/evl.h"
#include "synth/har.h"
#include "synth/led.h"
#include "synth/tabular.h"

namespace ccs::scenario {

using dataframe::Column;
using dataframe::DataFrame;

namespace {

// splitmix64: derives independent per-stage seeds from the master seed.
// Fixed here forever — golden traces depend on it.
uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Seed streams 0/1 feed the reference and base stream; stage i draws
// from stream 2 + i, so inserting a stage never reseeds earlier ones.
constexpr uint64_t kReferenceStream = 0;
constexpr uint64_t kBaseStream = 1;
constexpr uint64_t kFirstStageStream = 2;

void AppendFrameRows(const DataFrame& df, RawStream* out) {
  for (size_t r = 0; r < df.num_rows(); ++r) {
    std::vector<std::string> row;
    row.reserve(df.num_columns());
    for (size_t c = 0; c < df.num_columns(); ++c) {
      const Column& col = df.column(c);
      row.push_back(col.is_numeric() ? FormatDouble(col.NumericAt(r))
                                     : col.CategoricalAt(r));
    }
    out->rows.push_back(std::move(row));
  }
}

void SetHeaderFromFrame(const DataFrame& df, RawStream* out) {
  out->header.clear();
  for (size_t c = 0; c < df.num_columns(); ++c) {
    out->header.push_back(df.schema().attribute(c).name);
  }
}

// ------------------------------------------------------- base generators

// x uniform, y = x + noise tight trend, tag cycling an 8-value
// vocabulary — the simplest stream with both a numeric invariant to
// break and a categorical column to blow up.
DataFrame TrendFrame(size_t n, Rng* rng) {
  std::vector<double> x(n), y(n);
  std::vector<std::string> tag(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng->Uniform(-5.0, 5.0);
    y[i] = x[i] + rng->Gaussian(0.0, 0.1);
    tag[i] = "t" + std::to_string(i % 8);
  }
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  CCS_CHECK(df.AddCategoricalColumn("tag", std::move(tag)).ok());
  return df;
}

Status RenderTrend(const ScenarioSpec& spec, uint64_t seed,
                   RenderedScenario* out) {
  Rng ref_rng(MixSeed(seed, kReferenceStream));
  Rng base_rng(MixSeed(seed, kBaseStream));
  out->reference = TrendFrame(spec.reference_rows, &ref_rng);
  DataFrame stream = TrendFrame(spec.stream_rows, &base_rng);
  SetHeaderFromFrame(stream, &out->stream);
  AppendFrameRows(stream, &out->stream);
  return Status::OK();
}

// Sedentary-trained HAR monitor; the second half of the stream switches
// to mobile activities (the Fig. 6(a) mixture, as a serving stream).
Status RenderHar(const ScenarioSpec& spec, uint64_t seed,
                 RenderedScenario* out) {
  Rng ref_rng(MixSeed(seed, kReferenceStream));
  Rng base_rng(MixSeed(seed, kBaseStream));
  const std::vector<std::string> persons = synth::HarPersons(3);
  const size_t pairs_sed = persons.size() * synth::SedentaryActivities().size();
  const size_t pairs_mob = persons.size() * synth::MobileActivities().size();

  CCS_ASSIGN_OR_RETURN(
      out->reference,
      synth::GenerateHar(persons, synth::SedentaryActivities(),
                         std::max<size_t>(1, spec.reference_rows / pairs_sed),
                         &ref_rng));
  const size_t half = spec.stream_rows / 2;
  CCS_ASSIGN_OR_RETURN(
      DataFrame sedentary,
      synth::GenerateHar(persons, synth::SedentaryActivities(),
                         std::max<size_t>(1, half / pairs_sed) + 1,
                         &base_rng));
  CCS_ASSIGN_OR_RETURN(
      DataFrame mobile,
      synth::GenerateHar(persons, synth::MobileActivities(),
                         std::max<size_t>(1, (spec.stream_rows - half) /
                                                 pairs_mob) +
                             1,
                         &base_rng));
  SetHeaderFromFrame(sedentary, &out->stream);
  AppendFrameRows(sedentary, &out->stream);
  out->stream.rows.resize(std::min(out->stream.rows.size(), half));
  AppendFrameRows(mobile, &out->stream);
  out->stream.rows.resize(std::min(out->stream.rows.size(), spec.stream_rows));
  return Status::OK();
}

// Healthy-trained cardio monitor served a diseased population from the
// midpoint on (tabular case study as a stream).
Status RenderCardio(const ScenarioSpec& spec, uint64_t seed,
                    RenderedScenario* out) {
  Rng ref_rng(MixSeed(seed, kReferenceStream));
  Rng base_rng(MixSeed(seed, kBaseStream));
  CCS_ASSIGN_OR_RETURN(
      out->reference,
      synth::GenerateCardio(spec.reference_rows, /*diseased=*/false,
                            &ref_rng));
  const size_t half = spec.stream_rows / 2;
  CCS_ASSIGN_OR_RETURN(DataFrame healthy,
                       synth::GenerateCardio(half, false, &base_rng));
  CCS_ASSIGN_OR_RETURN(
      DataFrame diseased,
      synth::GenerateCardio(spec.stream_rows - half, true, &base_rng));
  SetHeaderFromFrame(healthy, &out->stream);
  AppendFrameRows(healthy, &out->stream);
  AppendFrameRows(diseased, &out->stream);
  return Status::OK();
}

// LED display whose segments fail on the paper's 20-window schedule.
Status RenderLed(const ScenarioSpec& spec, uint64_t seed,
                 RenderedScenario* out) {
  Rng ref_rng(MixSeed(seed, kReferenceStream));
  Rng base_rng(MixSeed(seed, kBaseStream));
  CCS_ASSIGN_OR_RETURN(
      std::vector<DataFrame> ref_windows,
      synth::GenerateLedStream(4, std::max<size_t>(1, spec.reference_rows / 4),
                               {}, &ref_rng));
  out->reference = std::move(ref_windows[0]);
  for (size_t i = 1; i < ref_windows.size(); ++i) {
    CCS_ASSIGN_OR_RETURN(out->reference,
                         out->reference.Concat(ref_windows[i]));
  }
  const size_t num_windows = 20;  // DefaultLedSchedule's layout.
  CCS_ASSIGN_OR_RETURN(
      std::vector<DataFrame> windows,
      synth::GenerateLedStream(
          num_windows, std::max<size_t>(1, spec.stream_rows / num_windows),
          synth::DefaultLedSchedule(), &base_rng));
  SetHeaderFromFrame(windows[0], &out->stream);
  for (const DataFrame& w : windows) AppendFrameRows(w, &out->stream);
  return Status::OK();
}

// EVL stream "evl:<name>": reference at t=0, stream sweeping t in [0,1].
Status RenderEvl(const std::string& dataset, const ScenarioSpec& spec,
                 uint64_t seed, RenderedScenario* out) {
  Rng ref_rng(MixSeed(seed, kReferenceStream));
  Rng base_rng(MixSeed(seed, kBaseStream));
  CCS_ASSIGN_OR_RETURN(
      out->reference,
      synth::GenerateEvlWindow(dataset, 0.0, spec.reference_rows, &ref_rng));
  const size_t rows_per_window = std::max<size_t>(1, spec.window_rows);
  const size_t num_windows =
      std::max<size_t>(2, spec.stream_rows / rows_per_window);
  CCS_ASSIGN_OR_RETURN(
      std::vector<DataFrame> windows,
      synth::GenerateEvlStream(dataset, num_windows, rows_per_window,
                               &base_rng));
  SetHeaderFromFrame(windows[0], &out->stream);
  for (const DataFrame& w : windows) AppendFrameRows(w, &out->stream);
  return Status::OK();
}

// --------------------------------------------------- perturbation stages

StatusOr<size_t> HeaderIndex(const RawStream& stream,
                             const std::string& column,
                             const std::string& kind) {
  for (size_t c = 0; c < stream.header.size(); ++c) {
    if (stream.header[c] == column) return c;
  }
  return Status::InvalidArgument("scenario stage '" + kind +
                                 "': no stream column named '" + column +
                                 "'");
}

// Clamped [begin, end) over the stream's current rows.
std::pair<size_t, size_t> StageRange(const StageSpec& stage, size_t rows) {
  size_t begin = std::min(stage.begin_row, rows);
  size_t end = std::min(stage.end_row, rows);
  return {begin, std::max(begin, end)};
}

Status ApplyNumericDrift(const StageSpec& stage, Rng* /*rng*/,
                         RawStream* stream) {
  CCS_ASSIGN_OR_RETURN(size_t col,
                       HeaderIndex(*stream, stage.column, stage.kind));
  auto [begin, end] = StageRange(stage, stream->rows.size());
  for (size_t i = begin; i < end; ++i) {
    std::vector<std::string>& row = stream->rows[i];
    if (col >= row.size()) continue;  // Ragged from an earlier stage.
    std::optional<double> v = ParseDouble(row[col]);
    if (!v.has_value()) continue;  // Leave non-numeric cells alone.
    double offset = stage.magnitude;
    if (stage.kind == "gradual-drift") {
      offset *= static_cast<double>(i - begin + 1) /
                static_cast<double>(end - begin);
    } else if (stage.kind == "recurring-drift") {
      size_t period = std::max<size_t>(1, stage.period);
      if (((i - begin) / period) % 2 != 0) continue;  // Off-block.
    }
    row[col] = FormatDouble(*v + offset);
  }
  return Status::OK();
}

Status ApplyCellBurst(const StageSpec& stage, Rng* rng, RawStream* stream) {
  CCS_ASSIGN_OR_RETURN(size_t col,
                       HeaderIndex(*stream, stage.column, stage.kind));
  auto [begin, end] = StageRange(stage, stream->rows.size());
  for (size_t i = begin; i < end; ++i) {
    bool hit = rng->Bernoulli(stage.fraction);  // Drawn for every row in
                                                // range: replayable even
                                                // across ragged rows.
    std::vector<std::string>& row = stream->rows[i];
    if (!hit || col >= row.size()) continue;
    if (stage.kind == "nan-burst") {
      row[col] = "NaN";
    } else if (stage.kind == "inf-burst") {
      row[col] = rng->Bernoulli(0.5) ? "-inf" : "inf";
    } else {  // garble
      row[col] = "#not-a-number#";
    }
  }
  return Status::OK();
}

Status ApplyStage(const StageSpec& stage, Rng* rng, RawStream* stream) {
  const std::string& kind = stage.kind;
  if (kind == "abrupt-drift" || kind == "gradual-drift" ||
      kind == "recurring-drift") {
    return ApplyNumericDrift(stage, rng, stream);
  }
  if (kind == "nan-burst" || kind == "inf-burst" || kind == "garble") {
    return ApplyCellBurst(stage, rng, stream);
  }
  if (kind == "add-column") {
    auto [begin, end] = StageRange(stage, stream->rows.size());
    for (size_t i = begin; i < end; ++i) {
      stream->rows[i].push_back(FormatDouble(rng->Uniform(0.0, 1.0)));
    }
    return Status::OK();
  }
  if (kind == "drop-column") {
    auto [begin, end] = StageRange(stage, stream->rows.size());
    for (size_t i = begin; i < end; ++i) {
      if (!stream->rows[i].empty()) stream->rows[i].pop_back();
    }
    return Status::OK();
  }
  if (kind == "cardinality-blowup") {
    CCS_ASSIGN_OR_RETURN(size_t col,
                         HeaderIndex(*stream, stage.column, kind));
    auto [begin, end] = StageRange(stage, stream->rows.size());
    for (size_t i = begin; i < end; ++i) {
      std::vector<std::string>& row = stream->rows[i];
      if (col >= row.size()) continue;
      row[col] += "#" + std::to_string(i);  // Unique per row.
    }
    return Status::OK();
  }
  if (kind == "duplicate-flood") {
    auto [begin, end] = StageRange(stage, stream->rows.size());
    if (begin >= stream->rows.size()) return Status::OK();
    const std::vector<std::string> prototype = stream->rows[begin];
    for (size_t i = begin; i < end; ++i) stream->rows[i] = prototype;
    return Status::OK();
  }
  if (kind == "reorder") {
    auto [begin, end] = StageRange(stage, stream->rows.size());
    std::vector<std::vector<std::string>> block(
        stream->rows.begin() + begin, stream->rows.begin() + end);
    rng->Shuffle(&block);
    std::move(block.begin(), block.end(), stream->rows.begin() + begin);
    return Status::OK();
  }
  if (kind == "truncate") {
    stream->rows.resize(std::min(stream->rows.size(), stage.begin_row));
    return Status::OK();
  }
  return Status::InvalidArgument("scenario: unknown stage kind '" + kind +
                                 "'");
}

}  // namespace

std::string RawStream::ToCsv() const {
  auto write_field = [](std::string* out, const std::string& field) {
    bool needs_quotes = field.find(',') != std::string::npos ||
                        field.find('"') != std::string::npos ||
                        field.find('\n') != std::string::npos ||
                        field.find('\r') != std::string::npos;
    if (!needs_quotes) {
      out->append(field);
      return;
    }
    out->push_back('"');
    for (char c : field) {
      if (c == '"') out->push_back('"');
      out->push_back(c);
    }
    out->push_back('"');
  };
  std::string out;
  for (size_t c = 0; c < header.size(); ++c) {
    if (c > 0) out.push_back(',');
    write_field(&out, header[c]);
  }
  out.push_back('\n');
  for (const std::vector<std::string>& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out.push_back(',');
      write_field(&out, row[c]);
    }
    out.push_back('\n');
  }
  return out;
}

StatusOr<RenderedScenario> Render(const ScenarioSpec& spec, uint64_t seed) {
  if (spec.stream_rows == 0 && spec.generator != "trend") {
    return Status::InvalidArgument(
        "scenario: stream_rows must be >= 1 for generator '" +
        spec.generator + "'");
  }
  RenderedScenario out;
  if (spec.generator == "trend") {
    CCS_RETURN_IF_ERROR(RenderTrend(spec, seed, &out));
  } else if (spec.generator == "har") {
    CCS_RETURN_IF_ERROR(RenderHar(spec, seed, &out));
  } else if (spec.generator == "cardio") {
    CCS_RETURN_IF_ERROR(RenderCardio(spec, seed, &out));
  } else if (spec.generator == "led") {
    CCS_RETURN_IF_ERROR(RenderLed(spec, seed, &out));
  } else if (StartsWith(spec.generator, "evl:")) {
    std::string dataset = spec.generator.substr(4);
    if (!synth::IsEvlDataset(dataset)) {
      return Status::InvalidArgument("scenario: unknown EVL dataset '" +
                                     dataset + "'");
    }
    CCS_RETURN_IF_ERROR(RenderEvl(dataset, spec, seed, &out));
  } else {
    return Status::InvalidArgument("scenario: unknown generator '" +
                                   spec.generator + "'");
  }
  for (size_t i = 0; i < spec.stages.size(); ++i) {
    Rng stage_rng(MixSeed(seed, kFirstStageStream + i));
    CCS_RETURN_IF_ERROR(ApplyStage(spec.stages[i], &stage_rng, &out.stream));
  }
  return out;
}

// ------------------------------------------------------------- catalogue

namespace {

StageSpec Stage(std::string kind, std::string column, double magnitude,
                size_t begin_row, size_t end_row = kAllRows,
                size_t period = 0, double fraction = 1.0) {
  StageSpec s;
  s.kind = std::move(kind);
  s.column = std::move(column);
  s.magnitude = magnitude;
  s.begin_row = begin_row;
  s.end_row = end_row;
  s.period = period;
  s.fraction = fraction;
  return s;
}

}  // namespace

const std::vector<std::string>& CatalogueNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "steady",
      "abrupt-drift",
      "gradual-drift",
      "recurring-drift",
      "schema-add-column",
      "schema-drop-column",
      "cardinality-blowup",
      "nan-burst",
      "inf-burst",
      "garbled-cell",
      "duplicate-flood",
      "reordered",
      "short-stream",
      "empty-stream",
      "har-activity-mix",
      "evl-4cr-rotation",
      "led-segment-failure",
      "cardio-onset",
      "fault-transient-score-retry",
      "fault-score-quarantine",
      "degraded-ingest-quarantine",
  };
  return *names;
}

StatusOr<ScenarioSpec> CatalogueSpec(const std::string& name, size_t scale) {
  if (scale == 0) scale = 1;
  const size_t k = scale;
  ScenarioSpec spec;
  spec.name = name;
  // Trend geometry shared by the adversarial shapes: 1200-row stream,
  // 50-row tumbling windows, drift onset at row 600 (window 12).
  spec.reference_rows = 400 * k;
  spec.stream_rows = 1200 * k;
  spec.window_rows = 50 * k;
  spec.alarm_threshold = 0.2;
  spec.chunk_rows = 64 * k;

  if (name == "steady") {
    return spec;
  }
  if (name == "abrupt-drift") {
    spec.stages = {Stage("abrupt-drift", "y", 6.0, 600 * k)};
    return spec;
  }
  if (name == "gradual-drift") {
    spec.stages = {Stage("gradual-drift", "y", 6.0, 300 * k, 1200 * k)};
    return spec;
  }
  if (name == "recurring-drift") {
    spec.stages = {
        Stage("recurring-drift", "y", 6.0, 300 * k, kAllRows, 150 * k)};
    return spec;
  }
  if (name == "schema-add-column") {
    spec.stages = {Stage("add-column", "", 0.0, 700 * k)};
    return spec;
  }
  if (name == "schema-drop-column") {
    spec.stages = {Stage("drop-column", "", 0.0, 700 * k)};
    return spec;
  }
  if (name == "cardinality-blowup") {
    spec.refresh_every = 4;  // Grow the dictionary across refreshes too.
    spec.stages = {Stage("cardinality-blowup", "tag", 0.0, 600 * k)};
    return spec;
  }
  if (name == "nan-burst") {
    spec.stages = {Stage("nan-burst", "y", 0.0, 800 * k, 820 * k, 0, 0.5)};
    return spec;
  }
  if (name == "inf-burst") {
    spec.stages = {Stage("inf-burst", "y", 0.0, 600 * k, 650 * k, 0, 0.5)};
    return spec;
  }
  if (name == "garbled-cell") {
    spec.stages = {Stage("garble", "x", 0.0, 750 * k, 751 * k)};
    return spec;
  }
  if (name == "duplicate-flood") {
    spec.stages = {Stage("duplicate-flood", "", 0.0, 600 * k, 900 * k)};
    return spec;
  }
  if (name == "reordered") {
    spec.refresh_every = 4;
    spec.stages = {Stage("abrupt-drift", "y", 6.0, 1000 * k),
                   Stage("reorder", "", 0.0, 400 * k, 1200 * k)};
    return spec;
  }
  if (name == "short-stream") {
    // Fewer rows than one window: zero windows is the defined outcome.
    spec.stages = {Stage("truncate", "", 0.0, 30 * k)};
    return spec;
  }
  if (name == "empty-stream") {
    spec.stages = {Stage("truncate", "", 0.0, 0)};
    return spec;
  }
  if (name == "har-activity-mix") {
    spec.generator = "har";
    spec.reference_rows = 540 * k;
    spec.stream_rows = 1080 * k;
    spec.window_rows = 60 * k;
    spec.alarm_threshold = 0.3;
    return spec;
  }
  if (name == "evl-4cr-rotation") {
    spec.generator = "evl:4CR";
    spec.reference_rows = 600 * k;
    spec.stream_rows = 1000 * k;
    spec.window_rows = 50 * k;
    spec.alarm_threshold = 0.3;
    return spec;
  }
  if (name == "led-segment-failure") {
    spec.generator = "led";
    spec.reference_rows = 400 * k;
    spec.stream_rows = 1200 * k;
    spec.window_rows = 60 * k;
    // Healthy LED windows score ~0.012, post-failure ones ~0.03+: the
    // first segment failure (window 5 of the paper schedule) alarms.
    spec.alarm_threshold = 0.02;
    return spec;
  }
  if (name == "cardio-onset") {
    spec.generator = "cardio";
    spec.reference_rows = 500 * k;
    spec.stream_rows = 1000 * k;
    spec.window_rows = 50 * k;
    spec.refresh_every = 6;
    // Disease onset at window 10 scores ~0.011-0.013 until the window-12
    // refresh folds the new population into the profile and the alarms
    // stop — the §4.3.2 adaptation story as a trace.
    spec.alarm_threshold = 0.01;
    return spec;
  }
  if (name == "fault-transient-score-retry") {
    // Transient faults at every 7th score-gate hit, absorbed by bounded
    // retry: the committed history is bitwise identical to `steady`, and
    // only the trace's degraded line betrays the turbulence. Hit
    // ordinals advance per attempt, so the injection sites are still a
    // pure function of (seed, spec).
    spec.score_policy = "retry:2";
    common::fault::FaultPoint fault;
    fault.point = "stream.score.window";
    fault.trigger = "every";
    fault.every = 7;
    spec.faults = {fault};
    return spec;
  }
  if (name == "fault-score-quarantine") {
    // The score gate fails persistently at consumed window 13;
    // quarantine-and-continue skips exactly that window and the history
    // closes over the gap (window geometry is scale-free: 24 windows at
    // every scale).
    spec.score_policy = "quarantine";
    common::fault::FaultPoint fault;
    fault.point = "stream.score.window";
    fault.trigger = "once";
    fault.at = 13;
    spec.faults = {fault};
    return spec;
  }
  if (name == "degraded-ingest-quarantine") {
    // The garbled-cell teardown scenario under an ingest quarantine
    // policy: the unparseable row 750 costs one quarantined data row and
    // shifts every later window boundary by one, but the stream serves
    // to completion.
    spec.ingest_policy = "quarantine";
    spec.stages = {Stage("garble", "x", 0.0, 750 * k, 751 * k)};
    return spec;
  }
  return Status::NotFound("scenario: no catalogue entry named '" + name +
                          "'");
}

// ------------------------------------------------------------ fuzz draws

ScenarioSpec RandomSpec(Rng* rng) {
  // Per-generator stage targets: a numeric column and (optionally) a
  // categorical one.
  struct GeneratorInfo {
    const char* name;
    const char* numeric_column;
    const char* categorical_column;  // "" = none.
  };
  static const GeneratorInfo kGenerators[] = {
      {"trend", "y", "tag"},          {"trend", "x", "tag"},
      {"har", "s0", "activity"},      {"cardio", "ap_hi", ""},
      {"led", "led1", "digit"},       {"evl:4CR", "x0", "class"},
      {"evl:1CDT", "x0", "class"},
  };
  const GeneratorInfo& gen = kGenerators[static_cast<size_t>(
      rng->UniformInt(0, std::size(kGenerators) - 1))];

  ScenarioSpec spec;
  spec.name = "fuzz";
  spec.generator = gen.name;
  spec.reference_rows = static_cast<size_t>(rng->UniformInt(200, 500));
  spec.stream_rows = static_cast<size_t>(rng->UniformInt(300, 900));
  spec.window_rows = static_cast<size_t>(rng->UniformInt(20, 60));
  spec.slide_rows = rng->Bernoulli(0.3) ? spec.window_rows / 2 : 0;
  spec.alarm_threshold = rng->Uniform(0.1, 0.5);
  spec.refresh_every =
      static_cast<size_t>(rng->Categorical({0.5, 0.25, 0.25}) * 2);  // 0/2/4
  spec.chunk_rows = static_cast<size_t>(rng->UniformInt(16, 128));

  static const char* kKinds[] = {
      "abrupt-drift",  "gradual-drift",     "recurring-drift", "add-column",
      "drop-column",   "cardinality-blowup", "nan-burst",       "inf-burst",
      "garble",        "duplicate-flood",    "reorder",         "truncate",
  };
  size_t num_stages = static_cast<size_t>(rng->UniformInt(0, 3));
  for (size_t s = 0; s < num_stages; ++s) {
    StageSpec stage;
    stage.kind = kKinds[static_cast<size_t>(
        rng->UniformInt(0, std::size(kKinds) - 1))];
    if (stage.kind == "cardinality-blowup" &&
        std::string(gen.categorical_column).empty()) {
      stage.kind = "abrupt-drift";  // Generator has no categorical column.
    }
    stage.column = stage.kind == "cardinality-blowup"
                       ? gen.categorical_column
                       : gen.numeric_column;
    stage.magnitude = rng->Uniform(0.5, 8.0);
    stage.fraction = rng->Uniform(0.05, 0.9);
    stage.begin_row =
        static_cast<size_t>(rng->UniformInt(0, spec.stream_rows));
    stage.end_row =
        stage.begin_row +
        static_cast<size_t>(rng->UniformInt(10, spec.stream_rows / 2 + 10));
    stage.period = static_cast<size_t>(rng->UniformInt(20, 200));
    spec.stages.push_back(std::move(stage));
  }

  // A quarter of draws run degraded: deterministic score-gate faults
  // absorbed by retry or quarantine. Error actions only (a crash draw
  // would kill the harness), and the default retryable code, so the
  // worst terminal a draw can produce is kUnavailable — never kInternal.
  if (rng->Bernoulli(0.25)) {
    spec.score_policy =
        rng->Bernoulli(0.5) ? "quarantine" : "retry:1+quarantine";
    common::fault::FaultPoint fault;
    fault.point = "stream.score.window";
    if (rng->Bernoulli(0.5)) {
      fault.trigger = "every";
      fault.every = static_cast<uint64_t>(rng->UniformInt(3, 9));
    } else {
      fault.trigger = "probability";
      fault.probability = rng->Uniform(0.05, 0.3);
    }
    spec.faults.push_back(std::move(fault));
  }
  if (rng->Bernoulli(0.15)) spec.ingest_policy = "quarantine";
  return spec;
}

// ------------------------------------------------------------- JSON form

StatusOr<ScenarioSpec> ParseSpecJson(const std::string& text) {
  common::JsonReader reader(text, "scenario spec JSON");
  using common::Store;
  ScenarioSpec spec;
  auto stage_field = [&](StageSpec* stage, const std::string& key) {
    if (key == "kind") return Store(reader.String(), &stage->kind);
    if (key == "column") return Store(reader.String(), &stage->column);
    if (key == "magnitude") return Store(reader.Double(), &stage->magnitude);
    if (key == "fraction") return Store(reader.Double(), &stage->fraction);
    if (key == "begin_row") return Store(reader.Uint(), &stage->begin_row);
    if (key == "end_row") return Store(reader.Uint(), &stage->end_row);
    if (key == "period") return Store(reader.Uint(), &stage->period);
    return reader.Error("unknown stage key '" + key + "'");
  };
  auto field = [&](const std::string& key) -> Status {
    if (key == "name") return Store(reader.String(), &spec.name);
    if (key == "generator") return Store(reader.String(), &spec.generator);
    if (key == "reference_rows") {
      return Store(reader.Uint(), &spec.reference_rows);
    }
    if (key == "stream_rows") return Store(reader.Uint(), &spec.stream_rows);
    if (key == "window_rows") return Store(reader.Uint(), &spec.window_rows);
    if (key == "slide_rows") return Store(reader.Uint(), &spec.slide_rows);
    if (key == "alarm_threshold") {
      return Store(reader.Double(), &spec.alarm_threshold);
    }
    if (key == "refresh_every") {
      return Store(reader.Uint(), &spec.refresh_every);
    }
    if (key == "chunk_rows") return Store(reader.Uint(), &spec.chunk_rows);
    if (key == "stages") {
      return reader.Array([&] {
        StageSpec& stage = spec.stages.emplace_back();
        return reader.Object(
            [&](const std::string& k) { return stage_field(&stage, k); });
      });
    }
    if (key == "ingest_policy") {
      return Store(reader.String(), &spec.ingest_policy);
    }
    if (key == "window_policy") {
      return Store(reader.String(), &spec.window_policy);
    }
    if (key == "score_policy") {
      return Store(reader.String(), &spec.score_policy);
    }
    if (key == "faults") {
      return reader.Array([&] {
        return Store(common::fault::ReadFaultPointJson(&reader),
                     &spec.faults.emplace_back());
      });
    }
    return reader.Error("unknown key '" + key + "'");
  };
  CCS_RETURN_IF_ERROR(reader.Object(field));
  CCS_RETURN_IF_ERROR(reader.End());
  return spec;
}

std::string SpecToJson(const ScenarioSpec& spec) {
  std::string out = "{\n  \"name\": \"" + common::EscapeJson(spec.name) +
                    "\",\n  \"generator\": \"" +
                    common::EscapeJson(spec.generator) + "\"";
  out += ",\n  \"reference_rows\": " + std::to_string(spec.reference_rows);
  out += ",\n  \"stream_rows\": " + std::to_string(spec.stream_rows);
  out += ",\n  \"window_rows\": " + std::to_string(spec.window_rows);
  out += ",\n  \"slide_rows\": " + std::to_string(spec.slide_rows);
  out += ",\n  \"alarm_threshold\": " + FormatDouble(spec.alarm_threshold);
  out += ",\n  \"refresh_every\": " + std::to_string(spec.refresh_every);
  out += ",\n  \"chunk_rows\": " + std::to_string(spec.chunk_rows);
  if (!spec.ingest_policy.empty()) {
    out += ",\n  \"ingest_policy\": \"" +
           common::EscapeJson(spec.ingest_policy) + "\"";
  }
  if (!spec.window_policy.empty()) {
    out += ",\n  \"window_policy\": \"" +
           common::EscapeJson(spec.window_policy) + "\"";
  }
  if (!spec.score_policy.empty()) {
    out += ",\n  \"score_policy\": \"" +
           common::EscapeJson(spec.score_policy) + "\"";
  }
  out += ",\n  \"stages\": [";
  for (size_t i = 0; i < spec.stages.size(); ++i) {
    const StageSpec& s = spec.stages[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kind\": \"" + common::EscapeJson(s.kind) + "\"";
    if (!s.column.empty()) {
      out += ", \"column\": \"" + common::EscapeJson(s.column) + "\"";
    }
    if (s.magnitude != 0.0) {
      out += ", \"magnitude\": " + FormatDouble(s.magnitude);
    }
    if (s.fraction != 1.0) {
      out += ", \"fraction\": " + FormatDouble(s.fraction);
    }
    out += ", \"begin_row\": " + std::to_string(s.begin_row);
    if (s.end_row != kAllRows) {
      out += ", \"end_row\": " + std::to_string(s.end_row);
    }
    if (s.period != 0) out += ", \"period\": " + std::to_string(s.period);
    out += "}";
  }
  out += spec.stages.empty() ? "]" : "\n  ]";
  if (!spec.faults.empty()) {
    out += ",\n  \"faults\": [";
    for (size_t i = 0; i < spec.faults.size(); ++i) {
      out += i == 0 ? "\n    " : ",\n    ";
      common::fault::AppendFaultPointJson(spec.faults[i], &out);
    }
    out += "\n  ]";
  }
  out += "\n}";
  return out;
}

}  // namespace ccs::scenario
