#include "inputs.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "dataframe/csv.h"
#include "harness.h"

namespace ccs::perfbench {

namespace {

using dataframe::DataFrame;

constexpr size_t kReplayAttributes = 32;
constexpr size_t kLiveAttributes = 24;
constexpr size_t kLearnAttributes = 40;

void CheckOk(const Status& status) { CCS_CHECK(status.ok()) << status.ToString(); }

std::string Label(const char* prefix, int64_t value) {
  return std::string(prefix) + (value < 10 ? "0" : "") + std::to_string(value);
}

// The latent-factor slope of attribute c (optionally steepened by a
// switch value), shared by every generator so low-variance projections
// genuinely exist.
double Slope(size_t c) { return 0.2 + 0.05 * static_cast<double>(c); }

// Numeric columns named a0..a{k-1}, then categorical columns in order.
DataFrame BuildFrame(std::vector<std::vector<double>> numeric,
                     std::vector<std::pair<std::string, std::vector<std::string>>>
                         categorical) {
  DataFrame df;
  for (size_t c = 0; c < numeric.size(); ++c) {
    CheckOk(df.AddNumericColumn("a" + std::to_string(c), std::move(numeric[c])));
  }
  for (auto& [name, values] : categorical) {
    CheckOk(df.AddCategoricalColumn(name, std::move(values)));
  }
  return df;
}

// Replay shape: the bench_stream_pipeline latent-factor frame. Rows at or
// after `drift_from` move odd attributes off the factor (a relationship
// drift, not a magnitude drift).
DataFrame LatentFactorFrame(size_t rows, uint64_t seed, size_t drift_from) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(kReplayAttributes,
                                        std::vector<double>(rows));
  for (size_t r = 0; r < rows; ++r) {
    const double base = rng.Gaussian(0.0, 1.0);
    const double broken = r >= drift_from ? 4.0 : 0.0;
    for (size_t c = 0; c < kReplayAttributes; ++c) {
      const double factor = c % 2 == 1 ? base + broken : base;
      cols[c][r] = factor * Slope(c) + rng.Gaussian(0.0, 0.1);
    }
  }
  return BuildFrame(std::move(cols), {});
}

// Live shape: slopes of every third attribute depend on the skewed
// `region` switch, so each region has its own low-variance projections;
// `channel` is an independent skewed switch. Cells are rounded to four
// decimals (sensor-style values). Rows at or after `drift_from` in the
// dominant region move odd attributes off the factor.
DataFrame RegionalFrame(size_t rows, uint64_t seed, size_t drift_from) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(kLiveAttributes,
                                        std::vector<double>(rows));
  std::vector<std::string> region(rows);
  std::vector<std::string> channel(rows);
  for (size_t r = 0; r < rows; ++r) {
    const int64_t reg = rng.Bernoulli(0.5) ? 0 : rng.UniformInt(1, 11);
    const int64_t chan = rng.Bernoulli(0.6) ? 0 : rng.UniformInt(1, 5);
    region[r] = Label("r", reg);
    channel[r] = Label("ch", chan);
    const double base = rng.Gaussian(0.5 * static_cast<double>(reg), 1.0);
    const double broken = (r >= drift_from && reg == 0) ? 4.0 : 0.0;
    for (size_t c = 0; c < kLiveAttributes; ++c) {
      const double slope =
          Slope(c) + (c % 3 == 0 ? 0.08 * static_cast<double>(reg) : 0.0);
      const double factor = c % 2 == 1 ? base + broken : base;
      const double value = factor * slope + rng.Gaussian(0.0, 0.1);
      cols[c][r] = std::round(value * 1e4) / 1e4;
    }
  }
  return BuildFrame(std::move(cols), {{"region", std::move(region)},
                                      {"channel", std::move(channel)}});
}

// learn_assess shape: the bench_parallel_synth wide frame (40 attributes
// on a latent factor centred on a skewed 12-value `segment`). Rows drawn
// with `perturbed` set move odd attributes off the factor.
DataFrame WideSkewedFrame(size_t rows, uint64_t seed, double perturb_fraction,
                          std::vector<bool>* perturbed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(kLearnAttributes,
                                        std::vector<double>(rows));
  std::vector<std::string> segment(rows);
  if (perturbed != nullptr) perturbed->assign(rows, false);
  for (size_t r = 0; r < rows; ++r) {
    const int64_t seg = rng.Bernoulli(0.5) ? 0 : rng.UniformInt(1, 11);
    segment[r] = Label("seg", seg);
    const double base = rng.Gaussian(static_cast<double>(seg), 1.0);
    const bool broken = perturb_fraction > 0.0 && rng.Bernoulli(perturb_fraction);
    if (perturbed != nullptr) (*perturbed)[r] = broken;
    for (size_t c = 0; c < kLearnAttributes; ++c) {
      const double factor = c % 2 == 1 && broken ? base + 4.0 : base;
      cols[c][r] = factor * Slope(c) + rng.Gaussian(0.0, 0.1);
    }
  }
  return BuildFrame(std::move(cols), {{"segment", std::move(segment)}});
}

MonitorInput FinishMonitorInput(DataFrame reference, const DataFrame& stream,
                                size_t drift_row) {
  MonitorInput in;
  in.reference = std::move(reference);
  std::ostringstream out;
  CheckOk(dataframe::WriteCsv(stream, out));
  in.csv = out.str();
  in.rows = stream.num_rows();
  in.drift_row = drift_row;
  in.line_starts.reserve(in.rows + 2);
  in.line_starts.push_back(0);
  for (size_t i = 0; i < in.csv.size(); ++i) {
    if (in.csv[i] == '\n') in.line_starts.push_back(i + 1);
  }
  CCS_CHECK(in.line_starts.size() == in.rows + 2)
      << "generated CSV has an unexpected line count";
  return in;
}

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t HashFrame(const DataFrame& df) {
  uint64_t hash = HashBytes(nullptr, 0);
  for (size_t c = 0; c < df.num_columns(); ++c) {
    const std::string& name = df.schema().attribute(c).name;
    hash = HashBytes(name.data(), name.size(), hash);
    const dataframe::Column& col = df.column(c);
    for (size_t r = 0; r < df.num_rows(); ++r) {
      if (col.is_numeric()) {
        const double v = col.NumericAt(r);
        hash = HashBytes(&v, sizeof(v), hash);
      } else {
        const std::string& s = col.CategoricalAt(r);
        hash = HashBytes(s.data(), s.size() + 1, hash);
      }
    }
  }
  return hash;
}

MonitorInput ReplayInput(uint64_t seed, size_t reference_rows, size_t rows) {
  const size_t drift_row = rows / 2;
  return FinishMonitorInput(
      LatentFactorFrame(reference_rows, MixSeed(seed, 0), ~size_t{0}),
      LatentFactorFrame(rows, MixSeed(seed, 1), drift_row), drift_row);
}

MonitorInput LiveInput(uint64_t seed, size_t reference_rows, size_t rows) {
  const size_t drift_row = rows / 2;
  return FinishMonitorInput(
      RegionalFrame(reference_rows, MixSeed(seed, 2), ~size_t{0}),
      RegionalFrame(rows, MixSeed(seed, 3), drift_row), drift_row);
}

LearnAssessInput MakeLearnAssessInput(uint64_t seed, size_t training_rows,
                                      size_t request_rows, size_t requests) {
  constexpr double kPerturbedFraction = 0.1;
  LearnAssessInput in;
  in.training = WideSkewedFrame(training_rows, MixSeed(seed, 4), 0.0, nullptr);
  in.perturbed.resize(requests);
  for (size_t i = 0; i < requests; ++i) {
    in.requests.push_back(WideSkewedFrame(request_rows, MixSeed(seed, 5 + i),
                                          kPerturbedFraction,
                                          &in.perturbed[i]));
  }
  return in;
}

}  // namespace ccs::perfbench
