// Tests for checkpoint/resume (stream/checkpoint.h): bitwise round-trip
// of the serialized form, file I/O semantics, Restore's guards, and the
// headline contract — a pipeline resumed from a checkpoint commits a
// history bitwise identical to the uninterrupted run from the boundary.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "dataframe/csv.h"
#include "dataframe/dataframe.h"
#include "linalg/matrix.h"
#include "stream/checkpoint.h"
#include "stream/pipeline.h"

namespace ccs::stream {
namespace {

dataframe::DataFrame TrendFrame(size_t n, uint64_t seed, double offset = 0.0) {
  Rng rng(seed);
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-5.0, 5.0);
    y[i] = x[i] + offset + rng.Gaussian(0.0, 0.1);
  }
  dataframe::DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", std::move(x)).ok());
  CCS_CHECK(df.AddNumericColumn("y", std::move(y)).ok());
  return df;
}

// n rows of 20 attributes, each a noisy multiple of the first: wide
// enough that the Gram fold and the scoring kernel both run their widest
// register tiles under either kernel instance.
dataframe::DataFrame WideFrame(size_t n, uint64_t seed) {
  constexpr size_t attrs = 20;
  Rng rng(seed);
  std::vector<std::vector<double>> columns(attrs, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(-5.0, 5.0);
    for (size_t c = 0; c < attrs; ++c) {
      columns[c][i] = (c == 0 ? x : 0.5 * c * x) + rng.Gaussian(0.0, 0.1);
    }
  }
  dataframe::DataFrame df;
  for (size_t c = 0; c < attrs; ++c) {
    CCS_CHECK(df.AddNumericColumn("a" + std::to_string(c),
                                  std::move(columns[c]))
                  .ok());
  }
  return df;
}

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string ToCsv(const dataframe::DataFrame& df) {
  std::ostringstream out;
  CCS_CHECK(dataframe::WriteCsv(df, out).ok());
  return out.str();
}

CheckpointData SampleData() {
  CheckpointData data;
  data.window_rows = 50;
  data.slide_rows = 25;
  data.refresh_every = 4;
  data.threshold_bits = 0x3FA999999999999Aull;  // 0.05.
  data.windows_committed = 12;
  data.windows_consumed = 13;
  data.rows_consumed = 325;
  data.refreshes = 3;
  data.attribute_names = {"x", "y"};
  data.gram_count = 325;
  data.gram_sum = linalg::Matrix(3, 3);
  double v = 0.125;
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      data.gram_sum(r, c) = v;
      v = v * -1.75 + 0.0625;  // Exercise signs and non-trivial bits.
    }
  }
  return data;
}

// A NaN with a non-default payload: the codec must keep every bit.
double PayloadNaN() {
  const uint64_t bits = 0x7ff8000000000123ull;
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// `data` with an adopted profile: one conjunct over `coefficients`.
CheckpointData WithProfile(CheckpointData data, linalg::Vector coefficients,
                           double mean) {
  auto projection =
      core::Projection::Create(data.attribute_names, std::move(coefficients));
  CCS_CHECK(projection.ok());
  std::vector<core::BoundedConstraint> conjuncts;
  conjuncts.emplace_back(std::move(*projection), -1.5, 2.5, mean, 0.75, 1.0);
  auto profile = core::SimpleConstraint::Create(data.attribute_names,
                                                std::move(conjuncts));
  CCS_CHECK(profile.ok());
  data.profile = std::move(profile).value();
  data.has_profile = true;
  return data;
}

// SampleData over names a line codec could mangle (padding, a newline,
// a quote, empty), with a NaN payload in the Gram sum and the profile.
CheckpointData AwkwardData() {
  CheckpointData data = SampleData();
  data.attribute_names = {" g ", "y\nz", "a\"b", ""};
  data.gram_sum = linalg::Matrix(5, 5);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) data.gram_sum(r, c) = 0.5 * (r + c);
  }
  data.gram_sum(4, 4) = PayloadNaN();
  return WithProfile(std::move(data),
                     linalg::Vector({1.0, -1.0, PayloadNaN(), 0.25}),
                     PayloadNaN());
}

// Everything before the end line.
std::string Body(const std::string& text) {
  return text.substr(0, text.rfind("\nend ") + 1);
}

// `body` closed by an end line holding its checksum, so a deliberate
// corruption gets past the checksum to the check under test.
std::string Seal(const std::string& body) {
  return body + "end " + HexBits(Fnv1a64(body)) + "\n";
}

TEST(CheckpointFormatTest, SerializeParseRoundTripsBitwise) {
  for (const CheckpointData& data : {SampleData(), AwkwardData()}) {
    std::string text = SerializeCheckpoint(data);
    auto parsed = ParseCheckpoint(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    // Serialization is canonical: parse -> serialize reproduces the text
    // byte for byte, which transitively pins every field (including the
    // raw double bits of the Gram sum).
    EXPECT_EQ(SerializeCheckpoint(*parsed), text);
    EXPECT_EQ(parsed->attribute_names, data.attribute_names);
    EXPECT_EQ(parsed->has_profile, data.has_profile);
    EXPECT_TRUE(core::ConstraintsBitwiseEqual(parsed->profile, data.profile))
        << text;
  }
  auto parsed = ParseCheckpoint(SerializeCheckpoint(SampleData()));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->windows_committed, 12u);
  EXPECT_EQ(parsed->windows_consumed, 13u);
  EXPECT_EQ(parsed->rows_consumed, 325u);
  EXPECT_EQ(parsed->gram_count, 325);
  EXPECT_EQ(parsed->gram_sum(2, 2), SampleData().gram_sum(2, 2));
}

TEST(CheckpointFormatTest, ParseRejectsCorruption) {
  std::string text = SerializeCheckpoint(SampleData());
  EXPECT_EQ(ParseCheckpoint("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCheckpoint("ccsynth-checkpoint v99\n").status().code(),
            StatusCode::kInvalidArgument);
  // A v1 checkpoint is refused, sealed or not.
  std::string v1 = text;
  v1.replace(0, v1.find('\n'), "ccsynth-checkpoint v1");
  EXPECT_EQ(ParseCheckpoint(v1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCheckpoint(Seal(Body(v1))).status().code(),
            StatusCode::kInvalidArgument);
  // Truncation (drop the end line, or cut into it) must not parse.
  for (const std::string& truncated :
       {Body(text), text.substr(0, text.size() - 1)}) {
    auto parsed = ParseCheckpoint(truncated);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("checksum"), std::string::npos)
        << parsed.status();
  }
  // A hostile conjunct count fails on the missing line, not by sizing
  // an allocation from it; a count that is not an exact unsigned
  // decimal fails on its own line.
  for (const char* count :
       {"99999999999999999", "18446744073709551616", "-1", "+1", "01", "1x"}) {
    auto parsed = ParseCheckpoint(
        Seal(Body(text) + "profile\nsimple " + count + " 2\n"));
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << count;
    EXPECT_NE(parsed.status().message().find(
                  count[0] == '9' ? "truncated" : "bad simple header"),
              std::string::npos)
        << parsed.status();
  }
  // The profile block must name the checkpoint's attributes.
  const std::string profiled = SerializeCheckpoint(
      WithProfile(SampleData(), linalg::Vector({1.0, -1.0}), 0.5));
  std::string renamed = Body(profiled);
  renamed.replace(renamed.find("a \"y\""), 5, "a \"z\"");
  auto parsed = ParseCheckpoint(Seal(renamed));
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("do not match"), std::string::npos)
      << parsed.status();
}

TEST(CheckpointFormatTest, ParseRefusesFlippedCoefficientDigit) {
  const std::string text = SerializeCheckpoint(
      WithProfile(SampleData(), linalg::Vector({1.0, -1.0}), 0.5));
  ASSERT_TRUE(ParseCheckpoint(text).ok());
  // The -1 coefficient is the only field with these bits.
  const size_t coefficient = text.find(HexBits(DoubleBits(-1.0)));
  ASSERT_NE(coefficient, std::string::npos);
  ASSERT_EQ(coefficient, text.rfind(HexBits(DoubleBits(-1.0))));
  std::string flipped = text;
  flipped[coefficient + 15] = '1';
  auto parsed = ParseCheckpoint(flipped);
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("checksum"), std::string::npos)
      << parsed.status();
  // Re-sealed, the same bytes are a valid, different profile: only the
  // checksum stands between a flipped digit and a silent resume.
  EXPECT_TRUE(ParseCheckpoint(Seal(Body(flipped))).ok());
}

TEST(CheckpointFormatTest, ParseRefusesConjunctWithSwappedBounds) {
  // lb > ub would CHECK-fail in the BoundedConstraint constructor; the
  // parser must hand back a Status instead.
  const std::string text = SerializeCheckpoint(
      WithProfile(SampleData(), linalg::Vector({1.0, -1.0}), 0.5));
  ASSERT_TRUE(ParseCheckpoint(text).ok());

  // "c <lb> <ub> ...": each field is 16 hex digits and a space.
  const size_t lb = text.find("\nc ") + 3;
  const size_t ub = lb + 17;
  ASSERT_NE(lb, std::string::npos + 3);
  std::string swapped = text;
  swapped.replace(lb, 16, text.substr(ub, 16));
  swapped.replace(ub, 16, text.substr(lb, 16));
  auto parsed = ParseCheckpoint(Seal(Body(swapped)));
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("lb <= ub"), std::string::npos)
      << parsed.status();
}

TEST(CheckpointFormatTest, FileRoundTripAndNotFound) {
  const std::string path = ::testing::TempDir() + "/ccs_checkpoint_test.ck";
  std::remove(path.c_str());
  EXPECT_EQ(ReadCheckpointFile(path).status().code(), StatusCode::kNotFound);

  CheckpointData data = SampleData();
  ASSERT_TRUE(WriteCheckpointFile(data, path).ok());
  auto read = ReadCheckpointFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(SerializeCheckpoint(*read), SerializeCheckpoint(data));
  std::remove(path.c_str());
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  static StreamPipelineOptions Options() {
    StreamPipelineOptions options;
    options.window_rows = 40;
    options.slide_rows = 20;
    options.refresh_every = 5;
    options.chunk_rows = 13;
    options.num_threads = 2;
    return options;
  }
};

TEST_F(CheckpointResumeTest, RestoreGuardsGeometry) {
  dataframe::DataFrame reference = TrendFrame(200, 3);
  auto pipeline = StreamPipeline::Create(reference, Options());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  CheckpointData snap = pipeline->Snapshot();

  CheckpointData wrong = snap;
  wrong.window_rows = 64;
  EXPECT_EQ(pipeline->Restore(wrong).code(), StatusCode::kInvalidArgument);
  wrong = snap;
  wrong.refresh_every = 9;
  EXPECT_EQ(pipeline->Restore(wrong).code(), StatusCode::kInvalidArgument);
  wrong = snap;
  wrong.attribute_names = {"x", "z"};
  EXPECT_EQ(pipeline->Restore(wrong).code(), StatusCode::kInvalidArgument);
  // The unmodified snapshot restores onto a fresh identical pipeline.
  EXPECT_TRUE(pipeline->Restore(snap).ok());
}

TEST_F(CheckpointResumeTest, RestoreRefusesAsymmetricGramSum) {
  // The Gram fold keeps its sum bitwise symmetric, so a checkpoint whose
  // sum is not (one bit flipped below the diagonal) is corrupt: re-sealed
  // past the checksum it parses, but Restore must refuse it with a
  // Status, never a CHECK.
  dataframe::DataFrame reference = TrendFrame(200, 3);
  auto pipeline = StreamPipeline::Create(reference, Options());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  const std::string text = SerializeCheckpoint(pipeline->Snapshot());

  // gram_row 2 of the 3 x 3 sum; its second value is entry (2, 1).
  size_t row = text.find("gram_row");
  for (int r = 0; r < 2; ++r) row = text.find("gram_row", row + 1);
  ASSERT_NE(row, std::string::npos);
  const size_t value = text.find(' ', text.find(' ', row) + 1) + 1;
  std::string flipped = text;
  const std::string kDigits = "0123456789abcdef";
  char& last_digit = flipped[value + 15];
  last_digit = kDigits[kDigits.find(last_digit) ^ 1];
  ASSERT_NE(flipped, text);

  auto corrupt = ParseCheckpoint(Seal(Body(flipped)));
  ASSERT_TRUE(corrupt.ok()) << corrupt.status();
  EXPECT_EQ(pipeline->Restore(*corrupt).code(), StatusCode::kInvalidArgument);
  auto intact = ParseCheckpoint(text);
  ASSERT_TRUE(intact.ok()) << intact.status();
  EXPECT_TRUE(pipeline->Restore(*intact).ok());
}

TEST_F(CheckpointResumeTest, RestoreRefusedAfterCommits) {
  dataframe::DataFrame reference = TrendFrame(200, 3);
  auto pipeline = StreamPipeline::Create(reference, Options());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  CheckpointData snap = pipeline->Snapshot();

  std::istringstream in(ToCsv(TrendFrame(200, 4)));
  auto result = pipeline->Run(in);
  ASSERT_TRUE(result.ok()) << result.status;
  ASSERT_GT(result->windows_scored, 0u);
  EXPECT_EQ(pipeline->Restore(snap).code(), StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointResumeTest, ResumedHistoryIsBitwiseIdentical) {
  // Run the full stream uninterrupted; then run a prefix, snapshot,
  // restore into a brand-new pipeline, feed it the remaining rows, and
  // compare: indices, alarm flags, and raw drift bits must all match
  // from the boundary on. Crossing a refresh boundary in both halves
  // exercises the serialized Gram/profile state, not just row offsets.
  dataframe::DataFrame reference = TrendFrame(200, 11);
  dataframe::DataFrame stream_df = TrendFrame(1000, 12, /*offset=*/0.0);
  const std::string csv = ToCsv(stream_df);

  auto full = StreamPipeline::Create(reference, Options());
  ASSERT_TRUE(full.ok()) << full.status();
  {
    std::istringstream in(csv);
    auto result = full->Run(in);
    ASSERT_TRUE(result.ok()) << result.status;
  }
  std::vector<core::WindowScore> want = full->history();
  ASSERT_GT(want.size(), 20u);

  // Prefix run: stop the byte stream after a fixed number of data rows
  // (split mid-window so the resume really re-parses the tail).
  const size_t header_end = csv.find('\n') + 1;
  size_t split = header_end;
  for (size_t row = 0; row < 370; ++row) split = csv.find('\n', split) + 1;
  auto prefix = StreamPipeline::Create(reference, Options());
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  {
    std::istringstream in(csv.substr(0, split));
    auto result = prefix->Run(in);
    ASSERT_TRUE(result.ok()) << result.status;
  }
  CheckpointData snap = prefix->Snapshot();
  ASSERT_GT(snap.windows_committed, 0u);
  ASSERT_GT(snap.refreshes, 0u);  // The profile section is in play.

  // Round-trip the snapshot through its serialized form, as a real
  // resume (fresh process reading the file) would.
  auto restored_data = ParseCheckpoint(SerializeCheckpoint(snap));
  ASSERT_TRUE(restored_data.ok()) << restored_data.status();

  auto resumed = StreamPipeline::Create(reference, Options());
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->Restore(*restored_data).ok());
  {
    // The resumed run re-reads the stream from the top; Restore armed it
    // to skip the already-consumed rows.
    std::istringstream in(csv);
    auto result = resumed->Run(in);
    ASSERT_TRUE(result.ok()) << result.status;
  }

  std::vector<core::WindowScore> prefix_history = prefix->history();
  std::vector<core::WindowScore> resumed_history = resumed->history();
  ASSERT_EQ(prefix_history.size() + resumed_history.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const core::WindowScore& got =
        i < prefix_history.size()
            ? prefix_history[i]
            : resumed_history[i - prefix_history.size()];
    EXPECT_EQ(got.window_index, want[i].window_index) << "window " << i;
    EXPECT_EQ(got.drift, want[i].drift) << "window " << i;
    EXPECT_EQ(got.alarm, want[i].alarm) << "window " << i;
  }
}

TEST_F(CheckpointResumeTest, ResumeUnderTheOtherKernelIsaContinuesBitwise) {
  // A checkpoint written under one compiled kernel instance and resumed
  // under the other continues the uninterrupted run bit for bit: the
  // instances agree on every finite value, so neither the WindowScore
  // history nor the Gram fold's raw sum can tell them apart.
  if (!linalg::internal::KernelIsaSupported(linalg::KernelIsa::kAvx2)) {
    GTEST_SKIP() << "avx2 not supported here";
  }
  const linalg::KernelIsa startup = linalg::SelectedKernelIsa();
  dataframe::DataFrame reference = WideFrame(200, 21);
  const std::string csv = ToCsv(WideFrame(1000, 22));
  const size_t header_end = csv.find('\n') + 1;
  size_t split = header_end;
  for (size_t row = 0; row < 370; ++row) split = csv.find('\n', split) + 1;

  const linalg::KernelIsa kSse2 = linalg::KernelIsa::kSse2;
  const linalg::KernelIsa kAvx2 = linalg::KernelIsa::kAvx2;
  for (const auto& [first, second] :
       {std::pair(kSse2, kAvx2), std::pair(kAvx2, kSse2)}) {
    const std::string label = std::string(linalg::KernelIsaName(first)) +
                              " -> " + linalg::KernelIsaName(second);
    linalg::internal::SetKernelIsaForTesting(first);
    auto full = StreamPipeline::Create(reference, Options());
    ASSERT_TRUE(full.ok()) << full.status();
    {
      std::istringstream in(csv);
      auto result = full->Run(in);
      ASSERT_TRUE(result.ok()) << result.status;
    }
    auto prefix = StreamPipeline::Create(reference, Options());
    ASSERT_TRUE(prefix.ok()) << prefix.status();
    {
      std::istringstream in(csv.substr(0, split));
      auto result = prefix->Run(in);
      ASSERT_TRUE(result.ok()) << result.status;
    }
    CheckpointData snap = prefix->Snapshot();
    ASSERT_GT(snap.refreshes, 0u) << label;
    auto restored = ParseCheckpoint(SerializeCheckpoint(snap));
    ASSERT_TRUE(restored.ok()) << restored.status();

    linalg::internal::SetKernelIsaForTesting(second);
    auto resumed = StreamPipeline::Create(reference, Options());
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_TRUE(resumed->Restore(*restored).ok());
    {
      std::istringstream in(csv);
      auto result = resumed->Run(in);
      ASSERT_TRUE(result.ok()) << result.status;
    }
    linalg::internal::SetKernelIsaForTesting(startup);

    const std::vector<core::WindowScore> want = full->history();
    const std::vector<core::WindowScore> got = resumed->history();
    ASSERT_GT(got.size(), 10u) << label;
    ASSERT_EQ(prefix->history().size() + got.size(), want.size()) << label;
    const size_t offset = prefix->history().size();
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].window_index, want[offset + i].window_index);
      EXPECT_TRUE(BitsEqual(got[i].drift, want[offset + i].drift))
          << label << " window " << offset + i;
      EXPECT_EQ(got[i].alarm, want[offset + i].alarm);
    }
    const CheckpointData end_full = full->Snapshot();
    const CheckpointData end_resumed = resumed->Snapshot();
    EXPECT_GT(end_resumed.refreshes, snap.refreshes) << label;
    EXPECT_EQ(end_resumed.gram_count, end_full.gram_count) << label;
    const std::vector<double>& sum_full = end_full.gram_sum.data();
    const std::vector<double>& sum_resumed = end_resumed.gram_sum.data();
    ASSERT_EQ(sum_resumed.size(), sum_full.size()) << label;
    for (size_t e = 0; e < sum_full.size(); ++e) {
      EXPECT_TRUE(BitsEqual(sum_resumed[e], sum_full[e]))
          << label << " gram entry " << e;
    }
  }
}

}  // namespace
}  // namespace ccs::stream
