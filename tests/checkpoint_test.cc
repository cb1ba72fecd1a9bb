// Tests for checkpoint/resume (stream/checkpoint.h): bitwise round-trip
// of the serialized form, file I/O semantics, Restore's guards, and the
// headline contract — a pipeline resumed from a checkpoint commits a
// history bitwise identical to the uninterrupted run from the boundary.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "dataframe/csv.h"
#include "dataframe/dataframe.h"
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

TEST(CheckpointFormatTest, SerializeParseRoundTripsBitwise) {
  CheckpointData data = SampleData();
  std::string text = SerializeCheckpoint(data);
  auto parsed = ParseCheckpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // Serialization is canonical: parse -> serialize reproduces the text
  // byte for byte, which transitively pins every field (including the
  // raw double bits of the Gram sum).
  EXPECT_EQ(SerializeCheckpoint(*parsed), text);
  EXPECT_EQ(parsed->windows_committed, 12u);
  EXPECT_EQ(parsed->windows_consumed, 13u);
  EXPECT_EQ(parsed->rows_consumed, 325u);
  EXPECT_EQ(parsed->gram_count, 325);
  EXPECT_EQ(parsed->gram_sum(2, 2), data.gram_sum(2, 2));
}

TEST(CheckpointFormatTest, ParseRejectsCorruption) {
  std::string text = SerializeCheckpoint(SampleData());
  EXPECT_EQ(ParseCheckpoint("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCheckpoint("ccsynth-checkpoint v99\n").status().code(),
            StatusCode::kInvalidArgument);
  // Truncation (drop the trailing end marker) must not parse.
  std::string truncated = text.substr(0, text.rfind("end"));
  EXPECT_EQ(ParseCheckpoint(truncated).status().code(),
            StatusCode::kInvalidArgument);
  // A hostile conjunct count fails on the missing line, not by sizing
  // an allocation from it.
  std::string hostile = truncated + "profile conjuncts=99999999999999999\n";
  EXPECT_EQ(ParseCheckpoint(hostile).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointFormatTest, ParseRefusesConjunctWithSwappedBounds) {
  // lb > ub would CHECK-fail in the BoundedConstraint constructor; the
  // parser must hand back a Status instead.
  CheckpointData data = SampleData();
  auto projection = core::Projection::Create(data.attribute_names,
                                             linalg::Vector({1.0, -1.0}));
  ASSERT_TRUE(projection.ok());
  std::vector<core::BoundedConstraint> conjuncts;
  conjuncts.emplace_back(std::move(*projection), -1.5, 2.5, 0.5, 0.75, 1.0);
  auto profile = core::SimpleConstraint::Create(data.attribute_names,
                                                std::move(conjuncts));
  ASSERT_TRUE(profile.ok());
  data.profile = std::move(profile).value();
  data.has_profile = true;
  const std::string text = SerializeCheckpoint(data);
  ASSERT_TRUE(ParseCheckpoint(text).ok());

  const size_t lb = text.find(" lb=") + 4;
  const size_t ub = text.find(" ub=") + 4;
  ASSERT_NE(lb, std::string::npos + 4);
  ASSERT_NE(ub, std::string::npos + 4);
  std::string swapped = text;
  swapped.replace(lb, 16, text.substr(ub, 16));
  swapped.replace(ub, 16, text.substr(lb, 16));
  EXPECT_EQ(ParseCheckpoint(swapped).status().code(),
            StatusCode::kInvalidArgument);
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
  // sum is not (one bit flipped below the diagonal) is corrupt: it still
  // parses, but Restore must refuse it with a Status, never a CHECK.
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

  auto corrupt = ParseCheckpoint(flipped);
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

}  // namespace
}  // namespace ccs::stream
