// Tests for the CSV reader/writer.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "dataframe/csv.h"

namespace ccs::dataframe {
namespace {

StatusOr<DataFrame> Parse(const std::string& text) {
  std::istringstream in(text);
  return ReadCsv(in);
}

// The bit pattern of `value`: an empty numeric cell must read as +0.0,
// which compares equal to -0.0.
uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(CsvTest, BasicReadWithHeader) {
  auto df = Parse("x,y,tag\n1,10,a\n2,20,b\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 2u);
  EXPECT_EQ(df->num_columns(), 3u);
  EXPECT_DOUBLE_EQ(df->NumericValue(1, "y").value(), 20.0);
  EXPECT_EQ(df->CategoricalValue(0, "tag").value(), "a");
}

TEST(CsvTest, TypeInferenceNumericVsCategorical) {
  auto df = Parse("a,b\n1,x1\n2.5,x2\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->schema().attribute(0).type, AttributeType::kNumeric);
  EXPECT_EQ(df->schema().attribute(1).type, AttributeType::kCategorical);
}

TEST(CsvTest, MixedColumnFallsBackToCategorical) {
  auto df = Parse("a\n1\nhello\n3\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->schema().attribute(0).type, AttributeType::kCategorical);
}

TEST(CsvTest, QuotedFieldWithDelimiter) {
  auto df = Parse("name,v\n\"hello, world\",1\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->CategoricalValue(0, "name").value(), "hello, world");
}

TEST(CsvTest, EscapedQuotes) {
  auto df = Parse("name\n\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->CategoricalValue(0, "name").value(), "say \"hi\"");
}

TEST(CsvTest, QuotedNewlineInsideField) {
  auto df = Parse("name,v\n\"line1\nline2\",3\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 1u);
  EXPECT_EQ(df->CategoricalValue(0, "name").value(), "line1\nline2");
}

TEST(CsvTest, CrLfLineEndings) {
  auto df = Parse("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(df->NumericValue(1, "b").value(), 4.0);
}

TEST(CsvTest, MissingNumericCellUsesFillValue) {
  auto df = Parse("a\n1\n\n3\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->schema().attribute(0).type, AttributeType::kNumeric);
  EXPECT_EQ(Bits(df->NumericValue(1, "a").value()), Bits(0.0));
}

TEST(CsvTest, AllEmptyColumnIsCategorical) {
  auto df = Parse("a,b\n1,\n2,\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->schema().attribute(1).type, AttributeType::kCategorical);
}

TEST(CsvTest, RaggedRowIsError) {
  auto df = Parse("a,b\n1,2\n3\n");
  EXPECT_FALSE(df.ok());
  EXPECT_EQ(df.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RaggedRowReportsLineAndOneBasedDataRow) {
  // The header occupies line 1, so data row 2 sits on line 3.
  auto with_header = Parse("a,b\n1,2\n3\n");
  ASSERT_FALSE(with_header.ok());
  EXPECT_EQ(with_header.status().message(),
            "CSV: line 3 (data row 2): has 1 fields, expected 2");

  // A quoted newline in an earlier row shifts the physical line only.
  auto spanning = Parse("a,b\n\"x\ny\",1\n3\n");
  ASSERT_FALSE(spanning.ok());
  EXPECT_EQ(spanning.status().message(),
            "CSV: line 4 (data row 2): has 1 fields, expected 2");
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  EXPECT_FALSE(Parse("a\n\"oops\n").ok());
}

TEST(CsvTest, EmptyInputIsError) { EXPECT_FALSE(Parse("").ok()); }

TEST(CsvTest, WriteThenReadRoundTrips) {
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {1.5, -2.25}).ok());
  ASSERT_TRUE(df.AddCategoricalColumn("s", {"plain", "with,comma"}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(df, out).ok());
  auto back = Parse(out.str());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(back->NumericValue(1, "x").value(), -2.25);
  EXPECT_EQ(back->CategoricalValue(1, "s").value(), "with,comma");
}

TEST(CsvTest, WriteQuotesSpecialCharacters) {
  DataFrame df;
  ASSERT_TRUE(df.AddCategoricalColumn("s", {"a\"b"}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(df, out).ok());
  EXPECT_NE(out.str().find("\"a\"\"b\""), std::string::npos);
}

TEST(CsvTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/ccs_csv_test.csv";
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("v", {3.0, 7.0}).ok());
  ASSERT_TRUE(WriteCsvFile(df, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(back->NumericValue(1, "v").value(), 7.0);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  auto df = ReadCsvFile("/nonexistent/dir/file.csv");
  EXPECT_EQ(df.status().code(), StatusCode::kIoError);
}

// ----------------------- RFC-4180 edge cases -------------------------

TEST(CsvTest, QuotedFieldWithEmbeddedNewline) {
  auto df = Parse("x,note\n1,\"line one\nline two\"\n2,plain\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 2u);
  EXPECT_EQ(df->CategoricalValue(0, "note").value(), "line one\nline two");
  EXPECT_EQ(df->CategoricalValue(1, "note").value(), "plain");
  EXPECT_DOUBLE_EQ(df->NumericValue(1, "x").value(), 2.0);
}

TEST(CsvTest, QuotedFieldWithEscapedQuotes) {
  auto df = Parse("x,say\n1,\"she said \"\"hi\"\"\"\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->CategoricalValue(0, "say").value(), "she said \"hi\"");
}

TEST(CsvTest, EmbeddedNewlineSurvivesWriteReadRoundTrip) {
  DataFrame df;
  ASSERT_TRUE(df.AddCategoricalColumn("s", {"a\nb", "c\"d"}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(df, out).ok());
  auto back = Parse(out.str());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->CategoricalValue(0, "s").value(), "a\nb");
  EXPECT_EQ(back->CategoricalValue(1, "s").value(), "c\"d");
}

TEST(CsvTest, CrlfLineEndings) {
  auto df = Parse("x,tag\r\n1,a\r\n2,b\r\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(df->NumericValue(0, "x").value(), 1.0);
  // No stray \r glued onto the last field of a record.
  EXPECT_EQ(df->CategoricalValue(1, "tag").value(), "b");
}

TEST(CsvTest, CrlfInsideQuotedFieldIsPreserved) {
  auto df = Parse("x,note\r\n1,\"a\r\nb\"\r\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->CategoricalValue(0, "note").value(), "a\r\nb");
}

TEST(CsvTest, TrailingEmptyField) {
  // "1," has two fields; the trailing one is empty — the column must not
  // collapse, and empty cells force the column categorical... unless the
  // non-empty cells parse numeric, in which case they are missing values.
  auto df = Parse("x,opt\n1,\n2,z\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 2u);
  EXPECT_EQ(df->CategoricalValue(0, "opt").value(), "");
  EXPECT_EQ(df->CategoricalValue(1, "opt").value(), "z");
}

Schema NumericSchema(std::initializer_list<const char*> names) {
  Schema schema;
  for (const char* name : names) {
    CCS_CHECK(schema.AddAttribute(name, AttributeType::kNumeric).ok());
  }
  return schema;
}

TEST(CsvTest, TrailingEmptyNumericFieldUsesMissingValue) {
  // Both readers: ReadCsv infers the column, CsvChunkReader is told it.
  const std::string text = "x,v\n1,\n2,7\n";
  auto df = Parse(text);
  ASSERT_TRUE(df.ok());
  std::istringstream in(text);
  CsvChunkReader reader(&in, NumericSchema({"x", "v"}));
  auto chunk = reader.ReadChunk(10);
  ASSERT_TRUE(chunk.ok()) << chunk.status();
  for (const DataFrame* frame : {&*df, &*chunk}) {
    ASSERT_EQ(frame->num_rows(), 2u);
    EXPECT_EQ(Bits(frame->NumericValue(0, "v").value()), Bits(0.0));
    EXPECT_DOUBLE_EQ(frame->NumericValue(1, "v").value(), 7.0);
  }
}

// ----------------------- CsvChunkReader failure order -----------------

// The status of the first ReadChunk(10) over `text`.
Status FirstChunkStatus(const std::string& text, const Schema& schema) {
  std::istringstream in(text);
  CsvChunkReader reader(&in, schema);
  return reader.ReadChunk(10).status();
}

TEST(CsvChunkReaderTest, FirstBadCellInSchemaOrderWinsOverStreamOrder) {
  // Stream order is b, a; both cells are bad. The error names the first
  // bad schema attribute, a, at its stream field 1.
  const Status status =
      FirstChunkStatus("b,a\nbad_b,bad_a\n", NumericSchema({"a", "b"}));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "CsvChunkReader: line 2 (data row 1), column 'a' (stream field "
            "1): cannot parse 'bad_a' as a number");
}

TEST(CsvChunkReaderTest, RaggedRowWinsOverBadCell) {
  const Schema schema = NumericSchema({"x", "y"});
  // Short, with a bad cell before the missing one.
  EXPECT_EQ(FirstChunkStatus("x,y\noops\n", schema).message(),
            "CsvChunkReader: line 2 (data row 1): has 1 fields, expected 2");
  // Long, with a bad mapped cell.
  EXPECT_EQ(FirstChunkStatus("x,y\n1,oops,3\n", schema).message(),
            "CsvChunkReader: line 2 (data row 1): has 3 fields, expected 2");
}

// A live source: each underflow releases the next piece (one or more
// lines), and in_avail() reports 0 once the released bytes are taken.
class PieceStreambuf : public std::streambuf {
 public:
  explicit PieceStreambuf(std::vector<std::string> pieces)
      : pieces_(std::move(pieces)) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == pieces_.size()) return traits_type::eof();
    std::string& piece = pieces_[next_++];
    setg(piece.data(), piece.data(), piece.data() + piece.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string> pieces_;
  size_t next_ = 0;
};

TEST(CsvChunkReaderTest, WouldBlockOnlyWhenTheNextReadMustWaitForInput) {
  const Schema schema = NumericSchema({"x", "y"});
  {
    // A stringstream's bytes are all available from the start.
    std::istringstream in("x,y\n1,2\n");
    CsvChunkReader reader(&in, schema);
    EXPECT_FALSE(reader.WouldBlock());
  }
  {
    // Bytes buffered in the tokenizer, then a drained live source whose
    // next piece is not yet due.
    PieceStreambuf buf({"x,y\n1,2\n3,4\n", "5,6\n"});
    std::istream in(&buf);
    CsvChunkReader reader(&in, schema);
    EXPECT_TRUE(reader.WouldBlock());  // Nothing released yet.
    ASSERT_EQ(reader.ReadChunk(1)->num_rows(), 1u);
    EXPECT_FALSE(reader.WouldBlock());  // "3,4" is buffered.
    ASSERT_EQ(reader.ReadChunk(1)->num_rows(), 1u);
    EXPECT_TRUE(reader.WouldBlock());
    ASSERT_EQ(reader.ReadChunk(5)->num_rows(), 1u);
    EXPECT_TRUE(reader.WouldBlock());  // At end of stream, still drained.
  }
  {
    // A malformed row after a good one: the good prefix is returned and
    // the error deferred, so the next read returns at once.
    PieceStreambuf buf({"x,y\n1,2\n", "bad,3\n"});
    std::istream in(&buf);
    CsvChunkReader reader(&in, schema);
    ASSERT_EQ(reader.ReadChunk(10)->num_rows(), 1u);
    EXPECT_FALSE(reader.WouldBlock());
    EXPECT_EQ(reader.ReadChunk(10).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(reader.WouldBlock());
  }
  {
    // A failing first row returns its error at once; the record located
    // after it waits in the reader, not in the stream.
    PieceStreambuf buf({"x,y\nbad,3\n4,5\n", "6,7\n"});
    std::istream in(&buf);
    CsvChunkReader reader(&in, schema);
    EXPECT_EQ(reader.ReadChunk(10).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(reader.WouldBlock());
    auto rest = reader.ReadChunk(1);
    ASSERT_TRUE(rest.ok()) << rest.status();
    ASSERT_EQ(rest->num_rows(), 1u);
    EXPECT_EQ(rest->NumericValue(0, "x").value(), 4.0);
    EXPECT_TRUE(reader.WouldBlock());
  }
}

}  // namespace
}  // namespace ccs::dataframe
