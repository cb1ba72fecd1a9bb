// Tests for the CSV reader/writer.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "dataframe/csv.h"

namespace ccs::dataframe {
namespace {

StatusOr<DataFrame> Parse(const std::string& text,
                          CsvOptions options = CsvOptions()) {
  std::istringstream in(text);
  return ReadCsv(in, options);
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

TEST(CsvTest, NoHeaderGeneratesNames) {
  CsvOptions options;
  options.has_header = false;
  auto df = Parse("1,2\n3,4\n", options);
  ASSERT_TRUE(df.ok());
  EXPECT_TRUE(df->schema().Contains("c0"));
  EXPECT_TRUE(df->schema().Contains("c1"));
  EXPECT_EQ(df->num_rows(), 2u);
}

TEST(CsvTest, InferTypesOffMakesEverythingCategorical) {
  CsvOptions options;
  options.infer_types = false;
  auto df = Parse("a\n1\n2\n", options);
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
  CsvOptions options;
  options.missing_numeric = -1.0;
  auto df = Parse("a\n1\n\n3\n", options);
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->schema().attribute(0).type, AttributeType::kNumeric);
  EXPECT_DOUBLE_EQ(df->NumericValue(1, "a").value(), -1.0);
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

  CsvOptions headerless;
  headerless.has_header = false;
  auto without_header = Parse("1,2\n3\n", headerless);
  ASSERT_FALSE(without_header.ok());
  EXPECT_EQ(without_header.status().message(),
            "CSV: line 2 (data row 2): has 1 fields, expected 2");

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

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto df = Parse("a;b\n1;2\n", options);
  ASSERT_TRUE(df.ok());
  EXPECT_DOUBLE_EQ(df->NumericValue(0, "b").value(), 2.0);
}

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

TEST(CsvTest, TrailingEmptyNumericFieldUsesMissingValue) {
  CsvOptions options;
  options.missing_numeric = -1.0;
  auto df = Parse("x,v\n1,\n2,7\n", options);
  ASSERT_TRUE(df.ok());
  EXPECT_DOUBLE_EQ(df->NumericValue(0, "v").value(), -1.0);
  EXPECT_DOUBLE_EQ(df->NumericValue(1, "v").value(), 7.0);
}

}  // namespace
}  // namespace ccs::dataframe
