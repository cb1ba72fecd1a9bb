// Differential fuzz of the CSV readers against a byte-at-a-time oracle.
//
// The oracle is the reader the block tokenizer replaced: one
// std::istream::get per byte, a std::string per field, one record
// converted and interned at a time. Each draw renders a random CSV with
// the bytes that stress a tokenizer — quotes, "" escapes, delimiters and
// CR/LF inside quotes, CRLF and lone-CR line ends, blank lines, a missing
// final newline, space-padded numbers, NaN, inf, garbage cells, ragged
// rows, unterminated quotes, and records longer than the tokenizer's
// block buffer. The readers are called in lockstep with random max_rows;
// every frame, every dictionary, every error (code and text),
// rows_read(), and lines_consumed() must match. ReadCsv is checked the
// same way. Two modes:
//
//  - Trickling: short draws (<= 40 rows, max_rows <= 12) through a
//    streambuf that yields 1-7 bytes per underflow, so every record,
//    quote pair, and CR/LF straddles a refill and CsvChunkReader converts
//    before nearly every wait.
//  - Whole buffer: long draws (200-3000 rows, max_rows <= 1024) with
//    rare malformed, ragged, and quoted rows at random positions, through
//    a streambuf whose in_avail() is the rest of the stream, so chunks
//    are converted in row blocks on the pool; run at 1 and 4 lanes.
//
// Deterministic by default (CCS_FUZZ_SEED=1). Override the seed or the
// draw count via the CCS_FUZZ_SEED / CCS_FUZZ_DRAWS environment
// variables; a failing draw prints its seed, which replays alone with
// CCS_FUZZ_SEED=<seed> CCS_FUZZ_DRAWS=1.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <streambuf>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "dataframe/csv.h"
#include "gtest/gtest.h"
#include "obs/trace.h"

namespace ccs::dataframe {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<uint64_t>(std::strtoull(value, nullptr, 10));
}

// ------------------------------------------------------------- the oracle

// Parses one logical CSV record (possibly spanning physical lines when a
// quoted field contains newlines). Returns false at end of stream with no
// data consumed. `lines_consumed` receives the number of physical lines
// the record spanned (>= 1 whenever a record was read, counting a final
// unterminated line as one).
StatusOr<bool> OracleReadRecord(std::istream& in, char delimiter,
                                std::vector<std::string>* fields,
                                size_t* lines_consumed) {
  fields->clear();
  *lines_consumed = 0;
  int first = in.peek();
  if (first == std::char_traits<char>::eof()) return false;

  std::string field;
  bool in_quotes = false;
  bool saw_any = false;
  size_t lines = 0;
  bool line_terminated = false;
  char c;
  while (in.get(c)) {
    saw_any = true;
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get(c);
          field.push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++lines;  // Embedded newline in a quoted field.
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
    } else if (c == delimiter) {
      fields->push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      ++lines;
      line_terminated = true;
      break;
    } else if (c == '\r') {
      if (in.peek() == '\n') in.get(c);
      ++lines;
      line_terminated = true;
      break;
    } else {
      field.push_back(c);
    }
  }
  if (saw_any && !line_terminated) ++lines;  // EOF without a newline.
  *lines_consumed = lines;
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field");
  }
  if (!saw_any) return false;
  fields->push_back(std::move(field));
  return true;
}

std::optional<double> OracleNumericCell(const std::string& cell,
                                        double missing) {
  if (Trim(cell).empty()) return missing;
  return ParseDouble(cell);
}

// CsvChunkReader as it was before the block tokenizer, record for record.
class OracleChunkReader {
 public:
  OracleChunkReader(std::istream* in, Schema schema, CsvOptions options)
      : in_(in),
        schema_(std::move(schema)),
        options_(options),
        dicts_(schema_.num_attributes()) {}

  StatusOr<DataFrame> ReadChunk(size_t max_rows) {
    if (!pending_error_.ok()) {
      Status error = std::move(pending_error_);
      pending_error_ = Status::OK();
      return error;
    }
    if (!header_done_) CCS_RETURN_IF_ERROR(ReadHeader());

    const size_t m = schema_.num_attributes();
    std::vector<std::vector<double>> numeric(m);
    std::vector<std::vector<uint32_t>> categorical(m);
    std::vector<std::string> record;
    size_t rows = 0;
    Status malformed;
    while (rows < max_rows) {
      size_t record_lines = 0;
      StatusOr<bool> got =
          OracleReadRecord(*in_, options_.delimiter, &record, &record_lines);
      const size_t record_line = line_ + 1;
      line_ += record_lines;
      if (!got.ok()) {
        malformed = Status::InvalidArgument(
            "CsvChunkReader: line " + std::to_string(record_line) +
            " (data row " + std::to_string(rows_read_ + rows + 1) + "): " +
            got.status().message());
        break;
      }
      if (!*got) break;
      bool ragged = options_.has_header ? record.size() != stream_columns_
                                        : record.size() < stream_columns_;
      if (ragged) {
        malformed = Status::InvalidArgument(
            "CsvChunkReader: line " + std::to_string(record_line) +
            " (data row " + std::to_string(rows_read_ + rows + 1) +
            "): has " + std::to_string(record.size()) +
            " fields, expected " + std::to_string(stream_columns_));
        break;
      }
      for (size_t i = 0; i < m; ++i) {
        const std::string& cell = record[col_map_[i]];
        if (schema_.attribute(i).type == AttributeType::kNumeric) {
          auto parsed = OracleNumericCell(cell, options_.missing_numeric);
          if (!parsed.has_value()) {
            malformed = Status::InvalidArgument(
                "CsvChunkReader: line " + std::to_string(record_line) +
                " (data row " + std::to_string(rows_read_ + rows + 1) +
                "), column '" + schema_.attribute(i).name +
                "' (stream field " + std::to_string(col_map_[i]) +
                "): cannot parse '" + cell + "' as a number");
            break;
          }
          numeric[i].push_back(*parsed);
        } else {
          categorical[i].push_back(dicts_[i].Intern(cell));
        }
      }
      if (!malformed.ok()) break;
      ++rows;
    }
    if (!malformed.ok()) {
      if (rows == 0) return malformed;
      pending_error_ = std::move(malformed);
      for (size_t i = 0; i < m; ++i) {
        if (numeric[i].size() > rows) numeric[i].resize(rows);
        if (categorical[i].size() > rows) categorical[i].resize(rows);
      }
    }
    DataFrame df;
    for (size_t i = 0; i < m; ++i) {
      const Attribute& attr = schema_.attribute(i);
      if (attr.type == AttributeType::kNumeric) {
        CCS_RETURN_IF_ERROR(
            df.AddNumericColumn(attr.name, std::move(numeric[i])));
      } else {
        CCS_RETURN_IF_ERROR(df.AddColumn(
            attr.name, Column::CategoricalFromCodes(std::move(categorical[i]),
                                                    dicts_[i].snapshot())));
      }
    }
    rows_read_ += rows;
    return df;
  }

  size_t rows_read() const { return rows_read_; }
  size_t lines_consumed() const { return line_; }

 private:
  Status ReadHeader() {
    col_map_.assign(schema_.num_attributes(), 0);
    if (!options_.has_header) {
      stream_columns_ = schema_.num_attributes();
      for (size_t i = 0; i < schema_.num_attributes(); ++i) col_map_[i] = i;
      header_done_ = true;
      return Status::OK();
    }
    std::vector<std::string> header;
    size_t header_lines = 0;
    StatusOr<bool> got =
        OracleReadRecord(*in_, options_.delimiter, &header, &header_lines);
    if (!got.ok()) {
      return Status::InvalidArgument("CsvChunkReader: header (line 1): " +
                                     got.status().message());
    }
    line_ += header_lines;
    if (!*got) return Status::InvalidArgument("CsvChunkReader: empty input");
    stream_columns_ = header.size();
    for (size_t i = 0; i < schema_.num_attributes(); ++i) {
      const std::string& name = schema_.attribute(i).name;
      bool found = false;
      for (size_t c = 0; c < header.size(); ++c) {
        if (header[c] == name) {
          col_map_[i] = c;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument(
            "CsvChunkReader: stream header is missing schema column '" +
            name + "'");
      }
    }
    header_done_ = true;
    return Status::OK();
  }

  std::istream* in_;
  Schema schema_;
  CsvOptions options_;
  std::vector<size_t> col_map_;
  std::vector<DictionaryBuilder> dicts_;
  size_t stream_columns_ = 0;
  bool header_done_ = false;
  size_t rows_read_ = 0;
  size_t line_ = 0;
  Status pending_error_;
};

// ReadCsv as it was before the block tokenizer, with the ragged-row
// diagnostic in its current line/data-row form.
StatusOr<DataFrame> OracleReadCsv(std::istream& in, const CsvOptions& options) {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> cells;
  size_t num_cols = 0;
  size_t records = 0;
  size_t line = 0;
  std::vector<std::string> record;
  while (true) {
    size_t record_lines = 0;
    StatusOr<bool> got =
        OracleReadRecord(in, options.delimiter, &record, &record_lines);
    const size_t record_line = line + 1;
    line += record_lines;
    if (!got.ok()) {
      return Status::InvalidArgument("CSV: " + got.status().message());
    }
    if (!*got) break;
    if (records++ == 0) {
      num_cols = record.size();
      cells.resize(num_cols);
      if (options.has_header) {
        header = record;
        continue;
      }
    }
    if (record.size() != num_cols) {
      const size_t data_row = options.has_header ? records - 1 : records;
      return Status::InvalidArgument(
          "CSV: line " + std::to_string(record_line) + " (data row " +
          std::to_string(data_row) + "): has " +
          std::to_string(record.size()) + " fields, expected " +
          std::to_string(num_cols));
    }
    for (size_t c = 0; c < num_cols; ++c) {
      cells[c].push_back(std::move(record[c]));
    }
  }
  if (num_cols == 0) return Status::InvalidArgument("CSV: empty input");
  if (header.empty()) {
    for (size_t c = 0; c < num_cols; ++c) {
      header.push_back("c" + std::to_string(c));
    }
  }
  DataFrame df;
  for (size_t c = 0; c < num_cols; ++c) {
    bool numeric = options.infer_types && !cells[c].empty();
    if (numeric) {
      bool any_value = false;
      for (const std::string& cell : cells[c]) {
        if (Trim(cell).empty()) continue;
        any_value = true;
        if (!ParseDouble(cell).has_value()) {
          numeric = false;
          break;
        }
      }
      if (!any_value) numeric = false;
    }
    if (numeric) {
      std::vector<double> values;
      for (const std::string& cell : cells[c]) {
        values.push_back(OracleNumericCell(cell, options.missing_numeric)
                             .value_or(options.missing_numeric));
      }
      CCS_RETURN_IF_ERROR(df.AddNumericColumn(header[c], std::move(values)));
    } else {
      CCS_RETURN_IF_ERROR(
          df.AddCategoricalColumn(header[c], std::move(cells[c])));
    }
  }
  return df;
}

// ------------------------------------------------------------- plumbing

// Hands out the bytes 1-7 at a time per underflow, so every record,
// quote pair, and CR/LF straddles refill boundaries somewhere.
class TricklingStreambuf : public std::streambuf {
 public:
  TricklingStreambuf(const std::string& bytes, uint64_t seed)
      : bytes_(bytes), rng_(seed) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == bytes_.size()) return traits_type::eof();
    const size_t n = std::min<size_t>(
        static_cast<size_t>(rng_.UniformInt(1, 7)), bytes_.size() - next_);
    char* begin = const_cast<char*>(bytes_.data()) + next_;
    next_ += n;
    setg(begin, begin, begin + n);
    return traits_type::to_int_type(*gptr());
  }

 private:
  const std::string& bytes_;
  Rng rng_;
  size_t next_ = 0;
};

// Hands out the whole stream in one get area: in_avail() is the rest of
// it, so a chunk reader locates a whole chunk before it converts one.
class WholeStreambuf : public std::streambuf {
 public:
  explicit WholeStreambuf(const std::string& bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

void ExpectSameFrame(const DataFrame& got, const DataFrame& want) {
  ASSERT_TRUE(got.schema() == want.schema());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t c = 0; c < got.num_columns(); ++c) {
    const Column& g = got.column(c);
    const Column& w = want.column(c);
    if (g.is_numeric()) {
      for (size_t r = 0; r < got.num_rows(); ++r) {
        const double a = g.NumericAt(r);
        const double b = w.NumericAt(r);
        ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
            << "column " << c << " row " << r << ": " << a << " vs " << b;
      }
    } else {
      ASSERT_EQ(g.dictionary(), w.dictionary()) << "column " << c;
      for (size_t r = 0; r < got.num_rows(); ++r) {
        ASSERT_EQ(g.CodeAt(r), w.CodeAt(r)) << "column " << c << " row " << r;
      }
    }
  }
}

void ExpectSameResult(const StatusOr<DataFrame>& got,
                      const StatusOr<DataFrame>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status() : got.status()).ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  ExpectSameFrame(*got, *want);
}

// ------------------------------------------------------------- generator

struct Draw {
  Schema schema;
  CsvOptions options;
  std::string csv;
};

// How a draw is shaped.
struct Shape {
  int64_t min_rows;
  int64_t max_rows;
  // Per cell: a cell longer than the tokenizer's block buffer.
  double big_cell;
  // Per row, each: a blank line, one field short, one field extra.
  double bad_row;
  // The share of rare cell formats (odd numeric text, quoted text) kept;
  // the others are drawn as a plain number or word instead.
  double rare;
};

constexpr Shape kTrickleShape{0, 40, 0.03, 0.05, 1.0};
constexpr Shape kWholeShape{200, 3000, 0.0005, 0.002, 0.05};

std::string Pick(Rng* rng, const std::vector<std::string>& items) {
  return items[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(items.size()) - 1))];
}

// A cell's bytes as written, quoting and all.
std::string RandomCell(Rng* rng, bool numeric, char delimiter,
                       const Shape& shape) {
  const std::string d(1, delimiter);
  // Whether a rare format drawn is kept (no draw when all are).
  auto keep_rare = [&] {
    return shape.rare >= 1.0 || rng->Bernoulli(shape.rare);
  };
  if (rng->Bernoulli(shape.big_cell)) {
    // Longer than the tokenizer's block buffer, quoted half the time.
    std::string big(
        internal::CsvTokenizer::kBlockBytes +
            static_cast<size_t>(rng->UniformInt(1, 3000)),
        'x');
    return rng->Bernoulli(0.5) ? "\"" + big + "\"" : big;
  }
  if (numeric && rng->Bernoulli(0.85)) {
    char buf[64];
    const double v = rng->Gaussian(0.0, 100.0);
    int64_t format = rng->UniformInt(0, 5);
    if (format == 4 && !keep_rare()) format = 0;
    switch (format) {
      case 0:
        std::snprintf(buf, sizeof(buf), "%.10g", v);
        break;
      case 1:
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        break;
      case 2:
        std::snprintf(buf, sizeof(buf), "  %.3f ", v);
        break;
      case 3:
        std::snprintf(buf, sizeof(buf), "%.4e", v * 1e-9);
        break;
      case 4:
        return Pick(rng, {"", " ", "NaN", "nan", "inf", "-inf", "1e400",
                          "0x1p3", "+1", "1.5.2", "garbage", "1e", "-0",
                          ".5", "5."});
      default:
        std::snprintf(buf, sizeof(buf), "\"%.6g\"", v);
        break;
    }
    return buf;
  }
  int64_t format = rng->UniformInt(0, 9);
  if (format <= 6 && !keep_rare()) format = 7;
  switch (format) {
    case 0:
      return "\"a" + d + "b\"";
    case 1:
      return "\"say \"\"hi\"\"\"";
    case 2:
      return "\"two\nlines\"";
    case 3:
      return "\"cr\rinside\"";
    case 4:
      return "\"crlf\r\ninside\"";
    case 5:
      return "\"\"";
    case 6:
      return "mid\"quo" + d + "ted\"tail";
    default:
      return Pick(rng, {"red", "green", "blue", "", " pad ", "x", "42"});
  }
}

Draw RandomDraw(Rng* rng, const Shape& shape) {
  Draw draw;
  // Mostly ',', sometimes another plain byte, rarely a structural one.
  draw.options.delimiter = rng->Bernoulli(0.75)  ? ','
                           : rng->Bernoulli(0.8) ? ';'
                                                 : '\r';
  draw.options.has_header = rng->Bernoulli(0.75);
  draw.options.missing_numeric = rng->Bernoulli(0.5) ? 0.0 : -1.0;
  const char d = draw.options.delimiter;

  const size_t attrs = static_cast<size_t>(rng->UniformInt(1, 4));
  std::vector<bool> numeric(attrs);
  for (size_t i = 0; i < attrs; ++i) {
    numeric[i] = rng->Bernoulli(0.6);
    CCS_CHECK(draw.schema
                  .AddAttribute("a" + std::to_string(i),
                                numeric[i] ? AttributeType::kNumeric
                                           : AttributeType::kCategorical)
                  .ok());
  }
  // Stream field f carries schema attribute order[f] (a permutation with
  // an extra unmapped column sometimes appended).
  std::vector<size_t> order = rng->Permutation(attrs);
  if (!draw.options.has_header) {
    for (size_t i = 0; i < attrs; ++i) order[i] = i;
  }
  const bool extra = rng->Bernoulli(0.3);
  const size_t fields = attrs + (extra ? 1 : 0);

  auto line_end = [&]() -> std::string {
    const double u = rng->Uniform();
    if (u < 0.75) return "\n";
    if (u < 0.92) return "\r\n";
    return "\r";
  };
  std::string& csv = draw.csv;
  if (draw.options.has_header) {
    for (size_t f = 0; f < fields; ++f) {
      if (f > 0) csv += d;
      if (f < attrs) {
        csv += "a" + std::to_string(order[f]);
      } else {
        csv += "junk";
      }
    }
    if (rng->Bernoulli(0.05)) csv += d + std::string("a0");  // Duplicate.
    if (rng->Bernoulli(0.03)) csv = "zz";  // Missing schema columns.
    csv += line_end();
  }
  const size_t rows =
      static_cast<size_t>(rng->UniformInt(shape.min_rows, shape.max_rows));
  for (size_t r = 0; r < rows; ++r) {
    if (rng->Bernoulli(shape.bad_row)) {
      csv += line_end();  // Blank line: a one-empty-field record.
      continue;
    }
    size_t width = fields;
    if (rng->Bernoulli(shape.bad_row)) {
      width = width > 1 ? width - 1 : width + 1;
    }
    if (rng->Bernoulli(shape.bad_row)) ++width;
    for (size_t f = 0; f < width; ++f) {
      if (f > 0) csv += d;
      const bool is_numeric = f < attrs && numeric[order[f]];
      csv += RandomCell(rng, is_numeric, d, shape);
    }
    if (r + 1 < rows || rng->Bernoulli(0.7)) csv += line_end();
  }
  if (rng->Bernoulli(0.08)) csv += "\"never closed" + std::string(1, d) + "x\n";
  return draw;
}

// ------------------------------------------------------------- the tests

// Reads `draw` through the oracle (from `want_buf`) and CsvChunkReader
// (from `got_buf`, on `lanes` lanes) in lockstep, each call with a
// max_rows drawn from `rng` in [1, max_rows], and checks every result,
// rows_read(), and lines_consumed().
void ExpectChunkReadersAgree(const Draw& draw, std::streambuf* want_buf,
                             std::streambuf* got_buf, Rng* rng,
                             int64_t max_rows, size_t lanes) {
  std::istream want_in(want_buf);
  std::istream got_in(got_buf);
  OracleChunkReader want(&want_in, draw.schema, draw.options);
  CsvChunkReader got(&got_in, draw.schema, draw.options);
  // Every call consumes at least one record or ends the stream, except
  // a header that stays unreadable at end of stream; the bound (more
  // calls than records) stops that case once both readers agree on it.
  const std::string& csv = draw.csv;
  const size_t max_calls =
      static_cast<size_t>(std::count(csv.begin(), csv.end(), '\n') +
                          std::count(csv.begin(), csv.end(), '\r')) +
      4;
  for (size_t call = 0; call < max_calls; ++call) {
    const size_t rows = static_cast<size_t>(rng->UniformInt(1, max_rows));
    StatusOr<DataFrame> want_chunk = want.ReadChunk(rows);
    StatusOr<DataFrame> got_chunk = got.ReadChunk(rows, lanes);
    ASSERT_NO_FATAL_FAILURE(ExpectSameResult(got_chunk, want_chunk))
        << "call " << call;
    ASSERT_EQ(got.rows_read(), want.rows_read()) << "call " << call;
    ASSERT_EQ(got.lines_consumed(), want.lines_consumed()) << "call " << call;
    if (want_chunk.ok() && want_chunk->num_rows() == 0) break;
  }
}

TEST(CsvFuzzTest, BlockTokenizerMatchesByteOracle) {
  const uint64_t base_seed = EnvOr("CCS_FUZZ_SEED", 1);
  const uint64_t draws = EnvOr("CCS_FUZZ_DRAWS", 400);

  for (uint64_t i = 0; i < draws; ++i) {
    const uint64_t seed = base_seed + i;
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) +
                 " (replay: CCS_FUZZ_SEED=" + std::to_string(seed) +
                 " CCS_FUZZ_DRAWS=1)");
    Rng rng(seed);
    const Draw draw = RandomDraw(&rng, kTrickleShape);

    TricklingStreambuf want_buf(draw.csv, seed * 2);
    TricklingStreambuf got_buf(draw.csv, seed * 2 + 1);
    ASSERT_NO_FATAL_FAILURE(ExpectChunkReadersAgree(
        draw, &want_buf, &got_buf, &rng, /*max_rows=*/12, /*lanes=*/0));

    CsvOptions whole = draw.options;
    whole.infer_types = rng.Bernoulli(0.8);
    TricklingStreambuf want_whole_buf(draw.csv, seed * 2);
    TricklingStreambuf got_whole_buf(draw.csv, seed * 2 + 1);
    std::istream want_whole_in(&want_whole_buf);
    std::istream got_whole_in(&got_whole_buf);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameResult(ReadCsv(got_whole_in, whole),
                         OracleReadCsv(want_whole_in, whole)));
  }
}

TEST(CsvFuzzTest, WholeBufferRowBlocksMatchByteOracle) {
  const uint64_t base_seed = EnvOr("CCS_FUZZ_SEED", 1);
  const uint64_t draws = EnvOr("CCS_FUZZ_DRAWS", 60);
  uint64_t pool_tasks = 0;  // Row blocks run at 4 lanes, over all draws.

  for (uint64_t i = 0; i < draws; ++i) {
    const uint64_t seed = base_seed + i;
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) +
                 " (replay: CCS_FUZZ_SEED=" + std::to_string(seed) +
                 " CCS_FUZZ_DRAWS=1)");
    Rng rng(seed);
    const Draw draw = RandomDraw(&rng, kWholeShape);
    for (size_t lanes : {1u, 4u}) {
      SCOPED_TRACE("lanes " + std::to_string(lanes));
      // The same max_rows sequence at every lane count.
      Rng calls(seed * 2);
      WholeStreambuf want_buf(draw.csv);
      WholeStreambuf got_buf(draw.csv);
      obs::ObsSession session;
      ASSERT_NO_FATAL_FAILURE(ExpectChunkReadersAgree(
          draw, &want_buf, &got_buf, &calls, /*max_rows=*/1024, lanes));
      const uint64_t tasks = session.AggregateByName()["pool.task"].count;
      if (lanes == 1) {
        ASSERT_EQ(tasks, 0u);
      }
      pool_tasks += tasks;
    }

    CsvOptions whole = draw.options;
    whole.infer_types = rng.Bernoulli(0.8);
    WholeStreambuf want_whole_buf(draw.csv);
    WholeStreambuf got_whole_buf(draw.csv);
    std::istream want_whole_in(&want_whole_buf);
    std::istream got_whole_in(&got_whole_buf);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameResult(ReadCsv(got_whole_in, whole),
                         OracleReadCsv(want_whole_in, whole)));
  }
  // The draws reach the pool: the 4-lane runs are not serial ones.
  if (draws >= 20) {
    EXPECT_GT(pool_tasks, 0u);
  }
}

}  // namespace
}  // namespace ccs::dataframe
