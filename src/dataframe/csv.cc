#include "dataframe/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <streambuf>
#include <vector>

#include "common/string_util.h"

namespace ccs::dataframe {

namespace {

// Numeric-cell conversion shared by ReadCsv and CsvChunkReader: empty
// cells map to `missing`; nullopt means a non-empty cell that does not
// parse as a double.
std::optional<double> NumericCell(std::string_view cell, double missing) {
  if (Trim(cell).empty()) return missing;
  return ParseDouble(cell);
}

// Row capacity CsvChunkReader reserves per column and chunk.
constexpr size_t kReserveRows = 4096;

}  // namespace

namespace internal {

CsvTokenizer::CsvTokenizer(std::istream* in, char delimiter)
    : in_(in), delimiter_(delimiter), buffer_(kBlockBytes) {}

bool CsvTokenizer::Refill() {
  using traits = std::char_traits<char>;
  std::streambuf* source = in_->good() ? in_->rdbuf() : nullptr;
  if (source == nullptr) return false;
  // Slide the record in progress to the front; offsets relative to
  // begin_ stay valid.
  if (begin_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
  const size_t old_end = end_;
  std::streamsize available = source->in_avail();
  if (available <= 0) {
    // Nothing buffered upstream: wait in one underflow for one byte, as a
    // byte-wise read would, then take whatever that underflow buffered.
    const traits::int_type first = source->sbumpc();
    if (traits::eq_int_type(first, traits::eof())) return false;
    buffer_[end_++] = traits::to_char_type(first);
    available = source->in_avail();
  }
  if (available > 0) {
    const size_t want =
        std::min(static_cast<size_t>(available), buffer_.size() - end_);
    end_ += static_cast<size_t>(source->sgetn(
        buffer_.data() + end_, static_cast<std::streamsize>(want)));
  }
  return end_ > old_end;
}

size_t CsvTokenizer::FindStructural(size_t from) const {
  // The line end first, then the rare '"' or '\r' before it, so each
  // memchr runs over at most one line of a '\n'-terminated stream.
  const char* data = buffer_.data();
  size_t stop = end_;
  for (char byte : {'\n', '"', '\r'}) {
    const void* hit = std::memchr(data + from, byte, stop - from);
    if (hit != nullptr) {
      stop = static_cast<size_t>(static_cast<const char*>(hit) - data);
    }
  }
  return stop;
}

StatusOr<bool> CsvTokenizer::Next() {
  fields_.clear();
  lines_ = 0;
  if (begin_ == end_ && !Refill()) return false;
  // A delimiter that is itself a structural byte only the state machine
  // orders correctly.
  if (delimiter_ == '"' || delimiter_ == '\n' || delimiter_ == '\r') {
    return NextQuoted();
  }
  // Find the record's first structural byte, refilling while the buffer
  // ends first. `scan` is relative to begin_, which a refill moves.
  size_t scan = 0;
  bool at_eof = false;
  for (;;) {
    scan = FindStructural(begin_ + scan) - begin_;
    if (begin_ + scan < end_) break;
    if (!Refill()) {
      at_eof = true;  // The last record has no line end.
      break;
    }
  }
  if (!at_eof && buffer_[begin_ + scan] == '"') return NextQuoted();

  size_t terminator = 0;
  if (!at_eof) {
    terminator = 1;
    if (buffer_[begin_ + scan] == '\r' &&
        (begin_ + scan + 1 < end_ || Refill()) &&
        buffer_[begin_ + scan + 1] == '\n') {
      terminator = 2;
    }
  }
  const char* field = buffer_.data() + begin_;
  const char* const record_end = field + scan;
  for (;;) {
    const void* cut =
        std::memchr(field, delimiter_, static_cast<size_t>(record_end - field));
    if (cut == nullptr) break;
    const char* at = static_cast<const char*>(cut);
    fields_.emplace_back(field, static_cast<size_t>(at - field));
    field = at + 1;
  }
  fields_.emplace_back(field, static_cast<size_t>(record_end - field));
  begin_ += scan + terminator;
  lines_ = 1;
  return true;
}

StatusOr<bool> CsvTokenizer::NextQuoted() {
  // Unescapes in place: each field's bytes are written back at `write`,
  // which never passes `read`. Both are relative to begin_.
  size_t read = 0;
  size_t write = 0;
  size_t embedded_newlines = 0;
  bool in_quotes = false;
  field_ends_.clear();
  // The byte at offset `at`, refilling as needed; -1 at end of stream.
  auto byte_at = [&](size_t at) -> int {
    if (begin_ + at == end_ && !Refill()) return -1;
    return static_cast<unsigned char>(buffer_[begin_ + at]);
  };
  auto emit = [&](char c) { buffer_[begin_ + write++] = c; };
  for (int c; (c = byte_at(read)) >= 0;) {
    ++read;
    if (in_quotes) {
      if (c == '"') {
        if (byte_at(read) == '"') {
          ++read;
          emit('"');
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++embedded_newlines;
        emit(static_cast<char>(c));
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
    } else if (c == static_cast<unsigned char>(delimiter_)) {
      field_ends_.push_back(write);
    } else if (c == '\n') {
      break;
    } else if (c == '\r') {
      if (byte_at(read) == '\n') ++read;
      break;
    } else {
      emit(static_cast<char>(c));
    }
  }
  lines_ = embedded_newlines + 1;
  const char* data = buffer_.data() + begin_;
  begin_ += read;
  if (in_quotes) return Status::InvalidArgument("unterminated quoted field");
  field_ends_.push_back(write);
  size_t start = 0;
  for (size_t end : field_ends_) {
    fields_.emplace_back(data + start, end - start);
    start = end;
  }
  return true;
}

}  // namespace internal

StatusOr<DataFrame> ReadCsv(std::istream& in, const CsvOptions& options) {
  internal::CsvTokenizer tokenizer(&in, options.delimiter);
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> cells;  // Column-major.
  size_t num_cols = 0;
  size_t records = 0;  // Header included.
  size_t line = 0;     // Physical lines consumed.

  while (true) {
    StatusOr<bool> got_or = tokenizer.Next();
    const size_t record_line = line + 1;
    line += tokenizer.lines();
    if (!got_or.ok()) {
      return Status::InvalidArgument("CSV: " + got_or.status().message());
    }
    if (!*got_or) break;
    const std::vector<std::string_view>& record = tokenizer.fields();
    if (records++ == 0) {
      num_cols = record.size();
      cells.resize(num_cols);
      if (options.has_header) {
        header.assign(record.begin(), record.end());
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
    for (size_t c = 0; c < num_cols; ++c) cells[c].emplace_back(record[c]);
  }
  if (num_cols == 0) {
    return Status::InvalidArgument("CSV: empty input");
  }
  if (header.empty()) {
    for (size_t c = 0; c < num_cols; ++c) {
      header.push_back("c" + std::to_string(c));
    }
  }

  DataFrame df;
  for (size_t c = 0; c < num_cols; ++c) {
    bool numeric = options.infer_types && !cells[c].empty();
    if (options.infer_types) {
      bool any_value = false;
      for (const std::string& cell : cells[c]) {
        if (Trim(cell).empty()) continue;
        any_value = true;
        if (!ParseDouble(cell).has_value()) {
          numeric = false;
          break;
        }
      }
      if (!any_value) numeric = false;  // All-empty column: categorical.
    } else {
      numeric = false;
    }
    if (numeric) {
      std::vector<double> values;
      values.reserve(cells[c].size());
      for (const std::string& cell : cells[c]) {
        // Inference already proved every non-empty cell parses.
        auto parsed = NumericCell(cell, options.missing_numeric);
        values.push_back(parsed.value_or(options.missing_numeric));
      }
      CCS_RETURN_IF_ERROR(df.AddNumericColumn(header[c], std::move(values)));
    } else {
      CCS_RETURN_IF_ERROR(
          df.AddCategoricalColumn(header[c], std::move(cells[c])));
    }
  }
  return df;
}

StatusOr<DataFrame> ReadCsvFile(const std::string& path,
                                const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open file: " + path);
  return ReadCsv(in, options);
}

CsvChunkReader::CsvChunkReader(std::istream* in, Schema schema,
                               CsvOptions options)
    : tokenizer_(in, options.delimiter),
      schema_(std::move(schema)),
      options_(options),
      dicts_(schema_.num_attributes()) {}

Status CsvChunkReader::ReadHeader() {
  col_map_.assign(schema_.num_attributes(), 0);
  if (!options_.has_header) {
    // Positional mapping: schema attribute i <- stream field i.
    stream_columns_ = schema_.num_attributes();
    for (size_t i = 0; i < schema_.num_attributes(); ++i) col_map_[i] = i;
    header_done_ = true;
    return Status::OK();
  }
  StatusOr<bool> got = tokenizer_.Next();
  if (!got.ok()) {
    return Status::InvalidArgument("CsvChunkReader: header (line 1): " +
                                   got.status().message());
  }
  line_ += tokenizer_.lines();
  if (!*got) {
    return Status::InvalidArgument("CsvChunkReader: empty input");
  }
  const std::vector<std::string_view>& header = tokenizer_.fields();
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
          "CsvChunkReader: stream header is missing schema column '" + name +
          "'");
    }
  }
  header_done_ = true;
  return Status::OK();
}

StatusOr<DataFrame> CsvChunkReader::ReadChunk(size_t max_rows) {
  // A malformed row diagnosed on the previous call (after good rows had
  // already been parsed into that chunk) was deferred so the good prefix
  // could be delivered first; surface it now.
  if (!pending_error_.ok()) {
    Status error = std::move(pending_error_);
    pending_error_ = Status::OK();
    return error;
  }
  if (!header_done_) CCS_RETURN_IF_ERROR(ReadHeader());

  const size_t m = schema_.num_attributes();
  std::vector<std::vector<double>> numeric(m);
  std::vector<std::vector<uint32_t>> categorical(m);
  // Size each column for the chunk up front instead of regrowing it row
  // by row; the cap keeps a read-everything max_rows from allocating
  // ahead of the data.
  const size_t reserve_rows = std::min(max_rows, kReserveRows);
  for (size_t i = 0; i < m; ++i) {
    if (schema_.attribute(i).type == AttributeType::kNumeric) {
      numeric[i].reserve(reserve_rows);
    } else {
      categorical[i].reserve(reserve_rows);
    }
  }

  // Diagnoses the malformed record on physical line `record_line` and
  // either returns it (no rows parsed yet) or stashes it and truncates
  // the partially-parsed row, so the caller first receives every good
  // row and then — on its next call — the error. Teardown behavior is
  // therefore independent of where chunk boundaries fall.
  size_t rows = 0;
  Status malformed;
  while (rows < max_rows) {
    StatusOr<bool> got = tokenizer_.Next();
    const size_t record_line = line_ + 1;  // 1-based physical line.
    line_ += tokenizer_.lines();
    if (!got.ok()) {
      malformed = Status::InvalidArgument(
          "CsvChunkReader: line " + std::to_string(record_line) +
          " (data row " + std::to_string(rows_read_ + rows + 1) + "): " +
          got.status().message());
      break;
    }
    if (!*got) break;  // End of stream.
    const std::vector<std::string_view>& record = tokenizer_.fields();
    // Header-mapped streams must match the header width exactly (the
    // ragged-row rule of ReadCsv); headerless streams may carry extra
    // trailing fields beyond the schema's.
    bool ragged = options_.has_header ? record.size() != stream_columns_
                                      : record.size() < stream_columns_;
    if (ragged) {
      malformed = Status::InvalidArgument(
          "CsvChunkReader: line " + std::to_string(record_line) +
          " (data row " + std::to_string(rows_read_ + rows + 1) + "): has " +
          std::to_string(record.size()) + " fields, expected " +
          std::to_string(stream_columns_));
      break;
    }
    for (size_t i = 0; i < m; ++i) {
      const std::string_view cell = record[col_map_[i]];
      if (schema_.attribute(i).type == AttributeType::kNumeric) {
        auto parsed = NumericCell(cell, options_.missing_numeric);
        if (!parsed.has_value()) {
          malformed = Status::InvalidArgument(
              "CsvChunkReader: line " + std::to_string(record_line) +
              " (data row " + std::to_string(rows_read_ + rows + 1) +
              "), column '" + schema_.attribute(i).name + "' (stream field " +
              std::to_string(col_map_[i]) + "): cannot parse '" +
              std::string(cell) + "' as a number");
          break;
        }
        numeric[i].push_back(*parsed);
      } else {
        // Intern into the stream-lifetime dictionary: steady-state
        // chunks share one dictionary object, so downstream code paths
        // compare codes without consulting the strings.
        key_.assign(cell);
        categorical[i].push_back(dicts_[i].Intern(key_));
      }
    }
    if (!malformed.ok()) break;
    ++rows;
  }

  if (!malformed.ok()) {
    if (rows == 0) return malformed;  // Nothing good to deliver first.
    pending_error_ = std::move(malformed);
    // Drop the malformed row's partially-parsed cells: every per-column
    // vector must end at the last good row.
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

namespace {

void WriteField(std::ostream& out, const std::string& field, char delimiter) {
  bool needs_quotes = field.find(delimiter) != std::string::npos ||
                      field.find('"') != std::string::npos ||
                      field.find('\n') != std::string::npos ||
                      field.find('\r') != std::string::npos;
  if (!needs_quotes) {
    out << field;
    return;
  }
  out << '"';
  for (char c : field) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

}  // namespace

Status WriteCsv(const DataFrame& df, std::ostream& out,
                const CsvOptions& options) {
  const char d = options.delimiter;
  if (options.has_header) {
    for (size_t c = 0; c < df.num_columns(); ++c) {
      if (c > 0) out << d;
      WriteField(out, df.schema().attribute(c).name, d);
    }
    out << '\n';
  }
  for (size_t r = 0; r < df.num_rows(); ++r) {
    for (size_t c = 0; c < df.num_columns(); ++c) {
      if (c > 0) out << d;
      const Column& col = df.column(c);
      if (col.is_numeric()) {
        out << FormatDouble(col.NumericAt(r));
      } else {
        WriteField(out, col.CategoricalAt(r), d);
      }
    }
    out << '\n';
  }
  if (!out) return Status::IoError("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const DataFrame& df, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open file for write: " + path);
  return WriteCsv(df, out, options);
}

}  // namespace ccs::dataframe
