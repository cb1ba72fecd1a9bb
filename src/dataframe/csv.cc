#include "dataframe/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <streambuf>
#include <vector>

#include "common/parallel.h"
#include "common/string_util.h"
#include "obs/trace.h"

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

// Cells per row block of CsvChunkReader's conversion stage.
constexpr size_t kBlockCells = 1024;

}  // namespace

namespace internal {

void SplitFields(std::string_view record, char delimiter,
                 std::vector<std::string_view>* fields) {
  fields->clear();
  const char* field = record.data();
  const char* const record_end = field + record.size();
  while (field != record_end) {
    const void* cut =
        std::memchr(field, delimiter, static_cast<size_t>(record_end - field));
    if (cut == nullptr) break;
    const char* at = static_cast<const char*>(cut);
    fields->emplace_back(field, static_cast<size_t>(at - field));
    field = at + 1;
  }
  fields->emplace_back(field, static_cast<size_t>(record_end - field));
}

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

bool CsvTokenizer::WouldBlock() {
  if (begin_ < end_ || !in_->good()) return false;
  std::streambuf* source = in_->rdbuf();
  return source != nullptr && source->in_avail() <= 0;
}

StatusOr<bool> CsvTokenizer::Next() {
  StatusOr<bool> got = Locate();
  if (got.ok() && *got && !quoted_) SplitFields(record_, delimiter_, &fields_);
  return got;
}

StatusOr<bool> CsvTokenizer::Locate() {
  fields_.clear();
  lines_ = 0;
  quoted_ = false;
  record_ = std::string_view();
  if (begin_ == end_ && !Refill()) return false;
  // A delimiter that is itself a structural byte only the state machine
  // orders correctly.
  if (delimiter_ == '"' || delimiter_ == '\n' || delimiter_ == '\r') {
    return LocateQuoted();
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
  if (!at_eof && buffer_[begin_ + scan] == '"') return LocateQuoted();

  size_t terminator = 0;
  if (!at_eof) {
    terminator = 1;
    if (buffer_[begin_ + scan] == '\r' &&
        (begin_ + scan + 1 < end_ || Refill()) &&
        buffer_[begin_ + scan + 1] == '\n') {
      terminator = 2;
    }
  }
  record_ = std::string_view(buffer_.data() + begin_, scan);
  begin_ += scan + terminator;
  lines_ = 1;
  return true;
}

StatusOr<bool> CsvTokenizer::LocateQuoted() {
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
  quoted_ = true;
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
    // A column is numeric iff some cell is non-empty and every non-empty
    // cell parses; the values inference parsed are the column's.
    bool numeric = options.infer_types && !cells[c].empty();
    bool any_value = false;
    std::vector<double> values;
    if (numeric) {
      values.reserve(cells[c].size());
      for (const std::string& cell : cells[c]) {
        if (Trim(cell).empty()) {
          values.push_back(options.missing_numeric);
          continue;
        }
        const std::optional<double> parsed = ParseDouble(cell);
        if (!parsed.has_value()) {
          numeric = false;
          break;
        }
        any_value = true;
        values.push_back(*parsed);
      }
    }
    if (numeric && any_value) {
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
      dicts_(schema_.num_attributes()),
      numeric_(schema_.num_attributes()),
      codes_(schema_.num_attributes()) {
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    if (schema_.attribute(i).type != AttributeType::kNumeric) {
      categorical_attrs_.push_back(i);
    }
  }
}

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

StatusOr<DataFrame> CsvChunkReader::ReadChunk(size_t max_rows,
                                              size_t num_threads) {
  // A malformed row diagnosed on the previous call (after good rows had
  // already been parsed into that chunk) was deferred so the good prefix
  // could be delivered first; surface it now.
  if (!pending_error_.ok()) {
    Status error = std::move(pending_error_);
    pending_error_ = Status::OK();
    return error;
  }
  {
    obs::ObsSpan tokenize_span("csv.tokenize", "dataframe");
    if (!header_done_) CCS_RETURN_IF_ERROR(ReadHeader());
    // Size each column for the chunk up front instead of regrowing it
    // pass by pass; the cap keeps a read-everything max_rows from
    // allocating ahead of the data.
    const size_t reserve_rows = std::min(max_rows, kReserveRows);
    for (size_t i = 0; i < schema_.num_attributes(); ++i) {
      numeric_[i].clear();
      codes_[i].clear();
      if (schema_.attribute(i).type == AttributeType::kNumeric) {
        numeric_[i].reserve(reserve_rows);
      } else {
        codes_[i].reserve(reserve_rows);
      }
    }
    failures_.clear();
    cells_.clear();
    converted_ = 0;
    interned_ = 0;
    LocateRecords(max_rows, num_threads);
  }
  obs::ObsSpan convert_span("csv.convert", "dataframe");
  ConvertRows(std::min(located_.size(), max_rows), num_threads);
  return Commit(max_rows);
}

void CsvChunkReader::LocateRecords(size_t max_rows, size_t num_threads) {
  while (located_.size() < max_rows && stream_error_.ok()) {
    // Convert and intern what is here before waiting for more: on a
    // live stream only the chunk's last row is handled after it arrives.
    // A failed row ends the chunk, so it is delivered without waiting.
    if (tokenizer_.WouldBlock()) {
      if (ConvertRows(located_.size(), num_threads)) return;
      InternRows(located_.size());
    }
    StatusOr<bool> got = tokenizer_.Locate();
    if (!got.ok()) {
      stream_error_ = std::move(got).status();
      stream_error_lines_ = tokenizer_.lines();
      return;
    }
    if (!*got) return;  // End of stream.
    Located record;
    record.begin = arena_.size();
    record.lines = tokenizer_.lines();
    record.first_span = spans_.size();
    if (tokenizer_.quoted()) {
      for (std::string_view field : tokenizer_.fields()) {
        spans_.push_back({arena_.size(), field.size()});
        arena_.insert(arena_.end(), field.begin(), field.end());
      }
      record.num_spans = tokenizer_.fields().size();
    } else {
      const std::string_view bytes = tokenizer_.record();
      arena_.insert(arena_.end(), bytes.begin(), bytes.end());
      record.size = bytes.size();
    }
    located_.push_back(record);
  }
}

bool CsvChunkReader::ConvertRows(size_t to, size_t num_threads) {
  const size_t from = converted_;
  if (to <= from) return false;
  converted_ = to;
  for (size_t i = 0; i < numeric_.size(); ++i) {
    if (schema_.attribute(i).type == AttributeType::kNumeric) {
      numeric_[i].resize(to);
    }
  }
  failures_.resize(to);
  cells_.resize(to * categorical_attrs_.size());
  // Blocks of about kBlockCells cells keep the dispatch cost small
  // against the parsing it spreads.
  const size_t block_rows =
      std::max<size_t>(1, kBlockCells / std::max<size_t>(1, stream_columns_));
  common::ParallelFor(
      to - from,
      [&](size_t begin, size_t end) {
        // Per lane and reused: a live stream converts one row per pass.
        thread_local std::vector<std::string_view> fields;
        for (size_t r = from + begin; r < from + end; ++r) {
          // The rows after a failure are never handed out with it.
          if (!ConvertRow(r, &fields)) break;
        }
      },
      common::ParallelOptions{num_threads, block_rows});
  for (size_t r = from; r < to; ++r) {
    if (failures_[r].kind != RowFailure::kNone) return true;
  }
  return false;
}

bool CsvChunkReader::ConvertRow(size_t r,
                                std::vector<std::string_view>* fields) {
  Fields(r, fields);
  RowFailure& failure = failures_[r];
  failure = RowFailure();
  // Header-mapped streams must match the header width exactly (the
  // ragged-row rule of ReadCsv); headerless streams may carry extra
  // trailing fields beyond the schema's.
  const bool ragged = options_.has_header ? fields->size() != stream_columns_
                                          : fields->size() < stream_columns_;
  if (ragged) {
    failure.kind = RowFailure::kRagged;
    return false;
  }
  Span* cell_span = cells_.data() + r * categorical_attrs_.size();
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    const std::string_view cell = (*fields)[col_map_[i]];
    if (schema_.attribute(i).type == AttributeType::kNumeric) {
      const std::optional<double> parsed =
          NumericCell(cell, options_.missing_numeric);
      if (!parsed.has_value()) {
        failure.kind = RowFailure::kCell;
        failure.attr = i;
        return false;
      }
      numeric_[i][r] = *parsed;
    } else {
      *cell_span++ = {static_cast<size_t>(cell.data() - arena_.data()),
                      cell.size()};
    }
  }
  return true;
}

StatusOr<DataFrame> CsvChunkReader::Commit(size_t max_rows) {
  const size_t m = schema_.num_attributes();
  const size_t chunk = std::min(located_.size(), max_rows);
  size_t rows = 0;
  while (rows < chunk && failures_[rows].kind == RowFailure::kNone) ++rows;

  InternRows(rows);
  for (size_t r = 0; r < rows; ++r) line_ += located_[r].lines;

  // Diagnose the first malformed record in row order: the caller
  // receives every good row before it first, and the error on its next
  // call, so teardown is independent of where chunk boundaries fall.
  Status malformed;
  size_t consumed = rows;
  auto where = [&] {
    return "CsvChunkReader: line " + std::to_string(line_ + 1) +
           " (data row " + std::to_string(rows_read_ + rows + 1) + ")";
  };
  if (rows < chunk) {
    const RowFailure& failure = failures_[rows];
    std::vector<std::string_view> fields;
    Fields(rows, &fields);
    if (failure.kind == RowFailure::kRagged) {
      malformed = Status::InvalidArgument(
          where() + ": has " + std::to_string(fields.size()) +
          " fields, expected " + std::to_string(stream_columns_));
    } else {
      // Its categorical cells before the failing attribute are interned,
      // as the serial parse did before it reached that attribute.
      InternCells(rows, failure.attr, /*keep=*/false);
      const size_t field = col_map_[failure.attr];
      malformed = Status::InvalidArgument(
          where() + ", column '" + schema_.attribute(failure.attr).name +
          "' (stream field " + std::to_string(field) + "): cannot parse '" +
          std::string(fields[field]) + "' as a number");
    }
    line_ += located_[rows].lines;
    consumed = rows + 1;
  } else if (chunk < max_rows && !stream_error_.ok()) {
    malformed = Status::InvalidArgument(where() + ": " +
                                        stream_error_.message());
    line_ += stream_error_lines_;
    stream_error_ = Status::OK();
  }
  DropLocated(consumed);
  if (!malformed.ok()) {
    if (rows == 0) return malformed;  // Nothing good to deliver first.
    pending_error_ = std::move(malformed);
  }

  DataFrame df;
  for (size_t i = 0; i < m; ++i) {
    const Attribute& attr = schema_.attribute(i);
    if (attr.type == AttributeType::kNumeric) {
      numeric_[i].resize(rows);
      CCS_RETURN_IF_ERROR(
          df.AddNumericColumn(attr.name, std::move(numeric_[i])));
    } else {
      CCS_RETURN_IF_ERROR(df.AddColumn(
          attr.name, Column::CategoricalFromCodes(std::move(codes_[i]),
                                                  dicts_[i].snapshot())));
    }
  }
  rows_read_ += rows;
  return df;
}

void CsvChunkReader::InternRows(size_t to) {
  for (; interned_ < to; ++interned_) {
    InternCells(interned_, schema_.num_attributes(), /*keep=*/true);
  }
}

void CsvChunkReader::InternCells(size_t r, size_t before, bool keep) {
  // The stream-lifetime dictionaries: steady-state chunks share one
  // dictionary object, so downstream code paths compare codes without
  // consulting the strings.
  const Span* cell_span = cells_.data() + r * categorical_attrs_.size();
  for (size_t i : categorical_attrs_) {
    if (i >= before) break;
    key_.assign(ArenaView(*cell_span++));
    const uint32_t code = dicts_[i].Intern(key_);
    if (keep) codes_[i].push_back(code);
  }
}

void CsvChunkReader::Fields(size_t r,
                            std::vector<std::string_view>* fields) const {
  const Located& record = located_[r];
  if (record.num_spans == 0) {
    internal::SplitFields(ArenaView({record.begin, record.size}),
                          options_.delimiter, fields);
    return;
  }
  fields->clear();
  for (size_t k = 0; k < record.num_spans; ++k) {
    fields->push_back(ArenaView(spans_[record.first_span + k]));
  }
}

void CsvChunkReader::DropLocated(size_t count) {
  if (count == located_.size()) {
    located_.clear();
    arena_.clear();
    spans_.clear();
    return;
  }
  // Only after a failing row: slide the queued records to the front.
  const size_t bytes = located_[count].begin;
  const size_t spans = located_[count].first_span;
  arena_.erase(arena_.begin(), arena_.begin() + bytes);
  spans_.erase(spans_.begin(), spans_.begin() + spans);
  for (Span& span : spans_) span.begin -= bytes;
  located_.erase(located_.begin(), located_.begin() + count);
  for (Located& record : located_) {
    record.begin -= bytes;
    record.first_span -= spans;
  }
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
