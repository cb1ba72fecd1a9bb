// CSV reader (with type inference) and writer for DataFrames.

#ifndef CCS_DATAFRAME_CSV_H_
#define CCS_DATAFRAME_CSV_H_

#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "dataframe/dataframe.h"

namespace ccs::dataframe {

/// CSV parsing options.
struct CsvOptions {
  char delimiter = ',';
  /// First line holds column names. When false, columns are named c0..cK.
  bool has_header = true;
  /// A column is inferred numeric iff every non-empty cell parses as a
  /// double; otherwise it is categorical. When false, all columns are
  /// categorical.
  bool infer_types = true;
  /// Replacement for empty cells in a column inferred numeric.
  double missing_numeric = 0.0;
};

namespace internal {

/// The record tokenizer behind ReadCsv and CsvChunkReader.
///
/// Pulls the stream through one reused block buffer (kBlockBytes; it
/// grows only while a single record is longer than it) and yields each
/// record's fields as string_views into that buffer, so tokenizing
/// allocates nothing per field or record. A refill never asks the
/// streambuf for more bytes than in_avail() reports, and blocks in at
/// most one underflow only when nothing is available: a reader of a
/// paced (live) stream therefore returns as soon as its last record is
/// complete. Records without a '"' are split by a structural-byte scan;
/// a record containing one takes the RFC-4180 state machine ("" escapes,
/// embedded delimiters and newlines), unescaping in place.
class CsvTokenizer {
 public:
  static constexpr size_t kBlockBytes = 64 * 1024;

  /// Reads `in` (not owned; must outlive the tokenizer). The tokenizer
  /// buffers ahead: bytes it consumed but has not yet tokenized are lost
  /// to other readers of `in`.
  CsvTokenizer(std::istream* in, char delimiter);

  /// Tokenizes the next record into fields(). Returns false at end of
  /// stream (nothing consumed); InvalidArgument("unterminated quoted
  /// field") when a quote is still open at end of stream, having consumed
  /// the rest of the stream. A record ends at "\n", "\r\n", a lone "\r",
  /// or end of stream.
  StatusOr<bool> Next();

  /// The last record's fields; valid until the next Next() call.
  const std::vector<std::string_view>& fields() const { return fields_; }

  /// Physical lines the last Next() consumed: newlines inside quoted
  /// fields plus one, or 0 at end of stream.
  size_t lines() const { return lines_; }

 private:
  // Appends what the stream has available after sliding the record in
  // progress to the front of the buffer; false at end of stream.
  bool Refill();
  // Offset of the first '\n', '"', or '\r' in [from, end_), else end_.
  size_t FindStructural(size_t from) const;
  // The quote-aware state machine for the record at begin_.
  StatusOr<bool> NextQuoted();

  std::istream* in_;
  char delimiter_;
  std::vector<char> buffer_;
  size_t begin_ = 0;  // First byte not yet tokenized.
  size_t end_ = 0;    // One past the last buffered byte.
  std::vector<std::string_view> fields_;
  std::vector<size_t> field_ends_;  // Quoted path, relative to begin_.
  size_t lines_ = 0;
};

}  // namespace internal

/// Parses a CSV stream into a DataFrame.
///
/// Supports RFC-4180-style double-quoted fields with embedded delimiters,
/// quotes ("" escaping), and newlines. Returns InvalidArgument on ragged
/// rows (reporting the 1-based physical line and data row) or
/// unterminated quotes.
StatusOr<DataFrame> ReadCsv(std::istream& in,
                            const CsvOptions& options = CsvOptions());

/// Reads a CSV file from disk. IoError if the file cannot be opened.
StatusOr<DataFrame> ReadCsvFile(const std::string& path,
                                const CsvOptions& options = CsvOptions());

/// Incremental, schema-driven CSV reader for streaming ingestion.
///
/// ReadCsv buffers the whole stream before it can infer column types;
/// CsvChunkReader is instead given the schema up front (typically the
/// reference DataFrame's) and parses a bounded number of rows per call,
/// so a serving pipeline can start scoring long before EOF and its
/// memory stays proportional to the chunk size. The stream must carry
/// every schema column: matched by header name when options.has_header
/// is true (extra stream columns are ignored), positionally otherwise.
/// Numeric cells must parse as doubles; empty numeric cells map to
/// options.missing_numeric. The reader buffers ahead of the rows it has
/// returned (see internal::CsvTokenizer), so `in` belongs to it until it
/// is destroyed.
///
/// Categorical cells are interned at parse time into a per-column
/// dictionary that persists across chunks: once a stream's categorical
/// domain has been seen, chunks share one dictionary object, so
/// downstream consumers (Windower, PartitionBy, grouped scoring) compare
/// integer codes and never re-hash strings.
class CsvChunkReader {
 public:
  /// Reads from `in` (not owned; must outlive the reader) rows shaped
  /// like `schema`.
  CsvChunkReader(std::istream* in, Schema schema,
                 CsvOptions options = CsvOptions());

  /// Parses up to `max_rows` data rows into a DataFrame with exactly
  /// the schema's columns in schema order. Returns a 0-row frame at end
  /// of stream; InvalidArgument on ragged rows, unparseable numeric
  /// cells, unterminated quotes, or a header missing schema columns.
  ///
  /// Malformed mid-stream rows are diagnosed structurally — the error
  /// message carries the 1-based physical line, the 1-based data row,
  /// and (for cell errors) the schema column, stream field index, and
  /// offending cell text. When good rows were already parsed into the
  /// current chunk, that good prefix is returned first and the error is
  /// deferred to the *next* ReadChunk call, so every well-formed row
  /// before the malformation is delivered exactly once regardless of
  /// where chunk boundaries fall (StreamPipeline scores those windows,
  /// then tears down cleanly with this status).
  StatusOr<DataFrame> ReadChunk(size_t max_rows);

  /// Data rows successfully returned so far (header excluded).
  size_t rows_read() const { return rows_read_; }

  /// Physical lines consumed so far (header and quoted-field newlines
  /// included) — the line counter the malformed-row diagnostics report.
  size_t lines_consumed() const { return line_; }

  const Schema& schema() const { return schema_; }

 private:
  Status ReadHeader();

  internal::CsvTokenizer tokenizer_;
  Schema schema_;
  CsvOptions options_;
  std::vector<size_t> col_map_;  // schema index -> stream field index
  // One persistent interner per categorical schema slot (unused entries
  // stay empty for numeric slots).
  std::vector<DictionaryBuilder> dicts_;
  // Reused lookup key: Intern takes a std::string, and assigning each
  // categorical cell here allocates only when a cell outgrows it.
  std::string key_;
  size_t stream_columns_ = 0;
  bool header_done_ = false;
  size_t rows_read_ = 0;
  size_t line_ = 0;  // Physical lines consumed.
  // Malformed-row error deferred until the good prefix is delivered.
  Status pending_error_;
};

/// Writes a DataFrame as CSV (header row + data rows). Fields containing
/// the delimiter, quotes, or newlines are quoted.
Status WriteCsv(const DataFrame& df, std::ostream& out,
                const CsvOptions& options = CsvOptions());

/// Writes a DataFrame to a file.
Status WriteCsvFile(const DataFrame& df, const std::string& path,
                    const CsvOptions& options = CsvOptions());

}  // namespace ccs::dataframe

#endif  // CCS_DATAFRAME_CSV_H_
