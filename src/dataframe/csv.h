// CSV reader (with type inference) and writer for DataFrames.

#ifndef CCS_DATAFRAME_CSV_H_
#define CCS_DATAFRAME_CSV_H_

#include <cstdint>
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

/// Splits an unquoted record at every `delimiter` into `fields`
/// (cleared first; views into `record`). The one field loop behind
/// CsvTokenizer::Next and CsvChunkReader's row blocks.
void SplitFields(std::string_view record, char delimiter,
                 std::vector<std::string_view>* fields);

/// The record tokenizer behind ReadCsv and CsvChunkReader.
///
/// Pulls the stream through one reused block buffer (kBlockBytes; it
/// grows only while a single record is longer than it) and yields each
/// record as string_views into that buffer, so tokenizing allocates
/// nothing per field or record. A refill never asks the streambuf for
/// more bytes than in_avail() reports, and blocks in at most one
/// underflow only when nothing is available: a reader of a paced (live)
/// stream therefore returns as soon as its last record is complete.
/// Records without a '"' are located by a structural-byte scan and left
/// unsplit; a record containing one takes the RFC-4180 state machine
/// ("" escapes, embedded delimiters and newlines), unescaping its fields
/// in place.
class CsvTokenizer {
 public:
  static constexpr size_t kBlockBytes = 64 * 1024;

  /// Reads `in` (not owned; must outlive the tokenizer). The tokenizer
  /// buffers ahead: bytes it consumed but has not yet tokenized are lost
  /// to other readers of `in`.
  CsvTokenizer(std::istream* in, char delimiter);

  /// Locates the next record without splitting it. Returns false at end
  /// of stream (nothing consumed); InvalidArgument("unterminated quoted
  /// field") when a quote is still open at end of stream, having
  /// consumed the rest of the stream. A record ends at "\n", "\r\n", a
  /// lone "\r", or end of stream. An unquoted record's bytes are in
  /// record(); a quoted() one's unescaped fields are in fields().
  StatusOr<bool> Locate();

  /// Locate(), then splits an unquoted record into fields().
  StatusOr<bool> Next();

  /// Whether the last located record took the quoted path.
  bool quoted() const { return quoted_; }

  /// The last unquoted record's bytes, line end excluded; valid until
  /// the next Locate() or Next() call.
  std::string_view record() const { return record_; }

  /// The last record's fields after Next(), or a quoted record's after
  /// Locate(); valid until the next call.
  const std::vector<std::string_view>& fields() const { return fields_; }

  /// Physical lines the last record spanned: newlines inside quoted
  /// fields plus one, or 0 at end of stream.
  size_t lines() const { return lines_; }

  /// True when the next Locate() would wait in an underflow before it
  /// saw a byte: nothing is buffered here and the streambuf reports
  /// nothing available.
  bool WouldBlock();

 private:
  // Appends what the stream has available after sliding the record in
  // progress to the front of the buffer; false at end of stream.
  bool Refill();
  // Offset of the first '\n', '"', or '\r' in [from, end_), else end_.
  size_t FindStructural(size_t from) const;
  // The quote-aware state machine for the record at begin_.
  StatusOr<bool> LocateQuoted();

  std::istream* in_;
  char delimiter_;
  std::vector<char> buffer_;
  size_t begin_ = 0;  // First byte not yet tokenized.
  size_t end_ = 0;    // One past the last buffered byte.
  bool quoted_ = false;
  std::string_view record_;
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
/// Each ReadChunk runs in three stages:
///  1. Locate (serial): the tokenizer finds up to `max_rows` records and
///     copies each unquoted one, unsplit, into a reader-owned arena that
///     holds at most one chunk; a quoted record's unescaped fields are
///     copied instead. Before a read that would wait for the stream, the
///     records located so far are converted and interned (stages 2 and
///     3), so a live chunk's last row is the only one handled after it
///     arrives.
///  2. Convert (row blocks on common::ParallelFor, `num_threads` lanes):
///     each block splits its rows' fields, applies the ragged-row rule,
///     parses numeric cells, and writes only its own rows of the chunk's
///     pre-sized columns, plus each row's first failure.
///  3. Commit (serial, row order): categorical cells are interned and
///     the first failing row in row order ends the chunk, so frames,
///     dictionaries, errors, rows_read() and lines_consumed() are those
///     of a serial row-at-a-time parse at every lane count. Rows located
///     after a failing row stay queued for the next call.
///
/// Categorical cells are interned into a per-column dictionary that
/// persists across chunks: once a stream's categorical domain has been
/// seen, chunks share one dictionary object, so downstream consumers
/// (Windower, PartitionBy, grouped scoring) compare integer codes and
/// never re-hash strings.
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
  /// Conversion runs on at most `num_threads` lanes (0 means
  /// common::DefaultThreadCount(); 1 never touches the pool).
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
  StatusOr<DataFrame> ReadChunk(size_t max_rows, size_t num_threads = 0);

  /// Data rows successfully returned so far (header excluded).
  size_t rows_read() const { return rows_read_; }

  /// Physical lines of the rows handed out so far, plus the header and
  /// every malformed record reported (quoted-field newlines included) —
  /// the line counter the malformed-row diagnostics report.
  size_t lines_consumed() const { return line_; }

  const Schema& schema() const { return schema_; }

 private:
  // A located record. Records sit in the arena in stream order, so a
  // record's bytes end where the next one's begin.
  struct Located {
    size_t begin = 0;  // Arena offset of the record's bytes.
    size_t size = 0;   // Unquoted only: the record's length.
    size_t lines = 0;  // Physical lines the record spanned.
    // Quoted only: its fields are spans_[first_span, first_span +
    // num_spans). Unquoted records keep num_spans == 0.
    size_t first_span = 0;
    size_t num_spans = 0;
  };
  struct Span {
    size_t begin = 0;  // Arena offset.
    size_t size = 0;
  };
  // A row's first failure, in the order the serial parse checks it.
  struct RowFailure {
    enum Kind : uint8_t { kNone, kRagged, kCell } kind = kNone;
    size_t attr = 0;  // kCell: the schema attribute that failed.
  };

  Status ReadHeader();
  // Stage 1: locates records until `max_rows` are queued, the stream
  // ends, or a row converted before a wait failed.
  void LocateRecords(size_t max_rows, size_t num_threads);
  // Stage 2 over the located rows [converted_, to); true when one of
  // them failed.
  bool ConvertRows(size_t to, size_t num_threads);
  // Stage 2 for row `r`; false when it failed (see failures_[r]).
  bool ConvertRow(size_t r, std::vector<std::string_view>* fields);
  // Stage 3: interns and assembles the rows before the first failure.
  StatusOr<DataFrame> Commit(size_t max_rows);
  // Stage 3's interning, in row order, of the rows [interned_, to).
  void InternRows(size_t to);
  // Interns row `r`'s categorical cells before schema attribute
  // `before`; `keep` appends their codes to the chunk's columns.
  void InternCells(size_t r, size_t before, bool keep);
  // Row `r`'s fields as views into the arena.
  void Fields(size_t r, std::vector<std::string_view>* fields) const;
  // The first `count` located records leave the queue.
  void DropLocated(size_t count);
  std::string_view ArenaView(Span span) const {
    return std::string_view(arena_.data() + span.begin, span.size);
  }

  internal::CsvTokenizer tokenizer_;
  Schema schema_;
  CsvOptions options_;
  std::vector<size_t> col_map_;  // schema index -> stream field index
  std::vector<size_t> categorical_attrs_;  // Schema indices, in order.
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

  // Located records not yet handed out, and the bytes they view.
  std::vector<char> arena_;
  std::vector<Located> located_;
  std::vector<Span> spans_;
  // A tokenizer error located after the queued records, with the lines
  // its record consumed.
  Status stream_error_;
  size_t stream_error_lines_ = 0;
  // This call's conversion state: rows [0, converted_) of located_ are
  // converted into numeric_ (indexed by schema slot), failures_, and
  // cells_ (each row's categorical cells, categorical_attrs_ order);
  // rows [0, interned_) are interned into codes_ (by schema slot).
  size_t converted_ = 0;
  size_t interned_ = 0;
  std::vector<std::vector<double>> numeric_;
  std::vector<std::vector<uint32_t>> codes_;
  std::vector<RowFailure> failures_;
  std::vector<Span> cells_;
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
