// Windower: assembles fixed-size row windows from streamed chunks.
//
// The streaming pipeline ingests a CSV in bounded chunks whose sizes are
// an I/O detail; the serving loop scores fixed-size windows. Windower
// bridges the two: chunks go in, every window they complete comes out,
// independent of how chunk boundaries fall. Tumbling windows
// (slide == window) partition the stream; sliding windows (slide <
// window) overlap: each shares all but `slide` rows with the window
// before it, and the pipeline scores only the rows a window adds
// (docs/streaming.md, "Determinism"). A trailing partial window at end
// of stream is never emitted (it would score a different population
// than every other window).
//
// Rows are held in per-column rolling buffers (raw doubles and
// dictionary codes, never whole DataFrames), consumed by advancing a
// start offset and compacted once per Push. Each emitted window copies
// exactly `window_rows` rows out of the rolling buffers into fresh
// shared column storage — O(window) per emit, with the categorical
// dictionary shared, not copied — and the rolling buffers themselves
// stop reallocating once their capacity covers window + chunk
// (`buffer_reallocs()` / `buffer_capacity_rows()` expose this for the
// regression test and `ccsynth monitor --stats`).

#ifndef CCS_STREAM_WINDOWER_H_
#define CCS_STREAM_WINDOWER_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "dataframe/dataframe.h"

namespace ccs::stream {

/// Reassembles a chunked row stream into overlapping or tumbling
/// windows. Deterministic: the emitted windows depend only on the
/// concatenated row stream, never on the chunking.
class Windower {
 public:
  /// Windows of `window_rows` rows, advancing `slide_rows` per window.
  /// `slide_rows` = 0 means tumbling (= window_rows). InvalidArgument
  /// unless 1 <= slide_rows <= window_rows.
  static StatusOr<Windower> Create(size_t window_rows, size_t slide_rows = 0);

  /// Appends a chunk (its schema must match earlier chunks) and returns
  /// every window it completes, oldest first. Emitted windows own their
  /// storage (sharing only the categorical dictionaries) and stay valid
  /// after further pushes.
  ///
  /// Edge semantics (defined, not accidental — the scenario gauntlet's
  /// empty/short-stream cases rely on them):
  ///  - A zero-row chunk completes nothing but still adopts (first
  ///    chunk) or validates the schema; only a column-less placeholder
  ///    DataFrame is ignored entirely.
  ///  - A stream shorter than one window emits zero windows.
  ///  - The trailing partial segment — anything shorter than a full
  ///    window after the last emit, including a final segment shorter
  ///    than the slide — is never emitted (it would score a different
  ///    population than every other window); it stays in
  ///    buffered_rows() and is dropped when the Windower is discarded.
  StatusOr<std::vector<dataframe::DataFrame>> Push(
      const dataframe::DataFrame& chunk);

  size_t window_rows() const { return window_rows_; }
  size_t slide_rows() const { return slide_rows_; }

  /// Rows buffered awaiting a full window.
  size_t buffered_rows() const { return buffered_rows_; }

  /// Total windows emitted so far.
  size_t windows_emitted() const { return windows_emitted_; }

  /// Times any rolling column buffer grew its capacity. Stabilizes once
  /// capacity covers window_rows + the largest chunk.
  size_t buffer_reallocs() const { return buffer_reallocs_; }

  /// Current rolling-buffer capacity, in rows (max across columns).
  size_t buffer_capacity_rows() const;

  /// Total rows copied into emitted windows (= windows_emitted *
  /// window_rows): the entire per-emit cost, independent of how many
  /// rows sit in the rolling buffer.
  size_t rows_copied_out() const { return rows_copied_out_; }

 private:
  // One rolling buffer per schema column; exactly one of numeric/codes
  // is used, per the column type.
  struct ColumnBuffer {
    std::vector<double> numeric;
    std::vector<uint32_t> codes;
    dataframe::DictionaryBuilder dict;
  };

  Windower(size_t window_rows, size_t slide_rows)
      : window_rows_(window_rows), slide_rows_(slide_rows) {}

  Status AppendChunk(const dataframe::DataFrame& chunk);
  dataframe::DataFrame EmitWindow();

  size_t window_rows_;
  size_t slide_rows_;
  dataframe::Schema schema_;  // Adopted from the first non-empty chunk.
  std::vector<ColumnBuffer> buffers_;
  size_t start_ = 0;          // Consumed prefix inside the buffers.
  size_t buffered_rows_ = 0;  // Logical rows awaiting windows.
  size_t windows_emitted_ = 0;
  size_t buffer_reallocs_ = 0;
  size_t rows_copied_out_ = 0;
};

}  // namespace ccs::stream

#endif  // CCS_STREAM_WINDOWER_H_
