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
// Rows are held in per-column *generation* buffers (raw doubles and
// dictionary codes, never whole DataFrames): fixed-capacity shared
// buffers of kGenerationWindows windows plus the chunk that opened the
// generation. A chunk's rows are written once, past the last written
// row; a buffer is never resized, and a row a window can see is never
// moved or rewritten. An emitted window is a zero-copy view — every
// column selects one shared index vector [start, start + window) of the
// current generation, with the current dictionary snapshot — so an emit
// costs one index vector and one column view per attribute, and nothing
// is copied out. When a chunk does not fit, a new generation starts and
// only the live tail (the fewer than `window_rows` rows still awaiting
// windows) is carried into it; windows already emitted keep the old
// generation alive through their shared_ptrs. A generation takes at
// least 3 * window_rows new rows before the next one, so the rows
// carried are under a third of the rows pushed
// (`rows_copied_out()` / `buffer_reallocs()` expose this for the
// regression tests and `ccsynth monitor --stats`). One shape copies
// nothing at all: a tumbling window that is exactly one incoming chunk,
// arriving while no rows are buffered, is emitted as that chunk and
// shares its storage (`ccsynth monitor` caps its chunk at the window
// step, so every tumbling run on it takes this path).

#ifndef CCS_STREAM_WINDOWER_H_
#define CCS_STREAM_WINDOWER_H_

#include <cstdint>
#include <memory>
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
  /// every window it completes, oldest first. Emitted windows stay
  /// valid after further pushes: an assembled window is a view that
  /// keeps its generation's buffers alive (rows in them are never
  /// rewritten), and a tumbling window that is exactly `chunk` (nothing
  /// buffered) shares the chunk's immutable column storage.
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
  size_t buffered_rows() const { return end_ - start_; }

  /// Total windows emitted so far.
  size_t windows_emitted() const { return windows_emitted_; }

  /// Generation changes: times a chunk did not fit in the current
  /// generation and a new one took over the live tail (the first
  /// generation, allocated by the first buffered chunk, is not a change).
  size_t buffer_reallocs() const { return generation_changes_; }

  /// The current generation's capacity, in rows (0 before the first).
  size_t buffer_capacity_rows() const { return capacity_; }

  /// Rows carried into new generations: the live tail each generation
  /// change copies (fewer than `window_rows`). Emits copy nothing.
  size_t rows_copied_out() const { return rows_carried_; }

 private:
  // A generation holds this many windows plus the chunk that opened it.
  static constexpr size_t kGenerationWindows = 4;

  // One generation buffer per schema column; exactly one of
  // numeric/codes is used, per the column type. Both are sized to the
  // generation's capacity when it starts and never resized.
  struct ColumnBuffer {
    std::shared_ptr<std::vector<double>> numeric;
    std::shared_ptr<std::vector<uint32_t>> codes;
    dataframe::DictionaryBuilder dict;
  };

  Windower(size_t window_rows, size_t slide_rows)
      : window_rows_(window_rows), slide_rows_(slide_rows) {}

  // Adopts the first chunk's schema, or rejects a chunk whose schema
  // differs from it.
  Status AdoptOrCheckSchema(const dataframe::DataFrame& chunk);
  Status AppendChunk(const dataframe::DataFrame& chunk);
  // Starts a generation with room for `chunk_rows` more rows and carries
  // the live tail [start_, end_) into it.
  void StartGeneration(size_t chunk_rows);
  dataframe::DataFrame EmitWindow();

  size_t window_rows_;
  size_t slide_rows_;
  dataframe::Schema schema_;  // Adopted from the first non-empty chunk.
  std::vector<ColumnBuffer> buffers_;
  size_t capacity_ = 0;  // Rows per buffer in the current generation.
  size_t start_ = 0;     // First row awaiting windows.
  size_t end_ = 0;       // One past the last written row.
  size_t windows_emitted_ = 0;
  size_t generation_changes_ = 0;
  size_t rows_carried_ = 0;
};

}  // namespace ccs::stream

#endif  // CCS_STREAM_WINDOWER_H_
