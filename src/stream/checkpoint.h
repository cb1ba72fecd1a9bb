// Checkpoint/resume for the streaming pipeline.
//
// A checkpoint captures, at a committed-window boundary, everything a
// fresh process needs to continue the monitor bit-exactly:
//
//   - geometry guards (window/slide/refresh cadence, alarm threshold
//     bits) — a resume against different options is refused;
//   - progress: windows committed (the history base for window
//     indices), windows consumed from the window stream (committed +
//     score-quarantined), and the good data rows those windows
//     consumed — the resume row offset;
//   - the IncrementalSynthesizer profile: attribute names plus the raw
//     streaming Gram sum and count, every double as raw IEEE-754 bits;
//   - the adopted reference constraint (once a refresh has happened):
//     the core::AppendSimple block learned profiles use. Before the
//     first refresh the profile is whatever Create() learned from the
//     reference CSV, which the resuming process re-Fits
//     deterministically — so it is not serialized.
//
// Windower state is deliberately NOT serialized: the generation buffers
// hold only the in-flight tail after the last consumed window, which the
// rows themselves determine. Instead the resume skips
// rows_consumed good data rows through the same CsvChunkReader and
// lets a fresh Windower rebuild the in-flight tail — deterministic
// because parsing is, and cheap because skipping parses but never
// scores. The resumed alarm trace is bitwise identical to an
// uninterrupted run from the checkpoint boundary on (the determinism
// contract extended to recovery; see docs/robustness.md and
// tests/checkpoint_test.cc).
//
// The format is versioned line-oriented text with hex-encoded doubles
// (HexBits, the golden-trace idiom) and JSON-quoted names, so state
// survives serialization exactly. Its last line, `end <Fnv1a64 of every
// byte before it>`, makes a truncated or bit-flipped checkpoint fail.

#ifndef CCS_STREAM_CHECKPOINT_H_
#define CCS_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/constraint.h"
#include "linalg/matrix.h"

namespace ccs::stream {

/// The serializable snapshot of a StreamPipeline at a committed-window
/// boundary.
struct CheckpointData {
  // Geometry guards.
  size_t window_rows = 0;
  size_t slide_rows = 0;  ///< 0 = tumbling, as in StreamPipelineOptions.
  size_t refresh_every = 0;
  uint64_t threshold_bits = 0;  ///< Alarm threshold, raw IEEE-754 bits.

  // Progress.
  size_t windows_committed = 0;  ///< Scores in the history (resume base).
  size_t windows_consumed = 0;   ///< Committed + score-quarantined.
  size_t rows_consumed = 0;      ///< Good data rows feeding those windows.
  size_t refreshes = 0;          ///< Reference refreshes so far.

  // Streaming profile (IncrementalSynthesizer state).
  std::vector<std::string> attribute_names;
  int64_t gram_count = 0;
  linalg::Matrix gram_sum;  ///< (m+1) x (m+1) raw sum.

  // Adopted reference constraint; present iff refreshes > 0.
  bool has_profile = false;
  core::SimpleConstraint profile;
};

/// Canonical text form (see the header comment for the layout).
std::string SerializeCheckpoint(const CheckpointData& data);

/// Parses SerializeCheckpoint's output. InvalidArgument on a checksum,
/// version or structural mismatch — a truncated or hand-edited
/// checkpoint must not resume silently wrong.
StatusOr<CheckpointData> ParseCheckpoint(const std::string& text);

/// Writes atomically: serialize to `path`.tmp, then rename over `path`,
/// so a crash mid-write leaves the previous checkpoint intact.
Status WriteCheckpointFile(const CheckpointData& data,
                           const std::string& path);

/// Reads and parses `path`. NotFound when the file does not exist (the
/// "first run, nothing to resume" case callers treat as a fresh start).
StatusOr<CheckpointData> ReadCheckpointFile(const std::string& path);

}  // namespace ccs::stream

#endif  // CCS_STREAM_CHECKPOINT_H_
