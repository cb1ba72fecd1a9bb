// Streaming, mergeable Gram-matrix accumulator.
//
// Implements the paper's §4.3.2 observation: X^T X = sum_i t_i t_i^T can be
// built one tuple at a time in O(m^2) memory, and partitions accumulated
// independently can be merged by addition (embarrassingly parallel).
//
// The accumulator always tracks the ones-AUGMENTED tuple (1, t) as required
// by Algorithm 1 line 2, so it simultaneously yields:
//   - the augmented Gram matrix [1; X]^T [1; X]   (for eigenvectors),
//   - per-attribute means,
//   - the covariance matrix                       (for baselines).
//
// AddView is the bulk path and is chunk-parallel: rows are split into
// fixed-size shards (kGramShardRows, independent of the thread count),
// each shard accumulated into a thread-local partial, and the partials
// merged in ascending shard order on the calling thread. Because both
// the shard boundaries and the merge order are fixed, the accumulated
// sums — and everything synthesized from them — are bitwise identical
// at any thread count, including 1 (see docs/architecture.md,
// "Determinism contract"). AddView walks a non-owning MatrixView
// (column buffers + selection vectors) directly, so view-backed
// DataFrames are accumulated without materializing a per-call Matrix.

#ifndef CCS_LINALG_GRAM_H_
#define CCS_LINALG_GRAM_H_

#include <cstdint>

#include "common/statusor.h"
#include "linalg/matrix.h"
#include "linalg/matrix_view.h"
#include "linalg/vector.h"

namespace ccs::linalg {

/// Rows per accumulation shard in GramAccumulator::AddView. Fixed (not
/// derived from the thread count) so the floating-point summation tree —
/// and therefore every synthesized constraint — is identical no matter
/// how many lanes execute the shards.
inline constexpr size_t kGramShardRows = 1024;

/// Accumulates sum over tuples of (1,t)(1,t)^T in O(m^2) space.
class GramAccumulator {
 public:
  /// An accumulator over m-attribute tuples.
  explicit GramAccumulator(size_t num_attributes);

  /// Adds one tuple (the streaming path). Size must equal
  /// num_attributes().
  void Add(const Vector& tuple);

  /// Adds every row of a non-owning columnar view (the bulk path),
  /// sharding rows into kGramShardRows blocks accumulated in parallel
  /// and merged in fixed shard order. The gather happens inside the
  /// accumulation loop — no per-call Matrix is materialized.
  /// Deterministic at any thread count.
  ///
  /// \param data  An n x num_attributes() view (checked); rows are tuples.
  void AddView(const MatrixView& data);

  /// Merges another accumulator built over the same schema (partition-wise
  /// parallel pattern from §4.3.2).
  ///
  /// \return InvalidArgument when the attribute counts differ.
  Status Merge(const GramAccumulator& other);

  size_t num_attributes() const { return m_; }
  int64_t count() const { return n_; }

  /// The (m+1) x (m+1) augmented Gram matrix [1; X]^T [1; X].
  /// Index 0 is the constant column.
  Matrix AugmentedGram() const;

  /// The plain m x m Gram matrix X^T X.
  Matrix Gram() const;

  /// Per-attribute means. Requires count() > 0.
  Vector Means() const;

  /// Population covariance matrix (divides by n). Requires count() > 0.
  Matrix Covariance() const;

  /// The raw running (m+1) x (m+1) sum of (1,t)(1,t)^T — the complete
  /// accumulator state alongside count(). Checkpoint serialization
  /// (stream/checkpoint.h) round-trips it bit-exactly.
  const Matrix& RawSum() const { return sum_; }

  /// Overwrites the accumulator state with a previously captured
  /// (RawSum, count) pair — the checkpoint-resume hook. InvalidArgument
  /// when `sum` is not (m+1) x (m+1), `count` is negative, sum(0,0) is
  /// not exactly `count`, or `sum` is not bitwise symmetric (accumulation
  /// derives the lower triangle from the upper one, so an asymmetric
  /// state could not be continued faithfully).
  Status RestoreState(const Matrix& sum, int64_t count);

 private:
  // Adds the (1,t)(1,t)^T terms of n contiguous rows of m_ doubles — the
  // one kernel both ingest paths (Add, AddView) funnel into, so the
  // per-entry term order has exactly one definition. Loop-interchanged
  // over register tiles of the upper triangle (each entry still takes
  // its terms in row order) in the selected kernel instance
  // (SelectedKernelIsa), then the lower triangle is copied from the
  // upper once per block. Never inlined: one shared compilation is what
  // guarantees identical bits (incl. NaN payloads) across the ingest
  // paths.
  CCS_NOINLINE void AccumulateBlock(const double* rows, size_t n);

  // AddView's unchecked shard body: rows [row_begin, row_end) of `data`
  // in row order, late-materialized kViewGatherBlockRows rows at a time
  // into reused cache-resident scratch (MatrixView::GatherBlock) and fed
  // to AccumulateBlock — no full-size Matrix per call.
  void AccumulateRowsImpl(const MatrixView& data, size_t row_begin,
                          size_t row_end);

  size_t m_;
  int64_t n_;
  // Row-major (m+1)x(m+1) sum of (1,t)(1,t)^T. Entry (0,0) is the count,
  // row/col 0 hold per-attribute sums. Always bitwise symmetric: only the
  // upper triangle is accumulated, the lower is its copy.
  Matrix sum_;
};

}  // namespace ccs::linalg

#endif  // CCS_LINALG_GRAM_H_
