// Chunked data-parallel dispatch over a shared worker pool.
//
// ParallelFor splits an index range into contiguous chunks and runs them
// on a process-wide thread pool; the calling thread participates, so a
// pool of k workers yields k+1-way parallelism. ParallelForEach is the
// work-queue variant: indices are claimed one at a time, so a few
// expensive items (e.g. skewed partition sizes) cannot serialize a lane.
// Nested calls (a worker invoking either entry point) degrade to serial
// execution instead of deadlocking, which lets outer loops (e.g. scoring
// many stream windows) parallelize coarsely while inner batched kernels
// stay correct.
//
// Determinism: neither entry point prescribes which lane runs which
// index, so any cross-index reduction must be committed by the caller in
// index order after the dispatch returns (see GramAccumulator::AddView
// for the canonical shard-then-ordered-merge pattern).

#ifndef CCS_COMMON_PARALLEL_H_
#define CCS_COMMON_PARALLEL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ccs::common {

/// Number of threads ParallelFor uses when options leave it unset (0):
/// initially std::thread::hardware_concurrency(), overridable below.
size_t DefaultThreadCount();

/// Overrides DefaultThreadCount(); `n` = 0 restores the hardware default.
/// Benchmarks use this to sweep 1, 2, N threads over the same code path.
void SetDefaultThreadCount(size_t n);

/// A fixed-size pool of worker threads executing submitted closures.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task) CCS_EXCLUDES(mu_);

  /// True when called from inside one of this process's pool workers.
  static bool InWorker();

  /// The process-wide pool, created on first use with
  /// hardware_concurrency() - 1 workers (the caller is the extra lane).
  static ThreadPool& Shared();

 private:
  void WorkerLoop() CCS_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ CCS_GUARDED_BY(mu_);
  bool shutdown_ CCS_GUARDED_BY(mu_) = false;
  // Written only while single-threaded (constructor spawn, destructor
  // join) — the workers themselves never touch the vector.
  std::vector<std::thread> threads_;  // ccs-lint: allow(guarded-by): ctor/dtor only, no concurrent access
};

/// Tuning knobs for ParallelFor.
struct ParallelOptions {
  /// Number of parallel lanes; 0 means DefaultThreadCount().
  size_t num_threads = 0;
  /// Ranges of at most this many indices run serially on the caller.
  /// Larger ranges are split into at most ceil(n / min_chunk) chunks,
  /// so per-chunk dispatch overhead stays amortized over roughly this
  /// many indices (the last chunk, or an n just above the threshold,
  /// can be smaller).
  size_t min_chunk = 2048;
};

/// Invokes `fn(begin, end)` over disjoint chunks exactly covering
/// [0, n). Chunks may run concurrently; `fn` must be safe to call from
/// multiple threads as long as the index ranges are disjoint. Blocks
/// until every chunk has completed.
///
/// \param n        Number of indices; [0, n) is covered exactly once.
/// \param fn       Callback receiving a half-open index range.
/// \param options  Lane count and chunking knobs (see ParallelOptions).
void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn,
                 const ParallelOptions& options = ParallelOptions());

/// Work-queue dispatch: invokes `fn(i)` exactly once for every i in
/// [0, n), each index claimed individually by the next free lane. Use
/// when per-index costs are wildly uneven (e.g. one disjunctive
/// partition holding most of the rows) and contiguous chunking would
/// serialize on the largest item; prefer ParallelFor when indices are
/// cheap and uniform, since per-index claiming costs one atomic op each.
/// Blocks until every index has completed; degrades to a serial loop
/// when nested inside a pool worker.
///
/// \param num_threads  Number of parallel lanes; 0 means
///                     DefaultThreadCount().
void ParallelForEach(size_t n, const std::function<void(size_t)>& fn,
                     size_t num_threads = 0);

}  // namespace ccs::common

#endif  // CCS_COMMON_PARALLEL_H_
