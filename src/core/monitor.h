// Streaming constraint maintenance and windowed drift monitoring.
//
// IncrementalSynthesizer exploits §4.3.2: the Gram matrix is a streaming
// sum, so constraints can be refreshed after any number of appended tuples
// at O(m^3) cost without revisiting old data. StreamMonitor packages the
// serving-side loop: per-window mean violation against a reference
// profile, with a violation threshold alarm; RefreshReference swaps the
// profile for a re-synthesized one mid-stream (src/stream's pipeline
// drives both halves).

#ifndef CCS_CORE_MONITOR_H_
#define CCS_CORE_MONITOR_H_

#include <deque>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "core/constraint.h"
#include "core/drift.h"
#include "core/kernel.h"
#include "core/synthesizer.h"
#include "dataframe/dataframe.h"

namespace ccs::core {

/// Builds and refreshes a (global) simple constraint over a stream of
/// tuples in O(m^2) memory.
class IncrementalSynthesizer {
 public:
  /// `attribute_names` fixes the numeric schema of the stream.
  IncrementalSynthesizer(std::vector<std::string> attribute_names,
                         SynthesisOptions options = SynthesisOptions());

  /// An incremental synthesizer whose schema is the degree-2 polynomial
  /// expansion of `base_names`: ObserveAll lazily derives the expanded
  /// columns (squares, cross terms) of each observed frame straight
  /// into the Gram walk — the expanded frame ExpandPolynomial would
  /// build per refresh is never materialized. attribute_names() (and
  /// the checkpointed schema) become ExpandedNames(base_names,
  /// expansion); Observe then expects already-expanded tuples.
  static StatusOr<IncrementalSynthesizer> WithExpansion(
      const std::vector<std::string>& base_names,
      const PolynomialExpansionOptions& expansion,
      SynthesisOptions options = SynthesisOptions());

  /// Ingests one aligned numeric tuple (aligned with attribute_names(),
  /// i.e. already expanded under WithExpansion).
  void Observe(const linalg::Vector& numeric_tuple);

  /// Ingests every row of a DataFrame carrying the schema's attributes
  /// (the *base* attributes under WithExpansion — expansion is derived
  /// here, lazily).
  Status ObserveAll(const dataframe::DataFrame& df);

  /// Merges the observations of another incremental synthesizer built
  /// over the same schema (partition-parallel ingestion).
  Status Merge(const IncrementalSynthesizer& other);

  int64_t count() const;

  /// Synthesizes the constraint for everything observed so far.
  StatusOr<SimpleConstraint> Synthesize() const;

  /// The fixed numeric schema this synthesizer accumulates over.
  const std::vector<std::string>& attribute_names() const { return names_; }

  /// The streaming Gram state (count + raw sum) — everything a
  /// checkpoint needs to rebuild this synthesizer bit-exactly.
  const linalg::GramAccumulator& gram() const { return gram_; }

  /// Overwrites the Gram state with a checkpointed (RawSum, count) pair;
  /// see linalg::GramAccumulator::RestoreState.
  Status RestoreGram(const linalg::Matrix& sum, int64_t count) {
    return gram_.RestoreState(sum, count);
  }

 private:
  std::vector<std::string> names_;
  Synthesizer synthesizer_;
  linalg::GramAccumulator gram_;
  // Non-empty only under WithExpansion: the derived-column recipe
  // ObserveAll resolves against each observed frame (name-based, so it
  // borrows nothing from any frame).
  std::vector<dataframe::ColumnExpr> exprs_;
};

/// Result of scoring one window.
struct WindowScore {
  size_t window_index = 0;
  double drift = 0.0;
  bool alarm = false;
};

/// Scores consecutive serving windows against a reference profile.
///
/// Thread model: one observer thread at a time drives
/// ObserveWindow/ObserveWindows/RefreshReference (the scoring *inside*
/// ObserveWindows fans out over the pool, reading the profile
/// lock-free), while the committed score history is mutex-guarded so
/// other threads — a future `ccsynth serve` daemon polling alarm state
/// per stream — may call history()/history_size() concurrently with the
/// observer.
class StreamMonitor {
 public:
  /// Learns the reference profile from `reference`; windows scoring above
  /// `alarm_threshold` are flagged. When `expansion` is non-null the
  /// profile is the global constraint over the lazy degree-2 polynomial
  /// expansion (ConformanceDriftQuantifier::FitExpanded) and every
  /// window is scored through the same derived view — opt-in, so
  /// default monitoring output (and the golden alarm traces) is
  /// untouched.
  static StatusOr<StreamMonitor> Create(
      const dataframe::DataFrame& reference, double alarm_threshold,
      SynthesisOptions options = SynthesisOptions(),
      const PolynomialExpansionOptions* expansion = nullptr);

  /// Movable (through StatusOr); moving while another thread observes or
  /// reads the source is undefined, as for any move.
  StreamMonitor(StreamMonitor&& other) noexcept;
  StreamMonitor& operator=(StreamMonitor&& other) noexcept;

  /// Scores the next window. InvalidArgument on an empty window (the
  /// history is not advanced).
  StatusOr<WindowScore> ObserveWindow(const dataframe::DataFrame& window)
      CCS_EXCLUDES(mu_);

  /// Scores a batch of windows concurrently (the reference profile is
  /// fixed between refreshes) and appends the scores to the history in
  /// arrival order. All-or-nothing: if any window fails to score, the
  /// error is returned and the history is not advanced — unlike a
  /// sequence of ObserveWindow calls, which would commit the successful
  /// prefix.
  ///
  /// \param num_threads  Scoring lanes; 0 means DefaultThreadCount().
  ///                     Bounds both the spread across windows and each
  ///                     window's own scoring passes. Scores are
  ///                     independent per window, so the lane count never
  ///                     changes the result.
  StatusOr<std::vector<WindowScore>> ObserveWindows(
      const std::vector<dataframe::DataFrame>& windows, size_t num_threads = 0)
      CCS_EXCLUDES(mu_);

  /// Swaps the reference profile for a freshly synthesized global
  /// constraint — the serving half of the §4.3.2 refresh loop, fed by
  /// IncrementalSynthesizer::Synthesize. The alarm threshold and the
  /// score history are unchanged; only windows observed after the call
  /// score against the new profile. Note the refreshed profile is the
  /// global simple constraint only (incremental maintenance of
  /// disjunctive cases is not implemented); InvalidArgument when
  /// `constraint` has no conjuncts.
  Status RefreshReference(const SimpleConstraint& constraint)
      CCS_EXCLUDES(mu_);

  /// A snapshot of the scores committed by THIS process, in arrival
  /// order (after RestoreHistoryBase the pre-resume scores are not in
  /// memory; their count still offsets every index). Copies under the
  /// lock; safe to call from any thread.
  std::vector<WindowScore> history() const CCS_EXCLUDES(mu_);

  /// Number of scores committed so far, including the restored base
  /// (cheaper than history().size()).
  size_t history_size() const CCS_EXCLUDES(mu_);

  double alarm_threshold() const { return alarm_threshold_; }

  /// Rebases the history to `n` already-committed scores — the
  /// checkpoint-resume hook. Window indices and the refresh cadence
  /// continue from n exactly as if those scores had been committed by
  /// this process; the scores themselves stay in the pre-crash output.
  /// FailedPrecondition once any score has been committed.
  Status RestoreHistoryBase(size_t n) CCS_EXCLUDES(mu_);

  /// The current reference profile (the Fit result, or the constraint
  /// adopted by the latest RefreshReference). Call only from the
  /// observer thread between batches — checkpoint capture does.
  const ConformanceConstraint& reference_constraint() const {
    return quantifier_.constraint();
  }

 private:
  StreamMonitor(ConformanceDriftQuantifier quantifier, double alarm_threshold)
      : quantifier_(std::move(quantifier)),
        alarm_threshold_(alarm_threshold) {}

  // Commits `score` as the next history entry, filling its index.
  WindowScore CommitScore(double drift) CCS_REQUIRES(mu_);

  // Read lock-free by ObserveWindows' pool lanes while scoring; written
  // only by the single observer thread (RefreshReference) between
  // scoring batches, under mu_ so a concurrent history() reader never
  // observes a half-swapped profile boundary.
  ConformanceDriftQuantifier quantifier_;  // ccs-lint: allow(guarded-by): scored lock-free by pool lanes; single observer thread writes between batches
  double alarm_threshold_;  // ccs-lint: allow(guarded-by): written only at construction
  mutable common::Mutex mu_;
  std::vector<WindowScore> history_ CCS_GUARDED_BY(mu_);
  /// Scores committed before a checkpoint-resume (0 outside resume).
  size_t history_base_ CCS_GUARDED_BY(mu_) = 0;
};

}  // namespace ccs::core

#endif  // CCS_CORE_MONITOR_H_
