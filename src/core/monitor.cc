#include "core/monitor.h"

#include "common/parallel.h"
#include "obs/trace.h"

namespace ccs::core {

IncrementalSynthesizer::IncrementalSynthesizer(
    std::vector<std::string> attribute_names, SynthesisOptions options)
    : names_(std::move(attribute_names)),
      synthesizer_(options),
      gram_(names_.size()) {
  CCS_CHECK(!names_.empty());
}

void IncrementalSynthesizer::Observe(const linalg::Vector& numeric_tuple) {
  gram_.Add(numeric_tuple);
}

Status IncrementalSynthesizer::ObserveAll(const dataframe::DataFrame& df) {
  // The stream pipeline feeds generation-buffer window views through here
  // every slide; walking them in place keeps the refresh path
  // allocation-free in the window size.
  CCS_ASSIGN_OR_RETURN(linalg::MatrixView data, df.NumericViewFor(names_));
  gram_.AddView(data);
  return Status::OK();
}

Status IncrementalSynthesizer::Merge(const IncrementalSynthesizer& other) {
  if (other.names_ != names_) {
    return Status::InvalidArgument(
        "IncrementalSynthesizer::Merge: schema mismatch");
  }
  return gram_.Merge(other.gram_);
}

int64_t IncrementalSynthesizer::count() const { return gram_.count(); }

StatusOr<SimpleConstraint> IncrementalSynthesizer::Synthesize() const {
  return synthesizer_.SynthesizeSimpleFromGram(names_, gram_);
}

StatusOr<StreamMonitor> StreamMonitor::Create(
    const dataframe::DataFrame& reference, double alarm_threshold,
    SynthesisOptions options) {
  if (!(alarm_threshold >= 0.0 && alarm_threshold <= 1.0)) {
    return Status::InvalidArgument(
        "StreamMonitor: alarm_threshold must be in [0,1]");
  }
  ConformanceDriftQuantifier quantifier(options);
  CCS_RETURN_IF_ERROR(quantifier.Fit(reference));
  return StreamMonitor(std::move(quantifier), alarm_threshold);
}

StreamMonitor::StreamMonitor(StreamMonitor&& other) noexcept
    : quantifier_(std::move(other.quantifier_)),
      alarm_threshold_(other.alarm_threshold_) {
  common::MutexLock lock(&other.mu_);
  history_ = std::move(other.history_);
  history_base_ = other.history_base_;
}

StreamMonitor& StreamMonitor::operator=(StreamMonitor&& other) noexcept {
  if (this == &other) return *this;
  quantifier_ = std::move(other.quantifier_);
  alarm_threshold_ = other.alarm_threshold_;
  std::vector<WindowScore> taken;
  size_t taken_base = 0;
  {
    common::MutexLock lock(&other.mu_);
    taken = std::move(other.history_);
    taken_base = other.history_base_;
  }
  common::MutexLock lock(&mu_);
  history_ = std::move(taken);
  history_base_ = taken_base;
  return *this;
}

WindowScore StreamMonitor::CommitScore(double drift) {
  WindowScore score;
  score.window_index = history_base_ + history_.size();
  score.drift = drift;
  score.alarm = drift > alarm_threshold_;
  history_.push_back(score);
  return score;
}

StatusOr<WindowScore> StreamMonitor::ObserveWindow(
    const dataframe::DataFrame& window) {
  if (window.num_rows() == 0) {
    return Status::InvalidArgument(
        "StreamMonitor::ObserveWindow: empty window");
  }
  CCS_ASSIGN_OR_RETURN(double drift, quantifier_.Score(window));
  common::MutexLock lock(&mu_);
  return CommitScore(drift);
}

StatusOr<std::vector<WindowScore>> StreamMonitor::ObserveWindows(
    const std::vector<dataframe::DataFrame>& windows, size_t num_threads) {
  obs::ObsSpan span("monitor.observe_windows", "core");
  // Score in parallel into a scratch buffer, then commit to the history
  // in arrival order only if every window succeeded (all-or-nothing, so
  // a failure cannot leave a partially advanced history).
  for (const dataframe::DataFrame& window : windows) {
    if (window.num_rows() == 0) {
      return Status::InvalidArgument(
          "StreamMonitor::ObserveWindows: empty window");
    }
  }
  std::vector<StatusOr<double>> scored(windows.size(),
                                       Status::Internal("window not scored"));
  common::ParallelFor(
      windows.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          scored[i] = quantifier_.Score(windows[i], num_threads);
        }
      },
      common::ParallelOptions{num_threads, /*min_chunk=*/1});
  std::vector<double> drifts;
  drifts.reserve(windows.size());
  for (StatusOr<double>& drift : scored) {
    if (!drift.ok()) return std::move(drift).status();
    drifts.push_back(*drift);
  }
  return CommitDrifts(drifts);
}

StatusOr<linalg::Vector> StreamMonitor::TupleViolations(
    const dataframe::DataFrame& rows, size_t num_threads) const {
  return quantifier_.TupleViolations(rows, num_threads);
}

std::vector<WindowScore> StreamMonitor::CommitDrifts(
    const std::vector<double>& drifts) {
  std::vector<WindowScore> out;
  out.reserve(drifts.size());
  common::MutexLock lock(&mu_);
  for (double drift : drifts) out.push_back(CommitScore(drift));
  return out;
}

Status StreamMonitor::RefreshReference(const SimpleConstraint& constraint) {
  if (constraint.empty()) {
    return Status::InvalidArgument(
        "StreamMonitor::RefreshReference: constraint has no conjuncts");
  }
  // Serialized with history snapshots: a concurrent history() reader
  // sees the commit boundary either entirely before or entirely after
  // the profile swap.
  common::MutexLock lock(&mu_);
  quantifier_.Adopt(ConformanceConstraint(constraint, {}));
  return Status::OK();
}

std::vector<WindowScore> StreamMonitor::history() const {
  common::MutexLock lock(&mu_);
  return history_;
}

size_t StreamMonitor::history_size() const {
  common::MutexLock lock(&mu_);
  return history_base_ + history_.size();
}

Status StreamMonitor::RestoreHistoryBase(size_t n) {
  common::MutexLock lock(&mu_);
  if (!history_.empty() || history_base_ != 0) {
    return Status::FailedPrecondition(
        "StreamMonitor::RestoreHistoryBase: history already has scores");
  }
  history_base_ = n;
  return Status::OK();
}

}  // namespace ccs::core
