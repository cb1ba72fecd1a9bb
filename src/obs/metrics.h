// In-process metrics: counters, gauges, and fixed-boundary latency
// histograms behind a process-wide registry.
//
// Everything here is strictly out-of-band observability: metric values
// feed reports (`ccsynth monitor --metrics-json`, bench stage
// breakdowns, heartbeat lines) and never feed computation, so recording
// them cannot perturb the determinism contract (docs/architecture.md).
// This directory is also the only place in src/ allowed to read a wall
// clock — the `wall-clock` ccs_lint rule confines
// steady_clock/system_clock to src/obs/, and NowNanos() below is the
// sanctioned entry point for the few out-of-band consumers (elapsed
// time in PipelineStats, queue-wait histograms).
//
// Thread model: hot-path increments go to striped atomic shards (one
// per caller stripe, cache-line separated) so concurrent writers never
// serialize on a lock; reads sum the shards, yielding a value that is
// exact once writers quiesce and a consistent-enough approximation
// while they run. The registry's name->metric maps are guarded by an
// annotated common::Mutex; returned metric pointers are stable for the
// life of the process.

#ifndef CCS_OBS_METRICS_H_
#define CCS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ccs::obs {

/// Monotonic wall-clock read in nanoseconds (steady_clock under the
/// hood, confined to src/obs by the `wall-clock` lint rule). For
/// out-of-band measurement only — never let the result feed scores,
/// ordering, or any other computed output.
uint64_t NowNanos();

/// count / seconds, or 0 when the measurement is degenerate (no events,
/// a near-zero or non-finite elapsed time). Rates reported to users
/// must be 0 on tiny/empty streams, never inf or NaN.
double SafeRate(double count, double seconds);

namespace internal {
/// Stripe index of the calling thread (assigned round-robin on first
/// use), bounding contention on striped metric shards.
size_t StripeIndex();
constexpr size_t kStripes = 16;

}  // namespace internal

/// Monotonically increasing event count. Striped: Add touches only the
/// calling thread's stripe; value() sums all stripes.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    shards_[internal::StripeIndex()].v.fetch_add(delta,
                                                 std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over stripes: exact once writers quiesce.
  uint64_t value() const;

  /// Zeroes every stripe. For tests and bench phase deltas; racing
  /// writers may leave a partial residue.
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[internal::kStripes];
};

/// Last-write-wins instantaneous value, with a monotone max variant for
/// high-water marks (queue peaks, buffer capacities).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (never lowers it).
  void UpdateMax(int64_t v);
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Point-in-time view of a Histogram (see Snapshot()).
struct HistogramSnapshot {
  /// Ascending finite bucket upper bounds; counts has one extra
  /// trailing overflow bucket for values above the last bound.
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t total_count = 0;
  double sum = 0.0;

  /// Percentile estimate by linear interpolation inside the owning
  /// bucket (an empty histogram reports 0; values in the overflow
  /// bucket clamp to the last finite bound). `p` in [0, 100].
  double Percentile(double p) const;
  double p50() const { return Percentile(50.0); }
  double p95() const { return Percentile(95.0); }
  double p99() const { return Percentile(99.0); }
};

/// Fixed-boundary histogram with striped atomic buckets. Observe is
/// lock-free and wait-free apart from the sum's CAS loop.
class Histogram {
 public:
  /// `bounds` are ascending finite bucket upper bounds; an implicit
  /// overflow bucket catches everything above the last one. An empty
  /// vector selects DefaultLatencyBoundsUs().
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// 1us .. 10s in a 1-2-5 progression — the default scale for the
  /// queue-wait and stage-latency histograms (values in microseconds).
  static std::vector<double> DefaultLatencyBoundsUs();

  /// Records one sample. Values below the first bound land in bucket 0,
  /// values above the last in the overflow bucket; NaN counts in the
  /// overflow bucket and is excluded from sum.
  void Observe(double value);

  HistogramSnapshot Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }
  void Reset();

 private:
  struct alignas(64) Shard {
    // bounds_.size() + 1 buckets (trailing overflow).
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::vector<Shard> shards_;
};

/// Process-wide metric registry. Get* interns by name and returns a
/// stable pointer (the same name always yields the same object);
/// counters, gauges, and histograms live in separate namespaces.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name) CCS_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) CCS_EXCLUDES(mu_);
  /// `bounds` applies only when the histogram is first created; an
  /// empty vector selects Histogram::DefaultLatencyBoundsUs().
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {}) CCS_EXCLUDES(mu_);

  /// One-line JSON dump of every registered metric, names sorted:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  /// p50,p95,p99,buckets:[[bound,count],...]}}} — the payload behind
  /// `ccsynth monitor --metrics-json`.
  std::string ToJson() const CCS_EXCLUDES(mu_);

  /// Zeroes every metric's value (objects and pointers stay valid).
  void Reset() CCS_EXCLUDES(mu_);

 private:
  Registry() = default;

  mutable common::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      CCS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ CCS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      CCS_GUARDED_BY(mu_);
};

}  // namespace ccs::obs

#endif  // CCS_OBS_METRICS_H_
