#include "obs/metrics.h"

// The only translation unit in src/ allowed to read the wall clock
// (ccs_lint rule `wall-clock`): every out-of-band timestamp funnels
// through NowNanos so clocks can never leak into kernels.
#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace ccs::obs {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SafeRate(double count, double seconds) {
  if (!(count > 0.0)) return 0.0;
  if (!std::isfinite(seconds) || seconds < 1e-9) return 0.0;
  return count / seconds;
}

namespace internal {

size_t StripeIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

}  // namespace internal

uint64_t Counter::value() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

void Gauge::UpdateMax(int64_t v) {
  int64_t cur = v_.load(std::memory_order_relaxed);
  while (cur < v &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double HistogramSnapshot::Percentile(double p) const {
  if (total_count == 0 || counts.empty()) return 0.0;
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  // 1-based rank of the sample the percentile names.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(total_count)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += counts[b];
    if (cumulative < rank) continue;
    if (bounds.empty()) return 0.0;
    if (b >= bounds.size()) return bounds.back();  // Overflow: clamp.
    const double lower = b == 0 ? 0.0 : bounds[b - 1];
    const double upper = bounds[b];
    const double frac = static_cast<double>(rank - before) /
                        static_cast<double>(counts[b]);
    return lower + (upper - lower) * frac;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(bounds.empty() ? DefaultLatencyBoundsUs() : std::move(bounds)),
      shards_(internal::kStripes) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    CCS_CHECK(bounds_[i - 1] < bounds_[i])
        << "Histogram bounds must be ascending";
  }
  for (Shard& s : shards_) {
    s.buckets = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
    for (size_t b = 0; b <= bounds_.size(); ++b) {
      s.buckets[b].store(0, std::memory_order_relaxed);
    }
  }
}

std::vector<double> Histogram::DefaultLatencyBoundsUs() {
  return {1,    2,    5,    10,   20,   50,   100,  200,  500,  1e3, 2e3,
          5e3,  1e4,  2e4,  5e4,  1e5,  2e5,  5e5,  1e6,  2e6,  5e6, 1e7};
}

void Histogram::Observe(double value) {
  size_t bucket;
  if (std::isnan(value)) {
    bucket = bounds_.size();  // Overflow bucket; excluded from sum.
  } else {
    bucket = static_cast<size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
  }
  Shard& shard = shards_[internal::StripeIndex()];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  if (!std::isnan(value)) {
    double cur = shard.sum.load(std::memory_order_relaxed);
    while (!shard.sum.compare_exchange_weak(cur, cur + value,
                                            std::memory_order_relaxed)) {
    }
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (size_t b = 0; b <= bounds_.size(); ++b) {
      snap.counts[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (uint64_t c : snap.counts) snap.total_count += c;
  return snap;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (size_t b = 0; b <= bounds_.size(); ++b) {
      shard.buckets[b].store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

Registry& Registry::Global() {
  // Leaked on purpose: metric pointers handed out must stay valid for
  // the life of the process (still reachable, so LSan stays quiet).
  static Registry* registry = new Registry();
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  common::MutexLock lock(&mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  common::MutexLock lock(&mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  std::vector<double> bounds) {
  common::MutexLock lock(&mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan.
  return FormatDouble(v);
}

}  // namespace

std::string Registry::ToJson() const {
  common::MutexLock lock(&mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + common::EscapeJson(name) +
           "\":" + std::to_string(counter->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + common::EscapeJson(name) +
           "\":" + std::to_string(gauge->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ",";
    first = false;
    HistogramSnapshot snap = histogram->Snapshot();
    out += "\"" + common::EscapeJson(name) + "\":{\"count\":" +
           std::to_string(snap.total_count) +
           ",\"sum\":" + JsonNumber(snap.sum) +
           ",\"p50\":" + JsonNumber(snap.p50()) +
           ",\"p95\":" + JsonNumber(snap.p95()) +
           ",\"p99\":" + JsonNumber(snap.p99()) + ",\"buckets\":[";
    bool first_bucket = true;
    for (size_t b = 0; b < snap.counts.size(); ++b) {
      if (snap.counts[b] == 0) continue;  // Sparse: zero buckets elided.
      if (!first_bucket) out += ",";
      first_bucket = false;
      const bool overflow = b >= snap.bounds.size();
      out += "[" + (overflow ? std::string("\"+Inf\"")
                             : JsonNumber(snap.bounds[b])) +
             "," + std::to_string(snap.counts[b]) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

void Registry::Reset() {
  common::MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace ccs::obs
