#include "obs/trace.h"

#include <algorithm>
#include <cstring>

#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace ccs::obs {

namespace {

// The active session, written only by ObsSession's ctor/dtor. Relaxed
// ordering suffices: the session publishes no data through this pointer
// that spans read unsynchronized (rings are created under the session
// mutex on first use per thread).
std::atomic<ObsSession*> g_active{nullptr};

// Bumped per session so thread_local ring caches self-invalidate.
std::atomic<uint64_t> g_epoch{0};

}  // namespace

namespace internal {

SpanRing::SpanRing(size_t capacity, uint32_t tid)
    : tid_(tid), slots_(capacity == 0 ? 1 : capacity) {}

void SpanRing::Record(const char* name, const char* category,
                      uint64_t start_ns, uint64_t dur_ns) {
  common::MutexLock lock(&mu_);
  TraceEvent& ev = slots_[next_];
  std::strncpy(ev.name, name, sizeof(ev.name) - 1);
  ev.name[sizeof(ev.name) - 1] = '\0';
  ev.category = category;
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.tid = tid_;
  next_ = (next_ + 1) % slots_.size();
  if (size_ < slots_.size()) {
    ++size_;
  } else {
    ++dropped_;  // Overwrote the oldest event.
  }
}

void SpanRing::CollectInto(std::vector<TraceEvent>* out) const {
  common::MutexLock lock(&mu_);
  // Oldest event sits at next_ once the ring has wrapped.
  const size_t first = size_ < slots_.size() ? 0 : next_;
  for (size_t i = 0; i < size_; ++i) {
    out->push_back(slots_[(first + i) % slots_.size()]);
  }
}

uint64_t SpanRing::dropped() const {
  common::MutexLock lock(&mu_);
  return dropped_;
}

SpanRing* CurrentRing() {
  ObsSession* session = ObsSession::Active();
  if (session == nullptr) return nullptr;
  struct RingCache {
    uint64_t epoch = 0;
    SpanRing* ring = nullptr;
  };
  thread_local RingCache cache;
  if (cache.epoch != session->epoch()) {
    cache.ring = session->RingForThisThread();
    cache.epoch = session->epoch();
  }
  return cache.ring;
}

}  // namespace internal

ObsSession::ObsSession(size_t ring_capacity)
    : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      epoch_(g_epoch.fetch_add(1, std::memory_order_relaxed) + 1),
      start_ns_(NowNanos()) {
  ObsSession* expected = nullptr;
  CCS_CHECK(g_active.compare_exchange_strong(expected, this,
                                             std::memory_order_release))
      << "Only one ObsSession may be active at a time";
}

ObsSession::~ObsSession() {
  g_active.store(nullptr, std::memory_order_release);
  // Spans close before the signals that unblock the session owner
  // (pool spans end before chunks_done, stage spans before thread
  // join), so once control reaches here no thread holds a ring pointer
  // from this session; thread_local caches self-invalidate via epoch.
}

ObsSession* ObsSession::Active() {
  return g_active.load(std::memory_order_relaxed);
}

uint64_t ObsSession::dropped() const {
  common::MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

std::vector<TraceEvent> ObsSession::Collect() const {
  std::vector<TraceEvent> events;
  {
    common::MutexLock lock(&mu_);
    for (const auto& ring : rings_) ring->CollectInto(&events);
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.tid < b.tid;
            });
  return events;
}

std::map<std::string, SpanStats> ObsSession::AggregateByName() const {
  std::map<std::string, SpanStats> by_name;
  for (const TraceEvent& ev : Collect()) {
    SpanStats& stats = by_name[ev.name];
    ++stats.count;
    stats.total_ns += ev.dur_ns;
  }
  return by_name;
}

std::string ObsSession::ToChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : Collect()) {
    if (!first) out += ",";
    first = false;
    // ts/dur are microseconds relative to session start; Chrome's
    // renderer expects them as (possibly fractional) numbers.
    const double ts_us =
        static_cast<double>(ev.start_ns - start_ns_) / 1000.0;
    const double dur_us = static_cast<double>(ev.dur_ns) / 1000.0;
    out += "{\"name\":\"" + common::EscapeJson(ev.name) +
           "\",\"cat\":\"" + common::EscapeJson(ev.category) +
           "\",\"ph\":\"X\",\"ts\":" +
           FormatDouble(ts_us) + ",\"dur\":" + FormatDouble(dur_us) +
           ",\"pid\":1,\"tid\":" + std::to_string(ev.tid) + "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status ObsSession::WriteChromeTrace(const std::string& path) const {
  const std::string json = ToChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open trace output: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::IoError("short write to trace output: " + path);
  }
  return Status::OK();
}

internal::SpanRing* ObsSession::RingForThisThread() {
  common::MutexLock lock(&mu_);
  rings_.push_back(std::make_unique<internal::SpanRing>(
      ring_capacity_, static_cast<uint32_t>(rings_.size())));
  return rings_.back().get();
}

ObsSpan::ObsSpan(const char* name, const char* category)
    : ring_(internal::CurrentRing()),
      name_(name),
      category_(category),
      start_ns_(ring_ == nullptr ? 0 : NowNanos()) {}

ObsSpan::~ObsSpan() {
  if (ring_ == nullptr) return;
  ring_->Record(name_, category_, start_ns_, NowNanos() - start_ns_);
}

}  // namespace ccs::obs
