// Shared pieces of the benchmark binary: the clock, order statistics,
// input hashing, the layer-span recorder of the traced run, the result
// record every workload fills, and a zero-copy istream source.

#ifndef CCS_PERFBENCH_HARNESS_H_
#define CCS_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <streambuf>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ccs::perfbench {

/// Monotonic time in nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// The p-th percentile (p in [0, 100]) by linear interpolation between
/// closest ranks; 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Equal as bit patterns (the determinism contract's notion of equal).
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// FNV-1a over raw bytes, chained through `hash`.
inline uint64_t HashBytes(const void* data, size_t size,
                          uint64_t hash = 0xcbf29ce484222325ull) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Process high-water resident set, in MB.
double PeakRssMb();

/// Per-layer busy time and work counts, recorded from the benchmark's
/// own spans around each call into a layer. Spans are sequential on the
/// replaying thread, so their sum over the replay's wall time is the
/// share of the replay the layer spans tile.
class LayerTrace {
 public:
  struct Layer {
    uint64_t busy_ns = 0;
    uint64_t calls = 0;
    uint64_t work = 0;  // Rows, bytes, or partitions, per the layer.
  };

  /// Runs `fn` inside a span charged to `layer` and returns its result.
  template <typename Fn>
  auto Span(const std::string& layer, Fn&& fn) {
    const uint64_t start = NowNs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Close(layer, start);
    } else {
      auto result = fn();
      Close(layer, start);
      return result;
    }
  }

  /// Counts work done by `layer` (outside any span: no clock read).
  void AddWork(const std::string& layer, uint64_t amount) {
    layers_[layer].work += amount;
  }

  /// Starts the replay's wall clock.
  void Begin() { begin_ns_ = NowNs(); }
  /// Stops it.
  void End() { end_ns_ = NowNs(); }

  double busy_s(const std::string& layer) const {
    auto it = layers_.find(layer);
    return it == layers_.end() ? 0.0 : Seconds(it->second.busy_ns);
  }
  uint64_t calls(const std::string& layer) const {
    auto it = layers_.find(layer);
    return it == layers_.end() ? 0 : it->second.calls;
  }
  uint64_t work(const std::string& layer) const {
    auto it = layers_.find(layer);
    return it == layers_.end() ? 0 : it->second.work;
  }
  double wall_s() const { return Seconds(end_ns_ - begin_ns_); }

  /// Fraction of the replay's wall time covered by layer spans.
  double coverage() const {
    uint64_t covered = 0;
    for (const auto& [name, layer] : layers_) covered += layer.busy_ns;
    const uint64_t wall = end_ns_ - begin_ns_;
    return wall == 0 ? 0.0
                     : static_cast<double>(covered) / static_cast<double>(wall);
  }

 private:
  void Close(const std::string& layer, uint64_t start) {
    Layer& l = layers_[layer];
    l.busy_ns += NowNs() - start;
    ++l.calls;
  }

  std::map<std::string, Layer> layers_;
  uint64_t begin_ns_ = 0;
  uint64_t end_ns_ = 0;
};

/// What one benchmark run reports: the final JSON line's fields plus the
/// correctness-gate failures printed above it.
struct RunResult {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  std::vector<Metric> metrics;

  bool correct() const { return gate_failures.empty(); }

  /// Records a failed correctness check (never a number).
  void Fail(std::string what) { gate_failures.push_back(std::move(what)); }

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// An istream source over bytes owned elsewhere (no copy per pass, unlike
/// std::istringstream). `bytes` must outlive the buffer.
class ViewStreambuf : public std::streambuf {
 public:
  explicit ViewStreambuf(const std::string& bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

/// Prints one human-readable line to stdout (above the result line).
template <typename... Args>
void Note(const char* format, Args... args) {
  std::printf(format, args...);
  std::printf("\n");
}

}  // namespace ccs::perfbench

#endif  // CCS_PERFBENCH_HARNESS_H_
