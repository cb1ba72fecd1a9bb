// Shared formatting helpers for the figure/table reproduction binaries.

#ifndef CCS_BENCH_BENCH_UTIL_H_
#define CCS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace ccs::bench {

/// Prints a banner naming the experiment being reproduced.
inline void Banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Prints one row of right-aligned numeric cells after a left label.
inline void Row(const std::string& label, const std::vector<double>& cells,
                const char* fmt = "%12.4f") {
  std::printf("%-28s", label.c_str());
  for (double c : cells) std::printf(fmt, c);
  std::printf("\n");
}

/// Prints a header row of column titles aligned with Row's cells.
inline void Header(const std::string& label,
                   const std::vector<std::string>& columns) {
  std::printf("%-28s", label.c_str());
  for (const std::string& c : columns) std::printf("%12s", c.c_str());
  std::printf("\n");
}

/// Aborts with a message if a Status is not OK (benches are top-level
/// programs; any failure is a bug in the harness).
inline void CheckOk(const Status& status) {
  CCS_CHECK(status.ok()) << status.ToString();
}

/// Wall time of one call to `fn`, in seconds.
inline double Seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// Best-of-`reps` wall time, so one scheduler hiccup does not skew a
/// measurement.
inline double BestSeconds(const std::function<void()>& fn, int reps = 3) {
  double best = Seconds(fn);
  for (int r = 1; r < reps; ++r) best = std::min(best, Seconds(fn));
  return best;
}

}  // namespace ccs::bench

#endif  // CCS_BENCH_BENCH_UTIL_H_
