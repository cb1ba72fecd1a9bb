// perfbench: the repository benchmark binary.
//
//   perfbench --workload <replay_tumbling|live_sliding_mixed|learn_assess>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Prints human-readable notes (input hashes, gate outcomes, sample
// counts) and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). See README.md in this directory.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

using ccs::perfbench::RunOptions;
using ccs::perfbench::RunResult;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <replay_tumbling|"
               "live_sliding_mixed|learn_assess> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke]\n");
  return 2;
}

void PrintResult(const RunResult& result) {
  for (const std::string& failure : result.gate_failures) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const RunResult::Metric& m = result.metrics[i];
    // JSON has no NaN/Inf; a non-finite measurement is reported as 0.
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace" && has_value) {
      const std::string value = argv[++i];
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
      have_trace = true;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return Usage();

  RunResult result;
  if (workload == "replay_tumbling") {
    result = ccs::perfbench::RunReplayTumbling(options);
  } else if (workload == "live_sliding_mixed") {
    result = ccs::perfbench::RunLiveSlidingMixed(options);
  } else if (workload == "learn_assess") {
    result = ccs::perfbench::RunLearnAssess(options);
  } else {
    return Usage();
  }
  PrintResult(result);
  return 0;
}
