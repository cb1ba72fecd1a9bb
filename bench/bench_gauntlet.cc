// Adversarial scenario gauntlet: one row per catalogue scenario — rows
// served, windows scored, alarms, refreshes, wall time, throughput, and
// how the run ended (clean end-of-stream vs a structured teardown).
// Before any number is reported the scenario's trace is checked bitwise
// identical across a rerun and across 1 vs 4 scoring lanes — the
// determinism contract is a precondition of the benchmark.
//
// Flags:
//   --quick      scale-1 geometry (the test-suite sizes; CI smoke)
//   --scale N    explicit geometry multiplier (default 4)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

using namespace ccs;  // NOLINT

int main(int argc, char** argv) {
  size_t scale = 4;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      scale = 1;
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: bench_gauntlet [--quick] [--scale N]\n");
      return 1;
    }
  }
  CCS_CHECK(scale > 0) << "--scale must be positive";

  bench::Banner("Adversarial scenario gauntlet (scenario::RunScenario)\n"
                "catalogue x scale " + std::to_string(scale) +
                ", seed 1; every trace verified bitwise identical\n"
                "across a rerun and across 1 vs 4 scoring lanes");

  std::printf("\n%-24s%9s%9s%8s%10s%11s%12s  %s\n", "scenario", "rows",
              "windows", "alarms", "refreshes", "wall (ms)", "rows/sec",
              "terminal");

  for (const std::string& name : scenario::CatalogueNames()) {
    auto spec = scenario::CatalogueSpec(name, scale);
    bench::CheckOk(spec.status());

    scenario::ScenarioTrace trace;
    double sec = bench::Seconds([&] {
      auto run = scenario::RunScenario(*spec, /*seed=*/1, /*num_threads=*/1);
      bench::CheckOk(run.status());
      trace = std::move(*run);
    });

    // Determinism gate: rerun and 4-lane runs must be byte-identical.
    auto rerun = scenario::RunScenario(*spec, 1, 1);
    bench::CheckOk(rerun.status());
    CCS_CHECK(scenario::TracesIdentical(trace, *rerun))
        << name << ": rerun trace diverged";
    auto threaded = scenario::RunScenario(*spec, 1, 4);
    bench::CheckOk(threaded.status());
    CCS_CHECK(scenario::TracesIdentical(trace, *threaded))
        << name << ": 4-lane trace diverged from 1-lane";

    double rows = static_cast<double>(trace.rows_ingested);
    std::printf("%-24s%9zu%9zu%8zu%10zu%11.2f%12.0f  %s\n", name.c_str(),
                trace.rows_ingested, trace.windows_scored, trace.alarms,
                trace.refreshes, sec * 1e3, sec > 0 ? rows / sec : 0.0,
                trace.terminal.ok() ? "clean"
                                    : trace.terminal.ToString().c_str());
  }

  std::printf("\n(teardown scenarios end with the structured error their\n"
              "malformed stream produced — that behavior is pinned by the\n"
              "golden traces in tests/golden/, see docs/scenarios.md)\n");
  return 0;
}
