#!/usr/bin/env python3
"""Builds the library and benchmark from source, then runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --smoke

The first form builds into .bench_build/perfbench (a no-op once built) and
runs the workload; the last line of its standard output is the JSON result.
--smoke builds, runs every workload once at tiny size in both trace modes,
and checks that each result parses and carries exactly the metrics
BENCHMARK.json names, with their units. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("replay_tumbling", "live_sliding_mixed", "learn_assess")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no library sources next to perfbench/ "
                 "(expected CMakeLists.txt and src/ in %s)" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))


def run_workload(args):
    """Runs the binary; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def parse_result(stdout):
    """The JSON object on the last line, or None if it is not a result."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def check_result(result, expected, label):
    """Problems with one smoke result against BENCHMARK.json's metrics."""
    problems = []
    if result is None:
        return ["%s: last line is not a result object" % label]
    if result["correct"] is not True:
        problems.append("%s: correct is %r" % (label, result["correct"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("%s: attempted is %r" % (label, result["attempted"]))
    if result["failed"] != 0:
        problems.append("%s: failed is %r" % (label, result["failed"]))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("%s: metrics %s, expected %s"
                        % (label, sorted(metrics), sorted(expected)))
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        if set(metric) != {"value", "unit"} or metric["unit"] != unit:
            problems.append("%s: %s is %r, expected unit %s"
                            % (label, name, metric, unit))
        elif not isinstance(metric["value"], (int, float)) or \
                not math.isfinite(metric["value"]):
            problems.append("%s: %s value %r" % (label, name, metric["value"]))
    return problems


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        sys.exit("perfbench: BENCHMARK.json workloads differ from %s" % (WORKLOADS,))
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1,
                                      trace=trace, smoke=True)
            code, stdout = run_workload(args)
            label = "%s --trace %d" % (workload, trace)
            if code != 0:
                problems.append("%s: exit code %d" % (label, code))
                continue
            found = check_result(parse_result(stdout), expected[trace], label)
            problems.extend(found)
            print("%s: %s" % (label, "FAILED" if found else "ok"))
    for problem in problems:
        print(problem)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; checks the output")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.smoke:
        return smoke()
    code, stdout = run_workload(args)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if code != 0:
        return code
    return 0 if parse_result(stdout) is not None else 1


if __name__ == "__main__":
    sys.exit(main())
