#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

  python3 perfbench/test_perfbench.py

They build the benchmark (as run.py does), run the smoke mode, check that
inputs are a pure function of the seed, and check that the benchmark
refuses to run without the library sources next to it.
"""

import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")


def input_lines(seed):
    done = subprocess.run(
        [BINARY, "--workload", "replay_tumbling", "--seed", str(seed),
         "--seconds", "0.2", "--trace", "0", "--smoke"],
        stdout=subprocess.PIPE, text=True, check=True)
    return [l for l in done.stdout.splitlines() if l.startswith("input:")]


class PerfbenchTest(unittest.TestCase):

    def test_smoke_emits_every_metric_with_its_unit(self):
        done = subprocess.run([sys.executable, RUN, "--smoke"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertIn("smoke: ok", done.stdout)

    def test_inputs_are_a_function_of_the_seed(self):
        subprocess.run([sys.executable, RUN, "--smoke"], cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True)
        first = input_lines(3)
        self.assertTrue(first)
        self.assertEqual(first, input_lines(3))
        self.assertNotEqual(first, input_lines(4))

    def test_refuses_to_run_without_the_library_sources(self):
        isolated = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "replay_tumbling", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=isolated, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
        finally:
            shutil.rmtree(isolated, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
