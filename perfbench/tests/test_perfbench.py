"""Tests of the campaign benchmark itself, in smoke mode.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root; the first test builds the driver.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def run_benchmark(*flags, cwd=ROOT):
    proc = subprocess.run(RUN + list(flags), cwd=cwd, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def smoke(workload, trace, *flags):
    return run_benchmark("--workload", workload, "--seed", "7", "--seconds",
                         "1", "--trace", str(trace), "--smoke", *flags)


class EveryMetricTest(unittest.TestCase):
    def check_metrics(self, trace, section):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                proc, result = smoke(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                metrics = result["metrics"]
                self.assertEqual(set(metrics), set(expected))
                for name, metric in metrics.items():
                    self.assertEqual(metric["unit"], expected[name], name)
                    self.assertIsInstance(metric["value"], (int, float), name)
                    self.assertTrue(math.isfinite(metric["value"]), name)

    def test_end_to_end_metrics(self):
        self.check_metrics(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check_metrics(1, "per_layer")


class OutputCheckTest(unittest.TestCase):
    def test_damaged_journal_fails_the_check(self):
        # small-inputs damages a campaign journal, fabric-shards the merged
        # journal of the shards.
        for workload in ("small-inputs", "fabric-shards"):
            for damage in ("truncate", "corrupt"):
                with self.subTest(workload=workload, damage=damage):
                    proc, result = smoke(workload, 0, "--damage-journal",
                                         damage)
                    self.assertNotEqual(proc.returncode, 0)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    self.assertIn("check failed", proc.stderr)

    def test_without_sources_exits_nonzero(self):
        lone = os.path.join(ROOT, ".bench_build", "lone")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc, result = run_benchmark("--workload", "paper-mix", "--seed",
                                         "1", "--seconds", "1", cwd=lone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
