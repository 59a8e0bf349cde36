#!/usr/bin/env python3
"""Quick-mode test of the benchmark.

Runs every workload at reduced size (`run.py --quick`) in both trace
modes and checks the result line against BENCHMARK.json: exact keys,
every metric present with its unit, all correctness checks passed.

Run from the root of a checkout (builds on first use, a few minutes):

    python3 perfbench/test_run.py
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Printed in the human-readable report of every run, gated or not.
REPORT_METRICS = [m["name"] for m in SPEC["end_to_end"]] + [
    "call_ms_p50", "failed_ratio"]


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    return proc


class QuickRun(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, proc.stdout)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

        section = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in section])
        for m in section:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        if not trace:  # end-to-end metrics are never 0
            for m in section:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   m["name"])

        report = "\n".join(lines[:-1])
        for name in REPORT_METRICS:
            self.assertIn(f"\n{name} = ", "\n" + report, name)
        for key in ("nproc=", "cpu=", "build_type=", "lto=", "profiler=",
                    "threads=", "commit=", "dirty=", "digest="):
            self.assertIn(key, report)
        self.assertIn("checks: all passed", report)

    def test_incast40(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                self.check("incast40", trace)

    def test_incast1400(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                self.check("incast1400", trace)

    def test_churn(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                self.check("churn", trace)


if __name__ == "__main__":
    unittest.main()
