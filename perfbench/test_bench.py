#!/usr/bin/env python3
"""Tests of the benchmark itself: every workload at a tiny size.

Run from anywhere (it builds the benchmark first, like `run.py`):

    python3 perfbench/test_bench.py

Asserts that every end-to-end and per-layer metric named in
`BENCHMARK.json` is printed with its unit, that every output check passes,
and that two runs of the same seed give identical output digests.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["scale-100k", "paper-medium", "chaos-3way"]
SEED = 2016


def bench(workload, trace):
    """One tiny run; returns (result line, digest, full stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{proc.stderr}")
    digest = re.search(r"digest ([0-9a-f]{16})", proc.stdout)
    assert digest, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1]), digest.group(1), proc.stdout


class TinyBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {w: [bench(w, 0), bench(w, 0)] for w in WORKLOADS}
        cls.traced = {w: bench(w, 1) for w in WORKLOADS}

    def assert_metrics(self, result, stdout, declared):
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, unit in units.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float), name)
            self.assertRegex(stdout, rf"\n  {re.escape(name)} +\S+ {re.escape(unit)}")

    def test_workloads_match_the_declaration(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]), sorted(WORKLOADS))

    def test_end_to_end_metrics_printed_with_units(self):
        for w in WORKLOADS:
            result, _, stdout = self.runs[w][0]
            self.assert_metrics(result, stdout, self.spec["end_to_end"])
            self.assertRegex(stdout, r"\n  failed_ratio +0\.0000 ratio")
            self.assertIn("provenance: ", stdout)

    def test_per_layer_metrics_printed_with_units(self):
        for w in WORKLOADS:
            result, _, stdout = self.traced[w]
            self.assert_metrics(result, stdout, self.spec["per_layer"])
            path = re.search(r"Chrome trace (\S+)", stdout).group(1)
            with open(os.path.join(ROOT, path)) as f:
                events = json.load(f)["traceEvents"]
            self.assertTrue(events and all(e["ph"] == "X" for e in events))

    def test_every_check_passes(self):
        for w in WORKLOADS:
            for result, _, _ in self.runs[w] + [self.traced[w]]:
                self.assertTrue(result["correct"], w)
                self.assertEqual(result["failed"], 0, w)
                self.assertGreater(result["attempted"], 0, w)

    def test_two_runs_give_identical_digests(self):
        for w in WORKLOADS:
            self.assertEqual(self.runs[w][0][1], self.runs[w][1][1], w)


if __name__ == "__main__":
    unittest.main()
