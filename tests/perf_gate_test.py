#!/usr/bin/env python3
"""Unit tests for the verdict logic of scripts/perf_gate.py.

Feeds synthetic uvmbench results to `verdict`; runs no benchmark.

    python3 tests/perf_gate_test.py
"""
import importlib.util
import json
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "scripts" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

BENCHMARK = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "run_s", "better": "lower", "bound": 0.25},
        {"name": "touches_per_s", "better": "higher", "bound": 0.25},
    ],
}
BASELINE = {"w": {"run_s": 1.0, "touches_per_s": 1000.0}}


def result(run_s=1.0, touches_per_s=1000.0, correct=True, failed=0,
           drop=None):
    metrics = {"run_s": {"value": run_s, "unit": "s"},
               "touches_per_s": {"value": touches_per_s, "unit": "1/s"}}
    metrics.pop(drop, None)
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": metrics}


def failing(res, benchmark=BENCHMARK, returncode=0):
    rows = perf_gate.verdict(benchmark, BASELINE, "w", returncode, res)
    return sorted(r.metric for r in rows if r.failure)


class VerdictTest(unittest.TestCase):
    def test_baseline_itself_passes(self):
        self.assertEqual(failing(result()), [])

    def test_lower_is_better(self):
        self.assertEqual(failing(result(run_s=1.3)), ["run_s"])
        self.assertEqual(failing(result(run_s=1.1)), [])
        self.assertEqual(failing(result(run_s=0.5)), [])

    def test_higher_is_better(self):
        self.assertEqual(failing(result(touches_per_s=700.0)),
                         ["touches_per_s"])
        self.assertEqual(failing(result(touches_per_s=1500.0)), [])

    def test_incorrect_run_fails(self):
        self.assertEqual(failing(result(correct=False)), ["correct"])

    def test_failed_runs_fail(self):
        self.assertEqual(failing(result(failed=1)), ["failed"])

    def test_missing_metric_fails(self):
        self.assertEqual(failing(result(drop="run_s")), ["run_s"])

    def test_nonzero_exit_or_no_result_fails(self):
        self.assertEqual(failing(result(), returncode=2), ["exit"])
        self.assertEqual(failing(None, returncode=1), ["exit", "result"])

    def test_bound_comes_from_the_benchmark(self):
        self.assertEqual(failing(result(run_s=1.2)), [])
        tight = json.loads(json.dumps(BENCHMARK))
        tight["end_to_end"][0]["bound"] = 0.1
        self.assertEqual(failing(result(run_s=1.2), tight), ["run_s"])


class CommittedFilesTest(unittest.TestCase):
    def test_baseline_covers_every_workload_and_metric(self):
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        baseline = json.loads(
            (ROOT / "scripts" / "perf_baseline.json").read_text())
        for w in benchmark["workloads"]:
            for m in benchmark["end_to_end"]:
                self.assertIn(m["name"], baseline.get(w["name"], {}),
                              w["name"])


if __name__ == "__main__":
    unittest.main()
