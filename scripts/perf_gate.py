#!/usr/bin/env python3
"""Perf gate: uvmbench's end-to-end metrics against the committed baseline.

For every workload named in BENCHMARK.json this runs

    python3 uvmbench/run.py --workload W --seed 1 --seconds 5 --trace 0

and checks the JSON result on the last line of its stdout against
scripts/perf_baseline.json. The gate fails (exit 1) if a run exits nonzero,
prints no result, is not `correct`, has failed runs, lacks an `end_to_end`
metric, or if a metric is worse than its baseline, relative to the baseline,
by more than that metric's `bound` in its `better` direction. Bounds and
directions are read from BENCHMARK.json only.

It prints one row per workload and metric. The last stdout line is the
measured values in the baseline's own format, so re-pinning is

    python3 scripts/perf_gate.py | tail -n1 > scripts/perf_baseline.json

Re-pin only on purpose, on the host the gate runs on, and say so in
CHANGES.md. The gate takes no flags and reads no environment variable.
"""
import json
import math
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
BASELINE = ROOT / "scripts" / "perf_baseline.json"
SEED = 1  # among the seeds whose digests uvmbench/digests.tsv pins
SECONDS = 5

# One verdict line. `failure` is "" when the row passes.
Row = namedtuple("Row", "workload metric base value worse_by bound failure")


def worse_by(better, base, value):
    """How much worse `value` is than `base`, relative to `base`.

    Positive is worse in the metric's `better` direction ("lower" or
    "higher"); zero or negative is as good or better.
    """
    delta = value - base if better == "lower" else base - value
    if base == 0:
        return 0.0 if delta <= 0 else math.inf
    return delta / abs(base)


def verdict(benchmark, baseline, workload, returncode, result):
    """Checks one uvmbench invocation and returns its rows.

    `benchmark` is the parsed BENCHMARK.json, `baseline` the parsed
    baseline, `result` the parsed JSON result line or None if the run
    printed none.
    """
    def fail(metric, why):
        return Row(workload, metric, None, None, None, None, why)

    rows = []
    if returncode != 0:
        rows.append(fail("exit", f"uvmbench exited {returncode}"))
    if result is None:
        return rows + [fail("result", "no JSON result line")]
    if result.get("correct") is not True:
        rows.append(fail("correct", "correct is not true"))
    if result.get("failed", 0) > 0:
        rows.append(fail("failed", f"{result['failed']} failed runs"))
    measured = result.get("metrics", {})
    base_row = baseline.get(workload, {})
    for m in benchmark["end_to_end"]:
        name = m["name"]
        if name not in measured:
            rows.append(fail(name, "metric missing from the result"))
            continue
        value = measured[name]["value"]
        if name not in base_row:
            rows.append(Row(workload, name, None, value, None, m["bound"],
                            "metric missing from the baseline"))
            continue
        base = base_row[name]
        w = worse_by(m["better"], base, value)
        failure = (f"worse by {w:+.1%}, bound {m['bound']:.0%}"
                   if w > m["bound"] else "")
        rows.append(Row(workload, name, base, value, w, m["bound"], failure))
    return rows


def run_uvmbench(workload):
    """One uvmbench invocation: (exit code, parsed result or None)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "uvmbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout)
    return proc.returncode, result


def fmt(v):
    return "-" if v is None else f"{v:.6g}"


def main():
    benchmark = json.loads(BENCHMARK.read_text())
    baseline = json.loads(BASELINE.read_text())
    rows, pinned = [], {}
    for w in benchmark["workloads"]:
        returncode, result = run_uvmbench(w["name"])
        rows += verdict(benchmark, baseline, w["name"], returncode, result)
        metrics = (result or {}).get("metrics", {})
        pinned[w["name"]] = {m["name"]: metrics[m["name"]]["value"]
                             for m in benchmark["end_to_end"]
                             if m["name"] in metrics}

    print(f"{'workload':<20} {'metric':<14} {'baseline':>12} "
          f"{'measured':>12} {'worse_by':>9} {'bound':>6}  verdict")
    for r in rows:
        change = "-" if r.worse_by is None else f"{r.worse_by:+.1%}"
        bound = "-" if r.bound is None else f"{r.bound:.0%}"
        print(f"{r.workload:<20} {r.metric:<14} {fmt(r.base):>12} "
              f"{fmt(r.value):>12} {change:>9} {bound:>6}  "
              f"{'FAIL: ' + r.failure if r.failure else 'ok'}")
    failed = [r for r in rows if r.failure]
    print(f"perf gate: {'FAIL' if failed else 'PASS'} "
          f"({len(failed)} of {len(rows)} rows failed)")
    print(json.dumps(pinned))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
