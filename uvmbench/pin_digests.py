#!/usr/bin/env python3
"""Regenerate uvmbench/digests.tsv: the output digest of every benchmark
workload for seeds 0-99, from the current uvmsim sources.

    python3 uvmbench/pin_digests.py

Re-pin only when a change to uvmsim is meant to alter simulated output.
"""
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from run import HERE, build

WORKLOADS = ["regular-fit", "random-oversub", "sgemm-oversub",
             "stream-markov-lanes"]
SEEDS = range(100)
JOBS = 2  # concurrent simulations


def main() -> int:
    exe = build()
    jobs = [(w, s) for w in WORKLOADS for s in SEEDS]

    def digest(job):
        w, s = job
        out = subprocess.run([str(exe), "--workload", w, "--seed", str(s),
                              "--print-digest"], capture_output=True,
                             text=True, check=True).stdout
        return out.strip()

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        lines = list(pool.map(digest, jobs))
    with open(HERE / "digests.tsv", "w") as f:
        f.write("# Pinned output digests: workload, seed, run_digest() in "
                "hex.\n# Regenerate with: python3 uvmbench/pin_digests.py\n")
        f.write("\n".join(lines) + "\n")
    print(f"pinned {len(lines)} digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
