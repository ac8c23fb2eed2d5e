#!/usr/bin/env python3
"""Build uvmbench from source and run one benchmark invocation.

Usage, from the root of a uvmsim checkout:

    python3 uvmbench/run.py --workload random-oversub --seed 42 \
        --seconds 25 --trace 0

The first call configures and builds the benchmark (and the uvmsim library
it links) into .bench_build/; later calls only rebuild what changed. Build
output goes to stderr. The benchmark's last line on stdout is the JSON
result. Traced runs (--trace 1) also write their spans to
.bench_build/spans/<workload>-<seed>.tsv.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"uvmbench: no uvmsim sources at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "uvmbench"],
                   stdout=sys.stderr, check=True)
    return BUILD / "uvmbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"uvmbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--digests", str(HERE / "digests.tsv")]
    if a.trace:
        cmd += ["--spans-out",
                str(BUILD / "spans" / f"{a.workload}-{a.seed}.tsv")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
