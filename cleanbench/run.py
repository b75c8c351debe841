#!/usr/bin/env python3
"""Builds the CleanDB benchmark driver from source and runs one workload.

Run from the root of a source checkout:

    python3 cleanbench/run.py --workload batch_clean --seed 1 --seconds 36 --trace 0

The driver is compiled by cleanbench/CMakeLists.txt into .bench_build/cleanbench
(configured once, then an incremental no-op build before every run). Its
result is one JSON object, printed as the last line of standard output; build
output and diagnostics go to standard error. Traced runs also write a Chrome
trace to .bench_out/<workload>.trace.json.

Exits non-zero without printing a result when the library sources are
missing, the build fails, or the driver fails or runs too long.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cleanbench"
BINARY = BUILD_DIR / "cleanbench"
WORKLOADS = ("batch_clean", "delta_stream", "term_validation")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"cleanbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not (ROOT / "src" / "cleaning" / "cleandb.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
    if not BINARY.is_file():
        fail(f"build produced no {BINARY}")


def run(args):
    """Runs the driver once and returns its parsed result line."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no JSON result")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args()


def main():
    args = parse_args()
    build()
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
