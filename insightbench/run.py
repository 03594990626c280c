#!/usr/bin/env python3
"""Builds the InsightNotes engine and its end-to-end benchmark in Release,
then runs one workload and prints its result.

Usage, from the root of a checkout:

    python3 insightbench/run.py --workload <propagate|ingest|curate> \\
        --seed <n> --seconds <s> --trace <0|1>
    python3 insightbench/run.py --self-test

The build goes to .bench_build/insightbench. Each run keeps its database
files in a fresh directory under .bench_build/tmp and removes it when the
run ends, also when it fails. A traced run (--trace 1) writes its spans to
.bench_build/traces/. The last line of standard output is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "insightbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "insightbench"
BINARY = BUILD_DIR / "insightbench"
WORKLOADS = ("propagate", "ingest", "curate")
BUILD_JOBS = "2"


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("insightbench: no engine sources at src/; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(args, workload):
    """Runs one workload in a fresh work directory; returns the exit code."""
    tmp_root = BUILD_ROOT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    if args.trace == 1:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{args.seed}.jsonl")]
    if args.self_test:
        cmd.append("--self-test")
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload briefly with each check also fed a "
                             "corrupted expected value, which must fail")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit(f"insightbench: build failed: {error}")

    if args.self_test:
        args.seconds = 1
        failed = [w for w in WORKLOADS if run_binary(args, w) != 0]
        if failed:
            sys.exit(f"insightbench: self-test failed on {', '.join(failed)}")
        print("self-test passed on every workload")
        return 0
    return run_binary(args, args.workload)


if __name__ == "__main__":
    sys.exit(main())
