#!/usr/bin/env python3
"""Builds loopbench from source and runs one workload.

Usage (from the repository root):
  python3 loopbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: tpch_cursor, lineitem_loops, server_sessions, rewrite_corpus.
The build goes to $CARGO_TARGET_DIR/loopbench (default .bench_build/loopbench)
as a Release build of ../src plus this directory. The last line of stdout is
the benchmark's JSON result; traced runs also write their spans under
<build dir>/traces. Exits non-zero, without a result, when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "loopbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(build_dir, "loopbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "loopbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"loopbench: build failed: {e}", file=sys.stderr)
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-dir", os.path.join(build_dir, "traces")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("loopbench: run exceeded its time limit", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
