#!/usr/bin/env python3
"""Builds objbench from this checkout and runs one workload.

    python3 objbench/run.py --workload hot_point --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/objbench (default .bench_build/objbench)
under the checkout root; later runs reuse it. Build output goes to stderr,
so stdout carries only the benchmark's report, whose last line is the JSON
result. Every argument is passed through to the objbench binary.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "objbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target", "objbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "objbench")


def main():
    binary = build()
    if binary is None:
        print("objbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("objbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
