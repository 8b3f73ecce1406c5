#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Usage, from the repository root:
    python3 e2ebench/run.py --workload verbs_mix --seed 1 --seconds 20 --trace 0

Workloads: verbs_mix, npb_msg, npb_bulk. The build goes to
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench) under the current
directory; build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits nonzero, printing no result, when the
simulator sources or the toolchain are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("e2ebench: simulator sources (src/) not found next to the benchmark",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "e2ebench")
    try:
        if not build(build_dir):
            print("e2ebench: build failed", file=sys.stderr)
            return 2
    except OSError as e:
        print(f"e2ebench: cannot run the build: {e}", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "e2ebench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
