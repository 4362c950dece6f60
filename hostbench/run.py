#!/usr/bin/env python3
"""Build and run the host-clock guard benchmark.

Run from the repository root:

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 hostbench/run.py --self-test

The first call configures and builds hostbench/ (CMake, Release) into the
directory named by $CARGO_TARGET_DIR, or .bench_build when it is unset; later
calls rebuild only what changed. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Traced runs
write their span log into the same build directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, target):
    for needed in ("src/guard/remote_guard.cpp", "bench/bench_common.h"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full source checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, target)


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if argv == ["--self-test"]:
        binary = build(build_dir, "hostbench_selftest")
        return subprocess.run([binary]).returncode
    binary = build(build_dir, "hostbench")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    return subprocess.run([binary, *argv, "--trace-dir", trace_dir],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
