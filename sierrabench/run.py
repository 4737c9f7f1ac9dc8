#!/usr/bin/env python3
"""Build and run the SIERRA benchmark.

    python3 sierrabench/run.py --workload fleet|deep|serve --seed N \\
        --seconds S --trace 0|1
    python3 sierrabench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
this package (the program's libraries from ../src plus the benchmark
binary) in .bench_build/sierrabench; later calls rebuild only what
changed. The binary's output goes to stdout, and its last line is the
JSON result.
Build logs, span files and other run files stay under .bench_build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "sierrabench"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 700  # a build plus one run stays under 15 minutes


def fail(message, code=1):
    print(f"sierrabench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env():
    # Keep the compiler's and the benchmark's temporary files in the
    # checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    env = child_env()
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target"]
                 + targets)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out (log: {log_path})")
            if done.returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed (log: {log_path})")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["fleet", "deep", "serve"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build(["sierrabench_selftest"])
        sys.exit(subprocess.run([str(BUILD / "sierrabench_selftest")],
                                env=child_env()).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    build(["sierrabench"])
    cmd = [str(BUILD / "sierrabench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(BUILD / "out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"sierrabench exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("sierrabench printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("sierrabench printed a malformed result")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
