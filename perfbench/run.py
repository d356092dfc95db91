#!/usr/bin/env python3
"""Builds the ppgr benchmark from this checkout and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload he-n16 --seed 1 --seconds 30 --trace 0

The first run configures and compiles perfbench/CMakeLists.txt (the ppgr
libraries from src/ plus the ppgr_perfbench program) into .bench_build/;
later runs only re-check the build. Build output goes to stderr, so the last
line on stdout is the JSON result of ppgr_perfbench. Exits non-zero, without a
result, when the ppgr sources are not next to perfbench/ or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("he-n16", "engine-mix")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "ppgr_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "ppgr_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: ppgr sources (src/) not found next to perfbench/")
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans-%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", spans]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
