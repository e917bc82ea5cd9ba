#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs it.

    python3 perfbench/run.py --workload lulesh --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
the fprop library, fprop-coord, fprop-shard and the benchmark (Release) into
.bench_build/; later runs rebuild only what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. Every argument is passed on to the benchmark binary, which validates
it (see perfbench/README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TARGETS = ["perfbench", "fprop-coord", "fprop-shard"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no fprop sources next to perfbench/; "
                 "run from a full source checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    build()
    binary = os.path.join(BUILD, "bin", "perfbench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
