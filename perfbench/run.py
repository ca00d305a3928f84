#!/usr/bin/env python3
"""Builds the benchmark program from source, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload em3d --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --quick
    python3 perfbench/run.py --self-test

The build goes to .bench_build/perfbench-release under the repository root (CMake,
Release). Build output goes to standard error, so perfbench's JSON result
stays the last line of standard output. Exits non-zero without a result when
the simulator sources under src/ are missing or the build fails.

The perfbench program runs pinned to one CPU, the highest this process may use. Its
threads then hand off on that CPU, never through another one's wake-up,
which on a shared virtual machine can cost 2x for whole minutes (see
README.md, "Why each metric repeats").
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench-release")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: simulator sources (src/) not found\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return False
    return True


def pin_to_one_cpu():
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    if not build():
        return 1
    return subprocess.run([BINARY] + sys.argv[1:], preexec_fn=pin_to_one_cpu).returncode


if __name__ == "__main__":
    sys.exit(main())
