#!/usr/bin/env python3
"""Build the padico library and the perfbench binary optimised, then run
one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call configures and builds
into .bench_build/perfbench (CMake, Release); later calls only rebuild
what changed.  Build output goes to stderr, so the last line on stdout
is the benchmark's result object.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no padico sources next to perfbench/ "
                 "(run from the root of a full checkout)")
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def main():
    build()
    proc = subprocess.run([BINARY] + sys.argv[1:])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
