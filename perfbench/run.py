#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:
  python3 perfbench/run.py --workload <serve_read_dE|serve_mixed_dE|inproc_dC>
                           --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/perfbench (Release); build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-run")


def build():
    """Configures once, then builds incrementally. True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + [
        "--scratch", SCRATCH]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
