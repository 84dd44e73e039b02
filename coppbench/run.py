#!/usr/bin/env python3
"""Build the benchmark driver from source, then run one workload.

Run from the root of a checkout:

    python3 coppbench/run.py --workload exploit-matrix --seed 1 \
        --seconds 5 --trace 0

The first call configures and builds into .bench_build/ (CMake, Ninja
when available); later calls only bring that build up to date. Build
output goes to stderr; the driver's last stdout line is the JSON result.
The exit code is the driver's, or 1 when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"


def build():
    """Configure (once) and build the driver; return its path or None."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "coppbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "coppbench")


def main():
    driver = build()
    if driver is None:
        print("coppbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([driver] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
