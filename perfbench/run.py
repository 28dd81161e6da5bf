#!/usr/bin/env python3
"""Builds the perfbench driver in Release and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload cold_schema_heavy --seed 1 \
        --seconds 30 --trace 0

The build tree is $CARGO_TARGET_DIR (default .bench_build) under the
repository root; the first run configures and compiles the library from
../src, later runs only rebuild what changed. Build output goes to stderr,
so the last line on stdout is the driver's JSON result. Exits non-zero,
without a result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return path


def build(tree):
    binary = os.path.join(tree, "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", tree, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return binary


def main(argv):
    out = build_dir()
    tree = os.path.join(out, "perfbench")
    try:
        binary = build(tree)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    # Cache and scenario directories of this run; nothing in it outlives
    # the run.
    work = os.path.join(out, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    sys.stdout.flush()
    try:
        proc = subprocess.run([binary] + argv + ["--work-dir", work])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
