#!/usr/bin/env python3
"""Builds the pglo benchmark program from source and runs one workload.

    python3 lobench/run.py --workload served_mix|paper_frames|inversion_churn \
        --seed N --seconds S --trace 0|1

Run from the root of a pglo checkout. The benchmark program and the pglo
library are built with CMake into $CARGO_TARGET_DIR (default .bench_build)
on the first run; later runs rebuild only what changed. Databases live under .bench_run/
while the workload runs and are removed afterwards; the traced run leaves
its spans in .bench_out/. The last line of standard output is the JSON
result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("served_mix", "paper_frames", "inversion_churn")


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "lobench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "lobench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "lobench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"lobench: build failed: {err}", file=sys.stderr)
        return 1

    workdir = os.path.join(ROOT, ".bench_run",
                           f"{args.workload}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--workdir", workdir, "--outdir", outdir],
            check=False)
        return proc.returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
