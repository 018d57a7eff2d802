#!/usr/bin/env python3
"""Builds agbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Every run configures and builds the
benchmark and the libraries under src/ into $CARGO_TARGET_DIR (default
.bench_build); the first run builds everything, later runs only what
changed. Build output goes to stderr. The benchmark's report goes to
stdout, whose last line is the JSON result; a copy of the report is
saved under <build dir>/results/.
Exits non-zero, without a result, if the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("beam_decode", "rnn_serve", "cold_start_pym", "cold_start_agc")
RUN_TIMEOUT_S = 170


def build(build_dir):
    # Configure every time: it is cheap when nothing changed, works with
    # any CMAKE_GENERATOR, and resets the build type and compiler flags of
    # a tree configured with others (the benchmark has one configuration).
    subprocess.run(
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS="],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "agbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work")
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "agbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--workdir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: agbench exited with {proc.returncode}", file=sys.stderr)
        return 1
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.txt"
    with open(os.path.join(results_dir, name), "w") as f:
        f.write(proc.stdout)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
