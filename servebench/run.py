#!/usr/bin/env python3
"""Builds and runs the serve-path benchmark.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the repository's libraries and the
servebench binary into .bench_build/ (CMake, Release), trains the workload's
model on first use (cached as .bench_build/models/NAME.params), then runs
one measurement. The binary's last stdout line is the JSON result; with
--trace 1 the replay's spans go to .bench_build/traces/NAME-seedN.json.
Exits non-zero when the build, the run or any of its checks fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("novel_mol", "repeat_social", "delta_dyn")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns its path."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "servebench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.exit("servebench: build failed (see %s)" % log_path)
    return os.path.join(BUILD, "servebench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    binary = build()
    models = os.path.join(BUILD, "models")
    os.makedirs(models, exist_ok=True)
    params = os.path.join(models, args.workload + ".params")
    if not os.path.exists(params):
        trained = subprocess.run(
            [binary, "train", "--workload", args.workload, "--out", params],
            stdout=sys.stderr, cwd=ROOT)
        if trained.returncode != 0:
            sys.exit("servebench: training failed")

    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--params", params]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the child on timeout.
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
