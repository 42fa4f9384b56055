#!/usr/bin/env python3
"""Paired servebench runs of two checkouts, and their summary.

    servebench_pairs.py --parent DIR --change DIR --workload W --seeds 1-5
                        [--seconds 20] [--out results.jsonl]
    servebench_pairs.py --summarize results.jsonl

The first form runs `python3 servebench/run.py --workload W --seed N
--seconds S` in both checkouts for every seed. The side that runs first
alternates from seed to seed, so a slow phase of the host does not always
land on one side. Each run's JSON result (the last line servebench prints)
is appended as one line to --out:

    {"side": "parent"|"change", "workload": W, "seed": N, "result": {...}}

The second form reads such a file. Both forms then print, for each
end-to-end metric of BENCHMARK.json and each workload: the median of each
side, the change in percent, the number of seed pairs the change won, and
the parent's interquartile range relative to its median. Before the
table they print every run's `attempted` count (requests the 20 s window
served) and mark a run `slow phase` when it attempted under a third of its
workload's median: the host was slow during that run, and its
`cpu_us_per_req` reads high. Marked runs stay in the medians. Exit status:
0 when every run was correct with no failed request and every seed has
both sides, 1 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_seeds(text):
    """'1-5' -> [1..5]; '1,4,9' -> [1, 4, 9]; ranges and lists combine."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def end_to_end_metrics():
    """(name, better) of every end-to-end metric in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [(m["name"], m["better"]) for m in bench["end_to_end"]]


def run_one(checkout, workload, seed, seconds):
    """One servebench run; returns its JSON result, or None on failure."""
    cmd = [sys.executable, os.path.join("servebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("servebench failed in %s (seed %d, exit %d)\n"
                         % (checkout, seed, proc.returncode))
        return None
    return json.loads(lines[-1])


def run_pairs(args):
    dirs = {"parent": args.parent, "change": args.change}
    records = []
    out = open(args.out, "a") if args.out else None
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_one(dirs[side], args.workload, seed, args.seconds)
            record = {"side": side, "workload": args.workload, "seed": seed,
                      "result": result}
            records.append(record)
            if out:
                out.write(json.dumps(record) + "\n")
                out.flush()
            print("%s seed %d: %s" % (side, seed, json.dumps(result)),
                  flush=True)
    if out:
        out.close()
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def print_attempted(records):
    """One line per run with its attempted count; slow phases are marked."""
    runs = [r for r in records
            if r["result"] is not None and "attempted" in r["result"]]
    median = {}
    for workload in {r["workload"] for r in runs}:
        median[workload] = statistics.median(
            r["result"]["attempted"] for r in runs
            if r["workload"] == workload)
    print("%-14s %5s %-7s %10s" % ("workload", "seed", "side", "attempted"))
    for r in sorted(runs, key=lambda r: (r["workload"], r["seed"],
                                         r["side"])):
        attempted = r["result"]["attempted"]
        slow = 3 * attempted < median[r["workload"]]
        print("%-14s %5d %-7s %10d%s" % (
            r["workload"], r["seed"], r["side"], attempted,
            "  slow phase" if slow else ""))


def summarize(records):
    """Prints the per-metric table; returns True when every run is sound."""
    sound = True
    by_key = {}
    for r in records:
        result = r["result"]
        if (result is None or not result.get("correct")
                or result.get("failed", 0) != 0):
            print("unsound run: %s seed %d of %s"
                  % (r["side"], r["seed"], r["workload"]))
            sound = False
            continue
        by_key[(r["workload"], r["seed"], r["side"])] = result["metrics"]
    print_attempted(records)
    workloads = sorted({r["workload"] for r in records})
    print("%-14s %-16s %12s %12s %9s %6s %14s" % (
        "workload", "metric", "parent", "change", "delta", "won",
        "parent IQR/med"))
    for workload in workloads:
        seeds = sorted({s for (w, s, _) in by_key if w == workload})
        pairs = [s for s in seeds
                 if all((workload, s, side) in by_key for side in SIDES)]
        if len(pairs) != len(seeds) or not pairs:
            print("%s: %d of %d seeds have both sides"
                  % (workload, len(pairs), len(seeds)))
            sound = False
        if not pairs:
            continue
        for name, better in end_to_end_metrics():
            values = {side: [by_key[(workload, s, side)][name]["value"]
                             for s in pairs] for side in SIDES}
            parent = statistics.median(values["parent"])
            change = statistics.median(values["change"])
            sign = -1.0 if better == "lower" else 1.0
            won = sum(1 for p, c in zip(values["parent"], values["change"])
                      if sign * (c - p) > 0)
            q1, _, q3 = quartiles(values["parent"])
            delta = 100.0 * (change - parent) / parent if parent else 0.0
            spread = 100.0 * (q3 - q1) / parent if parent else 0.0
            print("%-14s %-16s %12.6g %12.6g %+8.1f%% %3d/%-2d %13.1f%%" % (
                workload, name, parent, change, delta, won, len(pairs),
                spread))
    return sound


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--summarize", metavar="FILE")
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload")
    parser.add_argument("--seeds")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.summarize:
        with open(args.summarize) as f:
            records = [json.loads(line) for line in f if line.strip()]
    else:
        if not (args.parent and args.change and args.workload and args.seeds):
            parser.error("--parent, --change, --workload and --seeds are "
                         "required unless --summarize is given")
        records = run_pairs(args)
    sys.exit(0 if summarize(records) else 1)


if __name__ == "__main__":
    main()
