#!/usr/bin/env python3
"""Repeats the benchmark over seeds and prints each metric's median and quartiles.

    python3 perfbench/repeat.py [--workload <name> ...] [--runs 10] [--first-seed 1]
                                [--sets 1] [--seconds <s>] [--trace 0|1]

Runs perfbench/run.py once per (workload, seed), seeds first_seed .. first_seed+runs-1, and
prints, per workload and metric, the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread: (q3 - q1) / median. Without --workload it
runs every workload of BENCHMARK.json; --seconds defaults to its run_seconds. With --sets N it
runs N such sets one after another, each on the next `runs` seeds, and prints how far each
later set's median of every bounded metric moved from the first set's in the worse direction.
Exits non-zero if any run failed or reported correct: false, if a spread other than setup_s's
exceeds its bound, or if a median moved by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-2000:])
        return None
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    return median, q1, q3, spread


def run_set(workload, seeds, seconds, trace):
    """Runs one seed after another; returns ({metric: [values]}, {metric: unit}, all_ok)."""
    samples = {}
    units = {}
    ok = True
    for seed in seeds:
        result = run_once(workload, seed, seconds, trace)
        if result is None:
            print("%s seed %d: FAILED" % (workload, seed))
            ok = False
            continue
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("%s seed %d: %s" % (workload, seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)
    return samples, units, ok


def print_summary(title, samples, units, metrics):
    """Prints median, quartiles and spread per metric; returns False if a spread (other than
    setup_s's) exceeds its bound."""
    ok = True
    print("\n" + title)
    print("  %-34s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread",
                                              "bound"))
    for name, values in samples.items():
        if len(values) < 2:
            continue
        median, q1, q3, spread = summarize(values)
        bound = metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and not spread <= bound:
            flag = "  SPREAD ABOVE BOUND"
            ok = False
        print("  %-34s %14.6g %14.6g %14.6g %8.4f %6s %s%s" % (
            name, median, q1, q3, spread, "-" if bound is None else bound, units[name], flag))
    print(flush=True)
    return ok


def print_shift(workload, first, later, index, metrics):
    """Prints how far set `index`'s median moved from the first set's, in the worse direction,
    against each bound; returns False if any moved by more than its bound."""
    ok = True
    print("%s: set %d against set 1 (median shift in the worse direction)" % (workload, index))
    for name, metric in metrics.items():
        if "bound" not in metric or len(first.get(name, [])) < 2 or len(later.get(name, [])) < 2:
            continue
        m1 = statistics.median(first[name])
        m2 = statistics.median(later[name])
        worse = (m2 - m1) if metric["better"] == "lower" else (m1 - m2)
        shift = worse / m1 if m1 else float("nan")
        flag = "ok" if shift <= metric["bound"] else "WORSE THAN BOUND"
        if flag != "ok":
            ok = False
        print("  %-34s %14.6g -> %-14.6g %+8.4f %6s %s" % (name, m1, m2, shift, metric["bound"],
                                                          flag))
    print(flush=True)
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    results = {}  # workload -> [samples of each set]
    for index in range(args.sets):
        first_seed = args.first_seed + index * args.runs
        seeds = range(first_seed, first_seed + args.runs)
        for workload in workloads:
            samples, units, set_ok = run_set(workload, seeds, args.seconds, args.trace)
            ok = ok and set_ok
            results.setdefault(workload, []).append(samples)
            ok = print_summary("%s: set %d, %d runs, seeds %d-%d" % (
                workload, index + 1, args.runs, seeds[0], seeds[-1]), samples, units,
                metrics) and ok
    for workload, sets in results.items():
        for index in range(1, len(sets)):
            ok = print_shift(workload, sets[0], sets[index], index + 1, metrics) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
