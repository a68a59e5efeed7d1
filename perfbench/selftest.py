#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py [--workload <name> ...] [--seed 1]

For each workload (default: every workload of BENCHMARK.json) it checks, through run.py:
  1. two plain runs of the same (workload, seed) print bit-identical sim-time results, for
     every replicate and pooled, including the final shard-map digests;
  2. the traced run of that seed passes (its own plain-vs-traced comparison of every sim-time
     result, the InvariantChecker and the other checks) and its plain replicate matches the
     first replicate of the plain runs, so the outside-in spans do not perturb behaviour;
  3. a different seed gives different sim-time results.
Then, unless --workload is given, it runs traced each reproduction of a known program defect
(README.md, "Defects the benchmark found"). Each is expected to pass once its defect is fixed;
today both fail I1, and so does this self-test. Exits non-zero if any check failed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Known-defect reproductions: (workload, seed) whose traced run fails today.
DEFECTS = [("fleet_churn_cold", 2), ("region_failover_kill_in_placement", 1)]
FAILURES = []


class RunFailed(Exception):
    pass


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        checks = [l.strip() for l in proc.stdout.splitlines() if "CHECK FAILED" in l]
        # Without a failed check the build or the process itself failed: show its stderr.
        sys.stderr.write("\n".join(checks[:5]) + "\n" if checks else proc.stderr[-2000:])
        raise RunFailed("%s seed %d trace %d exited %d" % (workload, seed, trace,
                                                           proc.returncode))
    lines = proc.stdout.splitlines()
    # "  sim {...}" lines are per replicate; the unindented "sim {...}" line is the pooled one.
    replicates = [l.strip()[4:] for l in lines if l.startswith("  sim ")]
    pooled = [l[4:] for l in lines if l.startswith("sim ")]
    return replicates, pooled


def check(condition, message):
    if not condition:
        FAILURES.append(message)
    print(("ok: " if condition else "FAIL: ") + message, flush=True)


def determinism(workload, seed):
    first_reps, first_pooled = run(workload, seed, 0)
    second_reps, second_pooled = run(workload, seed, 0)
    check(first_reps and first_pooled and (first_reps, first_pooled) ==
          (second_reps, second_pooled),
          "%s: two runs of seed %d give identical sim-time results and map digests"
          % (workload, seed))
    traced_reps, _ = run(workload, seed, 1)
    # The traced run prints its plain replicate, then its traced one; the binary itself fails
    # the run if the two differ.
    check(traced_reps and traced_reps[0] == first_reps[0] and traced_reps[-1] == first_reps[0],
          "%s: the plain and traced runs of seed %d agree on every sim-time result"
          % (workload, seed))
    other_reps, other_pooled = run(workload, seed + 1, 0)
    check(other_pooled != first_pooled and other_reps[0] != first_reps[0],
          "%s: seed %d gives different sim-time results than seed %d"
          % (workload, seed + 1, seed))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        try:
            determinism(workload, args.seed)
        except RunFailed as e:
            check(False, str(e))
    if not args.workload:
        for workload, seed in DEFECTS:
            try:
                run(workload, seed, 1)
                check(True, "%s: traced run of seed %d passes" % (workload, seed))
            except RunFailed as e:
                check(False, "%s (known program defect, see README.md)" % e)
    if FAILURES:
        print("selftest FAILED: %d check(s)" % len(FAILURES))
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
