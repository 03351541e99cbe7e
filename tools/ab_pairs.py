#!/usr/bin/env python3
"""Paired A/B runs of one benchmark workload from two checkouts.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload tensor-decompose \
        --seeds 1 2 3 4 5 6 7 8 9 10

For each seed, one pair of runs of ``bench/run.py --trace 0`` on that seed,
each ``--seconds`` the ``run_seconds`` of ``BENCHMARK.json``:
one from each checkout, one after the other, the parent first in the first
pair, the change first in the next, and so on, so that a drift of the
machine's speed weighs on both sides alike.  Each run builds from its own
checkout's ``src/`` and ``tests/``.

Prints, per end-to-end metric of ``BENCHMARK.json`` (read from the change's
checkout), the median and quartiles of each side, the change's median over
the parent's, the pairs the change won (better in the metric's direction),
and whether the gap between the medians exceeds the parent's interquartile
range; then the jobs attempted and failed on each side, and whether every
run was correct.  It reads ``bench/`` and edits nothing there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def bench_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(checkout, workload, seed, seconds):
    """The final JSON line of one ``bench/run.py --trace 0`` run."""
    argv = [sys.executable, os.path.join(checkout, "bench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("ab_pairs: %s exited %d" % (" ".join(argv), done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    """``(q1, median, q3)``, linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec, parent, change):
    """One printed line per end-to-end metric, then the job tallies."""
    lines = []
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        a1, a2, a3 = quartiles(a)
        b1, b2, b3 = quartiles(b)
        won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        lines.append("%-17s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
                     "x%.3f  won %d/%d  gap %s IQR  (bound %g, %s is better)"
                     % (name, a2, a1, a3, b2, b1, b3, b2 / a2 if a2 else float("nan"),
                        won, len(a), ">" if abs(b2 - a2) > a3 - a1 else "<=",
                        metric["bound"], metric["better"]))
    for side, runs in (("parent", parent), ("change", change)):
        lines.append("%s: attempted %d, failed %d, correct %s"
                     % (side, sum(r["attempted"] for r in runs),
                        sum(r["failed"] for r in runs), all(r["correct"] for r in runs)))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    parent_dir, change_dir = (os.path.abspath(d) for d in (args.parent, args.change))
    spec = bench_spec(change_dir)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    seconds = spec["run_seconds"]
    parent, change = [], []
    for i, seed in enumerate(args.seeds):
        order = ((parent_dir, parent), (change_dir, change))
        for checkout, runs in order if i % 2 == 0 else order[::-1]:
            runs.append(run_once(checkout, args.workload, seed, seconds))
        print("pair %d (seed %d): jobs_per_s %.2f -> %.2f"
              % (i + 1, seed, parent[-1]["metrics"]["jobs_per_s"]["value"],
                 change[-1]["metrics"]["jobs_per_s"]["value"]), flush=True)
    print("%s, %d pairs, --seconds %g" % (args.workload, len(args.seeds), seconds))
    for line in summarize(spec, parent, change):
        print(line)


if __name__ == "__main__":
    main()
