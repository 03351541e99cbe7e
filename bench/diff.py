#!/usr/bin/env python3
"""Print a results file's metrics against the latest committed results.

    python3 bench/diff.py NEW.json

The baseline is the results file under ``bench/results/`` with the latest
``recorded_at``, other than NEW itself.  The diff reports; it never fails a
build: the exit code is 0 whenever both files could be read.
"""

import argparse
import glob
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def latest_results(exclude=None):
    """Path of the newest committed results file, or None."""
    paths = glob.glob(os.path.join(BENCH_DIR, "results", "BENCH_*.json"))
    skip = os.path.abspath(exclude) if exclude else None
    dated = []
    for path in paths:
        if os.path.abspath(path) == skip:
            continue
        try:
            dated.append((load(path).get("recorded_at", ""), path))
        except (OSError, ValueError):
            continue
    return max(dated)[1] if dated else None


def verdict(old, new, better, bound):
    if old == 0:
        return "new" if new else "same"
    change = (new - old) / abs(old)
    worse = change > 0 if better == "lower" else change < 0
    if worse and abs(change) > bound:
        return "worse beyond bound"
    if worse:
        return "worse within bound"
    return "better" if change else "same"


def diff_lines(old, new):
    """One line per (workload, end-to-end metric), then changed counts."""
    lines = ["%-20s %-18s %14s %14s %8s  %s"
             % ("workload", "metric", "old median", "new median", "change", "verdict")]
    for workload, entry in sorted(new.get("workloads", {}).items()):
        before = old.get("workloads", {}).get(workload, {})
        for name, m in entry.get("end_to_end", {}).items():
            prev = before.get("end_to_end", {}).get(name)
            if prev is None:
                lines.append("%-20s %-18s %14s %14.6g %8s  new metric"
                             % (workload, name, "-", m["median"], "-"))
                continue
            change = ((m["median"] - prev["median"]) / abs(prev["median"]) * 100
                      if prev["median"] else 0.0)
            lines.append("%-20s %-18s %14.6g %14.6g %7.1f%%  %s" % (
                workload, name, prev["median"], m["median"], change,
                verdict(prev["median"], m["median"], m["better"], m["bound"])))
        for name, m in sorted(entry.get("per_layer", {}).items()):
            prev = before.get("per_layer", {}).get(name)
            if m["unit"] == "count" and prev is not None and prev["value"] != m["value"]:
                lines.append("%-20s %-34s %g -> %g (count)"
                             % (workload, name, prev["value"], m["value"]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("new")
    args = parser.parse_args(argv)
    against = latest_results(exclude=args.new)
    if against is None:
        print("no committed results file to compare with")
        return 0
    print("baseline: %s" % os.path.relpath(against, ROOT))
    print("\n".join(diff_lines(load(against), load(args.new))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
