#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one results file.

    python3 bench/record.py --label NAME

For each workload of BENCHMARK.json, ten timed runs on seeds 1 to 10 and
one traced run on seed 1 go through ``bench/run.py``.  Each end-to-end
metric gets its median, quartiles and spread (quartile distance over the
median), checked against a third of its bound from BENCHMARK.json.  The
file goes to ``bench/results/BENCH_<label>.json``, and its metrics are then
printed against the latest committed results file.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

import diff
from run import bench_spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd[1:]), proc.returncode,
                                                   proc.stderr[-2000:]))
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def spread_stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def record_workload(spec, workload):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {name: [] for name in metrics}
    totals = {"attempted": 0, "failed": 0, "correct": True, "latency_samples": []}
    machine = None
    for seed in SEEDS:
        info, result = run_once(workload, seed, spec["run_seconds"], 0)
        machine = info["machine"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["correct"] &= result["correct"]
        totals["latency_samples"].append(info["latency_samples"])
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print("  %s seed %d: %s" % (workload, seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
        print("    wall clock: %s" % " ".join(
            "%s=%.4g" % item for item in sorted(info["wall_clock_metrics"].items())),
            flush=True)
    entry = {"seeds": SEEDS, "end_to_end": {}, **totals,
             "fail_share": totals["failed"] / totals["attempted"]}
    for name, m in metrics.items():
        stats = spread_stats(values[name])
        stats.update(unit=m["unit"], better=m["better"], bound=m["bound"])
        entry["end_to_end"][name] = stats
    info, result = run_once(workload, TRACE_SEED, spec["run_seconds"], 1)
    entry["per_layer"] = result["metrics"]
    entry["trace_seed"] = TRACE_SEED
    entry["trace_correct"] = result["correct"]
    return entry, machine


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    spec = bench_spec()
    results = {"label": args.label,
               "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
               "run_seconds": spec["run_seconds"], "runs": len(SEEDS), "workloads": {}}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        entry, machine = record_workload(spec, workload)
        results["machine"] = machine
        results["workloads"][workload] = entry
        for name, m in entry["end_to_end"].items():
            ok = m["spread"] < m["bound"] / 3
            steady &= ok
            print("%-20s %-18s median %-12.6g spread %.3f bound %.2f %s" % (
                workload, name, m["median"], m["spread"], m["bound"],
                "" if ok else "SPREAD ABOVE A THIRD OF THE BOUND"), flush=True)
    out = os.path.join(BENCH_DIR, "results", "BENCH_%s.json" % args.label)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % os.path.relpath(out, ROOT))
    diff.main([out])
    print("steady" if steady else "not steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
