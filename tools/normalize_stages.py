#!/usr/bin/env python3
"""Per-stage times of ``normalize`` on the benchmark's scrambled inputs.

    python3 tools/normalize_stages.py [--seeds 1 2 3] [--rounds 2] [--repeats 5]

Takes the objects of the normalize-scrambled jobs of ``bench/workloads.Plan``
(rounds ``0 .. rounds-1`` of each seed) and normalizes each of them once per
repeat, in process on one BLAS thread, timing the stages through the names
``eqconn.category.normalize`` calls, in ``eqconn.category`` and in
``eqconn.laurent``, which takes A and B through the gauge record:

* ``validate``: ``_validated`` (the object's invariants, on the pair
  balanced by ``z -> rho z``);
* ``schur + groups``: ``_clustered_schur`` and ``_shift_groups`` (the
  Schur form of A(0), reordered and block diagonalized over its shift
  groups);
* ``series gauge`` (``_series_gauge``);
* ``transport + fold``: ``_fold_step`` (the fold as one recorded shear)
  and ``_gauged_pair``, the one pass that takes A and B through the series
  transport and the fold, with A's regularity check;
* ``check``: ``validate_normal_form`` (the result's invariants, with the
  Schur form of A0 it takes);

``other`` is the rest of ``normalize``.  A stage called inside another
(the Schur form of A0 inside ``check``) counts in the outer one only.  A
name that neither module defines is refused before anything runs, so that
a rename cannot leave its stage reading 0.  A job that raises is timed up
to the raise.  Prints one JSON object: per n, the
median over the repeats of each stage's milliseconds summed over that n's
jobs, with the job count and the machine; and per n, the median over the
repeats of the minor page faults per job (``ru_minflt`` of
``getrusage(RUSAGE_SELF)``, this process only, read around each
``normalize`` call): memory the allocator handed back to the system and
paged in again.  It imports ``bench/workloads`` and edits nothing there.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = {
    "validate": ("_validated",),
    "schur + groups": ("_clustered_schur", "_shift_groups"),
    "series gauge": ("_series_gauge",),
    "transport + fold": ("_fold_step", "_gauged_pair"),
    "check": ("validate_normal_form",),
}


def objects(seeds, rounds):
    """``[(n, obj), ...]`` of the normalize-scrambled jobs of those seeds."""
    import workloads as wl

    out = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            plan = wl.Plan("normalize-scrambled", seed, workdir)
            for r in range(rounds):
                out += [(job.inputs[1].n, job.inputs[1]) for job in plan.round(r)]
    return out


def timed(fn, stage, spent, running):
    """``fn`` adding its seconds to ``spent[stage]``, unless it runs inside
    another timed stage (``running`` holds the one running)."""
    def wrapper(*args, **kwargs):
        if running:
            return fn(*args, **kwargs)
        running.append(stage)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - start
            running.pop()
    return wrapper


def one_pass(jobs, spent_by_n):
    """Normalize every object once, adding each stage's seconds to
    ``spent_by_n[n]`` and its minor page faults to ``spent_by_n[n]["faults"]``."""
    import workloads as wl
    from eqconn import category, laurent

    spent = dict.fromkeys(list(STAGES) + ["total"], 0.0)
    running = []
    originals = {}
    owners = {(stage, name): [module for module in (category, laurent) if hasattr(module, name)]
              for stage, names in STAGES.items() for name in names}
    for (stage, name), modules in owners.items():
        if not modules:
            raise SystemExit("normalize_stages: stage %r names %s, which neither "
                             "eqconn.category nor eqconn.laurent defines" % (stage, name))
    for (stage, name), modules in owners.items():
        for module in modules:
            originals[module, name] = fn = getattr(module, name)
            setattr(module, name, timed(fn, stage, spent, running))
    try:
        for n, obj in jobs:
            for key in spent:
                spent[key] = 0.0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            try:
                category.normalize(obj, wl.STRIP, wl.TRUNCATION)
            except Exception:  # a failed job is timed up to its raise
                pass
            spent["total"] = time.perf_counter() - start
            spent_by_n[n]["faults"] += (
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
            for key, seconds in spent.items():
                spent_by_n[n][key] += seconds
    finally:
        for (module, name), fn in originals.items():
            setattr(module, name, fn)


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine():
    import numpy
    import scipy

    return {"platform": platform.platform(), "processor": cpu_model(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                 os.path.join(ROOT, "bench")):
        sys.path.insert(0, path)
    warnings.simplefilter("ignore")

    jobs = objects(args.seeds, args.rounds)
    sizes = sorted({n for n, _ in jobs})
    runs = []
    for _ in range(args.repeats):
        spent_by_n = {n: dict.fromkeys(list(STAGES) + ["total", "faults"], 0.0)
                      for n in sizes}
        one_pass(jobs, spent_by_n)
        runs.append(spent_by_n)
    table, faults = {}, {}
    for n in sizes:
        row = {key: round(1e3 * statistics.median(run[n][key] for run in runs), 1)
               for key in list(STAGES) + ["total"]}
        row["other"] = round(row["total"] - sum(row[key] for key in STAGES), 1)
        row["jobs"] = sum(1 for m, _ in jobs if m == n)
        table[str(n)] = row
        faults[str(n)] = round(statistics.median(run[n]["faults"] for run in runs)
                               / row["jobs"], 1)
    print(json.dumps({"method": {"seeds": args.seeds, "rounds": args.rounds,
                                 "repeats": args.repeats, "statistic": "median",
                                 "unit": "ms summed over the jobs of each n"},
                      "machine": machine(), "stages_ms": table,
                      "minor_faults_per_job": faults}, indent=1))


if __name__ == "__main__":
    main()
