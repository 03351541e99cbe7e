#!/usr/bin/env python3
"""eqconn benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload tensor-decompose --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; eqconn is imported from its ``src/``
and the input generators from ``tests/util.py``.  The client is a single
process that sends one job at a time and the next only when the last has
returned.  Each job's output goes through an oracle (untimed).  The
workloads and the metrics with their units are those of BENCHMARK.json.

``--trace 0`` prints the end-to-end metrics: closed-loop throughput and
latency over a fixed number of the seed's rounds, about ``--seconds`` of
job time on a 2-core Xeon VM, with cold starts and ``--batch`` runs of the
CLI taken in between, and peak memory.  ``--trace 1`` runs a
fixed number of the seed's rounds twice, untraced and then traced, and
prints the per-layer metrics and the tracing overhead; spans go to
``.bench_build/spans-<workload>-<seed>.jsonl``.

stdout ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the machine and the sample counts.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
WORK_ROOT = os.path.join(ROOT, ".bench_build")
# The time of one probe() on a quiet core of the 2-core Xeon VM the
# benchmark was set up on (Python 3.11, NumPy 2.4, SciPy 1.17, one OpenBLAS
# thread): about the fastest probe seen there over many minutes.
PROBE_REF_S = 0.40e-3
PROBE_INPUTS = []
SETUP_REPEATS = 9
BATCH_REPEATS = 9
PROCESS_TIMEOUT = 120


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="closed-loop job time to measure; sets the number "
                        "of rounds, so the jobs of a run do not depend on speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def locate_sources():
    """Put the checkout's ``src`` and ``tests`` first on the import path, or
    exit 2 when this is not a checkout."""
    for path in (os.path.join(SRC, "eqconn", "__init__.py"),
                 os.path.join(TESTS, "util.py")):
        if not os.path.isfile(path):
            sys.stderr.write("bench: %s not found; run inside a checkout of the "
                             "repository\n" % os.path.relpath(path, ROOT))
            sys.exit(2)
    sys.path[:0] = [SRC, TESTS]


def pin_blas_threads():
    """One BLAS thread for this process and every child.

    With two OpenBLAS threads on a 2-core Xeon VM, every small job pays
    about 3 ms of thread hand-off and the run-to-run spread of the median
    latency doubles; one thread keeps the client a single thread of work.
    Must run before NumPy is imported.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, TESTS, env.get("PYTHONPATH")) if p)
    return env


def run_process(cmd):
    """Run one child to completion; returns ``(exit code, stdout, seconds)``."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=PROCESS_TIMEOUT)
    return proc.returncode, proc.stdout, time.perf_counter() - start


def probe():
    """Seconds taken by a fixed piece of work made like eqconn's jobs: small
    LAPACK calls, small products and an interpreter loop.

    A shared 2-core VM runs the same code up to twice as slowly for seconds
    to minutes at a time, as other tenants load the machine; raw times of
    one seed then differ by a third from run to run.  The probe runs next
    to every measured piece of work, and ``at_reference_speed`` scales that
    work's time by how much slower than ``PROBE_REF_S`` the probes around it
    ran.
    """
    import numpy

    if not PROBE_INPUTS:
        PROBE_INPUTS.extend(numpy.random.default_rng(0).standard_normal((2, 16, 16)))
    a, b = PROBE_INPUTS
    start = time.perf_counter()
    for _ in range(3):
        numpy.linalg.eig(a)
        a @ b
    total = 0
    for i in range(2000):
        total += i * i
    return time.perf_counter() - start


def at_reference_speed(seconds, probes):
    """``seconds`` measured while ``probes`` ran around it, as the time it
    would take where a probe takes ``PROBE_REF_S``."""
    return seconds * PROBE_REF_S / statistics.median(probes)


def run_probed(cmd):
    """``run_process`` between three probes before and three after; returns
    ``(exit code, stdout, seconds, seconds at reference speed)``."""
    before = [probe() for _ in range(3)]
    code, text, elapsed = run_process(cmd)
    probes = before + [probe() for _ in range(3)]
    return code, text, elapsed, at_reference_speed(elapsed, probes)


def cli_cmd(argv):
    return [sys.executable, "-m", "eqconn.cli"] + list(argv)


def machine():
    """The machine and numerical stack a result was measured on."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": blas_threads(), "client": "1 process, 1 job at a time"}


def blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or the env setting."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


# ---------------------------------------------------------------------------
# running and checking jobs
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed jobs; ``correct`` turns false when an oracle
    rejects an output (a job that reports failure is failed, not wrong)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = Counter()
        self.rejections = []

    def record(self, kind, error=None, rejected=False):
        self.attempted += 1
        if error is None:
            return True
        self.failed += 1
        self.failures["%s %s" % (kind, error if not rejected else "rejected")] += 1
        if rejected:
            self.correct = False
            if len(self.rejections) < 5:
                self.rejections.append("%s: %s" % (kind, error))
        return False


def run_library_job(wl, job, tally, tracer=None):
    """Time ``job.run()``, then check it; returns ``(passed, output, seconds)``.

    The output is None when the job raised."""
    start = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # the program's failure is what is measured
        elapsed = time.perf_counter() - start
        return tally.record(job.kind, type(exc).__name__), None, elapsed
    elapsed = time.perf_counter() - start
    with tracer.paused() if tracer else contextlib.nullcontext():
        try:
            job.check(out)
        except wl.JobFailed as exc:
            return tally.record(job.kind, str(exc)), out, elapsed
        except Exception as exc:  # any oracle error means a wrong output
            return tally.record(job.kind, "%s: %s" % (type(exc).__name__, exc),
                                rejected=True), out, elapsed
    return tally.record(job.kind), out, elapsed


def check_cli(wl, tally, kind, check, tracer=None):
    """Run one CLI oracle; returns the report, or None when the job failed."""
    with tracer.paused() if tracer else contextlib.nullcontext():
        try:
            report = check()
        except wl.JobFailed as exc:
            tally.record(kind, str(exc))
            return None
        except Exception as exc:  # any oracle error means a wrong output
            tally.record(kind, "%s: %s" % (type(exc).__name__, exc), rejected=True)
            return None
    tally.record(kind)
    return report


def check_batch(wl, plan, tally, code, text, refs, tracer=None):
    """Check every job of one ``--batch`` report against the library's
    outputs ``refs`` for the same jobs."""
    kinds = ["batch/" + job.kind for job in plan.batch]
    try:
        reports = wl.strict_json(text)["batch"]
        wl.expect(len(reports) == len(plan.batch), "batch report has the wrong length")
        errors = sum("error" in r for r in reports)
        wl.expect((code == 0) == (errors == 0),
                  "batch exit code %d with %d failed jobs" % (code, errors))
    except Exception as exc:  # a broken batch report fails every job in it
        for kind in kinds:
            tally.record(kind, "%s: %s" % (type(exc).__name__, exc), rejected=True)
        return
    for kind, job, report, ref in zip(kinds, plan.batch, reports, refs):
        check_cli(wl, tally, kind, lambda: wl.check_job_report(
            2 if "error" in report else 0, report, job, ref), tracer)


def write_manifest(plan):
    path = os.path.join(plan.workdir, "manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"jobs": [{"argv": job.cli_argv} for job in plan.batch]}, handle)
    return path


def harrell_davis(values, q):
    """Harrell-Davis estimate of the q-th percentile: a Beta-weighted mean
    of all order statistics, so the estimate does not jump when a job moves
    by one rank across the gap between two kinds of job."""
    import numpy
    from scipy.special import betainc

    ordered = numpy.sort(values)
    n = len(ordered)
    p = q / 100.0
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), numpy.arange(n + 1) / n)
    return float(numpy.diff(edges) @ ordered)


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

class SideSamples:
    """Cold starts and ``--batch`` runs, taken between rounds at evenly
    spaced points of the run's ``rounds``."""

    def __init__(self, wl, plan, rounds, tally):
        self.wl, self.plan, self.rounds, self.tally = wl, plan, rounds, tally
        self.setup_cmd = ([sys.executable, os.path.join(BENCH_DIR, "setup_job.py")]
                          + plan.setup_args)
        self.batch_cmd = cli_cmd(["--batch", write_manifest(plan), "--json"])
        self.setup_times, self.batch_times = [], []   # (raw, at reference speed)

    def take_due(self, rounds_done, refs):
        while len(self.setup_times) < SETUP_REPEATS and rounds_done >= \
                len(self.setup_times) * self.rounds / SETUP_REPEATS:
            code, _, elapsed, scaled = run_probed(self.setup_cmd)
            if code != 0:
                raise RuntimeError("set-up job %s exited %d" % (self.setup_cmd[1:], code))
            self.setup_times.append((elapsed, scaled))
        while len(self.batch_times) < BATCH_REPEATS and rounds_done >= \
                len(self.batch_times) * self.rounds / BATCH_REPEATS:
            code, text, elapsed, scaled = run_probed(self.batch_cmd)
            check_batch(self.wl, self.plan, self.tally, code, text, refs)
            self.batch_times.append((elapsed, scaled))


def end_metrics(latencies, passed, setup_times, batch_times, batch_jobs):
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": passed / sum(latencies),
        "job_p50_ms": harrell_davis(latencies, 50) * 1e3,
        "job_p90_ms": harrell_davis(latencies, 90) * 1e3,
        "batch_jobs_per_s": batch_jobs / statistics.median(batch_times),
    }


def end_to_end(wl, plan, seconds, tally):
    """The seed's first ``wl.timed_rounds(workload, seconds)`` rounds in
    order, each job once, with the cold starts and batch runs in between.
    The number of jobs is fixed by the seed and ``seconds``, not by the
    machine's speed, so a run of the same seed attempts, and fails, the
    same jobs every time.  A probe runs before every job and after the
    last; a job's time at reference speed uses the six probes around it."""
    rounds = wl.timed_rounds(plan.workload, seconds)
    side = SideSamples(wl, plan, rounds, tally)
    latencies, probes, passed, refs = [], [], 0, []
    for r in range(rounds):
        for job in plan.round(r):
            probes.append(probe())
            ok, out, elapsed = run_library_job(wl, job, tally)
            latencies.append(elapsed)
            passed += ok
            if r == 0 and job.in_batch:
                refs.append(out)
        side.take_due(r + 1, refs)
    probes.append(probe())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    side.take_due(float("inf"), refs)
    scaled = [at_reference_speed(t, probes[max(0, i - 2):i + 4])
              for i, t in enumerate(latencies)]
    metrics = end_metrics(scaled, passed, [s for _, s in side.setup_times],
                          [s for _, s in side.batch_times], len(plan.batch))
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    wall = end_metrics(latencies, passed, [t for t, _ in side.setup_times],
                       [t for t, _ in side.batch_times], len(plan.batch))
    info = {"rounds": rounds, "latency_samples": len(latencies),
            "job_seconds": sum(latencies), "round_jobs": len(plan.rounds[0]),
            "batch_jobs": len(plan.batch), "batch_runs": BATCH_REPEATS,
            "setup_runs": SETUP_REPEATS, "wall_clock_metrics": wall,
            "setup_samples_s": side.setup_times, "batch_samples_s": side.batch_times,
            "probe_ms": {"reference": PROBE_REF_S * 1e3,
                         "median": statistics.median(probes) * 1e3,
                         "min": min(probes) * 1e3}}
    return metrics, info


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def in_process_cli(argv):
    """``eqconn.cli.main`` in this process; returns ``(code, stdout, s)``."""
    from eqconn import cli

    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buffer.getvalue(), time.perf_counter() - start


def input_bytes(argv):
    return sum(os.path.getsize(a) for a in argv if os.path.isfile(a))


def fixed_pass(wl, plan, tally, tracer=None):
    """The workload's ``TRACE_ROUNDS`` first rounds through the library,
    then round 0's batch jobs through ``eqconn.cli.main`` one at a time and
    as one ``--batch``, all in this process.  Returns (job seconds, I/O byte
    counts)."""
    total, io_bytes, refs = 0.0, Counter(), []
    jobs = [job for r in range(wl.TRACE_ROUNDS[plan.workload]) for job in plan.round(r)]
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
        _, out, elapsed = run_library_job(wl, job, tally, tracer)
        total += elapsed
        if i < len(plan.rounds[0]) and job.in_batch:
            refs.append(out)
    for i, (job, ref) in enumerate(zip(plan.batch, refs)):
        if tracer:
            tracer.job = "cli-%d" % i
        code, text, elapsed = in_process_cli(job.cli_argv + ["--json"])
        total += elapsed
        io_bytes["in"] += input_bytes(job.cli_argv)
        io_bytes["out"] += len(text.encode())
        check_cli(wl, tally, "cli/" + job.kind,
                  lambda: wl.check_cli_report(code, text, job, ref), tracer)
    manifest = write_manifest(plan)
    if tracer:
        tracer.job = "batch"
    code, text, elapsed = in_process_cli(["--batch", manifest, "--json"])
    total += elapsed
    io_bytes["in"] += input_bytes([manifest]) + sum(input_bytes(j.cli_argv)
                                                    for j in plan.batch)
    io_bytes["out"] += len(text.encode())
    check_batch(wl, plan, tally, code, text, refs, tracer)
    return total, io_bytes


def import_metrics():
    """Import times of ``eqconn.cli`` in a fresh interpreter (-X importtime)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import eqconn.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT)
    cumulative, own = {}, 0.0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        with contextlib.suppress(ValueError):
            self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
            name = parts[2].strip()
            cumulative[name] = cum_us / 1e3
            if name == "eqconn" or name.startswith("eqconn."):
                own += self_us / 1e3
    return {"cli.import_ms": cumulative.get("eqconn.cli", 0.0),
            "cli.import_numpy_ms": cumulative.get("numpy", 0.0),
            "cli.import_scipy_ms": cumulative.get("scipy.linalg", 0.0),
            "cli.import_eqconn_self_ms": own}


def batch_speedup(tracer):
    """Summed in-process job time over the batch's compute wall time."""
    def total(name, batch):
        return sum(end - start for span_name, start, end, _, job in tracer.spans
                   if span_name == name and (job == "batch") == batch)

    compute = total("cli.run_batch", True) - total("cli.emit", True)
    return total("cli.execute", False) / compute if compute > 0 else 0.0


def traced(wl, tracing, plan, tally):
    untraced_s, _ = fixed_pass(wl, plan, tally)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, io_bytes = fixed_pass(wl, plan, tally, tracer)
    finally:
        tracer.uninstall()
    os.makedirs(WORK_ROOT, exist_ok=True)
    tracer.write(os.path.join(WORK_ROOT, "spans-%s-%d.jsonl" % (plan.workload, plan.seed)))
    metrics = tracing.layer_metrics(tracer)
    metrics.update(import_metrics())
    metrics.update({
        "serialize.bytes_in": io_bytes["in"],
        "serialize.bytes_out": io_bytes["out"],
        "cli.batch.speedup": batch_speedup(tracer),
        "fail_share": tally.failed / tally.attempted,
        "trace.jobs": wl.TRACE_ROUNDS[plan.workload] * len(plan.rounds[0])
                      + 2 * len(plan.batch),
        "trace.spans": len(tracer.spans),
        "trace.untraced_ms": untraced_s * 1e3,
        "trace.traced_ms": traced_s * 1e3,
        "trace.overhead_ms": (traced_s - untraced_s) * 1e3,
    })
    return metrics, {"rounds": wl.TRACE_ROUNDS[plan.workload],
                     "round_jobs": len(plan.rounds[0]), "batch_jobs": len(plan.batch)}


def main(argv=None):
    locate_sources()
    spec = bench_spec()
    args = parse_args(argv, spec)
    pin_blas_threads()
    import warnings

    import tracing
    import workloads as wl

    # branch warnings on strip-edge clusters are part of the program's
    # normal output, not a benchmark failure
    warnings.simplefilter("ignore")
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=WORK_ROOT)
    start = time.perf_counter()
    try:
        plan = wl.Plan(args.workload, args.seed, workdir)
        generate_s = time.perf_counter() - start
        tally = Tally()
        if args.trace:
            metrics, info = traced(wl, tracing, plan, tally)
        else:
            metrics, info = end_to_end(wl, plan, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "generate_seconds": generate_s,
                 "wall_seconds": time.perf_counter() - start,
                 "attempted": tally.attempted, "failed": tally.failed,
                 "fail_share": tally.failed / tally.attempted,
                 "failures": dict(tally.failures), "rejections": tally.rejections,
                 "machine": machine()})
    print(json.dumps({"info": info}, sort_keys=True))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
