#!/usr/bin/env python3
"""Bit-identity digest of one benchmark workload's outputs.

    python3 tools/output_digest.py normalize-scrambled

Runs the jobs of ``bench/workloads.Plan`` for seeds 1-10, over the rounds a
25-second timed run of the workload takes (``timed_rounds(workload, 25)``),
each job once and checked by its oracle as ``bench/run.py`` checks it.
Prints the number of jobs, of failures (the program raised, reported a
failure, or gave an output the oracle rejected, as ``bench/run.py`` counts
them) and of the wrong outputs among them,
one SHA-256 over every job's output: the bits of each array, the repr
of each scalar, and the name of the exception of a job that raised, and one
SHA-256 over every job's ``inputs``, hashed the same way before the job
runs.  Two checkouts print the same digest only when every output (or
input) is the same to the bit.  For normalize-scrambled it also prints the margin: the largest
``gauge_residual`` or ``b_residual`` among the jobs that returned, beside
the ``RESIDUAL_LIMIT`` above which the benchmark counts a job failed.
Nothing is timed.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
SECONDS = 25


def feed(h, x):
    """Add the value ``x`` to the hash ``h``, recursing into containers and
    the fields of the library's value types; a ``FreeBundle`` is hashed by
    its JSON encoding and a ``PolyMat`` by its public view (``dim``, ``tau``,
    ``q``, ``terms`` in ascending order of power, ``diagnostics``), so that
    digests compare values across changes of their storage."""
    import numpy as np
    from eqconn.laurent import PolyMat
    from eqconn.serialize import encode_free_bundle
    from eqconn.torus import FreeBundle

    if isinstance(x, FreeBundle):
        h.update(b"FreeBundle")
        feed(h, encode_free_bundle(x))
    elif isinstance(x, PolyMat):
        h.update(b"PolyMat")
        feed(h, [x.dim, x.tau, x.q, [(k, x.term(k)) for k in x.powers()], x.diagnostics])
    elif isinstance(x, np.ndarray):
        h.update(b"a%r%s" % (x.shape, x.dtype.str.encode()))
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (bool, int, float, complex, str, type(None), np.generic)):
        h.update(repr(x).encode())
    elif isinstance(x, dict):
        h.update(b"{")
        for k, v in x.items():
            feed(h, k)
            feed(h, v)
        h.update(b"}")
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for v in x:
            feed(h, v)
        h.update(b"]")
    else:
        h.update(type(x).__name__.encode())
        if dataclasses.is_dataclass(x):
            # memoized derived data (compare=False) is not part of the value
            names = [f.name for f in dataclasses.fields(x) if f.compare]
        elif hasattr(x, "__slots__"):
            names = list(x.__slots__)
        else:
            names = sorted(vars(x))
        for name in names:
            h.update(name.encode())
            feed(h, getattr(x, name))


def digest(workload):
    """``(jobs, failed, wrong, largest residual, sha256 hex, inputs sha256
    hex)`` over seeds 1-10; the largest residual is None but for
    normalize-scrambled."""
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                 os.path.join(ROOT, "bench")):
        sys.path.insert(0, path)
    import workloads as wl

    h, h_in = hashlib.sha256(), hashlib.sha256()
    jobs = failed = wrong = 0
    largest = 0.0 if workload == "normalize-scrambled" else None
    rounds = wl.timed_rounds(workload, SECONDS)
    with tempfile.TemporaryDirectory() as workdir:
        for seed in SEEDS:
            plan = wl.Plan(workload, seed, workdir)
            for r in range(rounds):
                for job in plan.round(r):
                    jobs += 1
                    h.update(job.kind.encode())
                    feed(h_in, job.inputs)
                    try:
                        out = job.run()
                    except Exception as exc:  # a failure is an output too
                        failed += 1
                        h.update(b"raised " + type(exc).__name__.encode())
                        continue
                    # hash before the oracle, which may fill memos of the output
                    feed(h, out)
                    if largest is not None:
                        largest = max(largest, out.diagnostics["gauge_residual"],
                                      out.diagnostics["b_residual"])
                    try:
                        job.check(out)
                    except wl.JobFailed:
                        failed += 1
                    except Exception:  # the oracle rejected the output
                        failed += 1
                        wrong += 1
    return jobs, failed, wrong, largest, h.hexdigest(), h_in.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("normalize-scrambled", "tensor-decompose"))
    args = parser.parse_args(argv)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    warnings.simplefilter("ignore")
    jobs, failed, wrong, largest, sha, sha_in = digest(args.workload)
    margin = ""
    if largest is not None:
        from workloads import RESIDUAL_LIMIT
        margin = ", largest residual %.1e (limit %.0e)" % (largest, RESIDUAL_LIMIT)
    print("%s: jobs %d, failed %d, wrong %d%s, sha256 %s, inputs sha256 %s"
          % (args.workload, jobs, failed, wrong, margin, sha, sha_in))


if __name__ == "__main__":
    main()
