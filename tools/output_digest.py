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

    python3 tools/output_digest.py tensor-decompose --compare PARENT_DIR

compares two checkouts job by job: this script runs the workload once on
``PARENT_DIR``'s ``src/``, ``tests/`` and ``bench/`` and once on its own
checkout's, each in a fresh process that writes every job's output, as the
leaves the digest hashes, to a scratch file.  It prints both digest lines,
whether the inputs are the same to the bit, and one row per job kind and
output (an entry of a job's result dict, or the whole result): the jobs,
how many of those outputs differ in any bit, the largest relative
deviation among their float arrays and numbers (``compare_output``), and
whether every count, multiplicity, boolean, string and shape is equal.
"""

import argparse
import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
SECONDS = 25


def leaves(x, dense=False):
    """The leaves of the value ``x`` in the order the digest hashes them:
    ``bytes`` for its structure (type names, field names, brackets), and its
    arrays and scalars as they are.  It recurses into containers and the
    fields of the library's value types; a ``FreeBundle`` is walked by its
    JSON encoding and a ``PolyMat`` by its public view (``dim``, ``tau``,
    ``q``, ``terms`` in ascending order of power, ``diagnostics``), so that
    digests compare values across changes of their storage.  With
    ``dense``, a ``FreeBundle`` is walked by its fields instead, its
    coefficients one stack, so that a coefficient that is zero on one side
    only is a deviation, not a change of the encoding's structure.  A
    ``K0Class`` is walked by its public view (``entries``, ``tol``,
    ``transversal``) and a ``Divisor`` by its (``points``, ``tau``,
    ``tol``), the names in the order of the attributes they once were."""
    import numpy as np
    from eqconn.category import K0Class
    from eqconn.laurent import PolyMat
    from eqconn.serialize import encode_free_bundle
    from eqconn.torus import Divisor, FreeBundle

    public = {K0Class: ("entries", "tol", "transversal"), Divisor: ("points", "tau", "tol")}

    if isinstance(x, FreeBundle):
        yield b"FreeBundle"
        yield from leaves([x.theta, x.tau, x.supports, x.coeffs] if dense
                          else encode_free_bundle(x), dense)
    elif isinstance(x, PolyMat):
        yield b"PolyMat"
        yield from leaves([x.dim, x.tau, x.q, [(k, x.term(k)) for k in x.powers()],
                           x.diagnostics], dense)
    elif isinstance(x, (np.ndarray, bool, int, float, complex, str, type(None), np.generic)):
        yield x
    elif isinstance(x, dict):
        yield b"{"
        for k, v in x.items():
            yield from leaves(k, dense)
            yield from leaves(v, dense)
        yield b"}"
    elif isinstance(x, (list, tuple)):
        yield b"["
        for v in x:
            yield from leaves(v, dense)
        yield b"]"
    else:
        yield type(x).__name__.encode()
        if type(x) in public:
            names = public[type(x)]
        elif dataclasses.is_dataclass(x):
            # memoized derived data (compare=False) is not part of the value
            names = [f.name for f in dataclasses.fields(x) if f.compare]
        elif hasattr(x, "__slots__"):
            names = list(x.__slots__)
        else:
            names = sorted(vars(x))
        for name in names:
            yield name.encode()
            yield from leaves(getattr(x, name), dense)


def feed(h, x):
    """Add the value ``x`` to the hash ``h``: the bytes of its structure,
    the shape, dtype and bits of each array, and the repr of each scalar."""
    import numpy as np

    for leaf in leaves(x):
        if isinstance(leaf, bytes):
            h.update(leaf)
        elif isinstance(leaf, np.ndarray):
            h.update(b"a%r%s" % (leaf.shape, leaf.dtype.str.encode()))
            h.update(np.ascontiguousarray(leaf).tobytes())
        else:
            h.update(repr(leaf).encode())


def digest(workload, root=ROOT, record=None):
    """``(jobs, failed, wrong, largest residual, sha256 hex, inputs sha256
    hex)`` over seeds 1-10, on the ``src/``, ``tests/`` and ``bench/`` of
    the checkout ``root``; the largest residual is None but for
    normalize-scrambled.  With ``record`` a binary file, each job's kind and
    the dense leaves of each of its outputs (``outputs``) are pickled to it,
    one job after another."""
    for path in (os.path.join(root, "src"), os.path.join(root, "tests"),
                 os.path.join(root, "bench")):
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
                        if record is not None:
                            pickle.dump((job.kind, {"raised": [type(exc).__name__]}), record)
                        continue
                    # hash before the oracle, which may fill memos of the output
                    feed(h, out)
                    if record is not None:
                        pickle.dump((job.kind, outputs(out)), record)
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


def outputs(out):
    """``{name: dense leaves}`` of one job's result: each entry of a dict
    result is an output of its own, and any other result one output named
    by its type; a job that raised has the one output ``raised``."""
    items = out.items() if isinstance(out, dict) else [(type(out).__name__, out)]
    return {name: list(leaves(value, dense=True)) for name, value in items}


def compare_output(parent, change):
    """``(bits equal, largest relative deviation, discrete equal)`` of one
    output's leaves on two checkouts.  The deviation is ``max |a - b| / max
    |b|`` over each float array, and over all the float numbers of the
    output taken as one vector, so that a number at the rounding of the
    others is measured against them; None where the leaves do not pair up.
    Everything else (structure, counts, multiplicities, booleans, strings,
    shapes and dtypes) must be equal for ``discrete``."""
    import numpy as np

    if len(parent) != len(change):
        return False, None, False
    same, largest, discrete, numbers = True, 0.0, True, ([], [])
    for a, b in zip(parent, change):
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            if a.shape != b.shape or a.dtype != b.dtype:
                return False, None, False
            if np.ascontiguousarray(a).tobytes() != np.ascontiguousarray(b).tobytes():
                same = False
                if a.dtype.kind in "fc" and a.size:
                    scale = float(np.abs(b).max())
                    gap = float(np.abs(a - b).max())
                    largest = max(largest, gap / scale if scale else gap)
                else:
                    discrete = False
        elif isinstance(a, (float, complex)) and type(a) is type(b):
            same &= repr(a) == repr(b)
            numbers[0].append(a)
            numbers[1].append(b)
        elif type(a) is not type(b) or a != b:
            same = discrete = False
    if numbers[0]:
        a, b = np.array(numbers[0]), np.array(numbers[1])
        scale, gap = float(np.abs(b).max()), float(np.abs(a - b).max())
        largest = max(largest, gap / scale if scale else gap)
    return same, largest, discrete


def load_jobs(handle):
    while True:
        try:
            yield pickle.load(handle)
        except EOFError:
            return


def compare(workload, parent_dir):
    """Run the workload on both checkouts, each in a fresh process, and
    print both digest lines and the job-by-job table."""
    with tempfile.TemporaryDirectory() as scratch:
        lines, files = {}, {}
        for side, root in (("parent", parent_dir), ("change", ROOT)):
            files[side] = os.path.join(scratch, side + ".pickle")
            argv = [sys.executable, os.path.abspath(__file__), workload,
                    "--root", root, "--record", files[side]]
            done = subprocess.run(argv, capture_output=True, text=True, check=True)
            lines[side] = done.stdout.strip()
            print("%s: %s" % (side, lines[side]))
        same_inputs = lines["parent"].split("inputs sha256 ")[-1] == \
            lines["change"].split("inputs sha256 ")[-1]
        print("inputs the same to the bit: %s" % ("yes" if same_inputs else "NO"))
        rows = {}
        with open(files["parent"], "rb") as a, open(files["change"], "rb") as b:
            for (kind, parent), (change_kind, change) in zip(load_jobs(a), load_jobs(b)):
                if kind != change_kind:
                    raise SystemExit("output_digest: the job order differs (%s, %s)"
                                     % (kind, change_kind))
                # a job that raised on one side only has outputs on the other
                for name in list(parent) + [name for name in change if name not in parent]:
                    same, largest, discrete = compare_output(parent.get(name, []),
                                                             change.get(name, []))
                    row = rows.setdefault((kind, name), [0, 0, 0.0, True])
                    row[0] += 1
                    row[1] += not same
                    row[2] = None if largest is None or row[2] is None else max(row[2], largest)
                    row[3] &= discrete
    print("%-14s %-16s %6s %11s %16s %15s" % ("job kind", "output", "jobs", "bits moved",
                                               "largest rel dev", "discrete equal"))
    for (kind, name), (jobs, moved, largest, discrete) in rows.items():
        print("%-14s %-16s %6d %11d %16s %15s"
              % (kind, name, jobs, moved, "unpaired" if largest is None else "%.2e" % largest,
                 "yes" if discrete else "NO"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("normalize-scrambled", "tensor-decompose"))
    parser.add_argument("--compare", metavar="PARENT_DIR",
                        help="compare the outputs job by job with another checkout's")
    parser.add_argument("--root", default=ROOT, help=argparse.SUPPRESS)
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    warnings.simplefilter("ignore")
    if args.compare:
        compare(args.workload, os.path.abspath(args.compare))
        return
    if args.record:
        with open(args.record, "wb") as record:
            result = digest(args.workload, os.path.abspath(args.root), record)
    else:
        result = digest(args.workload, os.path.abspath(args.root))
    jobs, failed, wrong, largest, sha, sha_in = result
    margin = ""
    if largest is not None:
        from workloads import RESIDUAL_LIMIT
        margin = ", largest residual %.1e (limit %.0e)" % (largest, RESIDUAL_LIMIT)
    print("%s: jobs %d, failed %d, wrong %d%s, sha256 %s, inputs sha256 %s"
          % (args.workload, jobs, failed, wrong, margin, sha, sha_in))


if __name__ == "__main__":
    main()
