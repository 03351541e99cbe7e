"""Seeded inputs, jobs and oracles for the benchmark's two workloads.

Every workload is a list of rounds; a round is a fixed mix of jobs, so any
whole number of rounds has the same composition.  A job's ``run`` is the
timed call into eqconn; its ``check`` is the oracle, run afterwards and
untimed, which raises ``OracleError`` when the output is wrong.

Inputs come from the generators in the repository's ``tests/util.py``.
Nothing generated is filtered: an input the program fails on stays in the
mix and is counted as a failed job.
"""

import json
import math
import os

import numpy as np
import scipy.linalg

from eqconn import (
    K0Class,
    MonodromyPair,
    from_monodromy,
    hom_basis,
    k0_class,
    monodromy,
    normalize,
    serialize,
    tensor,
)
from eqconn.torus import (
    Divisor,
    TorusPoly,
    build_extension,
    divisor_equivalent,
    is_nori_finite,
    k0_to_divisor,
    psi_star,
)
from util import STRIP, THETA, random_commuting_pair, random_normal_form, scramble

TRUNCATION = 16          # the CLI default
RESIDUAL_LIMIT = 1e-8
# One normalize-scrambled round: (n, shears of each object).  The cost of a
# job grows with n and with the shear passes normalize needs, so the round
# is 14 of 20 small jobs (n <= 4, or no shear), which hold the median, and
# 4 sheared n=12 objects, which hold the 90th percentile; neither
# percentile sits in the gap between two kinds of job.
NORMALIZE_ROUND = ((2, (0, 1, 2, 0, 1, 2)), (4, (0, 1, 2, 0, 1, 2)), (8, (0, 1, 2)),
                   (12, (0, 1, 2, 1, 2)))
# One tensor-decompose round of 50 jobs: (kind, n, repeats); x (x) y has dim
# n*n.  Sorted by latency, the round trips at n=8 take ranks 21-34, around
# the median, and x (x) y at dim 16 with x (x) x at dim 64 take ranks 45-48,
# around the 90th percentile.
TENSOR_ROUND = (("xy", 2, 12), ("xy", 4, 2), ("xy", 8, 1),
                ("xx", 4, 5), ("xx", 8, 2), ("xx", 12, 1),
                ("rt", 4, 8), ("rt", 8, 14), ("rt", 12, 5))
# Job seconds of one round, untraced, on the 2-core Xeon VM the benchmark
# was set up on: a timed run of ``--seconds s`` takes ceil(s / this) rounds.
# Fixed here rather than measured, so that the jobs a run attempts, and the
# failures among them, are the same on every run of a seed.
ROUND_SECONDS = {"normalize-scrambled": 3.0, "tensor-decompose": 5.0}
# Rounds in the traced run.
TRACE_ROUNDS = {"normalize-scrambled": 4, "tensor-decompose": 3}
HOM_MAX_DIM = 16         # the Kronecker system of hom_basis grows as dim**6
EXTENSION_MAX_DIM = 4    # extension residuals multiply dim**3 algebra elements
# The --batch runs take round 0's jobs up to n = 2, a few hundredths of a
# second each: the thread pool makes a batch of heavier jobs several times
# slower than one job after another, and its wall time then wanders by a
# quarter between runs on a shared 2-core VM.
BATCH_MAX_N = 2
TWO_PI_I = 2j * math.pi


class OracleError(AssertionError):
    """A job returned an output that its oracle rejects."""


class JobFailed(Exception):
    """The program reported a failure: an error report with exit code 1 or
    2, or a residual in its own diagnostics above the accuracy asked for.
    Also a K0 class with every label right to rounding that the program's
    own equality still tells apart from the true class (see check_k0)."""


def expect(ok, message):
    if not ok:
        raise OracleError(message)


def rel_err(a, b):
    return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(b)))


class Job:
    """One client request: ``run()`` is timed, ``check(output)`` is not."""

    def __init__(self, kind, run, check, cli_argv=None, cli_check=None,
                 in_batch=True, inputs=()):
        self.kind = kind
        self.inputs = inputs          # the generated values the job reads
        self.in_batch = in_batch      # part of the workload's --batch manifest
        self.run = run
        self.check = check
        self.cli_argv = cli_argv      # the same request as a CLI command line
        self.cli_check = cli_check    # oracle for that command's report

    def __repr__(self):
        return "Job(%s)" % self.kind


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def joint_labels(nf):
    """Simple labels ``(lam, b)`` of a normal form with distinct eigenvalues
    of A0, from a plain eigendecomposition rather than eqconn's peel-off."""
    w, v = np.linalg.eig(nf.A0)
    b = np.diag(np.linalg.solve(v, nf.B0 @ v))
    return list(zip(w, b))


def flat_monodromy(nf):
    return scipy.linalg.expm(TWO_PI_I * nf.A0 / nf.tau)


def same_multiset(values, others, tol):
    """Whether two lists of complex numbers match one to one within tol."""
    rest = list(others)
    for z in values:
        if not rest:
            return False
        i = min(range(len(rest)), key=lambda k: abs(rest[k] - z))
        if abs(rest[i] - z) > tol:
            return False
        rest.pop(i)
    return not rest


def labels(k0):
    """The labels of a K0 class, each repeated by its multiplicity."""
    return [(b, zp, m > 0) for b, zp, m in k0.entries for _ in range(abs(m))]


def check_k0(got, want, nf, message, rtol=1e-12):
    """Oracle for the K0 class of ``nf``: the same labels, each as often, or
    OracleError.  A label ``(b, z')`` matches within K0Class's own merge
    radius, or within ``rtol`` times the norm of B0 or A0, the rounding that
    eigenvalues of ``nf`` carry, whichever is larger.

    K0Class merges labels within an absolute 1e-7.  The generator's
    dilations sometimes reach norms of 1e8, whose labels carry rounding of
    1e-8 and more.  Then a class with every label right can hold one label
    twice, unmerged, or a label off by more than 1e-7, and the program's
    own equality tells it apart from the true class.  That is a failure of
    the program (JobFailed), not a wrong output.
    """
    radius = got.tol.eps_key
    tol_b = max(radius, rtol * float(np.linalg.norm(nf.B0)))
    tol_zp = max(radius, rtol * float(np.linalg.norm(nf.A0)))
    rest = labels(got)
    for b, zp, positive in labels(want):
        near = [e for e in rest if e[2] == positive and abs(e[0] - b) <= tol_b
                and abs(e[1] - zp) <= tol_zp]
        match = min(near, key=lambda e: abs(e[0] - b) + abs(e[1] - zp), default=None)
        expect(match is not None, message)
        rest.remove(match)
    expect(not rest, message)
    if got != want:
        raise JobFailed("K0 class keys unmerged at the labels' size")


def strip_ok(nf):
    lams = np.linalg.eigvals(nf.A0)
    return all(nf.transversal.contains(lam) for lam in lams) and \
        min(nf.eigen_margins()) > 0.0


# ---------------------------------------------------------------------------
# normalize-scrambled
# ---------------------------------------------------------------------------

def residual_ok(diagnostics):
    """A residual above the limit is reported by normalize itself: the job
    failed to reach the accuracy asked for, without raising."""
    for name in ("gauge_residual", "b_residual"):
        if not diagnostics[name] < RESIDUAL_LIMIT:
            raise JobFailed("%s above %g" % (name, RESIDUAL_LIMIT))


def normalize_job(nf, obj, files):
    seed_class = []

    def check(out):
        residual_ok(out.diagnostics)
        expect(strip_ok(out), "spectrum of A0 leaves the strip")
        if not seed_class:
            seed_class.append(k0_class(nf))
        check_k0(k0_class(out), seed_class[0], nf, "K0 class differs from the seed's")

    def cli_check(result, out):
        expect(out is not None, "library call failed where the CLI succeeded")
        same_payload(result, serialize.encode_normal_form(out),
                     skip=("strip_positions",))
        residual_ok(result["diagnostics"])

    return Job("normalize/n%d" % obj.n, lambda: normalize(obj, STRIP, TRUNCATION),
               check, files and ["normalize", files(serialize.encode_object(obj))],
               cli_check, obj.n <= BATCH_MAX_N, (nf, obj))


def normalize_round(rng, files=None):
    jobs = []
    for n, shear_counts in NORMALIZE_ROUND:
        for shears in shear_counts:
            nf = random_normal_form(rng, n)
            obj = scramble(nf, rng, shears=shears, degree=3)
            jobs.append(normalize_job(nf, obj, files))
    return jobs


# ---------------------------------------------------------------------------
# tensor-decompose
# ---------------------------------------------------------------------------

def tensor_job(x, y, kind, files):
    dim = x.n * y.n
    with_hom = kind == "xy" and dim <= HOM_MAX_DIM

    def run():
        t = tensor(x, y)
        k0 = k0_class(t)
        out = {"t": t, "k0": k0, "divisor": k0_to_divisor(k0), "bundle": psi_star(t)}
        if with_hom:
            yx = tensor(y, x)
            out["hom"] = len(hom_basis(t, yx))
            out["end"] = len(hom_basis(t, t))
            out["swap_equivalent"] = divisor_equivalent(
                out["divisor"], k0_to_divisor(k0_class(yx)))
        if dim <= EXTENSION_MAX_DIM:
            row = [TorusPoly(t.theta, {(1, 0): 1.0}) for _ in range(dim)]
            out["extension"] = build_extension(0.25 - 0.5j, row, out["bundle"]).n
        return out

    def check(out):
        t = out["t"]
        rep = monodromy(t)
        expect(rel_err(rep.M1, np.kron(flat_monodromy(x), flat_monodromy(y)))
               < RESIDUAL_LIMIT, "monodromy of the tensor is not the Kronecker product")
        expect(rel_err(rep.M2, np.kron(x.B0, y.B0)) < RESIDUAL_LIMIT,
               "dilation of the tensor is not the Kronecker product")
        expect(all(t.transversal.contains(lam) for lam in np.linalg.eigvals(t.A0)),
               "tensor spectrum leaves the strip")
        want = K0Class(t.transversal, [(bx * by, lx + ly, 1)
                                       for lx, bx in joint_labels(x)
                                       for ly, by in joint_labels(y)])
        check_k0(out["k0"], want, t, "K0 class differs from the pairwise labels")
        expect(out["divisor"] == Divisor(t.tau, [(-zp, m) for _, zp, m in want.entries]),
               "divisor differs from the pairwise labels")
        expect(out["bundle"].n == dim and same_multiset(
            out["bundle"].diagonal(), TWO_PI_I * np.linalg.eigvals(t.A0), 1e-7),
            "bundle diagonal is not 2 pi i times the spectrum")
        if with_hom:
            expect(out["hom"] == out["end"],
                   "dim Hom(x(x)y, y(x)x) = %d but dim End = %d"
                   % (out["hom"], out["end"]))
            expect(out["swap_equivalent"] is True, "divisors of x(x)y, y(x)x differ")
        if dim <= EXTENSION_MAX_DIM:
            expect(out["extension"] == dim + 1, "extension has the wrong rank")

    def cli_check(result, out):
        expect(out is not None, "library call failed where the CLI succeeded")
        same_payload(result, serialize.encode_normal_form(out["t"]))

    argv = files and ["tensor", files(serialize.encode_normal_form(x)),
                      files(serialize.encode_normal_form(y))]
    return Job("%s/%d" % (kind, dim), run, check, argv, cli_check,
               dim <= BATCH_MAX_N ** 2, (x, y))


def roundtrip_job(m1, m2, files):
    def run():
        nf = from_monodromy(MonodromyPair(m1, m2), STRIP, THETA)
        back = monodromy(nf)
        return nf, back, is_nori_finite(back)

    def check(out):
        _, back, finite = out
        err = max(rel_err(back.M1, m1), rel_err(back.M2, m2))
        expect(err < RESIDUAL_LIMIT, "round-trip error %.3e" % err)
        # the generator's pairs have eigenvalues off the unit circle
        off_circle = any(abs(abs(lam) - 1.0) > 1e-6 for m in (m1, m2)
                         for lam in np.linalg.eigvals(m))
        expect(finite is not off_circle, "finite-monodromy test answered %r" % finite)

    def cli_check(result, out):
        expect(out is not None, "library call failed where the CLI succeeded")
        same_payload(result, serialize.encode_normal_form(out[0]))

    argv = files and ["rh-from-rep",
                      files(serialize.encode_monodromy(MonodromyPair(m1, m2)))]
    return Job("rt/%d" % m1.shape[0], run, check, argv, cli_check,
               m1.shape[0] <= BATCH_MAX_N, (m1, m2))


def tensor_round(rng, files=None):
    jobs = []
    for kind, n, repeats in TENSOR_ROUND:
        for _ in range(repeats):
            if kind == "rt":
                m1, m2 = random_commuting_pair(rng, n)
                jobs.append(roundtrip_job(m1, m2, files))
            else:
                x = random_normal_form(rng, n)
                y = x if kind == "xx" else random_normal_form(rng, n)
                jobs.append(tensor_job(x, y, kind, files))
    return jobs


def timed_rounds(workload, seconds):
    """Rounds in a timed run of about ``seconds`` of job time."""
    return max(1, math.ceil(seconds / ROUND_SECONDS[workload]))


class Plan:
    """The generated inputs of one workload and seed.

    The seed gives an endless sequence of rounds; ``round(i)`` generates
    them in order on first use, so the same seed gives the same round ``i``
    however many rounds a run takes.  Round 0 also carries each job's
    command line, with its inputs written to ``workdir``; the batch runs
    use it.  ``setup_args`` names the workload's smallest job, for the
    cold-start measurement.
    """

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self._rng = np.random.default_rng(seed)
        self._make = normalize_round if workload == "normalize-scrambled" else tensor_round
        count = iter(range(1 << 30))

        def files(payload):
            path = os.path.join(workdir, "in%04d.json" % next(count))
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            return path

        self.rounds = [self._make(self._rng, files)]
        self.setup_args = self.rounds[0][0].cli_argv
        self.batch = [job for job in self.rounds[0] if job.in_batch]

    def round(self, i):
        while len(self.rounds) <= i:
            self.rounds.append(self._make(self._rng))
        return self.rounds[i]


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def _reject_constant(token):
    raise ValueError("non-standard JSON token %s" % token)


def strict_json(text):
    """Parse JSON, rejecting ``NaN`` and ``Infinity``; raise OracleError."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise OracleError("output is not strict JSON: %s" % exc)


def same_payload(got, want, path="", skip=(), rtol=1e-9):
    """Recursive equality of JSON values, floats within ``rtol``."""
    if isinstance(want, dict):
        expect(isinstance(got, dict), "%s: not an object" % path)
        keys = set(want) - set(skip)
        expect(keys <= set(got), "%s: missing %s" % (path, sorted(keys - set(got))))
        for key in keys:
            same_payload(got[key], want[key], path + "." + key, (), rtol)
    elif isinstance(want, list):
        expect(isinstance(got, list) and len(got) == len(want),
               "%s: list length differs" % path)
        for i, (g, w) in enumerate(zip(got, want)):
            same_payload(g, w, "%s[%d]" % (path, i), (), rtol)
    elif isinstance(want, float) or isinstance(got, float):
        expect(isinstance(got, (int, float)) and not isinstance(got, bool)
               and abs(got - want) <= rtol * max(1.0, abs(want)),
               "%s: %r != %r" % (path, got, want))
    else:
        expect(got == want, "%s: %r != %r" % (path, got, want))


def check_cli_report(code, text, job, out=None):
    """Oracle for one command's ``--json`` output and exit code.

    A consistent failure report (exit 1 or 2 with an ``error`` section)
    raises ``JobFailed``; anything else that is wrong raises ``OracleError``.
    ``out`` is the library's output for the same job.
    """
    report = strict_json(text)
    expect(isinstance(report, dict), "report is not a JSON object")
    return check_job_report(code, report, job, out)


def check_job_report(code, report, job, out=None):
    if "error" in report:
        expect(code in (1, 2), "exit code %d with an error report" % code)
        raise JobFailed(report["error"].get("kind", "error"))
    expect(code == 0, "exit code %d without an error report" % code)
    expect("result" in report, "report has no result")
    try:
        job.cli_check(report["result"], out)
    except (KeyError, TypeError, ValueError) as exc:
        raise OracleError("result does not decode: %s: %s" % (type(exc).__name__, exc))
    return report
