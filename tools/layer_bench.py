#!/usr/bin/env python3
"""Per-layer times of the library's public entry points.

    python3 tools/layer_bench.py [--label 15] [--repeats 9] [--compare PARENT_DIR]

Covers the laurent layer: the product ``A * B`` of a scrambled object's
connection and dilation matrices, ``gauge_transform(A, P, K)``,
``dilation_transform(B, P, K)`` and ``truncated_inverse(P, K)``; and two
category entry points on the object, ``validate`` and, end to end,
``normalize(obj, STRIP, K)``; at n in {2, 4, 8, 12} and K = 16.  The object
is ``scramble(random_normal_form(rng, n), rng, shears=1)`` from
``tests/util.py``, as the normalize-scrambled benchmark draws it (powers 0
to about 48), and P a seeded series gauge ``I + P_1 z + ... + P_K z**K``.
Points are keyed ``<module>.<entry point>``.

The tensor points take seeded normal forms x, y of ``random_normal_form``
at n in {2, 4, 8, 12}, tensor dims {4, 16, 64, 144}, and time, for ``[xy]``
the product x (x) y and for ``[xx]`` the square x (x) x: ``category.tensor``,
each call on fresh copies of the factors, so that the factors' memoized
Schur and strip forms are paid for as a tensor-decompose job pays for
them; then, on that product, which holds its Schur form from birth as the
job's does, ``category.decompose``, ``category.k0_class``,
``torus.k0_to_divisor`` of its class and ``torus.psi_star``, ``k0_class``
on a fresh copy of the product as ``hom_basis`` below takes it, as the
class is kept once made;
``torus.divisor_equivalent`` of the divisors of that product's class and
of the reversed product's, as a tensor-decompose job compares them; and
at dims 4 and 16, and for ``[xx]`` at dim 64 (``HOM_SQUARE_DIMS``),
``category.hom_basis(t, t)``, each call on a fresh copy of the product
holding what it held at birth (its Schur form and its factors, in
``_memo``), each factor in it a fresh copy holding what it held then, and
nothing that an earlier call kept, so that its Hom side, and the factors'
it is read off, are built as a tensor-decompose job builds them, once per
object.  At dim 4, the xy/4 job
of the benchmark, only the ``[xy]`` points of the calls that job makes
but ``psi_star`` are timed: ``tensor``, ``decompose``, ``k0_class``,
``k0_to_divisor``, ``divisor_equivalent`` and ``hom_basis``.  These are
keyed by the tensor dim where the others are keyed by n.

The numkit points time two public kernels at n in {2, 4, 8, 12}:
``numkit.reduce_to_transversal`` of ``S diag(lam) S^-1``, S from
``well_conditioned`` and the eigenvalues spread over five strip widths
(strip positions in (0, 1) shifted by -2 to 2 widths), and
``numkit.log_transversal`` of the M1 of ``random_commuting_pair``; both
run on the clustered Schur form, and the first on the fold.  The
``[defective]`` points time ``numkit.log_transversal`` and
``numkit.spectral`` at n in {4, 8, 12} on ``exp(2 pi i A0 / tau)`` of
``random_defective_normal_form``, Jordan blocks of sizes
``DEFECTIVE_PATTERNS[n]`` conjugated by a well conditioned matrix: rounding
splits each block into clusters, which the projector-bounded grouping joins
again, so these points carry the cost of its merge path.

The round-trip points take a seeded commuting pair of
``random_commuting_pair`` at n in {4, 8, 12} and time the steps of a
round-trip job: ``category.from_monodromy`` of the pair,
``category.monodromy`` of the normal form it returned, and
``torus.is_nori_finite`` of that pair.

Each point is ``[q1, median, q3]`` of ``--repeats`` timings, each the mean
over enough calls to take about 20 ms, on one BLAS thread.

The points fall in four groups, timed each in a fresh process of its own:
laurent and category at n (``laurent``), the tensor points (``tensor``),
the round-trip points (``roundtrip``) and the numkit points (``numkit``),
so that no point's time depends on what an earlier group left in the heap
or the caches.

Writes ``BENCH_<label>.json`` at the repo root with the method, the machine
and the points.  With ``--compare PARENT_DIR`` the same points are timed on
the parent checkout's ``src/`` and ``tests/`` too, in alternating rounds
(the parent first in the first round); in each round every group runs in
a fresh process per side, one side after the other, and a side's point
then takes the timings of all its rounds.  The rounds are
paired: round r of the parent and round r of the change run one after the
other, and each pair gives the ratio of the parent's median to the
change's.  ``paired`` holds, per point, those ratios, their median and the
rounds the change won (ratio above 1); the printed table shows each side's
pooled median, the median ratio and the rounds won, so that a drift of the
machine between rounds weighs on both sides of a pair alike.  Only public
names are timed, so one script serves any two checkouts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (2, 4, 8, 12)
TENSOR_SIZES = (2, 4, 8, 12)
# the points of the xy/4 job, the only ones timed at n = 2
SMALL_POINTS = ("category.tensor", "category.decompose", "category.k0_class",
                "torus.k0_to_divisor", "torus.divisor_equivalent", "category.hom_basis")
GROUPS = ("laurent", "tensor", "roundtrip", "numkit")
ROUNDTRIP_SIZES = (4, 8, 12)
NUMKIT_SIZES = (2, 4, 8, 12)
# Jordan block sizes per eigenvalue of the [defective] numkit points, by n
DEFECTIVE_PATTERNS = {4: ((2,), (2,)), 8: ((3, 1), (4,)), 12: ((4, 2), (3, 1), (2,))}
HOM_MAX_DIM = 16
# hom_basis of the square is timed at these dims too (about 65 ms a call at 64)
HOM_SQUARE_DIMS = (64,)
ORDER = 16
SEED = 15
TARGET_S = 0.02
BLAS_THREADS = {name: "1" for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def inputs(n):
    """``(obj, P)``: a scrambled object of dimension n and a series gauge."""
    import numpy as np
    from eqconn.laurent import PolyMat
    from util import random_normal_form, scramble

    rng = np.random.default_rng(SEED + n)
    obj = scramble(random_normal_form(rng, n), rng, shears=1, degree=3)
    terms = {0: np.eye(n, dtype=complex)}
    for k in range(1, ORDER + 1):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        terms[k] = 0.35 * g / (k * np.sqrt(n))
    return obj, PolyMat(n, terms, obj.tau, obj.q)


def entry_points(obj, p):
    from eqconn.category import normalize, validate
    from eqconn.laurent import dilation_transform, gauge_transform, truncated_inverse
    from util import STRIP

    a, b = obj.A, obj.B
    return {
        "laurent.product": lambda: a * b,
        "laurent.gauge_transform": lambda: gauge_transform(a, p, ORDER),
        "laurent.dilation_transform": lambda: dilation_transform(b, p, ORDER),
        "laurent.truncated_inverse": lambda: truncated_inverse(p, ORDER),
        "category.validate": lambda: validate(obj),
        "category.normalize": lambda: normalize(obj, STRIP, ORDER),
    }


def tensor_points(n):
    """The tensor points at dim ``n * n``, ``{"<module>.<entry>[xy|xx]": fn}``."""
    import dataclasses

    import numpy as np
    from eqconn.category import decompose, hom_basis, k0_class, tensor
    from eqconn.torus import divisor_equivalent, k0_to_divisor, psi_star
    from util import random_normal_form

    rng = np.random.default_rng((SEED, n))
    x, y = random_normal_form(rng, n), random_normal_form(rng, n)
    points = {}
    for kind in ("xy",) if n == 2 else ("xy", "xx"):
        def product(square=kind == "xx"):
            fx = dataclasses.replace(x)
            return tensor(fx, fx if square else dataclasses.replace(y))

        t = product()
        born = dict(t._memo)
        # what each factor of the product held when the product was made
        held = {id(v): (v, dict(v._memo)) for value in born.values()
                if isinstance(value, tuple) for v in value if hasattr(v, "_memo")}
        k0 = k0_class(t)
        swapped = tensor(x if kind == "xx" else y, x)
        divisors = k0_to_divisor(k0), k0_to_divisor(k0_class(swapped))
        points["category.tensor[%s]" % kind] = product
        points["category.decompose[%s]" % kind] = lambda t=t: decompose(t)
        points["category.k0_class[%s]" % kind] = lambda t=t, born=born, held=held: k0_class(
            _fresh(t, born, held))
        points["torus.k0_to_divisor[%s]" % kind] = lambda k0=k0: k0_to_divisor(k0)
        points["torus.psi_star[%s]" % kind] = lambda t=t: psi_star(t)
        points["torus.divisor_equivalent[%s]" % kind] = \
            lambda divisors=divisors: divisor_equivalent(*divisors)
        if n * n <= HOM_MAX_DIM or (kind == "xx" and n * n in HOM_SQUARE_DIMS):
            def hom(t=t, born=born, held=held):
                fresh = _fresh(t, born, held)
                return hom_basis(fresh, fresh)

            points["category.hom_basis[%s]" % kind] = hom
    if n == 2:
        return {key: fn for key, fn in points.items() if key.split("[")[0] in SMALL_POINTS}
    return points


def _fresh(t, born, held):
    """A fresh copy of the product ``t`` holding ``born``, what it held at
    birth, each factor in it a fresh copy holding what ``held`` says it
    held then, so that what a call keeps is paid for on every call."""
    import dataclasses

    copies = {}
    for nf, memo in held.values():
        copies[id(nf)] = dataclasses.replace(nf)
        copies[id(nf)]._memo.update(memo)
    fresh = dataclasses.replace(t)
    for key, value in born.items():
        fresh._memo[key] = tuple(copies.get(id(v), v) for v in value) \
            if isinstance(value, tuple) else value
    return fresh


def roundtrip_points(n):
    """The round-trip points at ``n``, ``{"<module>.<entry>": fn}``."""
    import numpy as np
    from eqconn.category import MonodromyPair, from_monodromy, monodromy
    from eqconn.torus import is_nori_finite
    from util import STRIP, THETA, random_commuting_pair

    rep = MonodromyPair(*random_commuting_pair(np.random.default_rng((SEED, n)), n))
    nf = from_monodromy(rep, STRIP, THETA)
    back = monodromy(nf)
    return {"category.from_monodromy": lambda: from_monodromy(rep, STRIP, THETA),
            "category.monodromy": lambda: monodromy(nf),
            "torus.is_nori_finite": lambda: is_nori_finite(back)}


def numkit_points(n):
    """The numkit points at ``n``, ``{"numkit.<entry>": fn}``."""
    import numpy as np
    from eqconn.numkit import log_transversal, mat_exp, reduce_to_transversal, spectral
    from util import (STRIP, TAU, random_commuting_pair, random_defective_normal_form,
                      well_conditioned)

    rng = np.random.default_rng((SEED, n))
    spread = TAU * (rng.uniform(0.05, 0.95, n) + rng.integers(-2, 3, n)
                    + 1j * rng.uniform(-1.0, 1.0, n))
    s = well_conditioned(rng, n)
    a = s @ np.diag(spread) @ np.linalg.inv(s)
    m1, _ = random_commuting_pair(rng, n)
    points = {"numkit.reduce_to_transversal": lambda: reduce_to_transversal(a, STRIP),
              "numkit.log_transversal": lambda: log_transversal(m1, STRIP)}
    if n in DEFECTIVE_PATTERNS:
        x = random_defective_normal_form(rng, patterns=DEFECTIVE_PATTERNS[n])
        m = mat_exp(2j * np.pi * x.A0 / x.tau)
        points["numkit.log_transversal[defective]"] = lambda: log_transversal(m, STRIP)
        points["numkit.spectral[defective]"] = lambda: spectral(m)
    return points


def timing(fn, repeats):
    """``repeats`` means in ms, each over a batch of calls."""
    fn()
    start = time.perf_counter()
    fn()
    calls = max(1, int(TARGET_S / max(time.perf_counter() - start, 1e-7)))
    means = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        means.append(round(1e3 * (time.perf_counter() - start) / calls, 5))
    return means


def quartiles(means):
    q1, q2, q3 = statistics.quantiles(means, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def measure(checkout, repeats, group):
    """``{"<module>.<entry>": {"<n>": [ms, ...]}}``, the timings of one
    group of points on ``checkout``."""
    for sub in ("tests", "src"):
        sys.path.insert(0, os.path.join(checkout, sub))
    points = {}
    if group == "laurent":
        for n in SIZES:
            for name, fn in entry_points(*inputs(n)).items():
                points.setdefault(name, {})[str(n)] = timing(fn, repeats)
    elif group == "tensor":
        for n in TENSOR_SIZES:
            for name, fn in tensor_points(n).items():
                points.setdefault(name, {})[str(n * n)] = timing(fn, repeats)
    elif group == "roundtrip":
        for n in ROUNDTRIP_SIZES:
            for name, fn in roundtrip_points(n).items():
                points.setdefault(name, {})[str(n)] = timing(fn, repeats)
    else:
        for n in NUMKIT_SIZES:
            for name, fn in numkit_points(n).items():
                points.setdefault(name, {})[str(n)] = timing(fn, repeats)
    return points


def measure_in_child(checkout, repeats, group):
    argv = [sys.executable, os.path.abspath(__file__), "--worker", checkout,
            "--group", group, "--repeats", str(repeats)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True,
                          env=dict(os.environ, **BLAS_THREADS))
    return json.loads(done.stdout)


def measure_round(checkout, repeats):
    """Every group's timings on ``checkout``, each group in a fresh process."""
    points = {}
    for group in GROUPS:
        for name, by_n in measure_in_child(checkout, repeats, group).items():
            points.setdefault(name, {}).update(by_n)
    return points


def summary(rounds):
    """``{"<module>.<entry>": {"<n>": [q1, median, q3]}}`` over every timing
    of every round."""
    return {key: {n: quartiles([ms for r in rounds for ms in r[key][n]])
                  for n in rounds[0][key]} for key in rounds[0]}


def paired(parent_rounds, change_rounds):
    """``{"<module>.<entry>": {"<n>": {"ratios", "median_ratio", "won"}}}``:
    per pair of rounds, the parent's median over the change's."""
    out = {}
    for key, by_n in change_rounds[0].items():
        for n in by_n:
            ratios = [round(statistics.median(p[key][n]) / statistics.median(c[key][n]), 4)
                      for p, c in zip(parent_rounds, change_rounds)]
            out.setdefault(key, {})[n] = {"ratios": ratios,
                                          "median_ratio": statistics.median(ratios),
                                          "won": sum(r > 1.0 for r in ratios)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="local")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--rounds", type=int, default=3,
                        help="alternating rounds per side with --compare")
    parser.add_argument("--compare", metavar="PARENT_DIR")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--group", choices=GROUPS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(measure(args.worker, args.repeats, args.group), sys.stdout)
        return
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    from normalize_stages import machine

    report = {"method": {"sizes": list(SIZES), "order": ORDER, "seed": SEED,
                         "tensor_dims": [n * n for n in TENSOR_SIZES],
                         "hom_square_dims": list(HOM_SQUARE_DIMS),
                         "roundtrip_sizes": list(ROUNDTRIP_SIZES),
                         "numkit_sizes": list(NUMKIT_SIZES),
                         "defective_patterns": {str(n): p
                                                for n, p in DEFECTIVE_PATTERNS.items()},
                         "groups": list(GROUPS), "process": "fresh per group and side",
                         "repeats": args.repeats, "unit": "ms per call",
                         "statistic": "[q1, median, q3] of the timings"},
              "machine": machine()}
    if not args.compare:
        report["change"] = summary([measure_round(ROOT, args.repeats)])
    else:
        parent_dir = os.path.abspath(args.compare)
        sides = {"parent": (parent_dir, []), "change": (ROOT, [])}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            points = {side: {} for side in order}
            for group in GROUPS:
                for side in order:
                    timings = measure_in_child(sides[side][0], args.repeats, group)
                    for name, by_n in timings.items():
                        points[side].setdefault(name, {}).update(by_n)
            for side in order:
                sides[side][1].append(points[side])
        report["method"]["rounds"] = args.rounds
        for side, (_, rounds) in sides.items():
            report[side] = summary(rounds)
        report["paired"] = paired(sides["parent"][1], sides["change"][1])
        print("%-30s %5s %10s %10s %13s %5s" % ("entry point", "n|dim", "parent ms",
                                                "change ms", "median ratio", "won"))
        for key, by_n in report["change"].items():
            for n, ms in by_n.items():
                pair = report["paired"][key][n]
                print("%-30s %5s %10.4f %10.4f  x%11.3f %2d/%d"
                      % (key, n, report["parent"][key][n][1], ms[1], pair["median_ratio"],
                         pair["won"], args.rounds))
    path = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
