"""The label arrays against the frozen scalar kernels of ``tests/reference.py``.

``decompose``, ``K0Class``, ``Divisor`` and ``numkit._cluster_shifts``
reduce, key and order their labels as arrays; the frozen kernels do it one
value at a time, as the library once did.  Each case must come out the same
to the bit: the same order, entries, points and shifts, and the same
``TransversalBranchWarning``s in the same order with the same text.

The draws aim at the places an array path can slip:
- 9th-decimal near-ties: a part ``(N + 1/2) / 1e9``, nudged by a few ulps,
  beside the parts ``N / 1e9`` and ``(N + 1) / 1e9`` that one rounding or
  the other ties it with, and exact dyadic ties such as ``1 / 1024``;
- labels of size 1e8, whose keys no vectorized rounding can settle;
- points on the strip's and the parallelogram's edges, and on the snap
  boundary within 1e-12 of an integer;
- clusters whose members straddle a strip edge;
- dimensions 1-144, and tau = 0.3 + 2.1j, for which numpy's complex
  division differs from Python's in the last bit, beside 1 - 1j.
"""

import cmath
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqconn.category import K0Class, NormalForm, decompose, k0_class
from eqconn.numkit import (
    DEFAULT_TOL,
    Transversal,
    _cluster_shifts,
    _cluster_triangular,
    _lex_order,
)
from eqconn.torus import Divisor, k0_to_divisor
from reference import (
    frozen_cluster_shifts,
    frozen_lex_key,
    reference_divisor_points,
    reference_k0_entries,
)

TAUS = (1.0 - 1.0j, 0.3 + 2.1j)
THETA = 0.3
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def parts(draw):
    """A list of floats that tie, or nearly tie, once rounded to 9 decimals:
    per centre N, some of ``N / 1e9``, ``(N + 1/2) / 1e9`` nudged by up to 2
    ulps and ``(N + 1) / 1e9``, at scale 1 or 1e8; exact dyadic ties; and
    plain values.  Unnudged, ``rint(x * 1e9)`` and Python's ``round``
    disagree on about half of the near-halves (1.5e-9 rounds to 1e-9, its
    product to 2e-9), nudged by one ulp on about 2%."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(-3 * 10 ** 9, 3 * 10 ** 9))
        scale = draw(st.sampled_from((1.0, 1.0, 1e8)))
        ulps = draw(st.sampled_from((0, 0, 0, 1, -1, 2, -2)))
        for step in draw(st.lists(st.sampled_from((0.0, 0.5, 1.0)), min_size=1, max_size=3)):
            x = scale * (n + step) / 1e9
            out.append(nudged(x, ulps) if step == 0.5 else x)
    out += [k / 1024.0 for k in draw(st.lists(st.integers(-4096, 4096), max_size=2))]
    out += draw(st.lists(st.floats(-3.0, 3.0), max_size=2))
    return out


@st.composite
def key_rows(draw, columns):
    """Rows of complex keys whose parts come from ``parts``, repeated so
    that whole keys tie too, with some rows of size 1e8."""
    pool = draw(parts())
    m = draw(st.integers(1, 24))
    picks = st.sampled_from(pool)
    rows = [[complex(draw(picks), draw(picks)) for _ in range(columns)] for _ in range(m)]
    for row in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        rows[row][0] = complex(1e8 * (1.0 + draw(picks)), draw(picks))
    return rows


def frozen_order(rows):
    return sorted(range(len(rows)),
                  key=lambda i: tuple(k for z in rows[i] for k in frozen_lex_key(z)))


# 1.5e-9 keys as 1e-9 for round and as 2e-9 for rint: the first row sorts
# first, or last
NEAR_HALF_ROWS = [[1.5e-9 - 0.2j], [1e-9 - 0.1j], [2e-9 - 0.3j]]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2).flatmap(key_rows))
@example(NEAR_HALF_ROWS)
def test_lex_order_is_the_frozen_sort(rows):
    keys = np.array(rows, dtype=complex)
    assert _lex_order(keys).tolist() == frozen_order(rows)


def diagonal_form(lams, bs, transversal):
    return NormalForm(np.diag(np.array(lams, dtype=complex)), np.diag(np.array(bs, dtype=complex)),
                      transversal, THETA, transversal.tau)


@st.composite
def diagonal_forms(draw):
    """A diagonal normal form of dim 1-144 whose eigenvalues tie in their
    rounded real parts, kept 0.01 apart in the imaginary ones so that each
    is a cluster of its own, and whose dilation labels tie or reach 1e8."""
    tau = draw(st.sampled_from(TAUS))
    reals, bs = draw(parts()), draw(parts())
    n = draw(st.sampled_from((1, 2, 4, 9, 16, 37, 64, 144)))
    lams = [complex(reals[i % len(reals)], 0.01 * i) for i in range(n)]
    perm = draw(st.permutations(range(n)))
    lams = [lams[i] for i in perm]
    b = [complex(1.0 + abs(bs[i % len(bs)]), bs[(i + 1) % len(bs)]) for i in range(n)]
    return diagonal_form(lams, b, Transversal(tau))


def frozen_labels(nf):
    """``decompose`` as it once was: the labels of the shared Schur form
    in cluster order, sorted with Python's ``round`` keys."""
    t, q, blocks = nf.schur_form()
    b = q.conj().T @ nf.B0 @ q
    labels = [(lam, complex(v)) for s0, s1, lam in blocks
              for v in np.linalg.eigvals(b[s0:s1, s0:s1])]
    return sorted(labels, key=lambda label: (frozen_lex_key(label[0]),
                                             frozen_lex_key(label[1])))


@SETTINGS
@given(diagonal_forms())
@example(diagonal_form([z for z, in NEAR_HALF_ROWS], [1.0, 2.0, 3.0], Transversal(TAUS[0])))
def test_decompose_and_k0_class_order_as_the_frozen_sort(nf):
    want = frozen_labels(nf)
    assert repr(decompose(nf)) == repr(want)
    entries = reference_k0_entries(nf.transversal, [(b, lam, 1) for lam, b in want])
    assert repr(k0_class(nf).entries) == repr(entries)


@st.composite
def strip_labels(draw):
    """``(transversal, entries)``: labels ``(b, z', mult)`` whose z' sit
    inside the strip with near-tie parts, on its edges, within the K0 fold
    of the right edge, on the snap boundary, or shifted by whole periods;
    distinct b keep near ties from merging."""
    tau = draw(st.sampled_from(TAUS))
    transversal = Transversal(tau, draw(st.sampled_from((0.0, 0.0, 0.25))))
    pool = draw(parts())
    edge = DEFAULT_TOL.eps_key / abs(tau)
    entries = []
    for i in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(("tie", "tie", "edge", "big")))
        if kind == "tie":
            zp = complex(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
        else:
            pos = draw(st.sampled_from((0.0, 1.0, 1.0 - 0.5 * edge, 1.0 - 2.0 * edge,
                                        -5e-13, 5e-13, 1.0 - 5e-13, 0.5)))
            along = draw(st.sampled_from((0.0, 0.3, -0.7)))
            zp = (transversal.offset + pos + 1j * along) * tau
            if kind == "big":
                zp += 1e8
        zp += draw(st.integers(-2, 2)) * tau
        b = complex(i + 1.0, draw(st.sampled_from(pool)))
        mult = draw(st.sampled_from((1, 1, 2, -1)))
        entries.append((b, zp, mult))
        if draw(st.integers(0, 9)) == 0:
            entries.append((b, zp, -mult))
    return transversal, entries


@SETTINGS
@given(strip_labels())
@example((Transversal(TAUS[0]), [(b + 1.0, z, 1) for b, (z,) in enumerate(NEAR_HALF_ROWS)]))
def test_k0_class_and_its_divisor_equal_the_frozen_loops(case):
    transversal, entries = case
    want = reference_k0_entries(transversal, entries)
    cls = K0Class(transversal, entries)
    assert repr(cls.entries) == repr(want)
    assert repr(k0_to_divisor(cls).points) == repr(reference_divisor_points(
        transversal.tau, [(-zp, m) for _, zp, m in want]))


@st.composite
def lattice_points(draw):
    """``(tau, points, more)``: points s + t tau with s and t on the
    parallelogram's edges, within its edge fold, on the snap boundary, at
    near-tie decimals or of size 1e8, kept 1e-3 apart in t so that they
    do not merge; ``more`` a second list for a sum."""
    tau = draw(st.sampled_from(TAUS))
    edge = DEFAULT_TOL.eps_key / max(1.0, abs(tau))
    coords = st.sampled_from((0.0, 1.0, -1.0, 1.0 - 0.5 * edge, 1.0 - 2.0 * edge,
                              5e-13, -5e-13, 1.0 - 5e-13, 0.5, 2.0, 1e8, -1e8))

    def points(size):
        pool = draw(parts())
        out = []
        for i in range(size):
            s = draw(st.one_of(coords, st.sampled_from(pool)))
            t = draw(coords) + 1e-3 * i
            p = s + t * tau
            out.append((p, draw(st.sampled_from((1, 1, 3, -1)))))
        return out

    return tau, points(draw(st.integers(1, 40))), points(draw(st.integers(0, 10)))


@SETTINGS
@given(lattice_points())
def test_divisor_points_and_sums_equal_the_frozen_loops(case):
    tau, points, more = case
    d1, d2 = Divisor(tau, points), Divisor(tau, more)
    assert repr(d1.points) == repr(reference_divisor_points(tau, points))
    assert repr((d1 + d2).points) == repr(reference_divisor_points(
        tau, d1.points + d2.points, reduced=True))


@st.composite
def straddling_forms(draw):
    """``(t, blocks, transversal)``: an upper triangular t of dim 1-144
    whose diagonal holds clusters of one to three members at strip
    positions k + delta, delta on either side of an edge within the
    clustering radius, on the snap boundary or well inside."""
    tau = draw(st.sampled_from(TAUS))
    transversal = Transversal(tau, draw(st.sampled_from((0.0, 0.25))))
    # members 2e-9 |tau| apart in position cluster for both taus (eps_spec 1e-8)
    deltas = st.sampled_from((-2e-9, 0.0, 2e-9, -5e-13, 5e-13, 0.3, 0.999999999))
    diag = []
    n = draw(st.sampled_from((1, 2, 3, 5, 8, 16, 40, 144)))
    while len(diag) < n:
        k = draw(st.integers(-2, 2))
        along = 0.05 * len(diag)
        for delta in draw(st.lists(deltas, min_size=1, max_size=3, unique=True)):
            diag.append((transversal.offset + k + delta + 1j * along) * tau)
    diag = np.array(diag[:n], dtype=complex)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t = np.diag(diag) + np.triu(1e-3 * rng.normal(size=(n, n)), 1)
    t, _, blocks = _cluster_triangular(t, np.eye(n, dtype=complex), DEFAULT_TOL)
    return t, blocks, transversal


def recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


@SETTINGS
@given(straddling_forms())
def test_cluster_shifts_and_warnings_equal_the_frozen_loop(case):
    t, blocks, transversal = case
    got = recorded(_cluster_shifts, t, blocks, transversal, lambda values: values)
    assert got == recorded(frozen_cluster_shifts, t, blocks, transversal, lambda z: z)
    assert all(type(shift) is int for shift in got[0])
    # the logarithm's branch: the same strip, reached through 2 pi i / tau
    scale = transversal.tau / (2j * math.pi)
    m = np.triu(t, 1) + np.diag(np.exp(np.diag(t) / scale))
    m, _, blocks = _cluster_triangular(m, np.eye(len(m), dtype=complex), DEFAULT_TOL)
    got = recorded(_cluster_shifts, m, blocks, transversal, lambda values: np.array(
        [scale * cmath.log(z) for z in values.tolist()], dtype=complex))
    assert got == recorded(frozen_cluster_shifts, m, blocks, transversal,
                           lambda z: scale * cmath.log(z))


# --- the group laws ----------------------------------------------------------------

def assert_group_laws(a, b, view, degree):
    """``(a + b) - b == a``; ``-a`` is ``a`` with each multiplicity turned,
    so ``-(-a)`` is ``a`` entry for entry; ``a - a`` is empty; and the
    degree is additive."""
    assert (a + b) - b == a
    assert repr(view(-a)) == repr(tuple(e[:-1] + (-e[-1],) for e in view(a)))
    assert repr(view(-(-a))) == repr(view(a))
    assert view(a - a) == ()
    assert degree(a + b) == degree(a) + degree(b)
    assert degree(a - b) == degree(a) - degree(b)


# The keys of this class lie within one another's radius only one way round,
# the radius being relative to the representative's b: merged again in the
# class's own order, as a negation once did, they become one entry.
ONE_WAY = [(1000.0, 0.3 * (1 - 1j) + 5e-8, 1), (1000.0 + 1.000000005e-4, 0.3 * (1 - 1j), 1)]


@SETTINGS
@given(strip_labels(), strip_labels())
@example((Transversal(TAUS[0]), ONE_WAY), (Transversal(TAUS[0]), ONE_WAY[:1]))
def test_k0_classes_form_a_group_and_their_divisors_add(case, other):
    """The group laws of K0 on ``strip_labels``, the second class's labels
    taken over the first's strip, and ``k0_to_divisor`` of a sum or a
    difference is the sum or difference of the divisors."""
    transversal, entries = case
    a, b = K0Class(transversal, entries), K0Class(transversal, other[1])
    assert_group_laws(a, b, lambda x: x.entries, K0Class.total_degree)
    assert k0_to_divisor(a + b) == k0_to_divisor(a) + k0_to_divisor(b)
    assert k0_to_divisor(a - b) == k0_to_divisor(a) - k0_to_divisor(b)


@SETTINGS
@given(lattice_points())
def test_divisors_form_a_group(case):
    tau, points, more = case
    assert_group_laws(Divisor(tau, points), Divisor(tau, more), lambda d: d.points,
                      Divisor.degree)
