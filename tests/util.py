"""Shared generators for the test suite: seeded commuting pairs, seeded
normal forms, defective normal forms, gauge scrambles used by the recovery
tests, and resonant objects, whose normalization must shear.

The benchmark draws its inputs from these generators too.  They fold with
``reference_fold``, take the shears' spectral data from
``reference_spectral``, shear and gauge with the frozen generator
kernels ``frozen_shear`` and ``frozen_transport``, and measure strip
margins with ``frozen_boundary_distance``, all of
``tests/generator_kernels.py``, rather than with the library, so a change
to the library's fold, spectral code, gauge calculus or strip arithmetic
does not change the inputs it is measured on.  That module holds nothing
else, so a benchmark process does not compile the oracles of
``tests/reference.py``.  Of ``eqconn.laurent`` they use ``PolyMat``'s
public constructor alone.
"""

import math

import numpy as np
import scipy.linalg

from eqconn.category import EquivariantConnection, NormalForm, validate
from eqconn.laurent import PolyMat
from eqconn.numkit import Transversal, mat_exp
from generator_kernels import (frozen_boundary_distance, frozen_shear, frozen_transport,
                               reference_fold, reference_spectral)

TAU = 1.0 - 1.0j
THETA = (math.sqrt(5.0) - 1.0) / 2.0
Q = complex(math.cos(2.0 * math.pi * THETA), math.sin(2.0 * math.pi * THETA))
STRIP = Transversal(TAU, 0.0)


def _rand_poly_of(rng, c, degree=3, scale=0.6):
    """A random polynomial in the matrix c (so results commute with c)."""
    n = c.shape[0]
    out = (rng.normal() + 1j * rng.normal()) * np.eye(n, dtype=complex)
    power = np.eye(n, dtype=complex)
    for _ in range(degree):
        power = power @ c
        out = out + (rng.normal() + 1j * rng.normal()) * scale * power
    return out


def random_commuting_pair(rng, n):
    """Two commuting invertible matrices built as polynomials in a common
    random matrix."""
    while True:
        c = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(n)
        m1 = _rand_poly_of(rng, c)
        m2 = _rand_poly_of(rng, c)
        if abs(np.linalg.det(m1)) > 1e-3 and abs(np.linalg.det(m2)) > 1e-3:
            return m1, m2


def random_normal_form(rng, n, transversal=STRIP, theta=THETA, margin=1e-3):
    """A seeded normal form with eigenvalues comfortably inside the strip."""
    while True:
        c = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(n)
        raw = _rand_poly_of(rng, c)
        a0, _ = reference_fold(raw, transversal)
        if min(frozen_boundary_distance(transversal, lam)
               for lam in np.linalg.eigvals(a0)) < margin:
            continue
        b0 = mat_exp(_rand_poly_of(rng, c, scale=0.3))
        if abs(np.linalg.det(b0)) < 1e-6:
            continue
        return NormalForm(a0, b0, transversal, theta, transversal.tau)


# Jordan block sizes at one eigenvalue: single blocks of size 2-4, and
# nested ones, several blocks sharing the eigenvalue and its dilation label
JORDAN_PATTERNS = ((2,), (3,), (4,), (2, 1), (3, 1), (2, 2), (3, 2), (4, 2))


def jordan_normal_form(groups, transversal=STRIP, theta=THETA):
    """The normal form with, per group ``(lam, sizes, coeffs)``, Jordan
    blocks of the given sizes at ``lam`` and the dilation ``p(N)`` on them,
    ``N`` their nilpotent part and ``p`` the polynomial with coefficients
    ``coeffs`` (constant term first), so that B0 commutes with A0."""
    blocks_a, blocks_b = [], []
    for lam, sizes, coeffs in groups:
        m = sum(sizes)
        nil = np.zeros((m, m), dtype=complex)
        start = 0
        for size in sizes:
            nil[start:start + size - 1, start + 1:start + size] += np.eye(size - 1)
            start += size
        power = np.eye(m, dtype=complex)
        b = np.zeros((m, m), dtype=complex)
        for c in coeffs:
            b += c * power
            power = power @ nil
        blocks_a.append(lam * np.eye(m) + nil)
        blocks_b.append(b)
    return NormalForm(scipy.linalg.block_diag(*blocks_a), scipy.linalg.block_diag(*blocks_b),
                      transversal, theta, transversal.tau)


def conjugate(nf, s):
    """The normal form ``(s A0 s^-1, s B0 s^-1)``, isomorphic to ``nf``."""
    s_inv = np.linalg.inv(s)
    return NormalForm(s @ nf.A0 @ s_inv, s @ nf.B0 @ s_inv, nf.transversal,
                      nf.theta, nf.tau)


def well_conditioned(rng, n, spread=0.3):
    """A random invertible ``I + spread * G / sqrt(n)``, G complex Gaussian."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.eye(n) + spread * g / math.sqrt(n)


def random_defective_normal_form(rng, groups=2, transversal=STRIP, theta=THETA,
                                 patterns=None):
    """A seeded normal form made of Jordan blocks at ``groups`` eigenvalues
    inside the strip, conjugated by a well conditioned random similarity, so
    rounding splits each defective eigenvalue into a small cluster.  The
    block sizes at each eigenvalue are drawn from ``JORDAN_PATTERNS``, or
    taken from ``patterns``, one tuple of sizes per group."""
    spec = []
    for g in range(groups if patterns is None else len(patterns)):
        lam = transversal.tau * complex(rng.uniform(0.15, 0.85), rng.uniform(-0.5, 0.5))
        sizes = (JORDAN_PATTERNS[int(rng.integers(len(JORDAN_PATTERNS)))]
                 if patterns is None else patterns[g])
        coeffs = [np.exp(0.3 * complex(rng.normal(), rng.normal()))]
        coeffs += list(rng.normal(size=3) + 1j * rng.normal(size=3))
        spec.append((lam, sizes, coeffs))
    nf = jordan_normal_form(spec, transversal, theta)
    return conjugate(nf, well_conditioned(rng, nf.n))


def straddling_jordan_form(rng):
    """A 2x2 Jordan block at ``0.6 tau + 0.2i``, conjugated by a well
    conditioned similarity: its tensor square has a rounded Jordan cluster
    at twice that, on the strip's right edge (``Re(2 lam / tau) = 1``)."""
    nf = jordan_normal_form([(0.6 * STRIP.tau + 0.2j, (2,), [1.5, 0.3])])
    return conjugate(nf, well_conditioned(rng, 2))


def strip_edge_jordan_object(rng):
    """A 3x3 Jordan block at ``tau (1 + 0.2i)``, on the strip's right edge,
    beside a simple eigenvalue at ``0.4 tau``, conjugated by a well
    conditioned similarity and hidden behind a series gauge with no shear:
    rounding splits the block into clusters on both sides of the edge."""
    nf = jordan_normal_form([(STRIP.tau * (1 + 0.2j), (3,), [1.5, 0.3]),
                             (0.4 * STRIP.tau, (1,), [2.0])])
    return scramble(conjugate(nf, well_conditioned(rng, 4)), rng, shears=0)


def scramble(nf, rng, shears=2, degree=3, order=48):
    """Hide a normal form behind random shears and a random series gauge.

    Coefficients through ``order`` are exact, so normalization at a smaller
    truncation recovers an object exactly isomorphic to the seed.
    """
    q = complex(math.cos(2.0 * math.pi * nf.theta), math.sin(2.0 * math.pi * nf.theta))
    a = PolyMat.constant(nf.A0, nf.tau, q)
    b = PolyMat.constant(nf.B0, nf.tau, q)
    for _ in range(shears):
        sd = reference_spectral(a.term(0))
        shifts = [int(rng.integers(-1, 2)) for _ in sd.clusters]
        if all(s == 0 for s in shifts):
            shifts[int(rng.integers(0, len(shifts)))] = 1
        a, b = frozen_shear(a, b, sd, shifts)
    n = nf.n
    terms = {0: np.eye(n, dtype=complex)}
    for k in range(1, degree + 1):
        terms[k] = 0.35 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    p = PolyMat(n, terms, nf.tau, q)
    a = frozen_transport(a, p, order, True)
    b = frozen_transport(b, p, order, False)
    return EquivariantConnection(a, b, nf.theta, nf.tau, nf.transversal)


def resonant_object(rng, gap=0.0, extra=2, degree=3, order=48):
    """A seeded object whose constant term has two eigenvalues ``tau + gap``
    apart, and the normal form it is isomorphic to.

    The pair starts inside the strip at ``lam`` and ``lam + gap``: with
    ``gap = 0`` a 2x2 Jordan block, otherwise two uncoupled eigenvalues,
    beside ``extra`` dimensions of ``random_normal_form``.  The gauge
    ``diag(1, z, 1, ...)`` moves the second member up by tau, so that A(0)
    holds ``lam`` and ``lam + tau + gap``; for the Jordan block the two are
    exactly tau apart, coupled at power 1 (``[[lam, z], [0, lam + tau]]``).
    A well conditioned constant similarity and a random series gauge, as
    ``scramble`` draws it, hide the rest.  Returns ``(seed, object)``.
    """
    lam = STRIP.tau * complex(rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3))
    b = np.exp(0.3 * complex(rng.normal(), rng.normal()))
    if gap == 0.0:
        pair = jordan_normal_form([(lam, (2,), [b, complex(rng.normal(), rng.normal())])])
        a_pair, b_pair = pair.A0, pair.B0
    else:
        a_pair, b_pair = np.diag([lam, lam + gap]), np.diag([b, 1.5 * b])
    rest = random_normal_form(rng, extra)
    seed = NormalForm(scipy.linalg.block_diag(a_pair, rest.A0),
                      scipy.linalg.block_diag(b_pair, rest.B0), STRIP, THETA, STRIP.tau)
    n = seed.n
    a = PolyMat.constant(seed.A0, seed.tau, Q)
    b = PolyMat.constant(seed.B0, seed.tau, Q)
    exponents = [0, 1] + [0] * extra
    for p in (PolyMat.monomial_diag(exponents, seed.tau, Q),
              PolyMat.constant(well_conditioned(rng, n), seed.tau, Q)):
        a, b = frozen_transport(a, p, None, True), frozen_transport(b, p, None, False)
    terms = {0: np.eye(n, dtype=complex)}
    for k in range(1, degree + 1):
        terms[k] = 0.35 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    p = PolyMat(n, terms, seed.tau, Q)
    a, b = frozen_transport(a, p, order, True), frozen_transport(b, p, order, False)
    return seed, EquivariantConnection(a, b, THETA, seed.tau, STRIP)


def gauged_by_power(obj, k):
    """``obj`` gauged by ``z**k I``: every eigenvalue of A(0) moves by ``k
    tau``, k unit steps off the strip for an object normalized to it."""
    p = PolyMat.monomial_diag([k] * obj.n, obj.tau, obj.A.q)
    return EquivariantConnection(frozen_transport(obj.A, p, None, True),
                                 frozen_transport(obj.B, p, None, False),
                                 obj.theta, obj.tau, obj.transversal)


def plant_non_equivariant_term(obj, rng, power=40, size=1e-4):
    """``obj`` with a random term added to B at ``power``, of norm ``size``
    in the frame balanced by the object's radius ``rho`` (``size /
    rho**power`` at unit radius), so that connection and dilation no longer
    commute there."""
    rho = validate(obj)["radius"]
    g = rng.normal(size=(obj.n, obj.n)) + 1j * rng.normal(size=(obj.n, obj.n))
    terms = dict(obj.B.terms)
    terms[power] = terms.get(power, 0) + (size / rho ** power) * g / np.linalg.norm(g)
    b = PolyMat(obj.n, terms, obj.tau, obj.B.q)
    return EquivariantConnection(obj.A, b, obj.theta, obj.tau, obj.transversal)


def plant_pole(obj, power=-1, size=1e3):
    """``obj`` with ``size`` times the identity added to A at the negative
    ``power``, a pole at unit radius far below the norm of the growing high
    powers of a scrambled input."""
    terms = dict(obj.A.terms)
    terms[power] = terms.get(power, 0) + size * np.eye(obj.n)
    a = PolyMat(obj.n, terms, obj.tau, obj.A.q)
    return EquivariantConnection(a, obj.B, obj.theta, obj.tau, obj.transversal)
