"""Shared generators for the test suite: seeded commuting pairs, seeded
normal forms, and gauge scrambles used by the recovery tests.

The benchmark draws its inputs from these generators too.  They fold with
``reference_fold`` and take the shears' spectral data from
``reference_spectral`` rather than from the library, so a change to the
library's fold or spectral code does not change the inputs it is measured on.
"""

import math

import numpy as np

from eqconn.category import EquivariantConnection, NormalForm
from eqconn.laurent import (
    PolyMat,
    apply_shear_dilation,
    dilation_transform,
    gauge_transform,
    shear,
)
from eqconn.numkit import Transversal, mat_exp
from reference import reference_fold, reference_spectral

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
        if min(transversal.boundary_distance(lam)
               for lam in np.linalg.eigvals(a0)) < margin:
            continue
        b0 = mat_exp(_rand_poly_of(rng, c, scale=0.3))
        if abs(np.linalg.det(b0)) < 1e-6:
            continue
        return NormalForm(a0, b0, transversal, theta, transversal.tau)


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
        a, step = shear(a, sd, shifts)
        b = apply_shear_dilation(b, step)
    n = nf.n
    terms = {0: np.eye(n, dtype=complex)}
    for k in range(1, degree + 1):
        terms[k] = 0.35 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    p = PolyMat(n, terms, nf.tau, q)
    a = gauge_transform(a, p, order)
    b = dilation_transform(b, p, order)
    return EquivariantConnection(a, b, nf.theta, nf.tau, nf.transversal)
