"""Tests for matrix Laurent polynomials, gauges, and shearing."""

import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqconn
from eqconn.category import EquivariantConnection, normalize
from eqconn.exceptions import NumericFailure, RegularityViolation, ValidationFailure
from eqconn.laurent import (
    GaugeRecord,
    PolyMat,
    ShearStep,
    _balancing_radius,
    _commutator,
    _gauged_pair,
    _levels,
    _radius_factors,
    _sheared,
    _shift,
    _transforms,
    _transport,
    apply_gauge_record,
    apply_shear,
    apply_shear_dilation,
    dilation_transform,
    gauge_transform,
    shear,
    truncated_inverse,
)
from eqconn.numkit import DEFAULT_TOL, Tolerances, spectral
import reference
import util
from reference import (
    _reference_shift,
    reference_clean_terms,
    reference_conjugate,
    reference_monomial,
    reference_product,
    reference_shear,
    reference_transport,
)

TAU = 1.0 - 1.0j
THETA = (math.sqrt(5.0) - 1.0) / 2.0
Q = complex(math.cos(2.0 * math.pi * THETA), math.sin(2.0 * math.pi * THETA))


def pm(terms, dim=1):
    return PolyMat(dim, terms, TAU, Q)


def rand_pm(rng, dim, powers):
    terms = {k: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
             for k in powers}
    return PolyMat(dim, terms, TAU, Q)


# --- arithmetic ----------------------------------------------------------------

def assert_close_terms(got, want, scale):
    """The same powers, ``got`` in ascending order, and every value within
    1e-13 of ``scale``, the largest coefficient product summed into it."""
    assert list(got) == sorted(want)
    for k in want:
        assert np.abs(got[k] - want[k]).max() <= 1e-13 * scale, k


def assert_close_to_rounding(got, want, scale):
    """``assert_close_terms`` where a power whose value is within 1e-13 of
    ``scale`` on one side may be absent from the other: whether rounding
    noise sums to an exact zero depends on the order of the sums."""
    assert list(got) == sorted(got)
    noise = 1e-13 * scale
    for one, other in ((got, want), (want, got)):
        assert {k for k, c in one.items() if np.abs(c).max() > noise} <= set(other)
    for k in set(got) | set(want):
        gap = got.get(k, 0.0) - want.get(k, 0.0)
        assert np.abs(gap).max() <= noise, k


def transport_scale(a, p, order):
    """``||P^-1|| max(1, ||A||) max(||P||, ||delta P||)``: a bound on the
    coefficient products a transport of ``a`` by ``p`` sums."""
    mono = reference_monomial(p)
    if p.is_constant():
        inv = np.linalg.norm(np.linalg.inv(p.term(0)))
    elif mono is not None:
        inv = np.linalg.norm(1.0 / mono[1])
    else:
        inv = truncated_inverse(p, order).norm()
    return inv * max(1.0, a.norm()) * max(p.norm(), p.delta().norm())


def test_norm_is_the_largest_coefficient_norm():
    rng = np.random.default_rng(61)
    signed = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    signed.real[0] = -0.0
    signed.imag[:, 1] = -0.0
    extremes = np.full((2, 2), 1e-150 + 1e-150j)
    extremes[0, 1] = 1e150 - 3e149j
    cases = [PolyMat(3, {0: signed, 2: -signed}, TAU, Q),
             PolyMat(2, {0: extremes, 1: np.full((2, 2), 1e-150j)}, TAU, Q),
             PolyMat(2, {5: np.full((2, 2), 1e-150 - 0.0j)}, TAU, Q),
             rand_pm(rng, 1, range(-2, 3)),
             rand_pm(rng, 12, range(0, 17)),
             rand_pm(rng, 12, [0, 3]) * rand_pm(rng, 12, [-1, 1, 4])]
    # Fortran-ordered coefficients
    cases += [PolyMat(12, {1: np.asfortranarray(rng.normal(size=(12, 12)) + 1j)}, TAU, Q)
              for _ in range(8)]
    for p in cases:
        want = max(float(np.linalg.norm(c)) for c in p.terms.values())
        assert type(p.norm()) is float and abs(p.norm() - want) <= 1e-15 * want
        for hi in (-1, 0, 2):
            low = max([float(np.linalg.norm(c)) for k, c in p.terms.items() if k <= hi],
                      default=0.0)
            assert abs(p.norm(hi=hi) - low) <= 1e-15 * low
    assert PolyMat(3, {}, TAU, Q).norm() == 0.0


def test_add_zero_and_monomial_cancellation():
    rng = np.random.default_rng(0)
    f = rand_pm(rng, 2, [-1, 0, 2])
    zero = PolyMat.zero(2, TAU, Q)
    assert (f + zero).distance(f) == 0.0
    z = PolyMat.monomial_diag([1, 1], TAU, Q)
    zinv = PolyMat.monomial_diag([-1, -1], TAU, Q)
    assert (z * zinv).distance(PolyMat.identity(2, TAU, Q)) == 0.0


def test_mul_distributes_over_constant():
    a0 = np.array([[1.0, 2.0], [0.0, 1.0]])
    a1 = np.array([[0.0, 1.0], [3.0, 0.0]])
    b0 = np.array([[2.0, 0.0], [1.0, 1.0]])
    f = pm({0: a0, 1: a1}, dim=2)
    g = PolyMat.constant(b0, TAU, Q)
    prod = f * g
    assert np.allclose(prod.term(0), a0 @ b0)
    assert np.allclose(prod.term(1), a1 @ b0)
    assert prod.powers() == [0, 1]


def test_parameter_mismatch_rejected():
    f = pm({0: np.eye(1)})
    g = PolyMat(1, {0: np.eye(1)}, TAU, complex(math.cos(1.0), math.sin(1.0)))
    with pytest.raises(ValidationFailure):
        f + g
    with pytest.raises(ValidationFailure):
        f * PolyMat(2, {0: np.eye(2)}, TAU, Q)


def test_canonical_form_drops_zero_coefficients():
    f = pm({0: np.eye(1), 3: np.zeros((1, 1))})
    assert f.powers() == [0]


def test_terms_are_a_read_only_view():
    p = rand_pm(np.random.default_rng(62), 2, [3, -1, 0])
    assert list(p.terms) == [-1, 0, 3]
    with pytest.raises(TypeError):
        p.terms[0] = np.eye(2)
    with pytest.raises(ValueError):
        p.terms[0][0, 0] = 7.0
    assert p.powers() == [-1, 0, 3]


def test_the_constructor_copies_its_input():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    p = PolyMat(2, {0: arr}, TAU, Q)
    c = PolyMat.constant(arr, TAU, Q)
    arr[0, 0] = 7.0
    assert p.term(0)[0, 0] == 1.0 and c.term(0)[0, 0] == 1.0


@pytest.mark.parametrize("power,value", [(1, np.nan), (0, np.inf), (2, complex(0.0, -np.inf))])
def test_non_finite_coefficients_are_refused(power, value):
    """A NaN at power 1 of A used to pass ``validate`` with a NaN residual
    and give a normal form with NaN residuals; an inf in A(0) made
    ``normalize`` raise a bare ``IndexError``."""
    terms = {0: np.diag([0.3 * TAU, 0.6 * TAU]), 1: np.array([[0.0, 1.0], [1.0, 0.0]])}
    terms[power] = terms.get(power, np.zeros((2, 2), dtype=complex)).astype(complex)
    terms[power][0, 1] = value
    with pytest.raises(ValidationFailure, match="power %d has non-finite" % power):
        PolyMat(2, terms, TAU, Q)
    if power == 0:
        with pytest.raises(ValidationFailure, match="non-finite"):
            EquivariantConnection.from_constant(terms[0], np.eye(2), THETA, TAU)
    # the finite object normalizes
    terms[power][0, 1] = 0.0
    obj = EquivariantConnection(PolyMat(2, terms, TAU, Q), PolyMat.identity(2, TAU, Q),
                                THETA, TAU)
    assert normalize(obj).diagnostics["gauge_residual"] < 1e-12


def test_only_laurent_reads_the_slab():
    """The storage of a ``PolyMat`` stays behind ``eqconn.laurent``."""
    private = ("_coeffs", "_powers", "_derive(", "_dense(")
    src = Path(eqconn.__file__).parent
    readers = {path.name for path in src.glob("*.py")
               if any(name in path.read_text() for name in private)}
    assert readers == {"laurent.py"}


# --- derivation and dilation -----------------------------------------------------

def test_delta_basic():
    assert pm({0: np.eye(1)}).delta().is_zero()
    f = PolyMat(2, {1: np.eye(2)}, TAU, Q).delta()
    assert np.allclose(f.term(1), TAU * np.eye(2))
    g = PolyMat(1, {-2: np.eye(1)}, TAU, Q).delta()
    assert np.allclose(g.term(-2), -2.0 * TAU * np.eye(1))


def test_q_dilate_basic():
    c = pm({0: 2.0 * np.eye(1)})
    assert c.dilate().distance(c) == 0.0
    up = PolyMat(1, {1: np.eye(1)}, TAU, Q).dilate()
    assert np.allclose(up.term(1), Q * np.eye(1))
    down = PolyMat(1, {-1: np.eye(1)}, TAU, Q).dilate()
    assert np.allclose(down.term(-1), np.eye(1) / Q)


def test_delta_is_a_derivation():
    rng = np.random.default_rng(1)
    f = rand_pm(rng, 3, [-2, 0, 1])
    g = rand_pm(rng, 3, [-1, 2])
    lhs = (f * g).delta()
    rhs = f.delta() * g + f * g.delta()
    assert lhs.distance(rhs) < 1e-12 * (f.norm() * g.norm())


def test_dilation_is_an_automorphism_commuting_with_delta():
    rng = np.random.default_rng(2)
    f = rand_pm(rng, 2, [-1, 0, 3])
    g = rand_pm(rng, 2, [0, 1])
    assert (f * g).dilate().distance(f.dilate() * g.dilate()) < 1e-12
    assert f.delta().dilate().distance(f.dilate().delta()) < 1e-14


# --- truncated inverse -------------------------------------------------------------

def test_inverse_of_identity():
    i2 = PolyMat.identity(2, TAU, Q)
    assert truncated_inverse(i2, 5).distance(i2) == 0.0


def test_inverse_of_unipotent_series_terminates():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = PolyMat(2, {0: np.eye(2), 1: n}, TAU, Q)
    g = truncated_inverse(f, 2)
    # geometric series: I - Nz + (Nz)^2, and N^2 = 0
    assert np.allclose(g.term(0), np.eye(2))
    assert np.allclose(g.term(1), -n)
    assert g.term(2).any() == False  # noqa: E712


def test_inverse_scalar_series_division():
    f = pm({0: 2.0 * np.eye(1), 1: np.eye(1)})
    g = truncated_inverse(f, 1)
    assert abs(g.term(0)[0, 0] - 0.5) < 1e-15
    assert abs(g.term(1)[0, 0] + 0.25) < 1e-15


def test_inverse_matches_geometric_oracle():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3)) * 0.3
    f = PolyMat(3, {0: np.eye(3), 1: m}, TAU, Q)
    order = 6
    # oracle: sum of (-m z)^k
    acc = PolyMat.identity(3, TAU, Q)
    minus = PolyMat(3, {1: -m}, TAU, Q)
    power = PolyMat.identity(3, TAU, Q)
    for _ in range(order):
        power = power * minus
        acc = acc + power
    g = truncated_inverse(f, order)
    assert g.distance(acc.truncate(order)) < 1e-12
    assert (f * g).truncate(order).distance(PolyMat.identity(3, TAU, Q)) < 1e-12


def test_inverse_rejects_bad_lowest_term():
    with pytest.raises(ValidationFailure):
        truncated_inverse(PolyMat(1, {-1: np.eye(1)}, TAU, Q), 3)
    with pytest.raises(ValidationFailure):
        truncated_inverse(PolyMat(1, {0: np.zeros((1, 1))}, TAU, Q), 3)


def test_inverse_and_series_transports_refuse_a_negative_order():
    f = PolyMat(2, {0: np.eye(2), 1: np.ones((2, 2))}, TAU, Q)
    a = PolyMat(2, {0: np.diag([0.1, 0.2]), 2: np.eye(2)}, TAU, Q)
    for order in (-1, -2):
        for run in (lambda: truncated_inverse(f, order), lambda: gauge_transform(a, f, order),
                    lambda: dilation_transform(a, f, order)):
            with pytest.raises(ValidationFailure, match="order of at least 0"):
                run()
    assert np.allclose(truncated_inverse(f, 0).terms[0], np.eye(2))


# --- gauge transformations -----------------------------------------------------------

def test_gauge_by_identity():
    rng = np.random.default_rng(4)
    a = rand_pm(rng, 2, [0, 1, 2])
    out = gauge_transform(a, PolyMat.identity(2, TAU, Q))
    assert out.distance(a) < 1e-15


def test_gauge_monomial_shifts_scalar_connection():
    # 1x1: conjugating delta + z' by z**n adds n*tau
    zprime = 0.37 + 0.21j
    a = pm({0: np.array([[zprime]])})
    for n in (-2, 1, 3):
        p = PolyMat.monomial_diag([n], TAU, Q)
        out = gauge_transform(a, p)
        assert out.powers() == [0]
        assert abs(out.term(0)[0, 0] - (zprime + n * TAU)) < 1e-14


def test_gauge_two_by_two_shear_shape():
    lam1, lam2 = 1.0 + 0.5j, 0.4 - 0.2j
    a1, b1, c1, c2, d1 = 0.3, -0.7, 1.1, 0.9, 0.2
    a = PolyMat(2, {
        0: np.array([[lam1, 0.0], [0.0, lam2]]),
        1: np.array([[a1, b1], [c1, d1]]),
        2: np.array([[0.0, 0.0], [c2, 0.0]]),
    }, TAU, Q)
    out = gauge_transform(a, PolyMat.monomial_diag([0, 1], TAU, Q))
    assert np.allclose(out.term(0), [[lam1, 0.0], [c1, lam2 + TAU]])
    assert np.allclose(out.term(1), [[a1, 0.0], [c2, d1]])
    assert np.allclose(out.term(2), [[0.0, b1], [0.0, 0.0]])


def test_gauge_by_constant_is_conjugation():
    rng = np.random.default_rng(5)
    a = rand_pm(rng, 3, [0, 1])
    c = rng.normal(size=(3, 3)) + np.eye(3) * 4.0
    out = gauge_transform(a, PolyMat.constant(c, TAU, Q))
    cinv = np.linalg.inv(c)
    for k in a.powers():
        assert np.allclose(out.term(k), cinv @ a.term(k) @ c)


def test_gauge_composition_within_truncation():
    rng = np.random.default_rng(6)
    a = rand_pm(rng, 2, [0, 1, 2])
    p = PolyMat(2, {0: np.eye(2), 1: rng.normal(size=(2, 2)) * 0.4}, TAU, Q)
    q = PolyMat(2, {0: np.eye(2), 2: rng.normal(size=(2, 2)) * 0.3}, TAU, Q)
    order = 7
    step = gauge_transform(gauge_transform(a, p, order), q, order)
    joint = gauge_transform(a, (p * q).truncate(order), order)
    assert step.truncate(order - 2).distance(joint.truncate(order - 2)) < 1e-10


def test_series_gauge_requires_order():
    rng = np.random.default_rng(7)
    a = rand_pm(rng, 2, [0])
    p = PolyMat(2, {0: np.eye(2), 1: np.eye(2)}, TAU, Q)
    with pytest.raises(ValidationFailure):
        gauge_transform(a, p)
    out = gauge_transform(a, p, 4)
    assert "truncation_residual" in out.diagnostics


def test_dilation_transform_monomial_conjugation():
    # diagonal entries survive untouched; off-diagonal entries shift power
    b = PolyMat.constant(np.array([[2.0, 1.0], [0.5, 3.0]]), TAU, Q)
    out = dilation_transform(b, PolyMat.monomial_diag([0, 1], TAU, Q))
    assert np.allclose(out.term(0), [[2.0, 0.0], [0.0, 3.0]])
    assert np.allclose(out.term(1), [[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(out.term(-1), [[0.0, 0.0], [0.5, 0.0]])
    # series path agrees with direct conjugation order by order
    rng = np.random.default_rng(11)
    p = PolyMat(2, {0: np.eye(2), 1: rng.normal(size=(2, 2)) * 0.3}, TAU, Q)
    conj = dilation_transform(b, p, 6)
    recon = (p * conj).truncate(6)
    direct = (b * p).truncate(6)
    assert recon.distance(direct) < 1e-10


# --- reference: the per-entry transports ----------------------------------------------
# The two transports as first written, one loop iteration per matrix entry; the
# conjugation and array shift must give the same powers, in ascending order, and
# values within rounding of theirs.

def ref_shift_entries(a, exps, left_vals, right_vals):
    terms = {}
    for k, coeff in a.terms.items():
        for i in range(a.dim):
            for j in range(a.dim):
                v = coeff[i, j]
                if v == 0.0:
                    continue
                kk = k + exps[j] - exps[i]
                dest = terms.setdefault(kk, np.zeros((a.dim, a.dim), dtype=complex))
                dest[i, j] += v * right_vals[j] / left_vals[i]
    return PolyMat(a.dim, terms, a.tau, a.q)


def ref_gauge_transform(a, p, order=None):
    if p.is_constant():
        c = p.term(0)
        c_inv = np.linalg.inv(c)
        return PolyMat(a.dim, {k: c_inv @ coeff @ c for k, coeff in a.terms.items()},
                       a.tau, a.q)
    mono = reference_monomial(p)
    if mono is not None:
        exps, vals = mono
        out = ref_shift_entries(a, exps, vals, vals)
        drift = np.diag([a.tau * e for e in exps]).astype(complex)
        return out + PolyMat.constant(drift, a.tau, a.q)
    p_inv = truncated_inverse(p, order)
    full = p_inv * (a * p) + p_inv * p.delta()
    result = full.truncate(order)
    tail = full.terms.get(order + 1)
    result.diagnostics["truncation_residual"] = (
        float(np.linalg.norm(tail)) if tail is not None else 0.0)
    return result


def ref_dilation_transform(b, p, order=None):
    if p.is_constant():
        c = p.term(0)
        c_inv = np.linalg.inv(c)
        return PolyMat(b.dim, {k: c_inv @ coeff @ c for k, coeff in b.terms.items()},
                       b.tau, b.q)
    mono = reference_monomial(p)
    if mono is not None:
        exps, vals = mono
        return ref_shift_entries(b, exps, vals, vals)
    p_inv = truncated_inverse(p, order)
    full = p_inv * (b * p)
    result = full.truncate(order)
    tail = full.terms.get(order + 1)
    result.diagnostics["truncation_residual"] = (
        float(np.linalg.norm(tail)) if tail is not None else 0.0)
    return result


def sparse_pm(rng, dim, powers):
    """Random coefficients at ``powers`` (given in any order) with about a
    third of the entries exactly zero, some of them -0.0, and some nonzero
    entries with a -0.0 part."""
    terms = {}
    for k in powers:
        c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        c[rng.random(size=(dim, dim)) < 0.3] = 0.0
        c[rng.random(size=(dim, dim)) < 0.1] = complex(-0.0, -0.0)
        c[rng.random(size=(dim, dim)) < 0.1] = complex(-0.0, 0.5)
        terms[k] = c
    return PolyMat(dim, terms, TAU, Q)


def seeded_gauges(rng, dim):
    """A constant, a unit and a non-unit diagonal monomial, and a series gauge."""
    exps = [int(e) for e in rng.integers(-2, 3, size=dim)]
    if all(e == exps[0] for e in exps):
        exps[0] += 1
    vals = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    scaled = {}
    for i, (e, v) in enumerate(zip(exps, vals)):
        scaled.setdefault(e, np.zeros((dim, dim), dtype=complex))[i, i] = v
    return {
        "constant": PolyMat.constant(rng.normal(size=(dim, dim)) + 3.0 * np.eye(dim),
                                     TAU, Q),
        "monomial": PolyMat.monomial_diag(exps, TAU, Q),
        "scaled monomial": PolyMat(dim, scaled, TAU, Q),
        "series": PolyMat(dim, {0: np.eye(dim), 1: 0.3 * rng.normal(size=(dim, dim)),
                                2: 0.2 * rng.normal(size=(dim, dim))}, TAU, Q),
    }


def same_bits(x, y):
    return (list(x.terms) == list(y.terms)
            and all(x.terms[k].tobytes() == y.terms[k].tobytes() for k in x.terms)
            and x.diagnostics == y.diagnostics)


@pytest.mark.parametrize("seed", range(6))
def test_transports_match_per_entry_reference(seed):
    rng = np.random.default_rng(100 + seed)
    dim = (1, 2, 3, 4, 5, 6)[seed]
    a = sparse_pm(rng, dim, [1, -2, 3, 0, -1][:2 + seed % 4])
    for kind, p in seeded_gauges(rng, dim).items():
        for x in (a, PolyMat.zero(dim, TAU, Q)):
            for new, ref in ((gauge_transform, ref_gauge_transform),
                             (dilation_transform, ref_dilation_transform)):
                got, want = new(x, p, 6), ref(x, p, 6)
                scale = transport_scale(x, p, 6)
                assert_close_to_rounding(dict(got.terms), dict(want.terms), scale)
                assert got.diagnostics.keys() == want.diagnostics.keys(), kind
                for key, value in want.diagnostics.items():
                    assert abs(got.diagnostics[key] - value) <= 1e-13 * scale, kind


def test_series_transport_forms_only_its_window():
    """Powers above order + 1 and below zero in A, a gauge longer and shorter
    than the window: the windowed products hold the powers the full
    pairwise products keep, and their values and the truncation residual
    within rounding.  In dimension 1 the dilation transport is B itself, and
    its other powers are rounding noise that either side may sum to zero."""
    rng = np.random.default_rng(110)
    for dim in (1, 3, 5):
        a = sparse_pm(rng, dim, [3, 0, -2, 25, 1, 9, -1, 17])
        gauges = [seeded_gauges(rng, dim)["series"],
                  PolyMat(dim, {0: np.eye(dim), 4: rng.normal(size=(dim, dim)),
                                1: 0.1 * rng.normal(size=(dim, dim))}, TAU, Q)]
        for p in gauges:
            for order in (1, 2, 6, 16, 40):
                scale = transport_scale(a, p, order)
                for drift in (True, False):
                    got = (gauge_transform if drift else dilation_transform)(a, p, order)
                    want = reference_transport(a, p, order, drift)
                    assert_close_to_rounding(got.terms, want.terms, scale)
                    assert abs(got.diagnostics["truncation_residual"]
                               - want.diagnostics["truncation_residual"]) <= 1e-13 * scale


def test_series_transport_keeps_the_drift_below_the_lowest_power_of_a():
    """With A(0) = 0 the drift ``P^-1 delta(P)`` reaches power 1, below A's
    lowest power, which the window used to start from.  Power 0, where
    nothing lands, may hold the circle's rounding noise."""
    rng = np.random.default_rng(111)
    a = rand_pm(rng, 2, [2, 3])
    p = PolyMat(2, {0: np.eye(2), 1: 0.3 * rng.normal(size=(2, 2))}, TAU, Q)
    got, want = gauge_transform(a, p, 4), reference_transport(a, p, 4, True)
    assert want.powers()[0] == 1 and 1 in got.terms
    assert_close_to_rounding(dict(got.terms), dict(want.terms), transport_scale(a, p, 4))


def balanced_gauge(rng, dim, order):
    """A series gauge ``I + P_1 z + ... + P_order z**order``, ``||P_k|| =
    0.3 / k**2``: it and its truncated inverse are balanced, no coefficient
    above ``||I||``."""
    terms = {0: np.eye(dim)}
    for k in range(1, order + 1):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        terms[k] = 0.3 * g / (np.linalg.norm(g) * k ** 2)
    return PolyMat(dim, terms, TAU, Q)


def no_block_transport(*args):
    raise AssertionError("the block-Toeplitz transport ran")


@pytest.mark.parametrize("dim", [1, 3, 5, 12])
def test_transport_pair_on_the_circle_matches_the_pairwise_reference(dim, monkeypatch):
    """A from power 0 or from power 2 (the drift then reaches below it) and
    B from z**-4, both past the window, through balanced gauges as long as
    the window and longer: ``_transport`` of the pair evaluates on the
    circle, and
    each result holds the pairwise reference products at every power of its
    window, within 1e-13 of the largest coefficient product (normwise: a
    power the reference lacks is rounding noise), with the truncation
    residual likewise."""
    rng = np.random.default_rng(330 + dim)
    monkeypatch.setattr(eqconn.laurent, "_block_transport", no_block_transport)
    b = rand_pm(rng, dim, range(-4, 25))
    for a in (rand_pm(rng, dim, range(0, 30)), rand_pm(rng, dim, range(2, 20))):
        for order, length in ((2, 2), (6, 6), (16, 16), (6, 11)):
            p = balanced_gauge(rng, dim, length)
            for got, x, drift in zip(_transport(p, [(a, True), (b, False)], order), (a, b),
                                     (True, False)):
                want = reference_transport(x, p, order, drift)
                scale = transport_scale(x, p, order)
                assert_close_to_rounding(dict(got.terms), dict(want.terms), scale)
                assert got.min_power == min(want.min_power, 0)
                assert abs(got.diagnostics["truncation_residual"]
                           - want.diagnostics["truncation_residual"]) <= 1e-13 * scale


def test_transport_pair_of_an_unbalanced_gauge_is_the_block_products():
    """A gauge whose first coefficient has norm 1e4, and a gauge of gapped
    powers: ``_transport`` of the pair takes the block products, and gives
    what ``gauge_transform`` and ``dilation_transform`` give, to the bit."""
    rng = np.random.default_rng(337)
    a, b = rand_pm(rng, 2, range(0, 20)), rand_pm(rng, 2, range(-2, 20))
    steep = PolyMat(2, {0: np.eye(2), 1: 1e4 * np.array([[0.0, 1.0], [0.0, 0.0]])}, TAU, Q)
    gapped = PolyMat(2, {0: np.eye(2), 10 ** 9: 0.1 * np.eye(2)}, TAU, Q)
    for p, order in ((steep, 16), (gapped, 4)):
        got = _transport(p, [(a, True), (b, False)], order)
        assert same_bits(got[0], gauge_transform(a, p, order))
        assert same_bits(got[1], dilation_transform(b, p, order))


@pytest.mark.parametrize("dim", [2, 12])
def test_public_transports_are_the_one_transport(dim, monkeypatch):
    """``gauge_transform`` and ``dilation_transform`` are ``_transport`` of
    one operand, to the bit, on both sides of its one decision: through a
    balanced gauge on the circle (the block products patched to raise),
    within rounding of the pairwise reference; through a steep gauge by the
    windowed block-Toeplitz products, to the bit."""
    rng = np.random.default_rng(340 + dim)
    a, b = rand_pm(rng, dim, range(0, 30)), rand_pm(rng, dim, range(-4, 25))
    order, hi = 16, 17
    balanced = balanced_gauge(rng, dim, order)
    steep = PolyMat(dim, {0: np.eye(dim), 1: 1e4 * np.eye(dim, k=1)}, TAU, Q)
    p_inv = truncated_inverse(steep, order)
    for x, transport, drift in ((a, gauge_transform, True), (b, dilation_transform, False)):
        with monkeypatch.context() as patched:
            patched.setattr(eqconn.laurent, "_block_transport", no_block_transport)
            got = transport(x, balanced, order)
            assert same_bits(got, _transport(balanced, [(x, drift)], order)[0])
            assert_close_to_rounding(dict(got.terms),
                                     dict(reference_transport(x, balanced, order, drift).terms),
                                     transport_scale(x, balanced, order))
        lo = min(x.min_power, 0)
        full = p_inv._product(x.truncate(hi)._product(steep, lo, hi), lo, hi)
        if drift:
            full = full + p_inv._product(steep.delta(), lo, hi)
        got = transport(x, steep, order)
        assert same_bits(got, _transport(steep, [(x, drift)], order)[0])
        assert_same_terms(got.terms, full.truncate(order).terms)
        assert got.diagnostics == {
            "truncation_residual": float(np.linalg.norm(full.term(order + 1)))}


def test_transports_refuse_a_result_that_overflows():
    """A series gauge whose inverse overflows, and a well conditioned
    constant gauge whose conjugation overflows: each transport raises
    ``NumericFailure``."""
    a = rand_pm(np.random.default_rng(343), 2, [0, 1])
    huge = PolyMat(2, {0: np.eye(2), 1: 1e300 * np.ones((2, 2))}, TAU, Q)
    big = PolyMat.constant(1e308 * np.ones((2, 2)), TAU, Q)
    lift = PolyMat.constant(np.array([[1.0, 1.0], [0.0, 1.0]]), TAU, Q)
    for x, p, order in ((a, huge, 4), (big, lift, None)):
        for transport in (gauge_transform, dilation_transform):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NumericFailure, match="overflows"):
                transport(x, p, order)


def test_the_generators_keep_their_bits_without_the_library_gauge_calculus(monkeypatch):
    """``scramble``, ``resonant_object``, ``gauged_by_power`` and
    ``strip_edge_jordan_object`` draw the benchmark's inputs with the
    frozen kernels of ``tests/reference.py``: with laurent's transports,
    shears, series inverse, series recurrence and product patched to raise,
    they return the same objects, to the bit."""
    def draw():
        out = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            for n, shears in ((2, 2), (4, 1), (3, 0)):
                out.append(util.scramble(util.random_normal_form(rng, n), rng, shears=shears))
            for gap, power in ((0.0, 2), (0.3, -1)):
                _, obj = util.resonant_object(rng, gap=gap)
                out += [obj, util.gauged_by_power(obj, power)]
            out.append(util.strip_edge_jordan_object(rng))
        return out

    want = draw()
    names = ("gauge_transform", "dilation_transform", "shear", "apply_shear",
             "apply_shear_dilation", "truncated_inverse", "_series", "_transport",
             "_block_transport", "_sheared", "_shift", "_checked_inverse")
    for module in (eqconn.laurent, reference, util):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_library_call)
    monkeypatch.setattr(PolyMat, "_product", no_library_call)
    got = draw()
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert same_bits(x.A, y.A) and same_bits(x.B, y.B)


def no_library_call(*args, **kwargs):
    raise AssertionError("a generator called eqconn.laurent's gauge calculus")


def shear_steps(rng, dim):
    """Recorded steps: unit moves of one slot up and down, every slot moved
    alike, and general exponents, each behind a random similarity."""
    s = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) + 3.0 * np.eye(dim)
    patterns = [[1] * dim, [-1] * dim, [int(e) for e in rng.integers(-2, 3, size=dim)]]
    if dim > 1:
        patterns += [[0] * (dim - 1) + [1], [-1] + [0] * (dim - 1)]
    return [ShearStep(s, tuple(e)) for e in patterns]


def shear_scale(a, step):
    """``||S^-1|| max(1, ||A||) ||S||`` plus the drift: a bound on what a
    shear of ``a`` by ``step`` sums into one value."""
    s = step.similarity
    drift = abs(TAU) * max(abs(e) for e in step.exponents)
    return (np.linalg.norm(np.linalg.inv(s)) * max(1.0, a.norm()) * np.linalg.norm(s)
            + drift)


@pytest.mark.parametrize("dim", (1, 2, 3, 5))
def test_direct_shear_matches_the_gauge_transform_pair(dim):
    """One conjugation per power and an array shift of the step's exponents
    give the powers and, within rounding, the values of the constant and
    monomial gauge transforms."""
    rng = np.random.default_rng(120 + dim)
    for step in shear_steps(rng, dim):
        b = sparse_pm(rng, dim, [2, -1, 0, 4, -3])
        assert_close_terms(apply_shear_dilation(b, step).terms,
                           reference_shear(b, step, drift=False).terms, shear_scale(b, step))
        # powers a step cannot bring below zero, without and with power 0
        reach = max(step.exponents) - min(step.exponents)
        for powers in ([reach + 3, reach + 1, reach + 2], [0, 5] if reach == 0 else [reach]):
            a = sparse_pm(rng, dim, powers)
            assert_close_terms(apply_shear(a, step).terms,
                               reference_shear(a, step, drift=True).terms, shear_scale(a, step))


def test_direct_shear_drops_a_power_0_the_drift_cancels():
    a = PolyMat(1, {1: np.array([[0.5j]]), 0: np.array([[-TAU]])}, TAU, Q)
    step = ShearStep(np.eye(1, dtype=complex), (1,))
    out = apply_shear(a, step)
    assert same_bits(out, reference_shear(a, step, drift=True))
    assert list(out.terms) == [1]


def test_shear_pole_threshold_ignores_high_powers():
    """A pole of 1e-3 ||A_0|| beside an A_40 of norm 1e20 is refused: the
    threshold scales with the powers the step can move below zero, not with
    the whole series."""
    rng = np.random.default_rng(130)
    a0 = np.diag([0.0, 5.0 * TAU])
    high = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = PolyMat(2, {0: a0, 1: np.array([[0.0, 1e-3 * np.linalg.norm(a0)], [0.0, 0.0]]),
                    40: 1e20 * high / np.linalg.norm(high)}, TAU, Q)
    sd = spectral(a.term(0))
    shifts = [1 if abs(c.eigenvalue) < 1e-9 else -1 for c in sd.clusters]
    with pytest.raises(RegularityViolation, match="z\\*\\*-1"):
        shear(a, sd, shifts)
    # the same pole at 1e-12 ||A_0|| is rounding, and is cut off
    a = PolyMat(2, {**a.terms, 1: a.term(1) * 1e-9}, TAU, Q)
    out, _ = shear(a, sd, shifts)
    assert out.min_power == 0


def test_monomial_diag_keeps_powers_ascending():
    p = PolyMat.monomial_diag([2, -1, 2, 0], TAU, Q)
    assert list(p.terms) == [-1, 0, 2]
    assert np.array_equal(p.terms[2], np.diag([1.0, 0.0, 1.0, 0.0]))
    exps, vals = reference_monomial(p)
    assert exps.tolist() == [2, -1, 2, 0] and vals.tolist() == [1.0] * 4


def test_transports_differ_by_the_drift():
    rng = np.random.default_rng(12)
    a = sparse_pm(rng, 3, [0, 2, 1])
    for kind, p in seeded_gauges(rng, 3).items():
        mono = reference_monomial(p)
        if p.is_constant():
            drift = PolyMat.zero(3, TAU, Q)
        elif mono is not None:
            drift = PolyMat.constant(np.diag([TAU * e for e in mono[0]]), TAU, Q)
        else:
            drift = (truncated_inverse(p, 6) * p.delta()).truncate(6)
        gap = gauge_transform(a, p, 6) - dilation_transform(a, p, 6)
        assert gap.distance(drift) < 1e-12 * (1.0 + a.norm()), kind


# --- stacked arithmetic against the per-coefficient reference ------------------------
# Products, constant conjugations and the results' construction run on (K, n, n)
# stacks; tests/reference.py keeps them one coefficient at a time.  The powers
# must match and ascend, and the values agree within rounding.

def assert_same_terms(got, want):
    assert list(got) == list(want)
    for k in want:
        assert got[k].tobytes() == want[k].tobytes(), k


# unsorted, negative and gapped powers; outputs reached by one pair or many
PRODUCT_POWERS = (([3, -2, 0, 7], [-5, 1, 0, 2]),
                  ([0, 1, 2, 3], [2, 1, 0]),
                  ([-4, 6], [10, -1, 4, 0, -7, 3]),
                  ([5], [-3]))


def test_products_match_pairwise_reference():
    for dim in (1, 2, 3, 12):
        rng = np.random.default_rng(300 + dim)
        for left, right in PRODUCT_POWERS:
            x, y = sparse_pm(rng, dim, left), sparse_pm(rng, dim, right)
            for a, b in ((x, y), (y, x), (x, x)):
                assert_close_terms((a * b).terms, reference_product(a, b),
                                   a.norm() * b.norm())


def test_product_within_a_window_matches_the_pairwise_reference():
    rng = np.random.default_rng(312)
    for dim in (1, 3):
        for left, right in PRODUCT_POWERS:
            x, y = sparse_pm(rng, dim, left), sparse_pm(rng, dim, right)
            for lo, hi in ((-3, 4), (0, 0), (-20, 20), (8, 2)):
                want = {k: c for k, c in reference_product(x, y).items() if lo <= k <= hi}
                assert_close_terms(x._product(y, lo, hi).terms, want, x.norm() * y.norm())


def test_product_drops_a_coefficient_that_cancels_exactly():
    rng = np.random.default_rng(310)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x = PolyMat(4, {0: np.eye(4), 1: np.eye(4)}, TAU, Q)
    y = PolyMat(4, {1: -m, 0: m}, TAU, Q)
    # power 1 sums I @ (-m) and I @ m, which cancel exactly
    want = reference_product(x, y)
    assert list(want) == [0, 2]
    assert_same_terms((x * y).terms, want)
    assert (x - x).terms == {} and x.scale(0.0).terms == {}


def test_products_with_an_empty_operand():
    rng = np.random.default_rng(311)
    for dim in (1, 12):
        x, zero = sparse_pm(rng, dim, [2, -1]), PolyMat.zero(dim, TAU, Q)
        for a, b in ((x, zero), (zero, x), (zero, zero)):
            assert (a * b).terms == {} == reference_product(a, b)
            assert (a * b).dim == dim


def test_a_product_over_several_slabs_matches_the_pairwise_reference():
    """At n = 12 a product of 49 and 53 powers needs more than one slab of
    ``_SLAB_BYTES``; in full and in a validate-shaped window it matches a
    matmul per pair of powers."""
    rng = np.random.default_rng(313)
    x, y = sparse_pm(rng, 12, range(49)), sparse_pm(rng, 12, range(-2, 51))
    # one slab of 101 landing powers by 53 right coefficients would take 12 MB
    assert 16 * 12 * 12 * 101 * 53 > 20 * eqconn.laurent._SLAB_BYTES
    want = reference_product(x, y)
    assert_close_terms((x * y).terms, want, x.norm() * y.norm())
    assert_close_terms(x._product(y, 0, 50).terms,
                       {k: c for k, c in want.items() if 0 <= k <= 50}, x.norm() * y.norm())


def test_a_product_of_gapped_powers_holds_only_the_powers_it_lands_on():
    rng = np.random.default_rng(314)
    x, y = rand_pm(rng, 2, [0, 10 ** 12]), rand_pm(rng, 2, [0, 1])
    got = x * y
    assert got.powers() == [0, 1, 10 ** 12, 10 ** 12 + 1]
    assert_close_terms(got.terms, reference_product(x, y), x.norm() * y.norm())


def test_windowed_commutator_matches_the_pairwise_products():
    """Dense powers, windows inside the full product, past either end of it
    and one power wide: the commutator holds the window's powers of the
    pairwise products within 1e-13 of the largest coefficient product,
    whether it evaluates on the circle or, for the narrow window at power
    0 (6 coefficient products against a span of 23), takes the block
    products."""
    rng = np.random.default_rng(316)
    for dim in (1, 3, 12):
        x, y = rand_pm(rng, dim, range(-2, 9)), rand_pm(rng, dim, range(13))
        full = (PolyMat(dim, reference_product(x, y), TAU, Q)
                - PolyMat(dim, reference_product(y, x), TAU, Q))
        for lo, hi in ((-2, 20), (0, 8), (-10, 40), (5, 6), (0, 0)):
            got = _commutator(x, y, lo, hi)
            assert_close_to_rounding(dict(got.terms), dict(full.truncate(hi, lo=lo).terms),
                                     x.norm() * y.norm())


def test_commutator_of_gapped_powers_is_the_block_products():
    """Powers 10**12 apart land 3 or 4 pairs of powers in each window but
    span 2e12 powers: the commutator is the two block-Toeplitz products to
    the bit, formed without a circle of 2e12 points."""
    rng = np.random.default_rng(315)
    x, y = rand_pm(rng, 2, [0, 10 ** 12]), rand_pm(rng, 2, [0, 1])
    landing = [0, 1, 10 ** 12, 10 ** 12 + 1]
    for lo, hi, kept in ((0, 10 ** 12, 3), (-5, 3 * 10 ** 12, 4)):
        want = x._product(y, lo, hi) - y._product(x, lo, hi)
        got = _commutator(x, y, lo, hi)
        assert got.powers() == want.powers() == landing[:kept]
        assert_same_terms(got.terms, want.terms)


@pytest.mark.parametrize("dim", [1, 3, 12])
def test_constant_gauge_matches_per_coefficient_conjugation(dim):
    rng = np.random.default_rng(320 + dim)
    a = sparse_pm(rng, dim, [2, -1, 0, 5, -3])
    c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) + 3.0 * np.eye(dim)
    p = PolyMat.constant(c, TAU, Q)
    for transport in (gauge_transform, dilation_transform):
        assert_same_terms(transport(a, p).terms, reference_conjugate(a, c))
        assert transport(PolyMat.zero(dim, TAU, Q), p).terms == {}


def test_derived_values_match_per_coefficient_construction():
    rng = np.random.default_rng(330)
    for dim in (1, 2, 12):
        x, y = sparse_pm(rng, dim, [3, 0, -2, 1]), sparse_pm(rng, dim, [1, 4, -2])
        summed = {k: c.copy() for k, c in x.terms.items()}
        for k, c in y.terms.items():
            summed[k] = summed[k] + c if k in summed else c.copy()
        cases = [
            (x + y, summed),
            (-x, {k: -c for k, c in x.terms.items()}),
            (x.scale(0.5 - 2j), {k: (0.5 - 2j) * c for k, c in x.terms.items()}),
            (x.delta(), {k: (TAU * k) * c for k, c in x.terms.items()}),
            (x.dilate(), {k: (Q ** k) * c for k, c in x.terms.items()}),
            (x.truncate(2, lo=-1), {k: c for k, c in x.terms.items() if -1 <= k <= 2}),
            (x.copy(), x.terms),
        ]
        for got, terms in cases:
            assert_close_terms(got.terms, reference_clean_terms(dim, terms),
                               (x.norm() + y.norm()) * max(3 * abs(TAU), abs(0.5 - 2j)))
    copied = x.copy()
    assert all(copied.terms[k] is not x.terms[k] for k in x.terms)


@st.composite
def gapped_supports(draw):
    """``(dim, left powers, right powers, exponents, series powers, order,
    seed)``: small sets of powers from -6 to 6, negative and with gaps."""
    dim = draw(st.integers(1, 4))
    powers = st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True)
    return (dim, draw(powers), draw(powers),
            draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)),
            draw(st.lists(st.integers(1, 5), max_size=3, unique=True)),
            draw(st.integers(1, 7)), draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gapped_supports())
@example((2, [0, 1], [0, 5], [1, -1], [2], 3, 0))   # first reached: 0, 5, 1, 6
def test_gapped_supports_stay_ascending_and_match_the_references(case):
    """Products, sums, the array shift, a recorded shear and the series
    transports return ascending ``terms`` with the references' powers, and
    values within 1e-13 of the largest coefficient product they sum; a
    series transport on the circle may hold rounding noise where nothing
    lands, or lack a power that cancels to it."""
    dim, left, right, exps, series_powers, order, seed = case
    rng = np.random.default_rng(seed)
    x, y = sparse_pm(rng, dim, left), sparse_pm(rng, dim, right)
    assert_close_terms((x * y).terms, reference_product(x, y), x.norm() * y.norm())
    summed = dict(x.terms)
    for k, c in y.terms.items():
        summed[k] = summed[k] + c if k in summed else c
    assert_close_terms((x + y).terms, reference_clean_terms(dim, summed),
                       x.norm() + y.norm())

    e = np.array(exps)
    assert_close_terms(shifted(x, e).terms, _reference_shift(x, e, np.ones(dim)).terms,
                       x.norm())
    s = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) + 3.0 * np.eye(dim)
    step = ShearStep(s, tuple(exps))
    for drift in (False, True):
        conj = reference_transport(x, PolyMat.constant(s, TAU, Q), None, drift)
        want = reference_transport(conj, PolyMat.monomial_diag(exps, TAU, Q), None, drift)
        assert_close_terms(_sheared([(x, drift)], step)[0].terms, want.terms,
                           shear_scale(x, step))

    terms = {0: np.eye(dim)}
    terms.update({k: 0.3 * rng.normal(size=(dim, dim)) for k in series_powers})
    p = PolyMat(dim, terms, TAU, Q)
    if reference_monomial(p) is None:
        for drift, transport in ((True, gauge_transform), (False, dilation_transform)):
            assert_close_to_rounding(dict(transport(x, p, order).terms),
                                     dict(reference_transport(x, p, order, drift).terms),
                                     transport_scale(x, p, order))


def shifted(x, exps):
    """``x`` through ``_shift``, the array shift of its slab by the
    ``_levels`` of ``exps``, as a value."""
    return x._derive(*_shift(x._powers, x._coeffs, _levels(exps)))


def same_slab(value, slab):
    """``value`` holds the ``(powers, stack)`` slab, to the bit."""
    powers, stack = slab
    return (value.powers() == powers.tolist()
            and np.array(list(value.terms.values()), dtype=complex).reshape(stack.shape)
            .tobytes() == stack.tobytes())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gapped_supports())
def test_cached_norms_are_fresh_norms_of_each_slice(case):
    """``norm(hi)`` reads the slab's norm vector, computed once: for every
    ``hi``, read in ascending or descending order, on constructed values
    and on values derived by arithmetic, truncation (which keeps a slice of
    a computed vector), copies, the one fold and a series transport, it
    equals a fresh ``np.linalg.norm`` of that slice
    (``reference_largest_norm``), to the bit."""
    dim, left, right, exps, series_powers, order, seed = case

    def values():
        rng = np.random.default_rng(seed)
        x, y = sparse_pm(rng, dim, left), sparse_pm(rng, dim, right)
        s = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) + 3.0 * np.eye(dim)
        terms = {0: np.eye(dim)}
        terms.update({k: 0.3 * rng.normal(size=(dim, dim)) for k in series_powers})
        p = PolyMat(dim, terms, TAU, Q)
        warm = x * y
        warm.norm()
        return ([x, y, x * y, x + y, x - y, x.delta(), x.scale(0.5j), warm,
                 warm.truncate(2, lo=-1), warm.copy(), p]
                + _sheared([(x, True), (y, False)], ShearStep(s, tuple(exps)))
                + _transport(p, [(x, True), (y, False)], order))

    for ascending in (True, False):
        for v in values():
            his = [None] + list(range(v.min_power - 1, v.max_power + 2))
            for hi in (his if ascending else his[::-1]):
                assert v.norm(hi) == reference.reference_largest_norm(v, hi)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gapped_supports())
def test_one_shear_of_a_pair_is_the_frozen_shear_of_each_to_the_bit(case):
    """``_sheared`` takes several operands through one step with one
    inverse of S and the drift added in the shift's scatter: each result
    equals, to the bit, the per-operand shear of ``tests/reference.py``
    that conjugated, shifted and then added the drift as a sum."""
    dim, left, right, exps, _, _, seed = case
    rng = np.random.default_rng(seed)
    x, y = sparse_pm(rng, dim, left), sparse_pm(rng, dim, right)
    s = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) + 3.0 * np.eye(dim)
    got = _sheared([(x, True), (y, False), (x, False)], ShearStep(s, tuple(exps)))
    for value, (operand, drift) in zip(got, ((x, True), (y, False), (x, False))):
        assert same_slab(value, reference._frozen_sheared(reference._stacked(operand), s,
                                                          exps, TAU, drift))


def test_a_drift_onto_a_slice_of_signed_zeros_is_the_frozen_sum_to_the_bit():
    """The drift goes into the shift's slice of power 0.  When every entry
    landing there is a signed zero, the sum the frozen shear takes has
    dropped that slice first, so the slice starts from +0: with ``tau = -1
    + i``, ``tau * 0`` has a -0.0 part, which a -0.0 entry would keep."""
    tau = -1.0 + 1.0j
    x = PolyMat(2, {-1: [[1, 0], [-1, -0.0]], 0: [[0, 1j], [0, -0.0]],
                    1: [[-0.0, 1], [0, 1]]}, tau, Q)
    s = np.diag([-1.0, 2.0]).astype(complex)
    got = _sheared([(x, True)], ShearStep(s, (-1, 0)))[0]
    # +0 plus the drift's -0.0 part, where a -0.0 entry plus it stays -0.0
    assert not np.signbit(got.term(0)[1, 1].real)
    assert same_slab(got, reference._frozen_sheared(reference._stacked(x), s, (-1, 0), tau,
                                                    True))


@pytest.mark.parametrize("n, shears", [(2, 2), (4, 1), (8, 2), (12, 1)])
def test_the_one_fold_is_apply_shear_and_apply_shear_dilation_to_the_bit(n, shears):
    """``normalize`` folds A and B in one ``_sheared`` call: the pair
    ``_gauged_pair`` returns equals the series transport followed by
    ``apply_shear`` of A and ``apply_shear_dilation`` of B, to the bit, and
    A equals the frozen shear with its regularity cut."""
    rng = np.random.default_rng(500)
    obj = util.scramble(util.random_normal_form(rng, n), rng, shears=shears)
    nf = normalize(obj, util.STRIP, 16)
    _, a, b = eqconn.category._validated(obj, DEFAULT_TOL, strict=True)
    record = nf.gauge
    assert record.fold is not None and any(record.fold.exponents)
    got_a, got_b = _gauged_pair(a, b, record, DEFAULT_TOL)
    mid_a, mid_b = _transport(record.series, [(a, True), (b, False)], record.truncation)
    assert same_bits(got_a, apply_shear(mid_a, record.fold))
    assert same_bits(got_b, apply_shear_dilation(mid_b, record.fold))
    powers, stack = reference._frozen_sheared(reference._stacked(mid_a), record.fold.similarity,
                                              record.fold.exponents, TAU, True)
    start = np.searchsorted(powers, 0)
    assert same_slab(got_a, (powers[start:], stack[start:]))


def frozen_pass_agrees(a, b, record, tol=DEFAULT_TOL):
    """``_gauged_pair`` of the pair is ``reference.frozen_gauged_pair``, to
    the bit, values and diagnostics; returns the pair."""
    got = _gauged_pair(a, b, record, tol)
    want = reference.frozen_gauged_pair(a, b, record, tol)
    assert len(got) == 2 and all(same_bits(x, y) for x, y in zip(got, want))
    return got


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_the_gauge_pass_is_the_frozen_three_passes_to_the_bit(n, monkeypatch):
    """Scrambled objects with 0, 1 and 2 shears, balanced as ``normalize``
    takes them, through the record ``normalize`` made: the one pass, whose
    series transport hands its windows to the fold and the regularity check
    with no value in between, gives what the three passes gave, to the bit.
    Each of these gauges is balanced, so every transport runs on the circle;
    the block products are taken by a constructed record below."""
    rng = np.random.default_rng(600 + n)
    block, calls, folds = eqconn.laurent._block_transport, [], []
    monkeypatch.setattr(eqconn.laurent, "_block_transport",
                        lambda *args: calls.append(1) or block(*args))
    for shears in (0, 1, 2, 2):
        obj = util.scramble(util.random_normal_form(rng, n), rng, shears=shears)
        record = normalize(obj, util.STRIP, 16).gauge
        _, a, b = eqconn.category._validated(obj, DEFAULT_TOL, strict=True)
        frozen_pass_agrees(a, b, record)
        folds.append(record.fold is not None and any(record.fold.exponents))
    assert any(folds) and not calls


def test_the_gauge_pass_of_an_input_gauged_by_a_far_power_is_the_frozen_one():
    """A resonant object gauged by ``z**400``: its record's fold moves
    every group down by 400 or more, and the one pass still gives what the
    three passes gave, to the bit."""
    _, obj = util.resonant_object(np.random.default_rng(900))
    obj = util.gauged_by_power(obj, 400)
    record = normalize(obj, util.STRIP, 16).gauge
    assert record.fold is not None and max(record.fold.exponents) <= -400
    _, a, b = eqconn.category._validated(obj, DEFAULT_TOL, strict=True)
    frozen_pass_agrees(a, b, record)


def test_the_gauge_pass_of_constructed_records_is_the_frozen_one(monkeypatch):
    """Records ``normalize`` would not make, through the one pass and the
    frozen three passes: a fold whose exponents are all 0, to the bit; an
    unbalanced gauge, which takes the block products, to the bit (at an
    ``eps_res`` that lets its fold's negative powers through); a fold
    that moves a coefficient below power 0, ``RegularityViolation`` with
    the same message; a gauge whose inverse overflows, ``NumericFailure``;
    and a fold whose drift lands on a slice of power 0 that holds only
    signed zeros, one of them -0.0, which starts from +0 on both sides.  A
    monomial series, a recorded step, is its shear and then the fold: what
    ``apply_shear`` of ``gauge_transform`` gives, to the bit."""
    rng = np.random.default_rng(610)
    a, b = rand_pm(rng, 3, range(0, 12)), rand_pm(rng, 3, range(-2, 12))
    s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    series = balanced_gauge(rng, 3, 6)
    still = GaugeRecord(series, 6, fold=ShearStep(s, (0, 0, 0)))
    frozen_pass_agrees(a, b, still)

    steep = PolyMat(3, {0: np.eye(3), 1: 1e4 * np.eye(3, k=1), 2: 0.1 * np.eye(3)}, TAU, Q)
    block, calls = eqconn.laurent._block_transport, []
    monkeypatch.setattr(eqconn.laurent, "_block_transport",
                        lambda *args: calls.append(1) or block(*args))
    frozen_pass_agrees(a, b, GaugeRecord(steep, 6, fold=ShearStep(s, (0, 1, 1))),
                       Tolerances(eps_res=1e3))
    assert calls == [1, 1]

    pole = PolyMat(2, {0: np.diag([0.3, 0.4]), 1: [[0.0, 5.0], [0.0, 0.0]]}, TAU, Q)
    lift = GaugeRecord(balanced_gauge(rng, 2, 4), 4, fold=ShearStep(np.eye(2), (2, 0)))
    messages = []
    for run in (_gauged_pair, lambda *args: reference.frozen_gauged_pair(*args[:3])):
        with pytest.raises(RegularityViolation, match="pole") as raised:
            run(pole, pole, lift, DEFAULT_TOL)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]

    huge = PolyMat(2, {0: np.eye(2), 1: 1e300 * np.ones((2, 2))}, TAU, Q)
    over = GaugeRecord(huge, 4, fold=ShearStep(np.eye(2), (1, 0)))
    small = rand_pm(rng, 2, [0, 1])
    for run in (_gauged_pair, lambda *args: reference.frozen_gauged_pair(*args[:3])):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericFailure, match="overflows"):
            run(small, small, over, DEFAULT_TOL)

    # a monomial series is a recorded step: its shear, then the fold
    mono = PolyMat(2, {0: np.diag([2.0, 0.0]), 1: np.diag([0.0, 3.0])}, TAU, Q)
    back = ShearStep(np.diag([1.0, 2.0]).astype(complex), (1, 0))
    a2, b2 = rand_pm(rng, 2, [0, 1, 2]), rand_pm(rng, 2, [-1, 0, 1])
    got = _gauged_pair(a2, b2, GaugeRecord(mono, 4, fold=back), DEFAULT_TOL)
    assert same_bits(got[0], apply_shear(gauge_transform(a2, mono), back))
    assert same_bits(got[1], apply_shear_dilation(dilation_transform(b2, mono), back))

    tau = -1.0 + 1.0j
    x = PolyMat(2, {0: [[-0.0, 1j], [0, -0.0]], 1: [[0, 1], [-0.0, 1]]}, tau, Q)
    got = frozen_pass_agrees(x, x, GaugeRecord(None, 0, fold=ShearStep(
        np.diag([-1.0, 2.0]).astype(complex), (-1, 0))))
    assert 0 in got[0].terms and not np.signbit(got[0].term(0)[1, 1].real)


def test_the_balancing_radius_exit_is_the_full_formula_to_the_bit():
    """The exact exit, taken when no norm exceeds ``max(1, ||A_0||)``, and
    the formula past it give the radius of the full formula
    (``reference.frozen_balancing_radius``), to the bit: for a power k
    whose norm equals the top, is one ulp above it, is 0 (entries whose
    squares underflow) or is inf (entries whose squares overflow), beside
    a power 0 below 1 and above it."""
    one_up = np.nextafter(1.0, 2.0)
    radii = []
    for a0 in ([[0.0]], [[0.5]], [[3.0]]):
        top = max(1.0, abs(a0[0][0]))
        for value in (top, np.nextafter(top, 2 * top), 1e-200, 1e300, 0.25):
            for k in (1, 2, 5):
                a = pm({0: a0, k: [[value]], k + 1: [[0.1]]} if a0[0][0] else
                       {k: [[value]], k + 1: [[0.1]]})
                with np.errstate(over="ignore"):
                    want = reference.frozen_balancing_radius(reference._stacked(a))
                    got = _balancing_radius(a)
                assert got == want and type(got) is float
                radii.append(got)
    assert pm({1: [[one_up]]})._power_norms()[0] == one_up
    assert pm({1: [[1e-200]]})._power_norms()[0] == 0.0
    assert 1.0 in radii and min(radii) < 2.0 ** -900


def test_an_identity_lead_series_inverse_is_the_checked_route_to_the_bit(monkeypatch):
    """A series whose lead term is I is inverted without inverting I or
    multiplying by it: with ``_checked_inverse`` patched to raise, its
    truncated inverse equals, to the bit, the recurrence through the checked
    inverse of the lead term (``reference._frozen_inverse_series``) on
    dense coefficients, and a block diagonal series, whose zero entries may
    differ in sign, to the value.  A lead term that is not I still takes
    the checked route."""
    rng = np.random.default_rng(620)
    for dim in (1, 2, 3, 5, 12):
        p = balanced_gauge(rng, dim, 16)
        wants = [reference._frozen_inverse_series(reference._stacked(p), order)
                 for order in (0, 1, 4, 16)]
        with monkeypatch.context() as patched:
            patched.setattr(eqconn.laurent, "_checked_inverse", no_library_call)
            for order, want in zip((0, 1, 4, 16), wants):
                assert same_slab(truncated_inverse(p, order), want)
    blocks = PolyMat(4, {0: np.eye(4), 1: np.kron(np.eye(2), [[0.2, 0.1], [0.0, 0.3]]),
                         3: np.kron([[0.0, 0.0], [0.0, 1.0]], [[0.1, 0.0], [0.2, 0.1]])},
                     TAU, Q)
    powers, stack = reference._frozen_inverse_series(reference._stacked(blocks), 8)
    got = truncated_inverse(blocks, 8)
    assert got.powers() == powers.tolist()
    assert np.array_equal(np.array(list(got.terms.values())), stack)
    with pytest.raises(AssertionError, match="gauge calculus"):
        with monkeypatch.context() as patched:
            patched.setattr(eqconn.laurent, "_checked_inverse", no_library_call)
            truncated_inverse(PolyMat(2, {0: 2.0 * np.eye(2), 1: np.eye(2)}, TAU, Q), 3)


def test_the_validation_residual_is_the_summed_residual_to_the_bit(monkeypatch):
    """``_equivariance_norm`` adds ``delta(B)`` into the commutator's window
    on the circle and takes the norms there: it equals, to the bit,
    ``_sum_norm(*_residual_terms(a, b))``, the residual summed as values,
    for scrambled objects balanced and as given, where the commutator is
    taken on the circle, and for gapped powers, where it takes the block
    products; ``validate``'s unit-radius residual is that norm too."""
    from eqconn.category import _residual_orders, _residual_terms, validate
    from eqconn.laurent import _equivariance_norm, _sum_norm

    circle, taken = eqconn.laurent._commutator_circle, []
    monkeypatch.setattr(eqconn.laurent, "_commutator_circle",
                        lambda *args: taken.append(circle(*args)) or taken[-1])
    rng = np.random.default_rng(630)
    pairs = []
    for n, shears in ((1, 0), (2, 2), (4, 1), (8, 2)):
        obj = util.scramble(util.random_normal_form(rng, n), rng, shears=shears)
        _, a, b = eqconn.category._validated(obj, DEFAULT_TOL, strict=True)
        pairs += [(obj.A, obj.B), (a, b)]
    pairs.append((sparse_pm(rng, 3, [0, 1, 40]), sparse_pm(rng, 3, [-3, 0, 17])))
    blocked = []
    for a, b in pairs:
        del taken[:]
        got = _equivariance_norm(a, b, *_residual_orders(a, b))
        blocked.append(taken[0] is None)
        assert got == _sum_norm(*_residual_terms(a, b)) and type(got) is float
    assert blocked == [False] * (len(pairs) - 1) + [True]
    steep = util.scramble(util.random_normal_form(rng, 3), rng, shears=1)
    steep = EquivariantConnection(steep.A + PolyMat(3, {3: 1e6 * np.eye(3)}, TAU, Q),
                                  steep.B, steep.theta, steep.tau, steep.transversal)
    diag = validate(steep, strict=False)
    assert diag["radius"] < 1.0
    assert diag["equivariance_residual_unit"] == _sum_norm(*_residual_terms(steep.A, steep.B))


def test_power_sums_beyond_int64_raise():
    """A product, a commutator or a shear whose landing powers leave int64
    raises ``NumericFailure`` instead of wrapping around; the powers at the
    ends of int64 land exactly."""
    top = PolyMat(1, {2 ** 62: [[1.0]]}, TAU, Q)
    bottom = PolyMat(1, {-2 ** 62 - 1: [[1.0]]}, TAU, Q)
    for x, y in ((top, top), (bottom, bottom)):
        with pytest.raises(NumericFailure, match="int64"):
            x * y
        with pytest.raises(NumericFailure, match="int64"):
            _commutator(x, y, 0, 1)
    assert (top * PolyMat(1, {2 ** 62 - 1: [[2.0]]}, TAU, Q)).powers() == [2 ** 63 - 1]
    assert (bottom * PolyMat(1, {-2 ** 62 + 1: [[2.0]]}, TAU, Q)).powers() == [-2 ** 63]
    assert (top * bottom).powers() == [-1]
    wide = PolyMat(2, {2 ** 62: np.ones((2, 2))}, TAU, Q)
    for step in (ShearStep(np.eye(2), (0, 2 ** 62)), ShearStep(np.eye(2), (2 ** 62, -2 ** 62))):
        with pytest.raises(NumericFailure, match="int64"):
            apply_shear_dilation(wide, step)


def test_shift_holds_only_the_powers_it_lands_on():
    """Exponents 10**12 apart land a constant on three powers; the shift
    used to allocate every power in between."""
    rng = np.random.default_rng(342)
    x = PolyMat.constant(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), TAU, Q)
    e = np.array([0, 10 ** 12])
    got, want = shifted(x, e), _reference_shift(x, e, np.ones(2))
    assert got.powers() == want.powers() == [-10 ** 12, 0, 10 ** 12]
    assert_same_terms(got.terms, want.terms)


def test_constant_gauge_refuses_a_near_singular_matrix():
    a = rand_pm(np.random.default_rng(340), 2, [0, 1])
    for c in (np.diag([1.0, 1e-20]), np.array([[1.0, 1e8], [0.0, 1e-9]]),
              np.ones((2, 2))):
        for transport in (gauge_transform, dilation_transform):
            with pytest.raises(ValidationFailure, match="singular"):
                transport(a, PolyMat.constant(c, TAU, Q))
    # a monomial takes the same path: values spanning more than 1/eps are
    # refused as well
    for transport in (gauge_transform, dilation_transform):
        with pytest.raises(ValidationFailure, match="singular"):
            transport(a, PolyMat(2, {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1e-20])},
                                 TAU, Q))
    # badly scaled but well above machine epsilon: still accepted
    out = gauge_transform(a, PolyMat.constant(np.diag([1.0, 1e-10]), TAU, Q))
    assert out.powers() == [0, 1]
    out = gauge_transform(a, PolyMat(2, {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1e-10])},
                                     TAU, Q))
    assert out.powers() == [-1, 0, 1, 2]


def test_truncated_inverse_refuses_a_near_singular_lead_term():
    rng = np.random.default_rng(341)
    for c0 in (np.diag([1.0, 1e-20]), np.ones((2, 2))):
        f = PolyMat(2, {0: c0, 1: rng.normal(size=(2, 2))}, TAU, Q)
        with pytest.raises(ValidationFailure, match="singular"):
            truncated_inverse(f, 4)
        with pytest.raises(ValidationFailure, match="singular"):
            gauge_transform(rand_pm(rng, 2, [0]), f, 4)
    f = PolyMat(2, {0: np.diag([1.0, 1e-10]), 1: rng.normal(size=(2, 2))}, TAU, Q)
    assert np.allclose(truncated_inverse(f, 4).term(0), np.diag([1.0, 1e10]))


# --- shearing -----------------------------------------------------------------------

def test_shear_zero_shifts_is_identity():
    a = PolyMat(2, {0: np.diag([0.0, TAU]), 1: np.array([[0.0, 1.0], [0.0, 0.0]])},
                TAU, Q)
    sd = spectral(a.term(0))
    out, step = shear(a, sd, [0] * len(sd.clusters))
    assert out.distance(a) == 0.0
    assert np.allclose(step.similarity, np.eye(2))


def test_shear_down_makes_nilpotent_constant():
    a = PolyMat(2, {0: np.diag([0.0, TAU]), 1: np.array([[0.0, 1.0], [0.0, 0.0]])},
                TAU, Q)
    sd = spectral(a.term(0))
    shifts = [0 if abs(c.eigenvalue) < 1e-9 else -1 for c in sd.clusters]
    out, step = shear(a, sd, shifts)
    # oracle: the same move written directly as a diagonal monomial gauge
    direct = gauge_transform(a, PolyMat.monomial_diag(
        [0 if abs(a.term(0)[i, i]) < 1e-9 else -1 for i in range(2)], TAU, Q))
    assert out.distance(direct) < 1e-12
    assert out.powers() == [0]
    assert np.allclose(out.term(0), [[0.0, 1.0], [0.0, 0.0]])


def test_shear_step_reduces_eigenvalue_gap():
    k = 3
    lam2 = 0.1 + 0.05j
    lam1 = lam2 + k * TAU
    rng = np.random.default_rng(8)
    a = PolyMat(2, {0: np.diag([lam1, lam2]),
                    1: rng.normal(size=(2, 2))}, TAU, Q)
    sd = spectral(a.term(0))
    shifts = [1 if abs(c.eigenvalue - lam2) < 1e-9 else 0 for c in sd.clusters]
    out, _ = shear(a, sd, shifts)
    eigs = np.linalg.eigvals(out.term(0))
    gap = abs(eigs[0] - eigs[1])
    assert abs(gap - abs((k - 1) * TAU)) < 1e-9


def test_shear_roundtrip_exact():
    rng = np.random.default_rng(9)
    a0 = np.diag([0.2 * TAU, 0.2 * TAU + 2.0, -1.0])
    a = PolyMat(3, {0: a0, 1: rng.normal(size=(3, 3)),
                    2: rng.normal(size=(3, 3))}, TAU, Q)
    sd = spectral(a.term(0))
    out, step = shear(a, sd, [1] * len(sd.clusters))
    # undo the step: the inverse monomial gauge, then the inverse similarity
    back = gauge_transform(out, PolyMat.monomial_diag([-e for e in step.exponents], TAU, Q))
    back = gauge_transform(back, PolyMat.constant(np.linalg.inv(step.similarity), TAU, Q))
    assert back.distance(a) < 1e-12


def test_shear_regularity_violation():
    a = PolyMat(2, {0: np.diag([0.0, 5.0 * TAU]),
                    1: np.array([[0.0, 1.0], [0.0, 0.0]])}, TAU, Q)
    sd = spectral(a.term(0))
    order = [0 if abs(c.eigenvalue) < 1e-9 else 1 for c in sd.clusters]
    shifts = [1 if o == 0 else -1 for o in order]
    with pytest.raises(RegularityViolation):
        shear(a, sd, shifts)


def test_gauge_record_replay():
    """A record replays as a series gauge, then the fold: one shear.  All
    lower triangular, so that the fold's ``z**-1`` on the second basis
    vector moves nothing below power 0."""
    rng = np.random.default_rng(10)
    a = PolyMat(2, {0: np.diag([0.1, 0.1 + TAU]), 1: np.tril(rng.normal(size=(2, 2)))},
                TAU, Q)
    b = PolyMat.constant(np.diag([2.0, 3.0]), TAU, Q)
    series = PolyMat(2, {0: np.eye(2), 1: np.tril(rng.normal(size=(2, 2))) * 0.2}, TAU, Q)
    fold = ShearStep(np.tril(np.eye(2) + 0.3 * rng.normal(size=(2, 2))), (0, -1))
    record = GaugeRecord(series=series, truncation=8, fold=fold)
    a2, b2 = apply_gauge_record(a, b, record)
    a_direct = apply_shear(gauge_transform(a, series, 8), fold)
    b_direct = apply_shear_dilation(dilation_transform(b, series, 8), fold)
    assert a2.distance(a_direct) < 1e-12 and b2.distance(b_direct) < 1e-12


# --- the balancing radius ------------------------------------------------------

def test_balancing_radius_reads_a_norm_whose_squares_overflow():
    """Coefficients whose Frobenius norm is finite but whose squared entries
    overflow, so that the kept norm reads inf: the radius is the exact power
    of two of the norm itself.  ``A = 0.1 + 1e300 z`` balances at 2**-997
    (0.5 from the inf); with every entry of a 2 x 2 power 1 at 1e300 (norm
    2e300), at 2**-998; and with power 0 as large as power 1, at 1 (NaN,
    then 0.5, from inf / inf)."""
    big = np.full((2, 2), 1e300)
    cases = ((pm({0: [[0.1]], 1: [[1e300]]}), 2.0 ** -997),
             (PolyMat(2, {0: 0.1 * np.eye(2), 1: big}, TAU, Q), 2.0 ** -998),
             (PolyMat(2, {0: big, 1: big}, TAU, Q), 1.0))
    for a, radius in cases:
        with np.errstate(over="ignore"):
            assert np.isinf(a._power_norms()).any()
            assert _balancing_radius(a) == radius


def test_balancing_radius_of_a_coefficient_whose_modulus_passes_the_float_range():
    """``A = 0.1 + (1.5e308 + 1.5e308i) z``: both parts are finite but the
    modulus is not, so the norm is taken in units of the largest part and
    the radius is the formula's with ||A_1|| = 1.5e308 sqrt(2), 2**-1025,
    with no warning.  The real ``A = 0.1 +
    1.5e308 z``, whose norm is finite, stays at 2**-1024, to the bit."""
    want = 2.0 ** math.floor(-math.log2(1.5e308) - 0.5)
    assert want == 2.0 ** -1025
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _balancing_radius(pm({0: [[0.1]], 1: [[1.5e308 + 1.5e308j]]})) == want
        real = pm({0: [[0.1]], 1: [[1.5e308]]})
        assert _balancing_radius(real) == 2.0 ** -1024
        assert _balancing_radius(real) == reference.frozen_balancing_radius(
            reference._stacked(real))


def test_radius_factors_are_python_powers_across_the_float_range():
    """``_radius_factors`` gives ``radius ** k`` to the bit for radii 2**e
    across the float range, their reciprocals and inf, at powers on the
    overflow and subnormal edges and near +-2**62 and the ends of int64,
    which must not wrap; where ``**`` overflows it raises
    ``NumericFailure``."""
    ks = [0, 1, -1, 2, -3, 511, 1022, 1023, 1024, 1025, 1074, 1075, 1076, -1073, -1074,
          -1075, -1076, 4095, 4097, -4097, 2 ** 62, -2 ** 62, 2 ** 62 + 7, -2 ** 62 - 7,
          2 ** 63 - 1, -2 ** 63]
    radii = [math.inf] + [r for e in (-1074, -1073, -1025, -1024, -1023, -997, -512, -53, -1,
                                      0, 1, 53, 511, 1023)
                          for r in (2.0 ** e, 1.0 / 2.0 ** e) if r < math.inf]
    for radius in radii:
        for k in ks:
            try:
                want = radius ** k
            except OverflowError:
                with pytest.raises(NumericFailure, match="overflows at unit radius"):
                    _radius_factors(np.array([k]), radius)
                continue
            got = _radius_factors(np.array([k]), radius)
            assert got.dtype == float and got[0].hex() == want.hex(), (radius, k)


def test_apply_gauge_record_refuses_a_radius_that_is_not_a_power_of_two():
    a = PolyMat.constant(np.eye(2), TAU, Q)
    series = PolyMat(2, {0: np.eye(2)}, TAU, Q)
    for radius in (0.75, 3.0, 0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValidationFailure, match="power of two"):
            apply_gauge_record(a, a, GaugeRecord(series, 4, radius=radius))
    out = apply_gauge_record(a, a, GaugeRecord(series, 4, radius=2.0 ** -1074))
    assert out[0].distance(a) == 0.0


def test_apply_gauge_record_maps_back_from_a_radius_below_2_to_the_minus_1023():
    """``normalize`` balances at 2**-1024 when |A_1| is near the float
    maximum, where ``1 / radius`` is inf.  The identity record there
    returns ``A = 0.1 + 1e10 z`` to the bit; with the series ``I + 0.5 z``
    the gauged A's powers 2-4 have no float value at unit radius, which is
    refused, with no warning."""
    a, b = pm({0: [[0.1]], 1: [[1e10]]}), PolyMat.identity(1, TAU, Q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, _ = apply_gauge_record(a, b, GaugeRecord(PolyMat.identity(1, TAU, Q), 4,
                                                      radius=2.0 ** -1024))
        assert out.terms[1][0, 0] == 1e10 and out.distance(a) == 0.0
        series = pm({0: [[1.0]], 1: [[0.5]]})
        with pytest.raises(NumericFailure, match="no float value at unit radius"):
            apply_gauge_record(a, b, GaugeRecord(series, 4, radius=2.0 ** -1024))


# --- the workspace -------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 4, 12])
def test_one_stacked_transform_is_each_value_transformed_alone(dim):
    """``_transforms`` places each value at its own base in one stack and
    transforms it by one ``np.fft.fft`` call: each lane is, to the bit, the
    transform of that value's dense window padded to the length alone, for
    lengths of radices 2, 3 and 5 and sparse values with signed zeros."""
    rng = np.random.default_rng(366 + dim)
    for m in (16, 27, 50, 54, 100):
        values = [sparse_pm(rng, dim, rng.choice(m // 2, size=5, replace=False) - 3)
                  for _ in range(3)]
        placed = [(x, x.min_power - int(rng.integers(0, 3))) for x in values]
        got = _transforms(placed, m)
        for lanes, (x, base) in zip(got, placed):
            dense = np.zeros((m, dim, dim), dtype=complex)
            dense[:x.max_power - base + 1] = x._dense(base, x.max_power)
            assert lanes.tobytes() == np.fft.fft(dense, axis=0).tobytes()


def workspace_calls(n, seed):
    """``{name: call}``: each kernel that takes the workspace, on a scrambled
    object of dimension ``n`` and a balanced gauge, each on its circle path,
    and ``normalize``, which calls them."""
    rng = np.random.default_rng(seed)
    obj = util.scramble(util.random_normal_form(rng, n), rng, shears=1)
    p = balanced_gauge(rng, n, 16)
    a, b = obj.A, obj.B
    lo, hi = min(b.min_power, 0), max(a.max_power, b.max_power, 0)
    return {"commutator": lambda: _commutator(a, b, lo, hi),
            "gauge_transform": lambda: gauge_transform(a, p, 16),
            "dilation_transform": lambda: dilation_transform(b, p, 16),
            "product": lambda: a * b,
            "normalize": lambda: normalize(obj, util.STRIP, 16)}


def bits(result):
    """The bytes and diagnostics of a ``PolyMat`` or a normal form."""
    if isinstance(result, PolyMat):
        return (result.powers(), result._coeffs.tobytes(), sorted(result.diagnostics.items()))
    series = result.gauge.series
    return (result.A0.tobytes(), result.B0.tobytes(), sorted(result.diagnostics.items()),
            bits(series), result.gauge.fold.exponents if result.gauge.fold else None)


def fresh_scratch(slot, shape):
    """``_scratch`` with no workspace: a fresh array of NaNs every call."""
    return np.full(shape, np.nan, dtype=complex)


def test_no_result_aliases_the_workspace_and_none_reads_what_it_left(monkeypatch):
    """Each kernel at n = 12, then every kernel at n = 2, 8 and 4 and on
    another n = 12 object, each over other lengths: the first results keep
    their bits.  Every result, with each workspace buffer filled with NaN
    before the call, is to the bit what fresh arrays of NaNs give, so no
    kernel reads an entry it did not write.  Each kernel takes the slots
    it names: 3 for the commutator (its two transforms stacked in one), 2
    for the circle transports (every operand's transform in one), 1 for
    the product."""
    monkeypatch.setattr(eqconn.laurent, "_WORKSPACE", eqconn.laurent._Workspace())
    first = workspace_calls(12, 360)
    kept = {name: call() for name, call in first.items()}
    before = {name: bits(result) for name, result in kept.items()}
    for n, seed in ((2, 361), (8, 362), (4, 363), (12, 364)):
        for call in workspace_calls(n, seed).values():
            call()
    assert {name: bits(result) for name, result in kept.items()} == before

    slots = {}
    scratch = eqconn.laurent._scratch

    def recorded(slot, shape):
        slots.setdefault(current, set()).add(slot)
        return scratch(slot, shape)

    for n, seed in ((12, 360), (2, 361), (8, 362)):
        for current, call in workspace_calls(n, seed).items():
            for buf in eqconn.laurent._WORKSPACE.buffers.values():
                buf.fill(np.nan)
            with monkeypatch.context() as patched:
                patched.setattr(eqconn.laurent, "_scratch", recorded)
                got = bits(call())
            with monkeypatch.context() as patched:
                patched.setattr(eqconn.laurent, "_scratch", fresh_scratch)
                assert got == bits(call()), (n, current)
            if n == 12:
                assert got == before[current]
    assert slots["commutator"] == {0, 1, 2} and slots["product"] == {0}
    assert slots["gauge_transform"] == slots["dilation_transform"] == {0, 1}


def test_threads_normalizing_at_once_match_a_serial_run_to_the_bit():
    """Six threads on two cores, each normalizing its own object (n = 12,
    8 and 4) five times at once, with the interpreter switching threads
    every 10 µs: every result is the serial run's to the bit, as each
    thread has its own workspace."""
    sizes = (12, 8, 12, 4, 12, 8)
    objs = []
    for i, n in enumerate(sizes):
        rng = np.random.default_rng((365, i))
        objs.append(util.scramble(util.random_normal_form(rng, n), rng, shears=1))
    serial = [bits(normalize(obj, util.STRIP, 16)) for obj in objs]
    results = [[] for _ in objs]
    start = threading.Barrier(len(objs))

    def work(i):
        start.wait(timeout=30)
        for _ in range(5):
            results[i].append(bits(normalize(objs[i], util.STRIP, 16)))

    threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(len(objs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, serial):
        assert got == [want] * 5


def test_a_workspace_request_above_the_cap_is_not_kept(monkeypatch):
    """A request within ``_SCRATCH_BYTES`` reuses its slot's buffer, which
    grows to the largest such request; one above gets a fresh array and
    leaves the buffer as it was.  A commutator at n = 24 whose circle of 120
    points (1.1 MB a slot) tops the cap keeps nothing, and its bits are
    those it gives under a cap that keeps everything."""
    monkeypatch.setattr(eqconn.laurent, "_WORKSPACE", eqconn.laurent._Workspace())
    scratch, cap = eqconn.laurent._scratch, eqconn.laurent._SCRATCH_BYTES // 16
    small = scratch(0, (4, 3))
    assert np.shares_memory(scratch(0, (3, 4)), small)
    assert not np.shares_memory(scratch(0, (cap + 1,)), small)
    buffers = eqconn.laurent._WORKSPACE.buffers
    assert buffers[0].nbytes == 12 * 16
    whole = scratch(0, (cap,))
    assert buffers[0].nbytes == eqconn.laurent._SCRATCH_BYTES
    assert np.shares_memory(scratch(0, (2, 3)), whole)
    del buffers[0]

    rng = np.random.default_rng(366)
    x, y = rand_pm(rng, 24, range(60)), rand_pm(rng, 24, range(60))
    got = _commutator(x, y, 0, 118)
    assert not buffers
    monkeypatch.setattr(eqconn.laurent, "_SCRATCH_BYTES", 16 * 2 ** 20)
    assert same_bits(got, _commutator(x, y, 0, 118))
    assert max(buf.nbytes for buf in buffers.values()) > 2 ** 20
