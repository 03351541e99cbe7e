"""Tests for matrix Laurent polynomials, gauges, and shearing."""

import math

import numpy as np
import pytest

from eqconn.exceptions import RegularityViolation, ValidationFailure
from eqconn.laurent import (
    GaugeRecord,
    PolyMat,
    apply_gauge_record,
    apply_shear,
    dilation_transform,
    gauge_transform,
    invert_shear,
    shear,
    truncated_inverse,
)
from eqconn.numkit import spectral

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
# array shift must match them to the bit and in the order of the powers.

def ref_monomial_diag_data(p):
    exps = [None] * p.dim
    vals = [0.0j] * p.dim
    for k, coeff in p.terms.items():
        if np.any(coeff - np.diag(np.diag(coeff))):
            return None
        for i in range(p.dim):
            v = coeff[i, i]
            if v != 0.0:
                if exps[i] is not None:
                    return None
                exps[i], vals[i] = k, v
    if any(e is None for e in exps):
        return None
    return exps, vals


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
    mono = ref_monomial_diag_data(p)
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
    mono = ref_monomial_diag_data(p)
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
    """Random coefficients at ``powers`` (kept in the given, unsorted order)
    with about a third of the entries exactly zero, some of them -0.0, and
    some nonzero entries with a -0.0 part."""
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
                assert same_bits(new(x, p, 6), ref(x, p, 6)), (kind, new.__name__)


def test_monomial_diag_keeps_first_appearance_order():
    p = PolyMat.monomial_diag([2, -1, 2, 0], TAU, Q)
    assert list(p.terms) == [2, -1, 0]
    assert np.array_equal(p.terms[2], np.diag([1.0, 0.0, 1.0, 0.0]))
    assert ref_monomial_diag_data(p) == ([2, -1, 2, 0], [1.0] * 4)


def test_transports_differ_by_the_drift():
    rng = np.random.default_rng(12)
    a = sparse_pm(rng, 3, [0, 2, 1])
    for kind, p in seeded_gauges(rng, 3).items():
        mono = ref_monomial_diag_data(p)
        if p.is_constant():
            drift = PolyMat.zero(3, TAU, Q)
        elif mono is not None:
            drift = PolyMat.constant(np.diag([TAU * e for e in mono[0]]), TAU, Q)
        else:
            drift = (truncated_inverse(p, 6) * p.delta()).truncate(6)
        gap = gauge_transform(a, p, 6) - dilation_transform(a, p, 6)
        assert gap.distance(drift) < 1e-12 * (1.0 + a.norm()), kind


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
    back = invert_shear(out, step)
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
    rng = np.random.default_rng(10)
    a = PolyMat(2, {0: np.diag([0.1, 0.1 + TAU]), 1: rng.normal(size=(2, 2))},
                TAU, Q)
    b = PolyMat.constant(np.diag([2.0, 3.0]), TAU, Q)
    sd = spectral(a.term(0))
    sheared, step = shear(a, sd, [0, -1] if abs(sd.clusters[0].eigenvalue - 0.1) < 1e-9
                          else [-1, 0])
    series = PolyMat(2, {0: np.eye(2), 1: rng.normal(size=(2, 2)) * 0.2}, TAU, Q)
    record = GaugeRecord(shears=(step,), series=series, truncation=8)
    a2, b2 = apply_gauge_record(a, b, record)
    a_direct = gauge_transform(sheared, series, 8)
    assert a2.distance(a_direct) < 1e-12
    assert b2.dim == 2
