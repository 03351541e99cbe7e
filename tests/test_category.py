"""Tests for objects, normalization, the monodromy correspondence, and the
rigid tensor structure."""

import functools
import importlib.util
import itertools
import math
import os
import resource
import signal
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import eqconn.category
import eqconn.numkit
import util
from eqconn.category import (
    EquivariantConnection,
    K0Class,
    Morphism,
    MonodromyPair,
    NormalForm,
    braiding,
    cokernel,
    coevaluation_map,
    decompose,
    direct_sum,
    dual,
    evaluation_map,
    from_monodromy,
    h0_dim,
    hom_basis,
    hom_mode_dims,
    image,
    is_isomorphic,
    k0_class,
    kernel,
    monodromy,
    normalize,
    tensor,
    triangle_residuals,
    unit_object,
    validate,
    validate_monodromy,
    validate_normal_form,
)
from eqconn.exceptions import (
    EquivarianceViolation,
    NonConstantB,
    NumericFailure,
    RegularityViolation,
    SingularB,
    SpectrumCollision,
    TransversalMismatch,
    ValidationFailure,
)
from eqconn.laurent import PolyMat, _gauged_pair, apply_gauge_record, gauge_transform
from eqconn.numkit import (
    DEFAULT_TOL,
    Transversal,
    TransversalBranchWarning,
    log_transversal,
    reduce_to_transversal,
    spectral,
)
from eqconn.serialize import encode_normal_form
from eqconn.torus import is_nori_finite, psi_star
from reference import (
    _cluster_indices as reference_cluster_indices,
    frozen_label_array,
    frozen_lex_key,
    frozen_projector_groups,
    frozen_tensor,
    reference_balance,
    reference_decompose,
    reference_dual,
    reference_equivariance_norm,
    reference_hom_basis,
    reference_hom_mode_dims,
    reference_normalize,
    reference_product,
    reference_residuals,
    reference_spectral,
    reference_sylvester,
    reference_tensor,
)
from util import Q, STRIP, TAU, THETA, random_commuting_pair, random_normal_form, scramble

TWO_PI_I = 2j * math.pi


def one_dim(zprime, b):
    """1-dim normal form with connection scalar zprime and dilation scalar b."""
    return NormalForm(np.array([[zprime]], dtype=complex),
                      np.array([[b]], dtype=complex), STRIP, THETA, TAU)


def constant_object(a0, b0):
    return EquivariantConnection.from_constant(a0, b0, THETA, TAU, STRIP)


# --- validation -------------------------------------------------------------

def test_validate_scalar_object_clean():
    obj = constant_object([[0.3 * TAU]], [[2.0]])
    diag = validate(obj)
    assert diag["pole_residual"] == 0.0
    assert diag["equivariance_residual"] == 0.0


def test_equivariance_residual_forms_only_the_kept_powers():
    """The windowed residual holds the powers the full pairwise products
    keep there, each within rounding of the largest coefficient product:
    at unit radius and on the balanced pair ``validate`` checks, where the
    commutator is evaluated on the circle."""
    rng = np.random.default_rng(73)
    for n, shears in ((2, 1), (4, 2), (8, 2), (12, 1)):
        obj = scramble(random_normal_form(rng, n), rng, shears=shears, degree=3)
        diag, bal_a, bal_b = eqconn.category._validated(obj, DEFAULT_TOL, strict=True)
        assert diag["radius"] < 1.0
        for a, b in ((obj.A, obj.B), (obj.B, obj.A), (obj.A, obj.A),
                     (bal_a, bal_b), (bal_b, bal_a)):
            lo = min(b.min_power, 0)
            hi = max(a.max_power, b.max_power, 0)
            want = (b.delta() + PolyMat(n, reference_product(a, b), TAU, Q)
                    - PolyMat(n, reference_product(b, a), TAU, Q)).truncate(hi, lo=lo)
            got = eqconn.category.equivariance_residual(a, b)
            assert list(got.terms) == list(want.terms) and len(want.terms) > 1
            scale = a.norm() * b.norm()
            assert all(np.abs(got.terms[k] - want.terms[k]).max() <= 1e-13 * scale
                       for k in want.terms)


@pytest.mark.parametrize("n", [2, 4, 12])
def test_validate_of_a_commuting_constant_pair_is_exactly_clean(n):
    """Constant pairs whose products are exact, A0 against the identity and
    two diagonals, leave a residual of exactly 0.0, whichever kernel forms
    the commutator."""
    rng = np.random.default_rng(74 + n)
    a0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    d1, d2 = rng.normal(size=n) * TAU, rng.normal(size=n) + 3.0
    for a, b in ((a0, np.eye(n)), (np.diag(d1), np.diag(d2))):
        diag = validate(constant_object(a, b))
        assert diag["equivariance_residual"] == diag["equivariance_residual_unit"] == 0.0


def test_validate_of_gapped_powers_answers_with_the_block_products():
    """Powers 10**12 apart span far more powers than the products they
    form: the commutator keeps the block-Toeplitz products, and the residual
    delta(B) of norm 2e12 at z**(10**12) comes back at once (evaluating on
    a circle of 2e12 points would allocate terabytes)."""
    a = PolyMat(2, {0: np.diag([0.3 * TAU, 0.6 * TAU]), 10 ** 12: 1e-3 * np.eye(2)}, TAU, Q)
    b = PolyMat(2, {0: np.eye(2), 10 ** 12: np.eye(2)}, TAU, Q)
    obj = EquivariantConnection(a, b, THETA, TAU, STRIP)
    diag = validate(obj, strict=False)
    assert diag["radius"] == 1.0
    assert diag["equivariance_residual"] == diag["equivariance_residual_unit"] == 2e12
    with pytest.raises(EquivarianceViolation, match="residual 2.000e[+]12 at radius 1"):
        validate(obj)


def test_validate_regularity_violation():
    a = PolyMat(1, {-1: np.eye(1)}, TAU, Q)
    b = PolyMat.identity(1, TAU, Q)
    obj = EquivariantConnection(a, b, THETA, TAU)
    with pytest.raises(RegularityViolation):
        validate(obj)


def test_validate_judges_poles_in_the_balanced_frame():
    """``1e3 I`` at z**-1 of a scrambled n = 12 input lies far below
    ``eps_res ||A||`` at unit radius, where ||A|| is 2.9e16, but is a pole of
    ``A(rho z)``, rho = 1/4, where it reads 4e3 I: validate refuses it, and
    normalize refuses it there too, not later in the fold."""
    rng = np.random.default_rng(1)
    obj = scramble(random_normal_form(rng, 12), rng, shears=2)
    assert validate(obj)["pole_residual"] == 0.0
    poled = util.plant_pole(obj)
    assert poled.A.norm() > 1e16
    diag = validate(poled, strict=False)
    assert diag["radius"] == 0.25
    assert diag["pole_residual_unit"] == pytest.approx(1e3 * np.sqrt(12), rel=1e-12)
    assert diag["pole_residual"] == 4 * diag["pole_residual_unit"]
    for call in (validate, normalize):
        with pytest.raises(RegularityViolation, match="has a pole.*at radius 0.25"):
            call(poled)


def test_validate_equivariance_violation():
    a0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    b0 = np.array([[1.0, 0.0], [0.0, 2.0]])  # [a0, b0] != 0
    with pytest.raises(EquivarianceViolation):
        validate(constant_object(a0, b0))


def test_validate_singular_dilation():
    with pytest.raises(SingularB):
        validate(constant_object(np.zeros((2, 2)), np.diag([1.0, 0.0])))


def test_validate_bounds_the_residual_of_the_balanced_pair():
    """A non-equivariant term planted at a high power passes the bound
    ``eps_res max(1, ||A||) max(1, ||B||)`` at unit radius, which the
    scrambled inputs' growing powers make huge, and fails the same bound on
    the balanced pair; the pole and singular-B checks are as they were."""
    rng = np.random.default_rng(520)
    obj = scramble(random_normal_form(rng, 12), rng, shears=1, degree=3)
    clean = validate(obj)
    assert clean["radius"] < 1.0
    planted = util.plant_non_equivariant_term(obj, rng)
    diag = validate(planted, strict=False)
    assert diag["radius"] == clean["radius"]
    unit_bound = DEFAULT_TOL.eps_res * max(1.0, planted.A.norm()) * max(1.0, planted.B.norm())
    assert diag["equivariance_residual_unit"] < unit_bound
    assert diag["equivariance_residual"] > 1e-4
    with pytest.raises(EquivarianceViolation, match="at radius"):
        validate(planted)
    # the unit residual is the residual of the pair as given, taken in that
    # frame, not the balanced one reweighted
    residual = eqconn.category.equivariance_residual(planted.A, planted.B)
    assert diag["equivariance_residual_unit"] == pytest.approx(residual.norm(), rel=1e-12)


# --- normalization ------------------------------------------------------------

def test_normalize_already_normal_is_identity_gauge():
    nf0 = one_dim(0.25 * TAU, 2.0)
    obj = constant_object(nf0.A0, nf0.B0)
    nf = normalize(obj, STRIP)
    assert np.array_equal(nf.A0, nf0.A0)
    assert np.array_equal(nf.B0, nf0.B0)
    assert nf.gauge.fold is None
    assert nf.gauge.series.is_constant()
    assert nf.diagnostics["gauge_residual"] == 0.0


def test_normalize_single_shear_case():
    """The resonant coupling at z is kept by the series gauge, which is
    constant here, and the fold lands it on power 0."""
    a = PolyMat(2, {0: np.diag([0.0, TAU]),
                    1: np.array([[0.0, 1.0], [0.0, 0.0]])}, TAU, Q)
    b = PolyMat.identity(2, TAU, Q)
    nf = normalize(EquivariantConnection(a, b, THETA, TAU), STRIP)
    assert np.allclose(nf.A0, [[0.0, 1.0], [0.0, 0.0]], atol=1e-10)
    assert np.allclose(nf.B0, np.eye(2), atol=1e-10)
    assert nf.gauge.series.is_constant() and nf.gauge.fold.exponents == (0, -1)
    assert nf.diagnostics["shear_passes"] == 0


def test_normalize_scramble_recovery():
    rng = np.random.default_rng(42)
    for n in (2, 3):
        seed_nf = random_normal_form(rng, n)
        obj = scramble(seed_nf, rng, shears=2)
        nf = normalize(obj, STRIP, order=16)
        assert nf.diagnostics["gauge_residual"] < 1e-8
        assert nf.diagnostics["b_residual"] < 1e-8
        assert all(m > 0 for m in nf.eigen_margins())
        iso = is_isomorphic(seed_nf, nf, seed=1)
        assert iso is not None and iso.is_valid()
        assert len(hom_basis(seed_nf, nf)) == len(hom_basis(seed_nf, seed_nf))


def test_scramble_does_not_call_the_library_spectral(monkeypatch):
    """The benchmark draws its scrambled inputs from ``scramble``; with the
    shears' spectral data from ``reference_spectral`` they stay the same to
    the bit when ``eqconn.numkit.spectral`` changes."""
    seed_nf = random_normal_form(np.random.default_rng(43), 4)
    want = scramble(seed_nf, np.random.default_rng(44), shears=2)

    def no_spectral(*args, **kwargs):
        raise AssertionError("scramble called the library's spectral")

    for module in (eqconn.numkit, eqconn.category, util):
        if hasattr(module, "spectral"):
            monkeypatch.setattr(module, "spectral", no_spectral)
    got = scramble(seed_nf, np.random.default_rng(44), shears=2)
    for g, w in ((got.A, want.A), (got.B, want.B)):
        assert list(g.terms) == list(w.terms)
        assert all(g.terms[k].tobytes() == w.terms[k].tobytes() for k in w.terms)


def test_results_are_unchanged_to_the_bit_with_the_reference_sylvester(monkeypatch):
    """Each order of normalize's series gauge solves in the basis S that
    block diagonalizes A0 over its shift groups what scipy's solver solves
    on ``A0 + k tau`` and A0, to rounding; with scipy's solver in its place
    normalize gives the same normal forms to rounding, and tensor,
    from_monodromy and is_nori_finite, which solve nothing through it, the
    same bits."""
    rng = np.random.default_rng(48)
    objs = [scramble(random_normal_form(rng, n), rng, shears=s)
            for n, s in ((2, 1), (4, 2), (8, 1))]
    objs.append(util.resonant_object(np.random.default_rng(902), gap=1e-3)[1])
    x, y = random_normal_form(rng, 3), random_normal_form(rng, 4)
    reps = [MonodromyPair(*random_commuting_pair(rng, n)) for n in (4, 6)]
    s = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    roots = s @ np.diag(np.exp(TWO_PI_I * np.array([0.2, 0.4, 0.4, 0.5]))) @ np.linalg.inv(s)

    def run():
        normalized = [normalize(obj, STRIP) for obj in objs]
        forms = [tensor(x, y), tensor(x, x)]
        forms += [from_monodromy(rep, STRIP, THETA) for rep in reps]
        bits = [(nf.A0.tobytes(), nf.B0.tobytes(), nf.diagnostics) for nf in forms]
        return normalized, bits, [is_nori_finite(m) for m in (roots, reps[0])]

    want = run()
    kernel, series, bases, gaps = (eqconn.category._triangular_sylvester,
                                   eqconn.category._series, [], [])

    def recorded_series(*args, basis, **kwargs):
        bases.append(basis)
        return series(*args, basis=basis, **kwargs)

    def reference(shifted, t, c, close_ok=False):
        # the dense solve on A0 + k tau and A0, A0 = S t S^-1 and A0 + k
        # tau = S shifted S^-1, brought to the basis S of the gauge being
        # solved
        s, s_inv = bases[-1]
        x_ref = s_inv @ reference_sylvester(s @ shifted @ s_inv, s @ t @ s_inv,
                                            s @ c @ s_inv) @ s
        gaps.append(np.linalg.norm(kernel(shifted, t, c, close_ok) - x_ref)
                    / np.linalg.norm(x_ref))
        return x_ref

    monkeypatch.setattr(eqconn.category, "_series", recorded_series)
    monkeypatch.setattr(eqconn.category, "_triangular_sylvester", reference)
    got = run()
    assert got[1:] == want[1:] and want[2] == [True, False]
    assert len(gaps) > 0 and max(gaps) < 1e-12
    assert any(not np.allclose(s_inv, s.conj().T) for s, s_inv in bases)
    for g, w in zip(got[0], want[0]):
        for name in ("A0", "B0"):
            gap = np.linalg.norm(getattr(g, name) - getattr(w, name))
            assert gap <= 1e-12 * np.linalg.norm(getattr(w, name))


def test_residuals_read_off_the_norm_vectors_are_the_polymat_arithmetic_to_the_bit():
    """``normalize``'s four residuals come off the norm vectors of the
    gauged pair, and ``validate``'s off a sum it does not form: each equals,
    to the bit, the PolyMat arithmetic of ``reference_residuals`` and
    ``reference_equivariance_norm`` on the pair ``_gauged_pair`` replays,
    at unit radius and balanced."""
    rng = np.random.default_rng(77)
    objs = [scramble(random_normal_form(rng, n), rng, shears=s)
            for n, s in ((2, 0), (2, 2), (4, 1), (8, 2), (12, 1))]
    objs.append(util.resonant_object(np.random.default_rng(901), gap=1e-3)[1])
    objs.append(constant_object(np.diag([0.2 * TAU, 0.3 * TAU + 0.1]), np.diag([2.0, 3.0])))
    radii = []
    for obj in objs:
        diag, a, b = eqconn.category._validated(obj, DEFAULT_TOL, strict=True)
        assert diag["equivariance_residual"] == reference_equivariance_norm(a, b)
        assert (validate(obj)["equivariance_residual_unit"]
                == reference_equivariance_norm(obj.A, obj.B))
        nf = normalize(obj, STRIP, 16)
        gauged, b_final = _gauged_pair(a, b, nf.gauge, DEFAULT_TOL)
        assert gauged.term(0).tobytes() == nf.A0.tobytes()
        want = reference_residuals(gauged, b_final, diag["radius"])
        assert {name: nf.diagnostics[name] for name in want} == want
        radii.append((diag["radius"], want["b_residual"]))
    assert any(r < 1.0 and b_left > 0.0 for r, b_left in radii)
    assert (1.0, 0.0) in radii


def assert_normalizes_alike(nf, want, obj, same_k0=True):
    """``nf``, the library's normal form of ``obj``, and ``want``, another
    normal form of it, are one object: isomorphic, with equal K0 classes
    (unless ``same_k0`` is False) and monodromies conjugate by the
    isomorphism; and the gauge ``nf`` records replays on ``obj`` to ``(A0,
    B0)`` within the residuals it reports, at unit radius and, power k
    weighted by ``radius**k``, in the balanced frame."""
    iso = is_isomorphic(want, nf, seed=1)
    assert iso is not None and iso.is_valid()
    assert not same_k0 or k0_class(nf) == k0_class(want)
    m_want, m_nf = monodromy(want), monodromy(nf)
    for m_w, m_n in ((m_want.M1, m_nf.M1), (m_want.M2, m_nf.M2)):
        gap = np.linalg.norm(iso.phi @ m_w - m_n @ iso.phi)
        assert gap <= 1e-8 * np.linalg.norm(iso.phi) * np.linalg.norm(m_w)
    diag, radius = nf.diagnostics, nf.gauge.radius
    a, b = apply_gauge_record(obj.A, obj.B, nf.gauge)
    for p, c0, name in ((a, nf.A0, "gauge_residual"), (b, nf.B0, "b_residual")):
        left = p - PolyMat.constant(c0, TAU, Q)
        assert left.norm() <= diag[name + "_unit"] * (1 + 1e-12)
        weighted = max([radius ** k * np.linalg.norm(c) for k, c in left.terms.items()],
                       default=0.0)
        assert weighted <= diag[name] * (1 + 1e-12)


def test_a_near_resonant_input_keeps_exact_residuals(monkeypatch):
    """A = diag(0, tau - g) + [[0, 1], [0, 0]] z and B = 1.3 I at g = 1e-4,
    both eigenvalues in the strip and short of resonance across its edge:
    the series gauge's first coefficient has norm 1/g, the transports take
    the block-Toeplitz products, and both residuals are exactly 0.0.  With
    ``0.1 I z**2`` added the gauge fills every order and its products would
    pay for the circle, but it is not balanced, so the block products run
    there too.  The same coupling between diag(0.4 tau, 1.4 tau + g), which
    reduce by different shifts, is kept by a constant gauge and folded."""
    g = 1e-4
    a0, nil = np.diag([0.0, TAU - g]), np.array([[0.0, 1.0], [0.0, 0.0]])
    block, calls = eqconn.laurent._block_transport, []
    monkeypatch.setattr(eqconn.laurent, "_block_transport",
                        lambda *args: calls.append(args[-1]) or block(*args))
    forms = []
    for terms in ({0: a0, 1: nil}, {0: a0, 1: nil, 2: 0.1 * np.eye(2)},
                  {0: np.diag([0.4 * TAU, 1.4 * TAU + g]), 1: nil}):
        obj = EquivariantConnection(PolyMat(2, terms, TAU, Q),
                                    PolyMat.constant(1.3 * np.eye(2), TAU, Q), THETA, TAU)
        del calls[:]
        forms.append(normalize(obj, STRIP, 16))
        assert calls == ([True, False] if len(forms) < 3 else [])
    for nf in forms[:2]:
        assert np.linalg.norm(nf.gauge.series.term(1)) == pytest.approx(1 / g, rel=1e-6)
        assert nf.gauge.fold is None
    for nf in forms[::2]:
        diag = nf.diagnostics
        assert diag["gauge_residual"] == diag["b_residual"] == 0.0
        assert diag["gauge_residual_unit"] == diag["b_residual_unit"] == 0.0
    kept = forms[2]
    assert kept.gauge.series.is_constant() and kept.gauge.fold.exponents == (0, -1)
    assert np.allclose(kept.A0, [[0.4 * TAU, 1.0], [0.0, 0.4 * TAU + g]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", (1, 2, 4, 8, 12))
def test_normalize_matches_the_reference(n):
    """The normal form is the one the normalization that sheared every
    cluster and formed every power finds, run on the balanced object; the
    library folds once."""
    rng = np.random.default_rng(500 + n)
    negative_b, folded = False, 0
    for shears in (0, 1, 2):
        obj = scramble(random_normal_form(rng, n), rng, shears=shears)
        negative_b |= obj.B.min_power < 0
        for order in (4, 16, 32):
            nf = normalize(obj, STRIP, order)
            want = reference_normalize(reference_balance(obj)[0], STRIP, order)
            assert nf.diagnostics["shear_passes"] == 0
            folded += nf.gauge.fold is not None
            assert_normalizes_alike(nf, want, obj)
            for name in ("gauge_residual", "b_residual"):
                assert nf.diagnostics[name] <= 10 * want.diagnostics[name] + 1e-12
    assert negative_b == (n > 1)
    assert folded > 0


def test_normalize_matches_the_reference_on_short_and_constant_series():
    rng = np.random.default_rng(510)
    # a scramble whose series ends below the window, cut at order 3 so that
    # its dilation matrix is not constant in any gauge: both raise
    short = scramble(random_normal_form(rng, 3), rng, shears=2, degree=1, order=3)
    assert short.A.max_power < 16
    for fn, obj in ((normalize, short), (reference_normalize, reference_balance(short)[0])):
        with pytest.raises(NonConstantB, match="norm 4.25.e-03 at truncation order 16"):
            fn(obj, STRIP, 16)
    # a constant A, folded by one unit: the series gauge is constant and B,
    # with a tiny term at z**30, is the result as it stands
    a = PolyMat.constant([[1.3 * TAU]], TAU, Q)
    b = PolyMat(1, {0: [[2.0]], 30: [[1e-12]]}, TAU, Q)
    whole = EquivariantConnection(a, b, THETA, TAU)
    nf = normalize(whole, STRIP, 16)
    assert_normalizes_alike(nf, reference_normalize(whole, STRIP, 16), whole)
    assert nf.gauge.series.is_constant() and nf.diagnostics["b_residual"] == 1e-12
    assert nf.gauge.fold.exponents == (-1,) and abs(nf.A0[0, 0] - 0.3 * TAU) < 1e-15


def assert_kept_above_the_groups(nf):
    """A0 of a folded normal form is block upper triangular over the fold's
    groups: nothing below the diagonal blocks, the kept couplings above."""
    e = np.array(nf.gauge.fold.exponents)
    below = nf.A0[e[:, None] < e[None, :]]
    assert np.abs(below).max(initial=0.0) <= 1e-12 * np.linalg.norm(nf.A0)


def test_resonant_inputs_shear_and_recover_their_seed():
    """Eigenvalues of A(0) exactly tau apart, coupled at power 1, and pairs
    tau + 5e-8 and tau + 1e-3 apart reduce by shifts one apart: the series
    gauge keeps their coupling at z and the one fold shears it onto power 0,
    with no shearing passes.  Each normalizes to its seed."""
    for gap in (0.0, 5e-8, 1e-3):
        for seed in (900, 901, 902, 903):
            want, obj = util.resonant_object(np.random.default_rng(seed), gap=gap)
            nf = normalize(obj, STRIP, 16)
            diag = nf.diagnostics
            assert diag["shear_passes"] == 0
            assert diag["resonance_separation"] > DEFAULT_TOL.eps_spec
            assert sorted(set(nf.gauge.fold.exponents)) == [-1, 0]
            assert_kept_above_the_groups(nf)
            assert_normalizes_alike(nf, want, obj)
            assert max(diag["gauge_residual"], diag["b_residual"]) < 1e-12
    # the exactly resonant input has no series gauge that keeps its A(0)
    # and kills every coupling: order 1 has no solution; the library's
    # gauge keeps the block, so the gauged power 1 is left and no other
    want, obj = util.resonant_object(np.random.default_rng(900))
    a = eqconn.category._validated(obj, DEFAULT_TOL, True)[1]
    a0, eye = a.term(0), np.eye(obj.n)
    with pytest.raises(SpectrumCollision):
        eqconn.numkit.solve_sylvester(a0 + TAU * eye, a0, -a.term(1))
    form = eqconn.numkit._shift_groups(*eqconn.numkit._clustered_schur(a0, DEFAULT_TOL),
                                       STRIP, DEFAULT_TOL)
    fold = eqconn.category._fold_step(form)
    series, _ = eqconn.category._series_gauge(a, form, fold, TAU, 16, DEFAULT_TOL)
    gauged = gauge_transform(a, series, 16)
    assert np.linalg.norm(gauged.term(1)) > 0.1
    assert max(np.linalg.norm(gauged.term(k)) for k in range(2, 17)) < 1e-14 * a.norm()


def test_normalize_takes_one_schur_form_and_no_spectral(monkeypatch):
    """A scrambled input and a resonant one each take one Schur form of
    A(0) and no ``spectral``: the fold's groups come from that form.  The
    check of the result takes one more, of A0, which the normal form keeps,
    so ``nf.schur_form()`` takes none."""
    rng = np.random.default_rng(520)
    objs = [scramble(random_normal_form(rng, 8), rng, shears=2),
            util.resonant_object(np.random.default_rng(900))[1]]
    original = eqconn.numkit._schur

    def counting(*args, **kwargs):
        calls["_schur"] += 1
        return original(*args, **kwargs)

    def spectral_call(*args, **kwargs):
        calls["spectral"] += 1
        return spectral(*args, **kwargs)

    monkeypatch.setattr(eqconn.numkit, "_schur", counting)
    for module in (eqconn.numkit, eqconn.category):
        monkeypatch.setattr(module, "spectral", spectral_call)
    for obj in objs:
        calls = {"_schur": 0, "spectral": 0}
        nf = normalize(obj, STRIP, 16)
        assert calls == {"_schur": 2, "spectral": 0}
        nf.schur_form()
        assert calls == {"_schur": 2, "spectral": 0}
        assert nf.gauge.fold is not None and nf.diagnostics["shear_passes"] == 0


def test_every_spectral_read_of_a_normal_form_takes_its_schur_form(monkeypatch):
    """``normalize``, ``validate_normal_form``, ``eigen_margins``, ``h0_dim``
    and the report make no eigenvalue call: the eigenvalues of A0 are the
    diagonal of the normal form's Schur form, in its order in the report,
    and they are the eigenvalues of ``decompose``'s labels."""
    rng = np.random.default_rng(64)
    objs = [scramble(random_normal_form(rng, n), rng, shears=2) for n in (2, 4, 8, 12)]
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda m: calls.append(m.shape) or eigvals(m))
    for obj in objs:
        nf = normalize(obj, STRIP, 16)
        validate_normal_form(nf)
        margins = nf.eigen_margins()
        h0_dim(nf)
        report = encode_normal_form(nf)
        assert calls == []
        lams = np.diag(nf.schur_form()[0])
        got = np.array(report["eigenvalues"])
        assert got.tobytes() == np.stack([lams.real, lams.imag], axis=1).tobytes()
        assert margins == [STRIP.boundary_distance(lam) for lam in lams]
        assert nf.diagnostics["strip_margin"] == min(margins)
        labels = np.sort([lam for lam, _ in decompose(nf)])
        scale = max(1.0, np.linalg.norm(nf.A0))
        assert np.abs(labels - np.sort(lams)).max() <= 1e-12 * scale
        calls.clear()


def test_reference_spectral_agrees_with_the_library():
    rng = np.random.default_rng(45)
    repeated = np.diag([0.3 * TAU, 0.3 * TAU, 0.1, 0.1 + 1e-12, -0.4, 0.5j])
    s = rng.normal(size=(6, 6)) + 3.0 * np.eye(6)
    for m in (s @ repeated @ np.linalg.inv(s), random_normal_form(rng, 8).A0,
              np.array([[0.2 + 0.1j]])):
        ref, lib = reference_spectral(m), spectral(m)
        assert [c.multiplicity for c in ref.clusters] == [c.multiplicity for c in lib.clusters]
        assert np.allclose(ref.similarity, lib.similarity, rtol=1e-10, atol=1e-12)
        blocks = np.linalg.solve(ref.similarity, m @ ref.similarity)
        start = 0
        for c in ref.clusters:
            stop = start + c.multiplicity
            blocks[start:stop, start:stop] = 0.0
            start = stop
        assert np.linalg.norm(blocks) < 1e-10 * np.linalg.norm(m)


# scrambled inputs (n, rng seed, shears) whose normalization at unit radius
# raises NonConstantB or leaves a residual above 1e-8
UNIT_RADIUS_FAILURES = ((8, 624, 0), (12, 600, 0), (12, 625, 1), (12, 626, 2))


@pytest.mark.parametrize("n, seed, shears", UNIT_RADIUS_FAILURES)
def test_balanced_normalize_recovers_the_seed_where_the_unit_radius_fails(n, seed, shears):
    """Balanced, these inputs normalize to a form isomorphic to their seed,
    and the recorded gauge replays on the input in the frame it was taken."""
    rng = np.random.default_rng(seed)
    seed_nf = random_normal_form(rng, n)
    obj = scramble(seed_nf, rng, shears=shears, degree=3)
    try:
        old = reference_normalize(obj, STRIP, 16)
    except NonConstantB:
        pass
    else:
        assert max(old.diagnostics["gauge_residual"], old.diagnostics["b_residual"]) > 1e-8
    nf = normalize(obj, STRIP, 16)
    diag, radius = nf.diagnostics, nf.gauge.radius
    assert radius < 1.0 and diag["radius"] == radius
    assert max(diag["gauge_residual"], diag["b_residual"]) < 1e-12
    assert nf.diagnostics["shear_passes"] == 0
    # forward oracle: the normal form is the seed's, up to isomorphism, and
    # the recorded gauge replays on the input within the reported residuals
    assert_normalizes_alike(nf, seed_nf, obj)
    for name in ("gauge_residual", "b_residual"):
        assert diag[name] < diag[name + "_unit"]


def test_normalize_leaves_a_unit_radius_input_as_it_was():
    """An input no power of whose connection matrix outgrows its constant
    term is not rescaled: the normal form is the one the unbalanced input
    gives, and each residual is its own unit-radius value."""
    for n, seed in ((2, 700), (3, 702)):
        rng = np.random.default_rng(seed)
        obj = scramble(random_normal_form(rng, n), rng, shears=1, degree=1)
        assert obj.A.max_power == 48
        nf = normalize(obj, STRIP, 16)
        assert_normalizes_alike(nf, reference_normalize(obj, STRIP, 16), obj)
        assert nf.gauge.radius == nf.diagnostics["radius"] == 1.0
        for name in ("gauge_residual", "b_residual"):
            assert nf.diagnostics[name + "_unit"] == nf.diagnostics[name]


def test_normalize_refuses_an_order_below_1():
    """Truncation orders 0 and -3 used to return A(0) as a normal form, with
    the power-1 term left in the gauge residual."""
    a = PolyMat(2, {0: np.diag([0.3 * TAU, 0.6 * TAU]),
                    1: np.array([[0.0, 1.0], [1.0, 0.0]])}, TAU, Q)
    obj = EquivariantConnection(a, PolyMat.identity(2, TAU, Q), THETA, TAU)
    for order in (0, -3):
        with pytest.raises(ValidationFailure, match="at least 1"):
            normalize(obj, STRIP, order)
    assert normalize(obj, STRIP, 1).diagnostics["gauge_residual"] < 1e-12


def test_normalize_folds_a_jordan_block_on_the_strip_edge_whole():
    """Rounding splits the block into clusters that reduce by different
    shifts, whose projectors (norm 5e9-1e10) join them into one group: it
    folds whole, by the shift of its mean, with a branch warning, and the
    normal form is the seed with the block moved by -tau onto the left
    edge, B0 as it was."""
    for seed in range(20):
        obj = util.strip_edge_jordan_object(np.random.default_rng(seed))
        with pytest.warns(TransversalBranchWarning):
            nf = normalize(obj, STRIP)
        assert nf.diagnostics["gauge_residual"] <= 1e-12
        folded = util.jordan_normal_form([(STRIP.tau * 0.2j, (3,), [1.5, 0.3]),
                                          (0.4 * STRIP.tau, (1,), [2.0])])
        folded = util.conjugate(folded, util.well_conditioned(np.random.default_rng(seed), 4))
        iso = is_isomorphic(folded, nf)
        assert iso is not None and iso.is_valid()


def within_seconds(seconds, fn):
    """``fn()``, failed with ``TimeoutError`` when it runs longer."""
    def overdue(signum, frame):
        raise TimeoutError("ran for more than %g s" % seconds)

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_normalize_folds_an_input_whose_unit_step_is_below_rounding():
    """A(0) = diag(3e8 tau, 6e8 tau) is so large that a unit step tau lies
    below its rounding: shearing it into the strip one step at a time would
    take 9e8 steps, and the reference refuses it.  One fold takes it to
    diag(0, 0) at once."""
    a = PolyMat.constant(np.diag([3e8 * TAU, 6e8 * TAU]), TAU, Q)
    obj = EquivariantConnection(a, PolyMat.identity(2, TAU, Q), THETA, TAU)
    with pytest.raises(NumericFailure, match="unit step of norm 1.414e.00 lies below"):
        within_seconds(10.0, lambda: reference_normalize(obj, STRIP))
    nf = within_seconds(10.0, lambda: normalize(obj, STRIP))
    assert np.array_equal(nf.A0, np.zeros((2, 2))) and np.array_equal(nf.B0, np.eye(2))
    assert nf.gauge.fold.exponents == (-300000000, -600000000)
    assert nf.diagnostics["gauge_residual"] == nf.diagnostics["b_residual"] == 0.0


def test_normalize_shears_a_resonant_input_many_steps_off_the_strip():
    """The resonant seed of ``util.resonant_object`` gauged by ``z**40`` sits
    40 and 41 unit steps off the strip: one fold by ``z**40`` and ``z**41``
    takes it to a normal form isomorphic to its seed and to the reference's,
    which shears it one step at a time, 131 in all."""
    want, obj = util.resonant_object(np.random.default_rng(900))
    far = util.gauged_by_power(obj, 40)
    nf = normalize(far, STRIP, 16)
    assert sorted(set(nf.gauge.fold.exponents)) == [-41, -40]
    assert_kept_above_the_groups(nf)
    assert_normalizes_alike(nf, want, far)
    ref = reference_normalize(far, STRIP, 16)
    assert ref.diagnostics["shear_passes"] == 131
    assert_normalizes_alike(nf, ref, far)


def test_normalize_folds_a_resonant_input_400_steps_off_the_strip():
    """Gauged by ``z**400``, the seed is one fold away as well, isomorphic
    within its residuals.  The K0 class is not compared: at ``||A(0)||``
    about 1.1e3 rounding splits the Jordan block's eigenvalue by about
    6.6e-8, beyond eps_spec, into two keys."""
    want, obj = util.resonant_object(np.random.default_rng(900))
    far = util.gauged_by_power(obj, 400)
    nf = within_seconds(10.0, lambda: normalize(far, STRIP, 16))
    assert sorted(set(nf.gauge.fold.exponents)) == [-401, -400]
    assert max(nf.diagnostics["gauge_residual"], nf.diagnostics["b_residual"]) < 1e-10
    assert_normalizes_alike(nf, want, far, same_k0=False)


def test_normalize_folds_a_coupled_pair_far_off_the_strip():
    """diag(lam, lam + tau) + [[0, 1], [0, 0]] z with lam 40 tau off the
    strip, where the shearing passes took 81 steps, and 1e6 tau off, where
    they would have taken about 1e6: one fold each, to one A0 within the
    rounding of the larger A(0)."""
    lam, nil = (0.3 + 0.1j) * TAU, np.array([[0.0, 1.0], [0.0, 0.0]])
    forms = []
    for steps in (40, 10 ** 6):
        far = lam + steps * TAU
        a = PolyMat(2, {0: np.diag([far, far + TAU]), 1: nil}, TAU, Q)
        obj = EquivariantConnection(a, PolyMat.identity(2, TAU, Q), THETA, TAU)
        nf = within_seconds(10.0, lambda: normalize(obj, STRIP, 16))
        assert nf.gauge.fold.exponents == (-steps, -steps - 1)
        forms.append(nf)
    assert np.allclose(forms[0].A0, [[lam, 1.0], [0.0, lam]], rtol=0, atol=1e-13)
    assert np.allclose(forms[1].A0, forms[0].A0, rtol=0, atol=1e-9)


def test_normalize_raises_a_collision_across_the_strip_edge():
    """diag(1e-10 tau, (1 - 1e-10) tau) + [[0, 1], [0, 0]] z, B = I: both
    eigenvalues reduce by shift 0, and order 1 would solve across a gap of
    2e-10 |tau|, within eps_spec."""
    a = PolyMat(2, {0: np.diag([1e-10 * TAU, (1 - 1e-10) * TAU]),
                    1: np.array([[0.0, 1.0], [0.0, 0.0]])}, TAU, Q)
    obj = EquivariantConnection(a, PolyMat.identity(2, TAU, Q), THETA, TAU)
    with pytest.raises(SpectrumCollision) as err:
        normalize(obj, STRIP, 16)
    assert err.value.gap == pytest.approx(2e-10 * abs(TAU), rel=1e-5)


def test_normalize_refuses_unit_residuals_past_the_float_range():
    """A = 0.1 + 1.5e308 z, B = 1 balances at radius 2**-1024 with finite
    residuals there; weighted back to unit radius they have no float
    value, which ``normalize`` refuses naming the first rather than report
    inf.  At 1e300 z the radius's own powers overflow first."""
    a = PolyMat(1, {0: np.array([[0.1]]), 1: np.array([[1.5e308]])}, TAU, Q)
    obj = EquivariantConnection(a, PolyMat.identity(1, TAU, Q), THETA, TAU)
    with pytest.raises(NumericFailure, match="gauge_residual_unit has no float value at radius"):
        normalize(obj, STRIP)
    a = PolyMat(1, {0: np.array([[0.1]]), 1: np.array([[1e300]])}, TAU, Q)
    with pytest.raises(NumericFailure, match="gauge overflows at unit radius"):
        normalize(EquivariantConnection(a, PolyMat.identity(1, TAU, Q), THETA, TAU), STRIP)


def test_normalize_rejects_wrong_strip_modulus():
    obj = constant_object([[0.0]], [[1.0]])
    with pytest.raises(TransversalMismatch):
        normalize(obj, Transversal(2.0 * TAU))


# --- monodromy correspondence ----------------------------------------------------

def test_from_monodromy_trivial_pair():
    nf = from_monodromy(MonodromyPair(np.eye(2), np.eye(2)), STRIP, THETA)
    assert np.allclose(nf.A0, np.zeros((2, 2)), atol=1e-12)
    assert np.allclose(nf.B0, np.eye(2))


def test_from_monodromy_scalar_branch():
    m1 = np.array([[np.exp(TWO_PI_I * 0.3)]])
    nf = from_monodromy(MonodromyPair(m1, np.array([[2.0]])), STRIP, THETA)
    assert abs(nf.A0[0, 0] - 0.3 * TAU) < 1e-12
    assert nf.B0[0, 0] == 2.0


def test_from_monodromy_unipotent():
    m1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    nf = from_monodromy(MonodromyPair(m1, np.eye(2)), STRIP, THETA)
    expected = (TAU / TWO_PI_I) * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(nf.A0, expected)


def test_monodromy_of_flat_unit():
    rep = monodromy(one_dim(0.0, 1.0))
    assert np.allclose(rep.M1, np.eye(1))
    assert np.allclose(rep.M2, np.eye(1))


def test_monodromy_scalar():
    rep = monodromy(one_dim(0.3 * TAU, 5.0))
    assert abs(rep.M1[0, 0] - np.exp(0.6j * math.pi)) < 1e-12
    assert rep.M2[0, 0] == 5.0


def test_monodromy_roundtrip_random_pairs():
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        m1, m2 = random_commuting_pair(rng, n)
        rep = MonodromyPair(m1, m2)
        back = monodromy(from_monodromy(rep, STRIP, THETA))
        scale = np.linalg.norm(m1) + np.linalg.norm(m2)
        err = np.linalg.norm(back.M1 - m1) + np.linalg.norm(back.M2 - m2)
        assert err < 1e-8 * scale


def test_correspondence_idempotent_on_normal_forms():
    rng = np.random.default_rng(9)
    for n in (1, 3, 5):
        nf = random_normal_form(rng, n)
        again = from_monodromy(monodromy(nf), STRIP, THETA)
        assert np.linalg.norm(again.A0 - nf.A0) < 1e-9 * max(1.0, np.linalg.norm(nf.A0))
        assert np.linalg.norm(again.B0 - nf.B0) < 1e-12 * max(1.0, np.linalg.norm(nf.B0))


def test_from_monodromy_holds_the_schur_form_of_its_logarithm(monkeypatch):
    """The normal form of a commuting pair keeps the Schur form its
    logarithm is triangular in: A0 is ``log_transversal(M1)`` to the bit,
    and ``decompose`` and ``psi_star`` take no Schur form."""
    rng = np.random.default_rng(65)
    reps = [MonodromyPair(*random_commuting_pair(rng, n)) for n in (2, 4, 8, 12)]
    original = eqconn.numkit._schur
    calls = []
    monkeypatch.setattr(eqconn.numkit, "_schur",
                        lambda m: calls.append(m.shape) or original(m))
    for rep in reps:
        want = log_transversal(rep.M1, STRIP)
        calls.clear()
        nf = from_monodromy(rep, STRIP, THETA)
        assert nf.A0.tobytes() == want.tobytes()
        decompose(nf)
        psi_star(nf)
        assert calls == [rep.M1.shape]
        back = monodromy(nf)
        scale = np.linalg.norm(rep.M1) + np.linalg.norm(rep.M2)
        err = np.linalg.norm(back.M1 - rep.M1) + np.linalg.norm(back.M2 - rep.M2)
        assert err < 1e-8 * scale


def test_a_round_trip_decomposes_each_matrix_once(monkeypatch):
    """``from_monodromy`` takes the SVDs of M1 and M2 in one stacked call
    (four calls once: ``_log_schur`` and ``validate_normal_form`` took
    their own) and one exponential, which ``monodromy`` then copies
    instead of taking a second.  Every value is a fresh computation's to the bit: A0 is
    ``log_transversal(M1)``, ``log_residual`` the error of a fresh
    exponential, B0's smallest singular value a fresh SVD's, and the pair
    ``monodromy`` returns a fresh exponential of A0 and M2."""
    rng = np.random.default_rng(66)
    svd, mat_exp = np.linalg.svd, eqconn.category.mat_exp
    svds, exps = [], []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    monkeypatch.setattr(eqconn.category, "mat_exp", lambda m: exps.append(1) or mat_exp(m))
    for n in (1, 2, 4, 8, 12):
        rep = MonodromyPair(*random_commuting_pair(rng, n))
        svds.clear()
        nf = from_monodromy(rep, STRIP, THETA)
        back = monodromy(nf)
        assert (len(svds), len(exps)) == (1, 1)
        exps.clear()
        fresh = mat_exp(TWO_PI_I * nf.A0 / STRIP.tau)
        assert nf.A0.tobytes() == log_transversal(rep.M1, STRIP).tobytes()
        assert nf.diagnostics["log_residual"] == float(np.linalg.norm(fresh - rep.M1))
        assert validate_normal_form(nf)["b_smallest_singular_value"] == \
            float(svd(rep.M2, compute_uv=False)[-1])
        assert back.M1.tobytes() == fresh.tobytes() and back.M2.tobytes() == rep.M2.tobytes()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("m1", [np.eye(2), np.zeros((2, 2))])
def test_a_pair_with_an_entry_that_is_not_finite_is_refused(bad, m1):
    """M2 with an inf or a nan entry is refused before its SVD, whatever M1
    is, with no warning: it once gave "do not commute: residual nan" with
    numpy's warning, or LinAlgError from the SVD."""
    rep = MonodromyPair(m1.astype(complex), np.diag([bad, 1.0]).astype(complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationFailure, match="finite entries"):
            validate_monodromy(rep)
        with pytest.raises(ValidationFailure, match="finite entries"):
            from_monodromy(rep, STRIP, THETA)


def test_monodromy_hands_out_copies_of_what_the_form_keeps():
    """Writing into a pair ``monodromy`` returned leaves the next call's
    pair as it was, for a form that keeps its exponential and for one that
    does not; the kept arrays and B0 are read-only."""
    rng = np.random.default_rng(67)
    kept = from_monodromy(MonodromyPair(*random_commuting_pair(rng, 3)), STRIP, THETA)
    for nf in (kept, random_normal_form(rng, 3)):
        first = monodromy(nf)
        want = first.M1.tobytes(), first.M2.tobytes()
        first.M1[:] = 0.0
        first.M2[:] = 0.0
        again = monodromy(nf)
        assert (again.M1.tobytes(), again.M2.tobytes()) == want
        assert again.M1.flags.writeable and again.M2.flags.writeable
    for array in (kept._memo["monodromy"], kept.B0):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0


def test_from_monodromy_refuses_the_empty_pair_without_a_warning():
    """The logarithm of an empty M1 is refused as singular, as it was when
    ``_log_schur`` took its own SVD, though ``validate_monodromy`` passes
    the empty pair with the singular values ``[1.0]``."""
    empty = np.zeros((0, 0), dtype=complex)
    rep = MonodromyPair(empty, empty)
    assert validate_monodromy(rep)["M1_smallest_singular_value"] == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationFailure, match="singular"):
            from_monodromy(rep, STRIP, THETA)


def test_b0_is_read_only_once_hom_basis_or_from_monodromy_holds_data_of_it():
    """``from_monodromy`` keeps the singular values of B0 and ``hom_basis``
    its ``_HomSide``, both read off B0: B0 is read-only from then on, and
    so are the side's arrays."""
    rng = np.random.default_rng(68)
    nf = from_monodromy(MonodromyPair(*random_commuting_pair(rng, 3)), STRIP, THETA)
    with pytest.raises(ValueError, match="read-only"):
        nf.B0[0, 0] = 1.0
    x = random_normal_form(rng, 3)
    x.B0[0, 0] += 0.0
    hom_basis(x, x)
    with pytest.raises(ValueError, match="read-only"):
        x.B0[0, 0] = 1.0
    side = x._memo[(DEFAULT_TOL, "side")]
    assert not any(array.flags.writeable for array in side)


def test_a_factor_reads_its_norms_after_a_product_built_its_hom_side():
    """A product reads its factors' Hom sides without their norms; the
    factor's own ``hom_basis`` then takes the true ||A0||_F and ||B0||_F.
    Here ||B0||_F is about 1e12 and ||A0||_F about 1: the rounding of the
    intertwining system, about 1e-4, passes eps_res at the scale of A0, so
    a side without B0's norm would lose part of End(x), of dim 3."""
    rng = np.random.default_rng(3)
    s = util.well_conditioned(rng, 3)
    s_inv = np.linalg.inv(s)
    a0 = s @ np.diag([0.3 * TAU, 0.3 * TAU, 0.6 * TAU]) @ s_inv
    x = NormalForm(a0, 1e12 * s @ np.diag([1.0, 2.0 + 1.0j, 0.5]) @ s_inv, STRIP, THETA, TAU)
    fresh = NormalForm(x.A0.copy(), x.B0.copy(), STRIP, THETA, TAU)
    t = tensor(x, random_normal_form(rng, 2))
    hom_basis(t, t)
    built = x._memo[(DEFAULT_TOL, "side")]
    assert built.a_norm is None and built.b_norm is None
    assert len(hom_basis(x, x)) == len(hom_basis(fresh, fresh)) == 3
    side = eqconn.category._hom_side(x, DEFAULT_TOL)
    assert side.a_norm == np.linalg.norm(x.A0) and side.b_norm == np.linalg.norm(x.B0)
    assert side.u is built.u
    blind = side._replace(a_norm=0.0, b_norm=0.0)
    kernels = eqconn.category._hom_components(x, blind, x, blind, 0, DEFAULT_TOL)
    assert sum(len(kernel) for _, kernel, _ in kernels) < 3


def test_each_object_builds_its_hom_side_once(monkeypatch):
    """A tensor-decompose job's ``hom_basis(t, y (x) x)`` and ``hom_basis(t,
    t)`` build each product's ``_HomSide`` once, read off its factors', and
    each factor's side once, which ``t`` and ``y (x) x`` share; the
    morphisms are to the bit those of sides built afresh for each call."""
    rng = np.random.default_rng(69)
    x, y = random_normal_form(rng, 2), random_normal_form(rng, 2)
    t, yx = tensor(x, y), tensor(y, x)
    built = []
    for name in ("_strip_side", "_product_side"):
        monkeypatch.setattr(eqconn.category, name, functools.partial(
            lambda name, inner, nf, *args: built.append((id(nf), name)) or inner(nf, *args),
            name, getattr(eqconn.category, name)))
    hom, end = hom_basis(t, yx), hom_basis(t, t)
    assert built == [(id(t), "_product_side"), (id(x), "_strip_side"), (id(y), "_strip_side"),
                     (id(yx), "_product_side")]
    assert len(hom) == len(end) > 0
    for got, (src, tgt) in ((hom, (t, yx)), (end, (t, t))):
        for nf, kind in itertools.product((src, tgt, x, y), ("hom", "side")):
            nf._memo.pop((DEFAULT_TOL, kind), None)
        fresh = hom_basis(src, tgt)
        assert [m.phi.tobytes() for m in got] == [m.phi.tobytes() for m in fresh]
    assert len(built) == 4 + 4 + 3


def test_normalize_refuses_an_order_whose_gauge_would_not_fit(monkeypatch):
    """An order whose series gauge arrays would top ``MAX_GAUGE_ENTRIES``
    entries, ``order * n**2``, is refused before the object is validated;
    ``--truncation 100000000`` used to ask for 6 GiB of gaps at n = 2."""
    a = PolyMat(2, {0: np.diag([0.3 * TAU, 0.6 * TAU])}, TAU, Q)
    obj = EquivariantConnection(a, PolyMat.identity(2, TAU, Q), THETA, TAU)
    monkeypatch.setattr(eqconn.category, "_validated", pytest.fail)
    for order in (eqconn.category.MAX_GAUGE_ENTRIES // 4 + 1, 10**8, 10**30):
        with pytest.raises(ValidationFailure, match="too large"):
            normalize(obj, STRIP, order)


# --- tensor structure ---------------------------------------------------------------

def test_tensor_dilation_is_np_kron_to_the_bit():
    rng = np.random.default_rng(70)
    for nx, ny in ((1, 3), (2, 2), (4, 3)):
        x, y = random_normal_form(rng, nx), random_normal_form(rng, ny)
        assert tensor(x, y).B0.tobytes() == np.kron(x.B0, y.B0).tobytes()


def test_tensor_with_unit_preserves_data():
    x = one_dim(0.4 * TAU, 3.0 + 1.0j)
    u = unit_object(THETA, TAU, STRIP)
    xt = tensor(x, u)
    assert np.allclose(xt.A0, x.A0)
    assert np.allclose(xt.B0, x.B0)


def test_tensor_scalar_reduction():
    x = one_dim(0.6 * TAU, 2.0)
    y = one_dim(0.7 * TAU, 3.0 - 1.0j)
    xy = tensor(x, y)
    assert abs(xy.A0[0, 0] - 0.3 * TAU) < 1e-12
    assert abs(xy.B0[0, 0] - 2.0 * (3.0 - 1.0j)) < 1e-12


def test_tensor_monodromy_is_kronecker():
    rng = np.random.default_rng(10)
    for n, m in ((2, 2), (2, 3), (3, 2)):
        x = random_normal_form(rng, n)
        y = random_normal_form(rng, m)
        xy = tensor(x, y)
        rep_xy = monodromy(xy)
        rep_x, rep_y = monodromy(x), monodromy(y)
        k1 = np.kron(rep_x.M1, rep_y.M1)
        k2 = np.kron(rep_x.M2, rep_y.M2)
        assert np.linalg.norm(rep_xy.M1 - k1) < 1e-8 * max(1.0, np.linalg.norm(k1))
        assert np.linalg.norm(rep_xy.M2 - k2) < 1e-12 * max(1.0, np.linalg.norm(k2))
        for lam in np.linalg.eigvals(xy.A0):
            assert STRIP.contains(lam, margin=1e-9)


def _jordan_factor(rng, patterns):
    """An exact Jordan normal form, one group per tuple of block sizes in
    ``patterns``, at random eigenvalues inside the strip, with a scalar
    dilation on each group (rounding would split the labels of a dilation
    with a nilpotent part beyond eps_key: ROADMAP item 3)."""
    spec = [(TAU * complex(rng.uniform(0.15, 0.85), rng.uniform(-0.5, 0.5)), sizes,
             [np.exp(0.3 * complex(rng.normal(), rng.normal()))])
            for sizes in patterns]
    return util.jordan_normal_form(spec)


# (name, factors): x (x) y, x (x) x and exact Jordan factors, of dims 4-144
TENSOR_CASES = [
    ("xy_4", lambda rng: (random_normal_form(rng, 2), random_normal_form(rng, 2))),
    ("xx_16", lambda rng: (random_normal_form(rng, 4),) * 2),
    ("xy_64", lambda rng: (random_normal_form(rng, 8), random_normal_form(rng, 8))),
    ("xx_144", lambda rng: (random_normal_form(rng, 12),) * 2),
    ("jordan_4", lambda rng: (_jordan_factor(rng, ((2,),)),) * 2),
    ("jordan_16", lambda rng: (_jordan_factor(rng, ((2,), (1, 1))),
                               _jordan_factor(rng, ((3,), (1,))))),
    ("jordan_64", lambda rng: (_jordan_factor(rng, ((4,), (2, 2))),
                               _jordan_factor(rng, ((2, 1), (3, 2))))),
    ("jordan_144", lambda rng: (_jordan_factor(rng, ((3, 2), (4, 1), (2,))),
                                _jordan_factor(rng, ((2, 2), (3,), (4, 1))))),
    # 0.6 + 0.8 folds onto 0.1 + 0.3: the folded form's clusters interleave
    ("jordan_folds_onto_12", lambda rng: tuple(
        util.jordan_normal_form([(a * TAU, sa, [1.5 - 0.5j]), (b * TAU, sb, [0.5 + 1j])])
        for a, sa, b, sb in ((0.1, (2,), 0.6, (1,)), (0.3, (1,), 0.8, (2, 1))))),
]


def _same_shifts(got, want, scale, radius=1e-8):
    """Each cluster of one fold takes the shift of the other's cluster
    nearest in mean, within ``radius`` of the scale, both ways."""
    for one, other in ((got, want), (want, got)):
        means = np.array([lam for lam, _ in other])
        for lam, shift in one:
            j = int(np.argmin(np.abs(means - lam)))
            assert abs(means[j] - lam) <= radius * scale and other[j][1] == shift


def _check_handed_over_form(nf):
    """The Schur form a product holds from birth: triangular, read-only,
    clusters contiguous, reassembling A0."""
    t, q, blocks = nf.schur_form()
    scale = max(1.0, np.linalg.norm(nf.A0))
    assert not np.tril(t, -1).any()
    assert not (t.flags.writeable or q.flags.writeable or nf.A0.flags.writeable)
    assert np.linalg.norm(q @ t @ q.conj().T - nf.A0) <= 1e-13 * scale
    labels = reference_cluster_indices(list(np.diag(t)), DEFAULT_TOL.eps_spec)
    assert [s0 for s0, _, _ in blocks] + [len(t)] == [0] + [s1 for _, s1, _ in blocks]
    assert [labels[s0:s1] for s0, s1, _ in blocks] == [[i] * (s1 - s0)
                                                       for i, (s0, s1, _) in enumerate(blocks)]
    for s0, s1, lam in blocks:
        assert abs(np.mean(np.diag(t)[s0:s1]) - lam) <= 1e-14 * scale


@pytest.mark.parametrize("make", [m for _, m in TENSOR_CASES],
                         ids=[name for name, _ in TENSOR_CASES])
def test_tensor_and_dual_match_the_dense_oracles(make):
    x, y = make(np.random.default_rng(51))
    xy = tensor(x, y)
    b0 = np.kron(x.B0, y.B0)
    a0, shifts = reference_tensor(x, y)
    scale = max(1.0, np.linalg.norm(a0))
    _same_shifts(xy.diagnostics["fold_shifts"], shifts, scale)
    assert np.linalg.norm(xy.A0 - a0) <= 1e-12 * scale
    assert np.array_equal(xy.B0, b0)
    ref = NormalForm(a0, b0, STRIP, THETA, TAU)
    assert k0_class(xy) == k0_class(ref)
    m1 = np.kron(monodromy(x).M1, monodromy(y).M1)
    assert np.linalg.norm(monodromy(xy).M1 - m1) <= 1e-12 * np.linalg.norm(m1)
    _check_handed_over_form(xy)
    if xy.n <= 64:
        # Hom at dim 144 is left out: its components can span most of the
        # spectrum (see CHANGES.md)
        dims = len(hom_basis(ref, ref))
        assert len(hom_basis(xy, xy)) == len(hom_basis(xy, ref)) == dims
    # the reference's Parlett recurrence is cubic in the number of clusters
    for nf in (x, xy) if len(xy.schur_form()[2]) <= 64 else (x,):
        xd = dual(nf)
        a0, shifts = reference_dual(nf)
        scale = max(1.0, np.linalg.norm(a0))
        _same_shifts(xd.diagnostics["fold_shifts"], shifts, scale)
        assert np.linalg.norm(xd.A0 - a0) <= 1e-12 * scale
        assert k0_class(xd) == k0_class(NormalForm(a0, xd.B0, STRIP, THETA, TAU))
        _check_handed_over_form(xd)


def test_tensor_of_conjugated_defective_factors_meets_the_monodromy_oracle():
    # rounding splits each Jordan block of x (x) y into clusters, which the
    # dense reference folds one by one, with Sylvester solves between the
    # pieces, and so it misses the monodromy by up to 1e-1 here: the oracle
    # is the Kronecker product of the factors' monodromies and labels
    rng = np.random.default_rng(52)
    for patterns in (((2,), (1,)), ((3,), (1,)), ((4,), (2, 2))):
        x = util.random_defective_normal_form(rng, patterns=patterns)
        y = util.random_defective_normal_form(rng, patterns=patterns)
        for p, q in ((x, y), (x, x)):
            pq = tensor(p, q)
            m1 = np.kron(monodromy(p).M1, monodromy(q).M1)
            assert np.linalg.norm(monodromy(pq).M1 - m1) <= 1e-12 * np.linalg.norm(m1)
            want = K0Class(STRIP, [(bx * by, lx + ly, 1) for lx, bx in decompose(p)
                                   for ly, by in decompose(q)])
            assert k0_class(pq) == want
            _check_handed_over_form(pq)


# the factor route against the frozen dense product fold: the tensor cases,
# generic, defective and folding onto each other, and the square of a Jordan
# block that rounding splits across the strip edge
FACTOR_ROUTE_CASES = TENSOR_CASES + [
    ("straddling_square_4", lambda rng: (util.straddling_jordan_form(rng),) * 2)]


def _check_factor_route(x, y, radius=1e-8):
    """``tensor(x, y)`` against ``frozen_tensor``: A0 within 1e-12 of the
    scale, the kept Schur form exactly upper triangular and reassembling
    A0 within 1e-13, the factors kept with a strip shift per pair of their
    entries, and the shifts of each fold matched to the other's
    (``_same_shifts`` with ``radius``).  Returns whether the product keeps
    its factors' Kronecker basis (``_keeps_kronecker_basis``)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransversalBranchWarning)
        xy = tensor(x, y)
        a0, _, shifts = frozen_tensor(x, y)
    scale = max(1.0, np.linalg.norm(a0))
    assert np.linalg.norm(xy.A0 - a0) <= 1e-12 * scale
    t, q, _ = xy.schur_form()
    assert not np.tril(t, -1).any()
    assert np.linalg.norm(q @ t @ q.conj().T - xy.A0) <= 1e-13 * scale
    kept = xy._memo[(DEFAULT_TOL, "factors")]
    assert kept[0] is x and kept[1] is y and kept[2].shape == (x.n, y.n)
    _same_shifts(xy.diagnostics["fold_shifts"], shifts, scale, radius)
    return _keeps_kronecker_basis(xy, x, y)


def _keeps_kronecker_basis(xy, x, y):
    """Whether the Schur basis that ``xy = tensor(x, y)`` keeps is, to the
    bit, the Kronecker product of its factors' strip form bases, its
    columns ordered along the strip: no ztrsen ran on the product."""
    fx, fy = x._strip_form(DEFAULT_TOL), y._strip_form(DEFAULT_TOL)
    order = np.argsort((fx.key[:, None] + fy.key).ravel(), kind="stable")
    return np.kron(fx.q, fy.q)[:, order].tobytes() == xy.schur_form()[1].tobytes()


@pytest.mark.parametrize("make", [m for _, m in FACTOR_ROUTE_CASES],
                         ids=[name for name, _ in FACTOR_ROUTE_CASES])
def test_tensor_factor_route_matches_the_frozen_dense_product_fold(make):
    _check_factor_route(*make(np.random.default_rng(51)))


def test_tensor_squares_of_generic_draws_match_the_frozen_dense_product_fold():
    for n in (2, 3, 4):
        for seed in range(20):
            x = random_normal_form(np.random.default_rng(seed), n)
            assert _check_factor_route(x, x)


def test_tensor_of_a_factor_whose_jordan_group_spans_another_cluster(monkeypatch):
    """A 4x4 Jordan block at 0.3 tau beside simple eigenvalues at the same
    strip position, conjugated: rounding splits the block into pieces on
    both sides of them along the strip, so the group that joins the pieces
    is ordered again by its mean and split again (the only ``_decouple``
    call ``category`` makes itself), and the products still match the
    frozen dense fold and the Kronecker monodromy.  The dense fold lists
    the pieces, about u**(1/4) apart, as clusters of their own, so the
    shifts are matched by nearest mean within 1e-3 of the scale."""
    calls = []
    decouple = eqconn.category._decouple
    monkeypatch.setattr(eqconn.category, "_decouple",
                        lambda *args: calls.append(1) or decouple(*args))
    lam = 0.3 * TAU
    nf = util.jordan_normal_form([(lam, (4,), [1.5]), (lam + 2j * TAU, (1,), [2.0]),
                                  (lam - 1.5j * TAU, (1,), [0.5])])
    for seed in range(20):
        x = util.conjugate(nf, util.well_conditioned(np.random.default_rng(seed), 6))
        y = random_normal_form(np.random.default_rng(100 + seed), 3)
        for p, q in ((x, x), (x, y)):
            _check_factor_route(p, q, radius=1e-3)
            m1 = np.kron(monodromy(p).M1, monodromy(q).M1)
            assert np.linalg.norm(monodromy(tensor(p, q)).M1 - m1) <= 1e-12 * np.linalg.norm(m1)
    assert calls


# per n, the defective pairs and x (x) dual(x) of the test below whose
# pairwise labels, merged once, have the class of the factors' product
_OWN_CLASS_AGREES = {2: (20, 18), 3: (15, 14), 4: (10, 13)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_k0_of_a_tensor_is_the_product_of_the_factors_classes(n):
    """The class of a product is the product of its factors' classes.  On
    generic draws of dim n, that is the class of the labels read off the
    product's own Schur form and dilation (``frozen_label_array``).  On
    defective draws of n - 1 groups (pairs on seeds 100-119, x (x)
    dual(x) on seeds 0-19) it need not be the class of the product's
    pairwise labels merged once: where a factor's labels merge, as the
    rounded eigenvalues of a Jordan block, their pairs spread over both
    factors' rounding and may merge otherwise; the draws that agree are
    pinned, and every class counts the product's dimension."""
    agree = [0, 0]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, y = random_normal_form(rng, n), random_normal_form(rng, n)
        for p, q in ((x, y), (x, x)):
            pq = tensor(p, q)
            assert k0_class(pq) == k0_class(p) * k0_class(q)
            assert k0_class(pq) == K0Class._of_labels(STRIP, frozen_label_array(pq), DEFAULT_TOL)
            m1 = np.kron(monodromy(p).M1, monodromy(q).M1)
            assert np.linalg.norm(monodromy(pq).M1 - m1) <= 1e-12 * np.linalg.norm(m1)
        rng = np.random.default_rng(100 + seed)
        x = util.random_defective_normal_form(np.random.default_rng(seed), n - 1)
        for i, (p, q) in enumerate(((util.random_defective_normal_form(rng, n - 1),
                                     util.random_defective_normal_form(rng, n - 1)),
                                    (x, dual(x)))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TransversalBranchWarning)
                pq = tensor(p, q)
            assert k0_class(pq) == k0_class(p) * k0_class(q)
            assert k0_class(pq).total_degree() == pq.n
            own = K0Class._of_labels(STRIP, np.array(decompose(pq)), DEFAULT_TOL)
            assert own.total_degree() == pq.n
            agree[i] += own == k0_class(pq)
    assert tuple(agree) == _OWN_CLASS_AGREES[n]


def test_hom_of_x_tensor_dual_x_to_a_conjugate_is_its_endomorphisms():
    """p = x (x) dual(x), x a defective form of two groups (seed 19, N =
    49).  Grouped at its own dimension, p's group at 0 joined the one at
    lam_1 - lam_2, 0.76 from it, and Hom(p, S p S^-1) had 20 morphisms
    where End(p) has 143; read off its factors' groups, it has them all,
    and p is isomorphic to its conjugate."""
    x = util.random_defective_normal_form(np.random.default_rng(19), groups=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransversalBranchWarning)
        p = tensor(x, dual(x))
    sp = util.conjugate(p, util.well_conditioned(np.random.default_rng(119), p.n))
    assert len(hom_basis(p, sp)) == len(hom_basis(p, p)) == 143
    iso = is_isomorphic(p, sp)
    assert iso is not None and iso.is_valid()


@pytest.mark.parametrize("n", [4, 12])
def test_a_product_is_grouped_and_factored_at_its_factors_order_only(monkeypatch, n):
    """``tensor``, ``k0_class``, ``decompose`` and ``hom_basis`` of x (x) y
    and x (x) x make no ``_bounded_groups``, ztrsyl or zpotrf call on an
    order above the factors' n: a product's groups, Hom side and labels are
    read off its factors', and its Hom components are orthonormalized one
    component at a time."""
    calls = Counter()

    def counting(name, f):
        return lambda *args, **kwargs: calls.update(
            [(name, max(len(a) for a in args[:2] if np.ndim(a) == 2))]) or f(*args, **kwargs)

    groups = counting("_bounded_groups", eqconn.numkit._bounded_groups)
    for module in (eqconn.numkit, eqconn.category):
        monkeypatch.setattr(module, "_bounded_groups", groups)
    for name in ("ztrsyl", "zpotrf"):
        monkeypatch.setattr(scipy.linalg.lapack, name,
                            counting(name, getattr(scipy.linalg.lapack, name)))
    rng = np.random.default_rng(70 + n)
    x, y = random_normal_form(rng, n), random_normal_form(rng, n)
    for p, q in ((x, y), (x, x)):
        pq = tensor(p, q)
        k0_class(pq), decompose(pq), hom_basis(pq, pq)
    assert {name for name, _ in calls} == {"_bounded_groups", "ztrsyl", "zpotrf"}
    assert max(order for _, order in calls) <= n


def test_tensor_refuses_a_shifting_pair_whose_projector_no_join_mends():
    """x = [[0.2 tau, 7e6], [0, 0.6 tau]] has projectors of norm 1.2e7,
    above eps_res over the unit roundoff (9e6), and its eigenvalues lie
    beyond the join radius 4 (2 u)^(1/2) ||t||_F (0.42) apart, so its
    groups stay apart.  With y = [[0.5 tau]] the pair at 1.1 tau shifts and
    the one at 0.7 tau does not, so the update would round by 1.2e7 u |tau|:
    the product is refused, either way round, as the dense fold refuses it.
    With 7e3 in place of 7e6 it is not, and matches the dense fold."""
    y = NormalForm(np.array([[0.5 * TAU]]), np.eye(1, dtype=complex), STRIP, THETA, TAU)
    for top, refused in ((7e6, True), (7e3, False)):
        x = NormalForm(np.array([[0.2 * TAU, top], [0.0, 0.6 * TAU]]),
                       np.eye(2, dtype=complex), STRIP, THETA, TAU)
        for p, q in ((x, y), (y, x)):
            if refused:
                for fn in (tensor, frozen_tensor):
                    with pytest.raises(NumericFailure, match="projector norm 1.2e"):
                        fn(p, q)
            else:
                assert _check_factor_route(p, q)
                assert sorted(s for _, s in tensor(p, q).diagnostics["fold_shifts"]) == [0, 1]


def test_tensor_with_the_zero_object_is_zero():
    zero = NormalForm(np.zeros((0, 0), dtype=complex), np.zeros((0, 0), dtype=complex),
                      STRIP, THETA, TAU)
    x = random_normal_form(np.random.default_rng(55), 2)
    for p, q in ((zero, x), (x, zero), (zero, zero)):
        pq = tensor(p, q)
        assert pq.n == 0 and pq.diagnostics["fold_shifts"] == []
        assert k0_class(pq) == K0Class(STRIP, [])


def test_tensor_refuses_a_pair_mean_whose_shift_passes_int64():
    # a factor far outside its strip: shift 1e10 folds, 1e20 has no int64 shift
    y = NormalForm(np.array([[0.5 * TAU]]), np.eye(1, dtype=complex), STRIP, THETA, TAU)
    for far, refused in ((1e10, False), (1e20, True)):
        x = NormalForm(np.array([[far * TAU]]), np.eye(1, dtype=complex), STRIP, THETA, TAU)
        if refused:
            with pytest.raises(NumericFailure, match="no strip shift below 2"):
                tensor(x, y)
        else:
            assert tensor(x, y).diagnostics["fold_shifts"] == [(complex(far + 0.5) * TAU,
                                                                int(far))]


def _projectors_by_mean(side, radius=1e-8):
    """The spectral projectors ``u_g lh_g`` of the groups of a ``_HomSide``,
    summed over groups whose means lie within ``radius``: ``[(mean, P)]``."""
    out = []
    for mean, start, size in zip(side.means, side.start, side.size):
        p = side.u[:, start:start + size] @ side.lh[start:start + size]
        near = [i for i, (m, _) in enumerate(out) if abs(m - mean) <= radius]
        if near:
            out[near[0]] = (out[near[0]][0], out[near[0]][1] + p)
        else:
            out.append((mean, p))
    return out


def test_hom_side_of_a_product_reads_its_factors_projectors(monkeypatch):
    """x (x) y and x (x) x of simple spectra: the product's Hom side is read
    off its factors', with no ztrsyl or zpotrf of its own order.  It
    reassembles A0 and B0 as ``u ab lh``, and its projectors, summed over
    groups of one mean as ``(g, h)`` and ``(h, g)`` of x (x) x, match
    within rounding those of the side that a plain copy of the product
    reads off its own strip form, Hom dimensions included."""
    orders = []
    for name in ("ztrsyl", "zpotrf"):
        inner = getattr(scipy.linalg.lapack, name)
        monkeypatch.setattr(scipy.linalg.lapack, name, functools.partial(
            lambda inner, *args, **kwargs: orders.append(len(args[0])) or inner(*args, **kwargs),
            inner))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x, y = random_normal_form(rng, 3), random_normal_form(rng, 3)
        for p, q in ((x, y), (x, x)):
            pq = tensor(p, q)
            copy = NormalForm(pq.A0, pq.B0, pq.transversal, pq.theta, pq.tau)
            copy._memo[DEFAULT_TOL] = pq.schur_form()
            del orders[:]
            side = eqconn.category._hom_side(pq, DEFAULT_TOL)
            assert max(orders, default=0) <= 3
            scale = max(1.0, np.linalg.norm(pq.A0), np.linalg.norm(pq.B0))
            for m, ab in zip((pq.A0, pq.B0), side.ab):
                assert np.linalg.norm(side.u @ ab @ side.lh - m) <= 1e-12 * scale
            got = _projectors_by_mean(side)
            want = _projectors_by_mean(eqconn.category._hom_side(copy, DEFAULT_TOL))
            assert len(got) == len(want) < len(side.means) + (p is not q)
            for mean, proj in got:
                (ref,) = [r for m, r in want if abs(m - mean) <= 1e-8]
                assert np.linalg.norm(proj - ref) <= 1e-12 * np.linalg.norm(ref)
            assert len(hom_basis(pq, copy)) == len(hom_basis(copy, copy)) == len(
                hom_basis(pq, pq))


def test_every_product_of_the_tensor_benchmark_keeps_its_kronecker_basis():
    """Over the tensor-decompose benchmark's seeds 1-3, rounds 0-5, drawn by
    ``bench/workloads.py``, each of the 414 products keeps the permuted
    Kronecker basis of its factors' strip forms as its Schur basis
    (``_keeps_kronecker_basis``); 378 of them fold."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    products = folds = 0
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            for job in workloads.tensor_round(rng):
                if job.kind.startswith(("xy", "xx")):
                    xy = tensor(*job.inputs)
                    assert _keeps_kronecker_basis(xy, *job.inputs)
                    products += 1
                    folds += any(shift for _, shift in xy.diagnostics["fold_shifts"])
    assert (products, folds) == (414, 378)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_tensor_makes_no_schur_reorder_on_the_product(monkeypatch, n):
    # the factors' forms are ordered along the strip, each cluster moved
    # whole, and the product's basis is a permutation of their Kronecker
    # basis, so every ztrsen call is factor sized; A0 is built beside the
    # form from the factors, not as u t u^H, so the two agree to rounding
    rng = np.random.default_rng(54 + n)
    x, y = random_normal_form(rng, n), random_normal_form(rng, n)
    shapes = []
    ztrsen = scipy.linalg.lapack.ztrsen
    monkeypatch.setattr(scipy.linalg.lapack, "ztrsen",
                        lambda *args, **kwargs: shapes.append(args[1].shape)
                        or ztrsen(*args, **kwargs))
    for p, q in ((x, y), (x, x)):
        pq = tensor(p, q)
        t, u, blocks = pq.schur_form()
        assert not np.tril(t, -1).any()
        assert np.linalg.norm(u.conj().T @ u - np.eye(n * n)) <= 1e-13
        scale = max(1.0, np.linalg.norm(pq.A0))
        assert np.linalg.norm(u @ t @ u.conj().T - pq.A0) <= 1e-13 * scale
        _check_handed_over_form(pq)
    assert set(shapes) <= {(n, n)}


def _lex_sorted(labels):
    return sorted(labels, key=lambda label: (frozen_lex_key(label[0]), frozen_lex_key(label[1])))


def test_decompose_batched_labels_are_bit_identical():
    # one eigvals call per block size gives the bits of one call per block;
    # on seed 61 rounding leaves clusters of 1, 2 and 3 (most seeds split
    # each Jordan block into clusters of one); the labels of its square are
    # the pairwise rows of its own, each sum reduced into the strip and each
    # product Python's complex product, as its K0 class has them
    nf = util.random_defective_normal_form(np.random.default_rng(61), groups=3)
    t, q, blocks = nf.schur_form()
    assert len({s1 - s0 for s0, s1, _ in blocks}) > 1
    b = q.conj().T @ nf.B0 @ q
    want = _lex_sorted([(lam, complex(v)) for s0, s1, lam in blocks
                        for v in np.linalg.eigvals(b[s0:s1, s0:s1])])
    got = decompose(nf)
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
    lam, b = np.array(got).T
    lam = (lam[:, None] + lam).ravel()
    want = _lex_sorted(zip((lam - STRIP.shift(lam) * TAU).tolist(),
                           [bi * bj for bi in b.tolist() for bj in b.tolist()]))
    got = decompose(tensor(nf, nf))
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def test_tensor_and_psi_star_take_no_schur_form_of_the_product(monkeypatch):
    rng = np.random.default_rng(53)
    x, y = random_normal_form(rng, 12), random_normal_form(rng, 12)
    shapes = []
    original = eqconn.numkit._schur

    def recording(m):
        shapes.append(m.shape)
        return original(m)

    monkeypatch.setattr(eqconn.numkit, "_schur", recording)
    xy = tensor(x, y)
    k0_class(xy)
    hom_basis(xy, xy)
    psi_star(xy)
    dual(xy)
    assert shapes == [(12, 12), (12, 12)]


def test_tensor_k0_commutes():
    rng = np.random.default_rng(11)
    x = random_normal_form(rng, 2)
    y = random_normal_form(rng, 2)
    assert k0_class(tensor(x, y)) == k0_class(tensor(y, x))


def test_product_labels_and_k0_class_carry_the_same_b_bits():
    """``decompose`` of x (x) y and its K0 class round each b label b_i c_j
    alike (``category._pairwise``); numpy's complex product gave other
    last bits on 193 of these 200 products."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = tensor(random_normal_form(rng, 2), random_normal_form(rng, 3))
        got = sorted((b.real, b.imag) for _, b in decompose(t))
        want = sorted((b.real, b.imag) for b, _, m in k0_class(t).entries for _ in range(m))
        assert got == want


def test_dual_of_unit_is_unit():
    u = unit_object(THETA, TAU, STRIP)
    du = dual(u)
    assert np.allclose(du.A0, u.A0)
    assert np.allclose(du.B0, u.B0)


def test_dual_scalar():
    xd = dual(one_dim(0.3 * TAU, 2.0))
    assert abs(xd.A0[0, 0] - 0.7 * TAU) < 1e-12
    assert abs(xd.B0[0, 0] - 0.5) < 1e-14


def test_dual_dual_preserves_class():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        x = random_normal_form(rng, n)
        assert k0_class(dual(dual(x))) == k0_class(x)


def test_unit_appears_in_x_tensor_dual():
    rng = np.random.default_rng(13)
    x = random_normal_form(rng, 2)
    u = unit_object(THETA, TAU, STRIP)
    ev = tensor(x, dual(x))
    assert len(hom_basis(u, ev)) >= 1


def test_triangle_identities_and_rigidity_morphisms():
    rng = np.random.default_rng(14)
    for n in (1, 2, 4):
        x = random_normal_form(rng, n)
        r1, r2 = triangle_residuals(x)
        assert r1 < 1e-10 and r2 < 1e-10
        assert evaluation_map(x).is_valid()
        assert coevaluation_map(x).is_valid()


# --- morphisms ------------------------------------------------------------------------

def test_hom_identity_for_equal_scalars():
    x = one_dim(0.2 * TAU, 2.0)
    basis = hom_basis(x, x)
    assert len(basis) == 1
    assert basis[0].is_valid()


def test_hom_distinct_dilations_vanishes():
    assert hom_basis(one_dim(0.0, 2.0), one_dim(0.0, 3.0)) == []


def test_hom_detects_strip_shifted_presentation():
    x = one_dim(0.2 * TAU, 2.0)
    shifted = constant_object([[0.2 * TAU + TAU]], [[2.0]])
    y = normalize(shifted, STRIP)
    assert len(hom_basis(x, y)) == 1


def test_hom_requires_common_strip():
    x = one_dim(0.0, 1.0)
    other = NormalForm(np.zeros((1, 1)), np.eye(1), Transversal(TAU, 0.5), THETA, TAU)
    with pytest.raises(TransversalMismatch):
        hom_basis(x, other)


def test_hom_mode_scan_is_empty():
    rng = np.random.default_rng(15)
    x = random_normal_form(rng, 2)
    y = random_normal_form(rng, 3)
    dims = hom_mode_dims(x, y, k_range=4)
    assert set(dims.values()) == {0}
    dims_self = hom_mode_dims(x, x, k_range=4)
    assert set(dims_self.values()) == {0}


def _svd_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def test_hom_retries_a_failed_svd_with_qr_iteration(monkeypatch):
    rng = np.random.default_rng(40)
    x = random_normal_form(rng, 2)
    xx = tensor(x, x)
    want = hom_basis(xx, xx)
    monkeypatch.setattr(np.linalg, "svd", _svd_fails)
    got = hom_basis(xx, xx)
    assert len(got) == len(want) > 0
    assert all(m.is_valid() for m in got)
    # the same space: each new basis vector lies in the span of the old ones
    old = np.array([m.phi.ravel() for m in want]).T
    new = np.array([m.phi.ravel() for m in got]).T
    assert np.linalg.norm(new - old @ (old.conj().T @ new)) < 1e-10


def test_hom_reports_an_svd_that_fails_twice(monkeypatch):
    # the components of x (x) x join (g, h) and (h, g): systems of four
    # columns, which take the SVD (a one-column system takes none)
    x = random_normal_form(np.random.default_rng(40), 2)
    xx = tensor(x, x)
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or _svd_fails())
    monkeypatch.setattr(scipy.linalg, "svd", _svd_fails)
    with pytest.raises(NumericFailure, match="did not converge"):
        hom_basis(xx, xx)
    assert calls and calls[0][0].shape[-1] == 4


def test_hom_of_a_one_dim_object_takes_no_svd(monkeypatch):
    # its one component is one column: its norm decides the kernel
    x = one_dim(0.2 * TAU, 2.0)
    monkeypatch.setattr(np.linalg, "svd", _svd_fails)
    monkeypatch.setattr(scipy.linalg, "svd", _svd_fails)
    assert [m.phi.tolist() for m in hom_basis(x, x)] == [[[1.0]]]
    assert hom_basis(x, one_dim(0.3 * TAU, 2.0)) == []


def span_distance(basis, other):
    """Spectral-norm distance of the orthogonal projectors onto the spans of
    two orthonormal lists of matrices (in the Frobenius inner product)."""
    p, q = (np.array([m.ravel() for m in ms]).T for ms in (basis, other))
    return float(np.linalg.norm(p @ p.conj().T - q @ q.conj().T, 2))


def assert_hom_matches_oracle(x, y, span_tol=1e-10):
    """Hom by component against the whole Kronecker system: the same
    dimension, the same space, an orthonormal basis of valid morphisms."""
    got = hom_basis(x, y)
    want = reference_hom_basis(x, y)
    assert len(got) == len(want)
    phis = [m.phi for m in got]
    assert all(m.is_valid() for m in got)
    gram = np.array([[np.vdot(a, b) for b in phis] for a in phis])
    assert np.allclose(gram, np.eye(len(phis)), atol=1e-12)
    assert not want or span_distance(phis, want) <= span_tol
    return got


def test_hom_matches_the_dense_oracle_on_random_normal_forms():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            x = random_normal_form(rng, n)
            y = random_normal_form(rng, n)
            xs = util.conjugate(x, util.well_conditioned(rng, n))
            assert_hom_matches_oracle(x, y)
            assert_hom_matches_oracle(x, x)
            assert len(assert_hom_matches_oracle(x, xs)) == len(hom_basis(x, x)) > 0
            assert_hom_matches_oracle(direct_sum(x, y), x)
            assert_hom_matches_oracle(x, direct_sum(y, x))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hom_matches_the_dense_oracle_on_tensor_swaps(n):
    rng = np.random.default_rng(42 + n)
    x = random_normal_form(rng, n)
    y = random_normal_form(rng, n)
    xy, yx = tensor(x, y), tensor(y, x)
    assert len(assert_hom_matches_oracle(xy, yx)) == len(hom_basis(xy, xy)) == n * n
    assert_hom_matches_oracle(yx, xy)
    assert_hom_matches_oracle(xy, xy)


def test_hom_matches_the_dense_oracle_on_a_normalize_output():
    rng = np.random.default_rng(45)
    for n in (2, 3):
        seed_nf = random_normal_form(rng, n)
        nf = normalize(scramble(seed_nf, rng, shears=1, degree=2), STRIP)
        assert len(assert_hom_matches_oracle(seed_nf, nf)) == n
        assert_hom_matches_oracle(nf, seed_nf)


def rounded_jordan_3():
    """The 3 x 3 Jordan block at 0.3 tau with B0 = 2 + N + 0.3 N^2, whose
    eigenvalue rounding splits into three clusters about 7e-6 apart once
    conjugated."""
    return util.jordan_normal_form([(0.3 * TAU, (3,), (2.0, 1.0, 0.3))])


def test_hom_matches_the_dense_oracle_on_defective_forms():
    rng = np.random.default_rng(46)
    plain = rounded_jordan_3()
    s = util.well_conditioned(np.random.default_rng(7), 3)
    conj = util.conjugate(plain, s)
    assert len(conj.schur_form()[2]) > 1      # the rounding split it
    for x, y in ((plain, conj), (conj, plain), (conj, conj)):
        assert len(assert_hom_matches_oracle(x, y)) == 3
    for groups in (1, 2, 2, 3):
        x = util.random_defective_normal_form(rng, groups)
        y = util.conjugate(x, util.well_conditioned(rng, x.n))
        dim = len(assert_hom_matches_oracle(x, x))
        assert len(assert_hom_matches_oracle(x, y)) == dim
        assert len(assert_hom_matches_oracle(y, x)) == dim
        assert_hom_matches_oracle(x, direct_sum(plain, x))


@pytest.mark.parametrize("patterns", [((4,),), ((3, 1),), ((3,), (1,))])
def test_hom_of_tensors_of_defective_forms_matches_the_dense_oracle(patterns):
    # J4 (x) J4 holds Jordan blocks of sizes 7, 5, 3 and 1 at one
    # eigenvalue, and rounding splits the one of size 7 by about 1e-3 of the
    # data, ten times the component radius; J3 (x) J3 holds sizes 5, 3, 1.
    # The projectors splitting a nearly defective block from the rest are
    # conditioned by the Sylvester separation, not by the eigenvalue gap, so
    # the spaces agree to about 1e-9 here, the residuals staying near 1e-11
    # of the data scale
    rng = np.random.default_rng(53)
    x = util.random_defective_normal_form(rng, patterns=patterns)
    xx = tensor(x, x)
    xs = tensor(x, util.conjugate(x, util.well_conditioned(rng, x.n)))
    dim = len(assert_hom_matches_oracle(xx, xx, span_tol=1e-8))
    assert len(assert_hom_matches_oracle(xx, xs, span_tol=1e-8)) == dim
    assert len(assert_hom_matches_oracle(xs, xx, span_tol=1e-8)) == dim
    iso = is_isomorphic(xx, xs)
    assert iso is not None and iso.is_valid()
    assert is_isomorphic(xx, NormalForm(xs.A0, xs.B0 * 1.5, STRIP, THETA, TAU)) is None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hom_of_a_square_factors_its_components_of_one_size_at_once(monkeypatch, n):
    """x (x) x joins (g, h) and (h, g): components of one and of two groups;
    those of two are orthonormalized in one batched Cholesky factorization
    per side, those of one keep their orthonormal columns; the basis spans
    the dense oracle's space within eps_res."""
    x = random_normal_form(np.random.default_rng(70 + n), n)
    xx = tensor(x, x)
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda g: calls.append(g.shape) or cholesky(g))
    got = assert_hom_matches_oracle(xx, xx, span_tol=DEFAULT_TOL.eps_res)
    assert len(got) == n * n + n * (n - 1)
    assert calls == [(n * (n - 1) // 2, 2, 2)] * 2


def split_cluster_form(gap, t13):
    """Two clusters ``gap`` apart at 0.3 tau either side of 0.6 tau in the
    Schur form; ``t13`` couples them."""
    lam = 0.3 * TAU
    a0 = np.array([[lam, 1.0, t13], [0, 0.6 * TAU, 1.0], [0, 0, lam + gap]])
    return NormalForm(a0, np.eye(3, dtype=complex), STRIP, THETA, TAU)


def test_hom_solves_a_component_split_across_the_schur_form(monkeypatch):
    # with this coupling the eigenvectors are well conditioned, so the two
    # clusters are groups of their own, but one component: its basis is
    # taken from both groups' projector factors.  The Hom side is the strip
    # form's, whose groups follow the strip, moved by reorders of the
    # object's own order
    lam = 0.3 * TAU
    x = split_cluster_form(1e-5, -1.0 / (lam + 1e-5 - 0.6 * TAU))
    assert [lam for _, _, lam in x.schur_form()[2]] == [lam, 0.6 * TAU, lam + 1e-5]
    shapes = []
    reorder = eqconn.category._group_blocks
    monkeypatch.setattr(eqconn.category, "_group_blocks",
                        lambda t, *args: shapes.append(t.shape) or reorder(t, *args))
    means = eqconn.category._hom_side(x, DEFAULT_TOL).means
    assert np.abs(means - [lam, lam + 1e-5, 0.6 * TAU]).max() <= 1e-14
    y = one_dim(lam, 1.0)
    assert len(assert_hom_matches_oracle(x, y)) == 1
    assert len(assert_hom_matches_oracle(y, x)) == 1
    assert len(assert_hom_matches_oracle(x, x)) == 3
    assert (3, 3) in shapes and max(shapes) == (3, 3)


def test_hom_groups_clusters_with_ill_conditioned_projectors(monkeypatch):
    # coupled, the two clusters are the split of one nearly defective
    # eigenvalue: their projectors have norm about 1e6, so they form one
    # group, made one block of the Schur form, and a conjugate of the
    # object, split otherwise by rounding, still meets it
    x = split_cluster_form(1e-6, 0.5)
    group, t, q, groups, v, w, _ = eqconn.numkit._bounded_groups(*x.schur_form(), DEFAULT_TOL)
    assert list(group) == [0, 1, 0] and [g[:2] for g in groups] == [(0, 2), (2, 3)]
    assert np.allclose([g[2] for g in groups], [0.3 * TAU + 5e-7, 0.6 * TAU], atol=1e-12)
    assert np.allclose(q @ t @ q.conj().T, x.A0, atol=1e-14)
    block = w @ t @ v
    assert np.linalg.norm(block[:2, 2:]) + np.linalg.norm(block[2:, :2]) < 1e-13
    side = eqconn.category._hom_side(x, DEFAULT_TOL)
    assert np.allclose(side.means, [0.3 * TAU + 5e-7, 0.6 * TAU], atol=1e-12)
    assert len(assert_hom_matches_oracle(x, x)) == 3
    assert len(assert_hom_matches_oracle(x, one_dim(0.3 * TAU, 1.0))) == 1
    y = util.conjugate(x, util.well_conditioned(np.random.default_rng(52), 3))
    assert len(assert_hom_matches_oracle(x, y)) == len(assert_hom_matches_oracle(y, x)) == 3


def hom_grouping_inputs(rng):
    """The normal forms the Hom tests group: split clusters, coupled and
    not, the factors and products of the tensor cases, and defective forms
    with conjugates of them."""
    yield split_cluster_form(1e-6, 0.5)
    yield split_cluster_form(1e-5, -1.0 / (0.3 * TAU + 1e-5 - 0.6 * TAU))
    for _, make in TENSOR_CASES:
        x, y = make(rng)
        yield from (x, y, tensor(x, y))
    for groups in (1, 2, 3):
        x = util.random_defective_normal_form(rng, groups)
        yield from (x, util.conjugate(x, util.well_conditioned(rng, x.n)))


def test_bounded_groups_are_the_frozen_hom_grouping_to_the_bit():
    """``numkit._bounded_groups`` is the grouping Hom once made itself: the
    same groups, the same grouped Schur form and, orthonormalized by the
    Cholesky factors of its Gram matrices as Hom does, the same projector
    factors, to the bit; and the Hom side's means are those of the groups of
    the object's strip form, of a product of each pair of its factors'."""
    merged = 0
    for x in hom_grouping_inputs(np.random.default_rng(53)):
        t, q, blocks = x.schur_form()
        group, gt, gq, groups, v, w, _ = eqconn.numkit._bounded_groups(t, q, blocks,
                                                                      DEFAULT_TOL)
        want_group, want_t, want_q, runs, want_u, want_lh = frozen_projector_groups(t, q, blocks)
        if group is None:   # no clusters joined
            group = range(len(blocks))
        assert list(group) == list(want_group) and [g[:2] for g in groups] == runs
        for got, want in ((gt, want_t), (gq, want_q)):
            assert got.tobytes() == want.tobytes()
        sizes = [stop - start for start, stop in runs]
        rho, rho_inv = eqconn.category._cholesky_pair(
            v, np.repeat(np.arange(len(runs)), sizes))
        assert (v @ rho_inv).tobytes() == want_u.tobytes()
        assert (rho @ w).tobytes() == want_lh.tobytes()
        side = eqconn.category._hom_side(x, DEFAULT_TOL)
        kept = x._memo.get((DEFAULT_TOL, "factors"))
        if kept is None:
            assert side.means.tobytes() == x._strip_form(DEFAULT_TOL).means.tobytes()
        else:
            assert len(side.means) == math.prod(len(f._strip_form(DEFAULT_TOL).means)
                                                for f in kept[:2])
        merged += len(groups) < len(blocks)
    assert merged >= 4


def test_hom_of_a_dim_144_tensor_square_runs_in_bounded_memory():
    """x (x) x for x = random_normal_form(default_rng(0), 12) has ||B0||
    about 3300, which once widened the component radius until one
    Kronecker system of 3.76 GiB was asked for; with the radius from A0's
    scale alone, ``hom_basis`` returns its 276 morphisms in a subprocess
    limited to 3e9 bytes of address space and one BLAS thread."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                             "1"))
    script = ("import numpy as np, util\n"
              "from eqconn.category import hom_basis, tensor\n"
              "x = util.random_normal_form(np.random.default_rng(0), 12)\n"
              "xx = tensor(x, x)\n"
              "print(len(hom_basis(xx, xx)))\n")
    limit = functools.partial(resource.setrlimit, resource.RLIMIT_AS, (3 * 10 ** 9,) * 2)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=False, preexec_fn=limit)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["276"]


def test_commutator_test_is_scale_free():
    """The commutator is tested on each matrix divided by max(1, ||M||):
    near the float range a non-commuting pair no longer passes by an inf or
    nan residual, and a commuting one passes with residual 0."""
    with pytest.raises(ValidationFailure, match="do not commute"):
        validate_monodromy(MonodromyPair(1e300 * np.array([[1.0, 1.0], [0.0, 2.0]]),
                                         np.array([[1.0, 0.0], [1.0, 1.0]])))
    assert validate_monodromy(MonodromyPair(1e300 * np.diag([1.0, 2.0]), np.diag(
        [3.0, 4.0])))["commutator_residual"] == 0.0
    a0 = np.array([[0.3 - 0.3j, 1e300], [0.0, 0.5 - 0.5j]])
    b0 = 1e20 * np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(EquivarianceViolation):
        validate_normal_form(NormalForm(a0, b0, STRIP, THETA, TAU))
    diag = validate_normal_form(NormalForm(a0, 1e20 * np.eye(2, dtype=complex), STRIP, THETA,
                                           TAU))
    assert diag["commutator_residual"] == 0.0


def test_hom_restricts_both_sides_to_orthonormal_bases():
    # components of several sizes: each basis block is orthonormal, the left
    # factor inverts it, and A0 on it is the compression u^H A0 u
    rng = np.random.default_rng(51)
    x = util.random_defective_normal_form(rng, 3)
    side = eqconn.category._hom_side(x, DEFAULT_TOL)
    keys = tuple(reference_cluster_indices(
        list(side.means), 1e-4 * eqconn.category._data_scale(side, side)[0]))
    # components of one group each, and a component of all groups
    for keys in (keys, (0,) * len(keys)):
        u, lh, ab, at, size = eqconn.category._component_bases(side, np.array(keys))
        assert max(size) > 1
        for start, m in zip(at, size):
            block = slice(start, start + m)
            ub = u[:, block]
            assert np.allclose(ub.conj().T @ ub, np.eye(m), atol=1e-12)
            assert np.allclose(lh[block] @ ub, np.eye(m), atol=1e-10)
            assert np.allclose(ab[0][block, block], ub.conj().T @ x.A0 @ ub, atol=1e-10)
            assert np.allclose(ab[1][block, block], ub.conj().T @ x.B0 @ ub, atol=1e-10)


def test_hom_mode_dims_match_the_dense_oracle():
    rng = np.random.default_rng(47)
    for n in (1, 2, 3):
        x = random_normal_form(rng, n)
        y = random_normal_form(rng, n)
        for a, b in ((x, y), (x, x)):
            assert hom_mode_dims(a, b, k_range=2) == reference_hom_mode_dims(a, b, 2)
        # a presentation of x shifted one strip to the left: mode 1 carries
        # all of End(x), and no other mode
        shifted = NormalForm(x.A0 - TAU * np.eye(n), x.B0 / Q, STRIP, THETA, TAU)
        dims = hom_mode_dims(x, shifted, k_range=2)
        assert dims == reference_hom_mode_dims(x, shifted, 2)
        assert dims[1] == len(hom_basis(x, x)) and dims[-1] == 0
        assert hom_mode_dims(shifted, x, k_range=2)[-1] == dims[1]


def test_hom_with_the_zero_object_is_zero():
    zero = NormalForm(np.zeros((0, 0), dtype=complex), np.zeros((0, 0), dtype=complex),
                      STRIP, THETA, TAU)
    x = random_normal_form(np.random.default_rng(54), 2)
    assert hom_basis(zero, x) == hom_basis(x, zero) == hom_basis(zero, zero) == []
    assert set(hom_mode_dims(zero, x, k_range=2).values()) == {0}


def test_hom_mode_scan_of_separated_spectra_makes_no_svd(monkeypatch):
    rng = np.random.default_rng(48)
    x = tensor(random_normal_form(rng, 2), random_normal_form(rng, 2))
    monkeypatch.setattr(np.linalg, "svd", _svd_fails)
    assert set(hom_mode_dims(x, x).values()) == {0}


def test_is_isomorphic_on_a_conjugated_normal_form():
    rng = np.random.default_rng(49)
    for x in (tensor(random_normal_form(rng, 3), random_normal_form(rng, 4)),
              tensor(random_normal_form(rng, 4), random_normal_form(rng, 4))):
        y = util.conjugate(x, util.well_conditioned(rng, x.n))
        iso = is_isomorphic(x, y)
        assert iso is not None and iso.is_valid()
        assert np.linalg.cond(iso.phi) < 1e8
        other = NormalForm(y.A0, y.B0 * 1.5, STRIP, THETA, TAU)
        assert is_isomorphic(x, other) is None


def test_is_isomorphic_finds_the_swap_of_a_tensor_at_dim_64():
    """x (x) y and y (x) x, x and y of n = 8, are isomorphic by the swap.
    A random combination of their Hom basis is well conditioned, yet its
    determinant is far below eps_res at dim 64 (about 1e-23 on seed 0), so
    a determinant test found none of these; the singular values find each."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x, y = random_normal_form(rng, 8), random_normal_form(rng, 8)
        iso = is_isomorphic(tensor(x, y), tensor(y, x))
        assert iso is not None and iso.is_valid()


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_braiding_is_the_swap_isomorphism(n):
    """``braiding(x, y)`` intertwines x (x) y and y (x) x to rounding, for
    x of dimension n and y of dimension n and 2; ``braiding(y, x)`` undoes
    it exactly; and ``is_isomorphic`` finds the two products isomorphic."""
    rng = np.random.default_rng(60 + n)
    x = random_normal_form(rng, n)
    for y in (random_normal_form(rng, n), random_normal_form(rng, 2)):
        there, back = braiding(x, y), braiding(y, x)
        assert there.phi.shape == (x.n * y.n, x.n * y.n)
        assert there.source.A0.shape == there.target.A0.shape == there.phi.shape
        ra, rb = there.residuals()
        assert ra <= 1e-14 * max(1.0, np.linalg.norm(there.source.A0))
        assert rb <= 1e-14 * max(1.0, np.linalg.norm(there.source.B0))
        assert there.is_valid()
        assert np.array_equal(back.phi @ there.phi, np.eye(x.n * y.n))
        u, v = rng.normal(size=x.n), rng.normal(size=y.n)
        assert np.array_equal(there.phi @ np.kron(u, v), np.kron(v, u))
        iso = is_isomorphic(there.source, there.target)
        assert iso is not None and iso.is_valid()


def test_tensor_folds_a_jordan_block_split_across_the_strip_edge_whole():
    # rounding splits the square's Jordan cluster into pieces on both sides
    # of the edge, which take different shifts and have projectors of norm
    # near 1e10: the fold joins them into one group and moves it by the
    # shift of its mean, with a branch warning, where it once refused them
    # (and before that returned an A0 of that norm).  The Schur form of the
    # dense Kronecker sum splits the cluster on every seed, the one tensor
    # builds from x's form on most
    for seed in range(20):
        x = util.straddling_jordan_form(np.random.default_rng(seed))
        m1 = monodromy(x).M1
        square = np.kron(m1, m1)
        raw = np.kron(x.A0, np.eye(2)) + np.kron(np.eye(2), x.A0)
        with pytest.warns(TransversalBranchWarning):
            folded, _ = reduce_to_transversal(raw, STRIP)
        with pytest.warns(TransversalBranchWarning):
            xx = tensor(x, x)
        validate_normal_form(xx)
        for a0 in (folded, xx.A0):
            assert (np.linalg.norm(eqconn.numkit.mat_exp(TWO_PI_I * a0 / TAU) - square)
                    < 1e-12 * np.linalg.norm(square))
            assert np.linalg.norm(a0) < 10 * np.linalg.norm(x.A0)


def test_rigid_structure_of_defective_forms():
    """x (x) dual(x) puts the eigenvalue 0 on the strip's left edge, where
    rounding spreads a conjugated Jordan block's differences over both
    sides: the fold keeps each block whole, so ev and coev exist and the
    monodromy of the product is M (x) M^-T."""
    for seed in range(20):
        x = util.random_defective_normal_form(np.random.default_rng(seed), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TransversalBranchWarning)
            product = tensor(x, dual(x))
            assert evaluation_map(x).is_valid() and coevaluation_map(x).is_valid()
        validate_normal_form(product)   # every group's mean in the strip
        m = monodromy(x).M1
        want = np.kron(m, np.linalg.inv(m).T)
        assert np.linalg.norm(monodromy(product).M1 - want) <= 1e-12 * np.linalg.norm(want)


def test_tensor_and_dual_of_a_conjugated_unipotent_jordan_block():
    """M1 = S J S^-1, J the unipotent 3x3 Jordan block: A0 has a Jordan
    block at 0, on the strip's left edge, which rounding splits across it
    in the Schur forms of the square and the dual."""
    jordan = np.eye(3) + np.eye(3, k=1)
    for seed in range(20):
        s = util.well_conditioned(np.random.default_rng(seed), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TransversalBranchWarning)
            e = from_monodromy(MonodromyPair(s @ jordan @ np.linalg.inv(s), np.eye(3)),
                               STRIP, THETA)
            square, inverse = tensor(e, e), dual(e)
        m1 = monodromy(e).M1
        for got, want in ((square, np.kron(m1, m1)), (inverse, np.linalg.inv(m1).T)):
            validate_normal_form(got)
            assert (np.linalg.norm(monodromy(got).M1 - want)
                    <= 1e-12 * np.linalg.norm(want))
            assert np.linalg.norm(got.A0) < 10 * max(1.0, np.linalg.norm(e.A0))


def _same_clustered_form(got, want, a0):
    """Two clustered Schur forms of ``a0`` with the same blocks, in any
    order along the diagonal: each block of one matched to the block of the
    other nearest in mean, of the same size, the means within 1e-12
    relative; and each form reassembling ``a0``."""
    scale = max(1.0, np.linalg.norm(a0))
    means = np.array([lam for _, _, lam in want[2]])
    match = [int(np.argmin(np.abs(means - lam))) for _, _, lam in got[2]]
    assert sorted(match) == list(range(len(want[2])))
    for (s0, s1, lam), j in zip(got[2], match):
        w0, w1, mu = want[2][j]
        assert s1 - s0 == w1 - w0 and abs(lam - mu) <= 1e-12 * scale
    for t, q, _ in (got, want):
        assert not np.tril(t, -1).any()
        assert np.linalg.norm(q @ t @ q.conj().T - a0) <= 1e-13 * scale
        assert np.linalg.norm(q.conj().T @ q - np.eye(len(q))) <= 1e-13


def test_schur_form_is_computed_once_and_shared(monkeypatch):
    rng = np.random.default_rng(50)
    nf = tensor(random_normal_form(rng, 3), random_normal_form(rng, 3))
    want = eqconn.numkit._clustered_schur(nf.A0, DEFAULT_TOL)
    calls = []
    original = eqconn.numkit._schur

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(eqconn.numkit, "_schur", counting)
    labels = decompose(nf)
    t, q, blocks = nf.schur_form()
    hom_basis(nf, nf)
    hom_mode_dims(nf, nf, k_range=1)
    assert decompose(nf) == labels and k0_class(nf) == k0_class(nf)
    # the product holds its form from birth, built from the factors' forms
    assert len(calls) == 0
    _same_clustered_form((t, q, blocks), want, nf.A0)
    assert not t.flags.writeable and not q.flags.writeable
    # A0 cannot change under the kept form
    with pytest.raises(ValueError):
        nf.A0[0, 0] += 1.0
    # a Tolerances of its own gets a form of its own
    nf.schur_form(eqconn.numkit.Tolerances(eps_spec=1e-6))
    assert len(calls) == 1
    # a normal form built otherwise takes its form once, on first use
    other = random_normal_form(rng, 3)
    assert other.A0.flags.writeable
    for _ in range(2):
        decompose(other)
    assert len(calls) == 2 and not other.A0.flags.writeable


# --- kernels, cokernels, composition series ----------------------------------------------

def test_kernel_cokernel_of_identity_and_zero():
    rng = np.random.default_rng(16)
    x = random_normal_form(rng, 3)
    ident = Morphism(x, x, np.eye(3, dtype=complex))
    ker, _ = kernel(ident)
    cok, _ = cokernel(ident)
    assert ker.n == 0 and cok.n == 0
    zero = Morphism(x, x, np.zeros((3, 3), dtype=complex))
    ker, inc = kernel(zero)
    cok, proj = cokernel(zero)
    assert ker.n == 3 and cok.n == 3
    assert inc.is_valid() and proj.is_valid()


def test_kernel_cokernel_rank_one_map():
    src = NormalForm(np.diag([0.1 * TAU, 0.5 * TAU]), np.diag([2.0, 3.0]),
                     STRIP, THETA, TAU)
    tgt = NormalForm(np.diag([0.1 * TAU, 0.8 * TAU]), np.diag([2.0, 7.0]),
                     STRIP, THETA, TAU)
    phi = np.zeros((2, 2), dtype=complex)
    phi[0, 0] = 1.0
    m = Morphism(src, tgt, phi)
    assert m.is_valid()
    ker, inc = kernel(m)
    cok, proj = cokernel(m)
    assert ker.n == 1 and cok.n == 1
    assert abs(ker.A0[0, 0] - 0.5 * TAU) < 1e-12 and abs(ker.B0[0, 0] - 3.0) < 1e-12
    assert abs(cok.A0[0, 0] - 0.8 * TAU) < 1e-12 and abs(cok.B0[0, 0] - 7.0) < 1e-12
    assert inc.is_valid() and proj.is_valid()
    # rank-nullity bookkeeping
    img, _ = image(m)
    assert ker.n + img.n == src.n
    assert cok.n == tgt.n - img.n
    # K-classes add along the two exact sequences
    assert k0_class(src) == k0_class(ker) + k0_class(img)
    assert k0_class(tgt) == k0_class(img) + k0_class(cok)


def test_kernel_cokernel_image_report_the_rank_split():
    src = NormalForm(np.diag([0.1 * TAU, 0.5 * TAU, 0.7 * TAU]), np.diag([2.0, 3.0, 5.0]),
                     STRIP, THETA, TAU)
    tgt = NormalForm(np.diag([0.1 * TAU, 0.5 * TAU, 0.8 * TAU]), np.diag([2.0, 3.0, 7.0]),
                     STRIP, THETA, TAU)
    phi = np.diag([2.0, 0.5, 0.0]).astype(complex)
    phi[2, 2] = 1e-12       # below eps_res times the largest: dropped
    m = Morphism(src, tgt, phi)
    for fn in (kernel, cokernel, image):
        obj, _ = fn(m)
        d = obj.diagnostics
        assert d["phi_rank"] == 2
        assert d["kept_singular_ratio"] == 0.25
        assert d["dropped_singular_ratio"] == 0.5e-12
        assert d["invariance_residual"] < 1e-15
    assert kernel(m)[0].n == 1 and cokernel(m)[0].n == 1 and image(m)[0].n == 2


def test_kernel_diagnostics_of_the_zero_map_and_a_non_invariant_subspace():
    x = NormalForm(np.array([[0.1 * TAU, 0.3], [0.0, 0.5 * TAU]]), np.eye(2, dtype=complex),
                   STRIP, THETA, TAU)
    zero = kernel(Morphism(x, x, np.zeros((2, 2), dtype=complex)))[0].diagnostics
    assert zero == {"phi_rank": 0, "dropped_singular_ratio": 0.0,
                    "kept_singular_ratio": 0.0, "invariance_residual": 0.0}
    # phi is no morphism (its kernel, the second axis, is not A0-invariant):
    # kernel, cokernel and image refuse it, naming both residuals
    phi = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    ra, rb = Morphism(x, x, phi).residuals()
    assert ra == pytest.approx(0.3) and rb == 0.0
    for fn in (kernel, cokernel, image):
        with pytest.raises(ValidationFailure, match="phi does not intertwine source and "
                           "target: A residual 3.000e-01, B residual 0.000e"):
            fn(Morphism(x, x, phi))


def test_subobjects_of_a_real_map_are_those_of_the_same_complex_map():
    # kernel, cokernel and image all take the SVD of phi in complex arithmetic;
    # phi maps the eigenspace of 0.1 tau into itself, so it intertwines
    src = NormalForm(np.diag([0.1 * TAU, 0.1 * TAU, 0.7 * TAU]), np.diag([2.0, 2.0, 5.0]),
                     STRIP, THETA, TAU)
    phi = np.array([[1.0, 2.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    for fn in (kernel, cokernel, image):
        got, inc = fn(Morphism(src, src, phi))
        want, want_inc = fn(Morphism(src, src, phi.astype(complex)))
        assert got.A0.tobytes() == want.A0.tobytes() and got.B0.tobytes() == want.B0.tobytes()
        assert inc.phi.tobytes() == want_inc.phi.tobytes()
        assert got.diagnostics == want.diagnostics and got.diagnostics["phi_rank"] == 2


def test_decompose_diagonal_and_nilpotent():
    nf = NormalForm(np.diag([0.1 * TAU, 0.6 * TAU]), np.diag([2.0, 5.0]),
                    STRIP, THETA, TAU)
    pairs = decompose(nf)
    assert sorted((round(l.real, 8), round(b.real, 8)) for l, b in pairs) == sorted(
        [(round((0.1 * TAU).real, 8), 2.0), (round((0.6 * TAU).real, 8), 5.0)])

    nil = NormalForm(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                     np.eye(2, dtype=complex), STRIP, THETA, TAU)
    pairs = decompose(nil)
    assert len(pairs) == 2
    for lam, b in pairs:
        assert abs(lam) < 1e-8 and abs(b - 1.0) < 1e-8


def test_decompose_tensor_matches_joint_spectrum_oracle():
    vals = [(0.6 * TAU, 2.0), (0.7 * TAU, 1.0j)]
    x = one_dim(*vals[0])
    y = one_dim(*vals[1])
    xy = tensor(x, y)
    pairs = decompose(xy)
    assert len(pairs) == 1
    lam, b = pairs[0]
    # oracle: scalar product/sum reduced into the strip
    assert abs(lam - 0.3 * TAU) < 1e-10
    assert abs(b - 2.0j) < 1e-10


def similar_pair(rng, a, b):
    """``(S a S^-1, S b S^-1)`` for a seeded well-conditioned ``S``."""
    n = a.shape[0]
    s = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
    s_inv = np.linalg.inv(s)
    return NormalForm(s @ a @ s_inv, s @ b @ s_inv, STRIP, THETA, TAU)


def nilpotent_pair(rng):
    # kept triangular: rounding in a similarity would split the Jordan
    # block's eigenvalue by about 1e-5 (the cube root of the unit roundoff)
    n = np.eye(3, k=1, dtype=complex)
    b = 2.0 * np.eye(3) + n + 0.3 * n @ n
    return NormalForm(scipy.linalg.block_diag(n, [[0.5 * TAU]]),
                      scipy.linalg.block_diag(b, [[3.0]]), STRIP, THETA, TAU)


def split_cluster_pair(rng):
    # one eigenvalue of A0 twice, which B0 splits into 2 and 5
    return similar_pair(rng, np.diag([0.3 * TAU, 0.3 * TAU, 0.7 * TAU]),
                        np.diag([2.0, 5.0, 3.0j]))


def tensor_square_pair(rng):
    x = random_normal_form(rng, 3)
    return tensor(x, x)


def tensor_pair(n):
    def make(rng):
        return tensor(random_normal_form(rng, n), random_normal_form(rng, n))
    make.__name__ = "tensor_pair_%d" % (n * n)
    return make


@pytest.mark.parametrize("make", [nilpotent_pair, split_cluster_pair, tensor_square_pair,
                                  tensor_pair(2), tensor_pair(4), tensor_pair(8)],
                         ids=lambda make: make.__name__)
def test_decompose_matches_the_peel_off_reference(make):
    nf = make(np.random.default_rng(17))
    got = decompose(nf)
    assert got == sorted(got, key=lambda p: (round(p[0].real, 9), round(p[0].imag, 9),
                                              round(p[1].real, 9), round(p[1].imag, 9)))
    rest = reference_decompose(nf.A0, nf.B0, DEFAULT_TOL)
    assert len(got) == len(rest) == nf.n
    tol = 1e-7 * max(1.0, np.linalg.norm(nf.A0), np.linalg.norm(nf.B0))
    for lam, b in got:
        i = min(range(len(rest)), key=lambda k: abs(rest[k][0] - lam) + abs(rest[k][1] - b))
        assert abs(rest[i][0] - lam) + abs(rest[i][1] - b) < tol, (lam, b, rest[i])
        rest.pop(i)


def test_decompose_of_a_non_commuting_pair_raises():
    nf = NormalForm(np.diag([0.1 * TAU, 0.6 * TAU]), np.array([[1.0, 1.0], [1.0, 2.0]]),
                    STRIP, THETA, TAU)
    with pytest.raises(NumericFailure):
        decompose(nf)


# --- K classes and flat sections -------------------------------------------------------

def test_k0_of_unit():
    cls = k0_class(unit_object(THETA, TAU, STRIP))
    assert len(cls.entries) == 1
    b, zp, mult = cls.entries[0]
    assert abs(b - 1.0) < 1e-12 and abs(zp) < 1e-12 and mult == 1


def test_k0_invariant_under_strip_shift():
    x = one_dim(0.25 * TAU + 0.1, 2.0)
    shifted = normalize(constant_object([[0.25 * TAU + 0.1 + TAU]], [[2.0]]), STRIP)
    assert k0_class(x) == k0_class(shifted)


def test_k0_extension_has_multiplicity_two():
    nil = NormalForm(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                     np.eye(2, dtype=complex), STRIP, THETA, TAU)
    cls = k0_class(nil)
    assert len(cls.entries) == 1
    assert cls.entries[0][2] == 2


def test_k0_arithmetic():
    a = K0Class(STRIP, [(2.0, 0.1, 1)])
    b = K0Class(STRIP, [(2.0, 0.1 + 5e-9, 2)])
    s = a + b
    assert len(s.entries) == 1 and s.entries[0][2] == 3
    assert (s - a - b).entries == ()
    assert s.total_degree() == 3


def test_k0_keys_merge_at_the_scale_of_the_labels():
    # rounding of large dilation labels exceeds the absolute key radius
    assert K0Class(STRIP, [(9e7, 0.1, 1)]) == K0Class(STRIP, [(9e7 + 4e-7, 0.1, 1)])
    cls = K0Class(STRIP, [(3e4, 0.1, 1), (3e4 + 1.2e-7, 0.1, 1)])
    assert len(cls.entries) == 1 and cls.entries[0][2] == 2
    # the radius stays absolute below 1
    assert len(K0Class(STRIP, [(0.5, 0.1, 1), (0.5 + 2e-7, 0.1, 1)]).entries) == 2


def test_operation_outputs_commute_posthoc():
    rng = np.random.default_rng(17)
    x = random_normal_form(rng, 2)
    y = random_normal_form(rng, 3)
    outputs = [tensor(x, y), dual(x), dual(y)]
    phi = np.zeros((3, 2), dtype=complex)
    m = Morphism(x, NormalForm(np.diag([0.1 * TAU, 0.2 * TAU, 0.3 * TAU]),
                               np.diag([1.0, 2.0, 3.0]), STRIP, THETA, TAU), phi)
    ker, _ = kernel(m)
    cok, _ = cokernel(m)
    outputs += [ker, cok]
    for nf in outputs:
        comm = np.linalg.norm(nf.A0 @ nf.B0 - nf.B0 @ nf.A0)
        scale = (np.linalg.norm(nf.A0) + 1.0) * (np.linalg.norm(nf.B0) + 1.0)
        assert comm < 1e-9 * scale


def test_tensor_associative_at_monodromy_level():
    rng = np.random.default_rng(18)
    x, y, z = (random_normal_form(rng, n) for n in (2, 2, 3))
    left = monodromy(tensor(tensor(x, y), z))
    right = monodromy(tensor(x, tensor(y, z)))
    assert np.linalg.norm(left.M1 - right.M1) < 1e-8 * max(1.0, np.linalg.norm(left.M1))
    assert np.linalg.norm(left.M2 - right.M2) < 1e-8 * max(1.0, np.linalg.norm(left.M2))


def test_h0_dimensions():
    assert h0_dim(one_dim(0.0, 1.0)) == 1
    assert h0_dim(np.array([[0.5 * TAU]]), tau=TAU) == 0
    assert h0_dim(np.array([[-TAU]]), tau=TAU) == 1
    assert h0_dim(np.array([[-2.0 * TAU]]), tau=TAU) == 1
    x = one_dim(0.0, 1.0)
    y = one_dim(0.3 * TAU, 2.0)
    assert h0_dim(direct_sum(x, y)) == h0_dim(x) + h0_dim(y)
    assert h0_dim(unit_object(THETA, TAU, STRIP)) == 1


def test_h0_dim_refuses_a_matrix_that_is_not_square_or_not_finite():
    for bad in (np.ones((1, 2)), np.ones((2, 2, 2)), [[math.nan]], [[1.0, 0.0], [math.inf, 1.0]]):
        with pytest.raises(ValidationFailure, match="nf_or_matrix"):
            h0_dim(bad, tau=TAU)
