"""Tests for objects, normalization, the monodromy correspondence, and the
rigid tensor structure."""

import math

import numpy as np
import pytest

from eqconn.category import (
    EquivariantConnection,
    K0Class,
    Morphism,
    MonodromyPair,
    NormalForm,
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
)
from eqconn.exceptions import (
    EquivarianceViolation,
    RegularityViolation,
    SingularB,
    TransversalMismatch,
)
from eqconn.laurent import PolyMat
from eqconn.numkit import Transversal
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


def test_validate_regularity_violation():
    a = PolyMat(1, {-1: np.eye(1)}, TAU, Q)
    b = PolyMat.identity(1, TAU, Q)
    obj = EquivariantConnection(a, b, THETA, TAU)
    with pytest.raises(RegularityViolation):
        validate(obj)


def test_validate_equivariance_violation():
    a0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    b0 = np.array([[1.0, 0.0], [0.0, 2.0]])  # [a0, b0] != 0
    with pytest.raises(EquivarianceViolation):
        validate(constant_object(a0, b0))


def test_validate_singular_dilation():
    with pytest.raises(SingularB):
        validate(constant_object(np.zeros((2, 2)), np.diag([1.0, 0.0])))


# --- normalization ------------------------------------------------------------

def test_normalize_already_normal_is_identity_gauge():
    nf0 = one_dim(0.25 * TAU, 2.0)
    obj = constant_object(nf0.A0, nf0.B0)
    nf = normalize(obj, STRIP)
    assert np.array_equal(nf.A0, nf0.A0)
    assert np.array_equal(nf.B0, nf0.B0)
    assert nf.gauge.shears == ()
    assert nf.gauge.series.is_constant()
    assert nf.diagnostics["gauge_residual"] == 0.0


def test_normalize_single_shear_case():
    a = PolyMat(2, {0: np.diag([0.0, TAU]),
                    1: np.array([[0.0, 1.0], [0.0, 0.0]])}, TAU, Q)
    b = PolyMat.identity(2, TAU, Q)
    nf = normalize(EquivariantConnection(a, b, THETA, TAU), STRIP)
    assert np.allclose(nf.A0, [[0.0, 1.0], [0.0, 0.0]], atol=1e-10)
    assert np.allclose(nf.B0, np.eye(2), atol=1e-10)
    assert nf.diagnostics["shear_passes"] == 1


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


# --- tensor structure ---------------------------------------------------------------

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


def test_tensor_k0_commutes():
    rng = np.random.default_rng(11)
    x = random_normal_form(rng, 2)
    y = random_normal_form(rng, 2)
    assert k0_class(tensor(x, y)) == k0_class(tensor(y, x))


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
