"""Tests for the quantum-torus algebra, bundles, divisors, stability, and
finite-monodromy detection."""

import cmath
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqconn.numkit
import util
from eqconn.category import K0Class, MonodromyPair, NormalForm, k0_class, tensor, unit_object
from eqconn.exceptions import ValidationFailure
from eqconn.torus import (
    Divisor,
    FreeBundle,
    Omega,
    TorusPoly,
    build_extension,
    central_charge,
    check_intertwine,
    divisor_equivalent,
    extension_morphism_residuals,
    is_nori_finite,
    k0_to_divisor,
    k_swap,
    modular_apply,
    phase,
    psi_delta_residual,
    psi_embed,
    psi_star,
    reduce_mod_lattice,
    std_bundle_data,
)
from reference import (
    ReferenceFreeBundle,
    reference_build_extension,
    reference_divisor_equivalent,
    reference_divisor_points,
    reference_extension_morphism_residuals,
    reference_is_nori_finite,
    reference_k0_entries,
    reference_psi_star,
)
from util import STRIP, TAU, THETA, random_normal_form

TWO_PI_I = 2j * math.pi


def rand_poly(rng, theta, size=6, bound=4):
    coeffs = {}
    for _ in range(size):
        key = (int(rng.integers(-bound, bound + 1)), int(rng.integers(-bound, bound + 1)))
        coeffs[key] = complex(*rng.normal(size=2))
    return TorusPoly(theta, coeffs)


# --- twisted product -----------------------------------------------------------

def test_commutation_relation():
    u1, u2 = TorusPoly.u1(THETA), TorusPoly.u2(THETA)
    lhs = u2 * u1
    rhs = (u1 * u2).scale(cmath.exp(TWO_PI_I * THETA))
    assert lhs.distance(rhs) < 1e-15


def test_normal_order_product():
    u1, u2 = TorusPoly.u1(THETA), TorusPoly.u2(THETA)
    prod = u1 * u2
    assert prod.coeffs == {(1, 1): 1.0 + 0.0j}
    square = prod * prod
    assert set(square.coeffs) == {(2, 2)}
    assert abs(square.coeffs[(2, 2)] - cmath.exp(TWO_PI_I * THETA)) < 1e-15


def test_product_associative_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        x, y, z = (rand_poly(rng, THETA) for _ in range(3))
        lhs = (x * y) * z
        rhs = x * (y * z)
        scale = max(1.0, x.norm() * y.norm() * z.norm())
        assert lhs.distance(rhs) < 1e-12 * scale


def test_theta_mismatch_rejected():
    with pytest.raises(ValidationFailure):
        TorusPoly.u1(0.3) * TorusPoly.u1(0.4)


# --- derivations ------------------------------------------------------------------

def test_basic_derivations_on_generators():
    u1 = TorusPoly.u1(THETA)
    d1 = u1.delta(1)
    assert d1.coeffs == {(1, 0): TWO_PI_I}
    assert u1.delta(2).is_zero()
    x = TorusPoly.monomial(THETA, 2, 1)
    dt = x.delta_omega(Omega(TAU, 1.0))
    assert abs(dt.coeffs[(2, 1)] - TWO_PI_I * (2 * TAU + 1.0)) < 1e-14


def test_delta_omega_is_a_derivation():
    rng = np.random.default_rng(1)
    w = Omega(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
    for _ in range(10):
        x, y = rand_poly(rng, THETA), rand_poly(rng, THETA)
        lhs = (x * y).delta_omega(w)
        rhs = x.delta_omega(w) * y + x * y.delta_omega(w)
        assert lhs.distance(rhs) < 1e-11 * max(1.0, x.norm() * y.norm())


def test_omega_must_be_nonzero():
    with pytest.raises(ValidationFailure):
        Omega(0.0, 0.0)


# --- modular automorphisms -----------------------------------------------------------

def test_generator_images():
    u1 = TorusPoly.u1(THETA)
    assert modular_apply("g1", u1).coeffs == {(1, 1): 1.0 + 0.0j}
    assert modular_apply("g1", TorusPoly.u2(THETA)).coeffs == {(0, 1): 1.0 + 0.0j}
    assert modular_apply("g2", u1).coeffs == {(0, -1): 1.0 + 0.0j}
    assert modular_apply("g2", TorusPoly.u2(THETA)).coeffs == {(1, 0): 1.0 + 0.0j}


def test_generator_inverses_random():
    rng = np.random.default_rng(2)
    for token in ("g1", "g2"):
        inv = token + "_inv"
        for _ in range(10):
            x = rand_poly(rng, THETA, size=10)
            assert modular_apply([inv, token], x).distance(x) < 1e-11 * max(1.0, x.norm())
            assert modular_apply([token, inv], x).distance(x) < 1e-11 * max(1.0, x.norm())


def test_automorphisms_are_multiplicative():
    rng = np.random.default_rng(3)
    for token in ("g1", "g2"):
        for _ in range(50):
            x, y = rand_poly(rng, THETA), rand_poly(rng, THETA)
            lhs = modular_apply([token], x * y)
            rhs = modular_apply([token], x) * modular_apply([token], y)
            assert lhs.distance(rhs) < 1e-12 * max(1.0, x.norm() * y.norm())


def test_intertwining_identity():
    rng = np.random.default_rng(4)
    for token in ("g1", "g2"):
        for _ in range(5):
            w = Omega(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            assert check_intertwine(token, w, bound=3) < 1e-12
    # the empty word is the identity automorphism
    x = rand_poly(rng, THETA)
    assert modular_apply([], x).distance(x) == 0.0


def exact_phase(theta, k):
    """``exp(2 pi i theta k)`` with ``theta k`` reduced mod 1 as a fraction."""
    return cmath.exp(TWO_PI_I * float(Fraction(theta) * k % 1))


def repeated_monomial_power(theta, key, power):
    """``(U1^a U2^b)^power`` by repeated products, power in Z, as the modular
    automorphisms once computed each monomial's image: ``(key, coeff)``."""
    if power == 0:
        return (0, 0), 1.0
    coeff = 1.0
    if power < 0:
        a, b = key
        key, coeff = (-a, -b), cmath.exp(TWO_PI_I * theta * a * b) / coeff
        power = -power
    out_key, out_coeff = key, coeff
    for _ in range(power - 1):
        phase = cmath.exp(TWO_PI_I * theta * out_key[1] * key[0])
        out_key = (out_key[0] + key[0], out_key[1] + key[1])
        out_coeff = out_coeff * coeff * phase
    return out_key, out_coeff


@pytest.mark.parametrize("n", [10**4, 10**6])
def test_a_word_of_generators_twists_a_high_monomial_exactly(n):
    """g1 then g2 sends ``U1^n U2^-n`` to ``U2^-n`` times the twist of
    ``n(n-1)/2``; a phase taken in floats from ``theta n(n-1)/2`` before
    its reduction mod 1 is off by about 2e-9 at n = 1e4 and 2e-5 at 1e6."""
    theta = 0.618
    got = modular_apply(["g1", "g2"], TorusPoly.monomial(theta, n, -n)).coeffs
    assert list(got) == [(0, -n)]
    assert abs(got[(0, -n)] - exact_phase(theta, n * (n - 1) // 2)) <= 2e-15


def test_generator_images_are_the_repeated_products():
    """Each generator maps ``U1^n1 U2^n2``, |n1|, |n2| <= 6, to the product of
    the repeated powers of the images of U1 and U2, within 1e-13."""
    images = {"g1": ((1, 1), (0, 1)), "g1_inv": ((1, -1), (0, 1)),
              "g2": ((0, -1), (1, 0)), "g2_inv": ((0, 1), (-1, 0))}
    for token, (key_u1, key_u2) in images.items():
        for n1, n2 in itertools.product(range(-6, 7), repeat=2):
            k1, c1 = repeated_monomial_power(THETA, key_u1, n1)
            k2, c2 = repeated_monomial_power(THETA, key_u2, n2)
            key = (k1[0] + k2[0], k1[1] + k2[1])
            want = c1 * c2 * cmath.exp(TWO_PI_I * THETA * k1[1] * k2[0])
            got = modular_apply([token], TorusPoly.monomial(THETA, n1, n2)).coeffs
            assert list(got) == [key] and abs(got[key] - want) <= 1e-13, (token, n1, n2)


def test_the_product_twists_high_powers_exactly():
    """``U2^k U1^k = exp(2 pi i theta k^2) U1^k U2^k`` at k = 1e5, the phase
    reduced mod 1 before it is taken: from ``theta k k`` in floats it is
    off by about 1.5e-6."""
    theta, k = 0.618, 10**5
    got = (TorusPoly.u2(theta, k) * TorusPoly.u1(theta, k)).coeffs
    assert list(got) == [(k, k)]
    assert abs(got[(k, k)] - exact_phase(theta, k * k)) <= 2e-15


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_a_twist_parameter_that_is_not_finite_is_refused(theta):
    with pytest.raises(ValidationFailure, match="theta must be finite"):
        TorusPoly.u1(theta)


# --- the embedding ---------------------------------------------------------------------

def test_psi_embed_values():
    img = psi_embed({1: 1.0}, THETA)
    assert img.coeffs == {(1, 0): 1.0 + 0.0j}
    assert psi_embed({0: 1.0}, THETA).coeffs == {(0, 0): 1.0 + 0.0j}
    mixed = psi_embed({-2: 1.0, 1: 3.0}, THETA)
    assert mixed.coeffs == {(-2, 0): 1.0 + 0.0j, (1, 0): 3.0 + 0.0j}


def test_psi_embed_is_multiplicative():
    # the image is commutative: powers of U1 only
    f = psi_embed({1: 2.0, 0: 1.0}, THETA)
    g = psi_embed({-1: 1.0}, THETA)
    prod = f * g
    assert prod.coeffs == {(0, 0): 2.0 + 0.0j, (-1, 0): 1.0 + 0.0j}


def test_psi_delta_intertwining():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = {int(k): complex(*rng.normal(size=2))
             for k in rng.integers(-6, 7, size=5)}
        assert psi_delta_residual(f, TAU, THETA) < 1e-12


# --- free bundles --------------------------------------------------------------------

def test_psi_star_scalar_object():
    zprime = 0.3 * TAU
    nf = random_normal_form(np.random.default_rng(6), 1)
    nf = type(nf)(np.array([[zprime]]), np.array([[2.0]]), STRIP, THETA, TAU)
    fb = psi_star(nf)
    assert fb.n == 1
    assert abs(fb.diagonal()[0] - TWO_PI_I * zprime) < 1e-12


def test_psi_star_unit_and_nilpotent():
    fb = psi_star(unit_object(THETA, TAU, STRIP))
    assert abs(fb.diagonal()[0]) < 1e-12
    from eqconn.category import NormalForm
    nil = NormalForm(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                     np.eye(2, dtype=complex), STRIP, THETA, TAU)
    fb = psi_star(nil)
    assert fb.n == 2
    assert all(abs(d) < 1e-12 for d in fb.diagonal())
    assert fb.entry(1, 0).is_zero()


def test_psi_star_reads_the_shared_schur_form(monkeypatch):
    rng = np.random.default_rng(63)
    x = random_normal_form(rng, 12)
    t = tensor(x, x)
    k0_class(t)
    calls = []
    schur = eqconn.numkit._schur
    monkeypatch.setattr(eqconn.numkit, "_schur",
                        lambda *args, **kwargs: calls.append(1) or schur(*args, **kwargs))
    fb = psi_star(t)
    assert t.n == 144 and fb.n == 144 and calls == []
    tri = t.schur_form()[0]
    assert all(fb.entry(i, j).coeffs.get((0, 0), 0.0) == TWO_PI_I * tri[i, j]
               for i in range(t.n) for j in range(i, t.n))
    assert all(fb.entry(i, j).is_zero() for i in range(t.n) for j in range(i))
    again = psi_star(t)
    assert all(again.entry(i, j).coeffs == fb.entry(i, j).coeffs
               for i in range(t.n) for j in range(t.n))


def test_free_bundle_rejects_bad_shapes():
    theta = THETA
    lower = [[TorusPoly.unit(theta), TorusPoly(theta)],
             [TorusPoly.unit(theta), TorusPoly.unit(theta)]]
    with pytest.raises(ValidationFailure):
        FreeBundle(theta, TAU, lower)
    nonscalar = [[TorusPoly.u1(theta)]]
    with pytest.raises(ValidationFailure):
        FreeBundle(theta, TAU, nonscalar)


def test_extension_of_unit_by_unit():
    base = FreeBundle(THETA, TAU, [[TorusPoly(THETA)]])
    ext = build_extension(0.0, [TorusPoly(THETA)], base)
    assert ext.n == 2
    assert ext.diagonal() == [0.0, 0.0]


def test_extension_two_by_two_case():
    zp, zpp = TWO_PI_I * 0.2, TWO_PI_I * 0.7
    base = FreeBundle(THETA, TAU, [[TorusPoly(THETA, {(0, 0): zpp})]])
    b_entry = TorusPoly(THETA, {(1, 2): 1.5, (0, 0): -0.3})
    ext = build_extension(zp, [b_entry], base)
    res_iota, res_pi = extension_morphism_residuals(ext, base, zp)
    assert res_iota == 0.0 and res_pi == 0.0
    assert ext.diagonal() == [zp, zpp]
    # class bookkeeping on the diagonal: the extension adds one new label
    assert ext.diagonal()[1:] == base.diagonal()


def test_extension_row_length_checked():
    base = FreeBundle(THETA, TAU, [[TorusPoly(THETA)]])
    with pytest.raises(ValidationFailure):
        build_extension(0.0, [], base)


# --- coefficient stacks against the dict-based reference ------------------------------

def _bits(values):
    """The bytes of complex values, each signed zero read as +0: a zero the
    reference's dicts leave out is a +0 or -0 in a stack."""
    return (np.asarray(values, dtype=complex) + 0.0).tobytes()


def assert_matches_reference(fb, ref):
    """``fb`` equals the ``ReferenceFreeBundle`` ``ref`` to the bit, entry by
    entry and support by support."""
    assert (fb.theta, fb.tau, fb.n) == (ref.theta, ref.tau, ref.n)
    assert fb.supports == sorted(set(fb.supports))
    for i in range(fb.n):
        for j in range(fb.n):
            got, want = fb.entry(i, j).coeffs, ref.conn[i][j].coeffs
            assert sorted(got) == sorted(want), (i, j)
            assert all(_bits(got[key]) == _bits(want[key]) for key in want), (i, j)
    keys = {key for row in ref.conn for entry in row for key in entry.coeffs}
    assert keys <= set(fb.supports)
    for s, key in enumerate(fb.supports):
        want = [[entry.coeffs.get(key, 0.0) for entry in row] for row in ref.conn]
        assert _bits(fb.coeffs[s]) == _bits(np.reshape(want, (fb.n, fb.n))), key
    assert fb.diagonal() == ref.diagonal()


def mixed_row(theta, n):
    """A first row cycling through U1, U2^-1, c U1^2 U2 and their sum."""
    cycle = [TorusPoly.u1(theta), TorusPoly.u2(theta, -1),
             TorusPoly.monomial(theta, 2, 1, 0.5 - 1.25j),
             TorusPoly(theta, {(1, 0): 2.0, (0, -1): -1j, (2, 1): 0.75, (0, 0): 0.1})]
    return [cycle[j % len(cycle)] for j in range(n)]


@pytest.mark.parametrize("factors", [(1, 1), (2, 2), (4, 4), (8, 8), (12, 12)])
def test_psi_star_of_tensors_matches_the_reference(factors):
    rng = np.random.default_rng(90 + factors[0])
    t = tensor(*(random_normal_form(rng, k) for k in factors))
    fb = psi_star(t)
    assert fb.supports == [(0, 0)]
    assert_matches_reference(fb, reference_psi_star(t))


def test_psi_star_of_a_nilpotent_form_and_the_zero_object_matches_the_reference():
    for a0 in (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
               np.zeros((3, 3), dtype=complex), np.zeros((0, 0), dtype=complex)):
        nf = NormalForm(a0, np.eye(len(a0), dtype=complex), STRIP, THETA, TAU)
        assert_matches_reference(psi_star(nf), reference_psi_star(nf))


@pytest.mark.parametrize("factors", [(1, 1), (2, 2)])
def test_extensions_with_mixed_supports_match_the_reference(factors):
    assert THETA != 0.0
    rng = np.random.default_rng(95 + factors[0])
    t = tensor(*(random_normal_form(rng, k) for k in factors))
    fb, ref = psi_star(t), reference_psi_star(t)
    for zprime in (0.25 - 0.5j, 0.0, TWO_PI_I * 0.3):
        row = mixed_row(THETA, fb.n)
        fb = build_extension(zprime, row, fb)
        ref = reference_build_extension(zprime, row, ref)
        assert_matches_reference(fb, ref)
    assert fb.supports == [(0, -1), (0, 0), (1, 0), (2, 1)] and fb.n == t.n + 3


def test_residuals_of_a_noncommuting_pair_match_the_reference():
    rng = np.random.default_rng(97)
    t = tensor(random_normal_form(rng, 2), random_normal_form(rng, 2))
    sub, ref_sub = psi_star(t), reference_psi_star(t)
    total = build_extension(0.5j, mixed_row(THETA, sub.n), sub)
    ref_total = reference_build_extension(0.5j, mixed_row(THETA, sub.n), ref_sub)
    # another quotient: a second extension whose lower block differs from sub
    other = build_extension(0.3, mixed_row(THETA, sub.n - 1), psi_star(
        random_normal_form(rng, sub.n - 1)))
    conn = [[other.entry(i, j) for j in range(other.n)] for i in range(other.n)]
    ref_other = ReferenceFreeBundle(THETA, TAU, conn)
    assert_matches_reference(FreeBundle(THETA, TAU, conn), ref_other)
    for zprime in (0.5j, 0.5j + 0.125):
        got = extension_morphism_residuals(total, other, zprime)
        want = reference_extension_morphism_residuals(ref_total, ref_other, zprime)
        assert got == want and got[1] > 0.0
    assert extension_morphism_residuals(total, other, 0.5j + 0.125)[0] == 0.125


def _entries(theta, spec):
    return [[TorusPoly(theta, terms) for terms in row] for row in spec]


@pytest.mark.parametrize("spec, message", [
    ([[{}, {}, {}], [{}, {}, {}], [{(1, 1): 1.0}, {(0, 0): 2.0}, {}]], "(2, 0)"),
    ([[{}, {}, {}], [{}, {}, {}], [{}, {(0, -1): 1.0}, {}]], "(2, 1)"),
    ([[{}, {}, {}], [{(0, 0): 3.0}, {}, {}], [{(1, 0): 1.0}, {}, {}]], "(1, 0)"),
    ([[{}, {(1, 0): 1.0}], [{}, {(0, 1): 1.0}]], "scalar multiples"),
    ([[{}, {}], [{}]], "square"),
])
def test_bundle_checks_match_the_reference(spec, message):
    conn = _entries(THETA, spec)
    with pytest.raises(ValidationFailure, match=re.escape(message)) as got:
        FreeBundle(THETA, TAU, conn)
    with pytest.raises(ValidationFailure) as want:
        ReferenceFreeBundle(THETA, TAU, conn)
    assert str(got.value) == str(want.value)


def test_bundle_checks_read_the_stack():
    with pytest.raises(ValidationFailure, match="entry twist parameter"):
        FreeBundle(THETA, TAU, [[TorusPoly(THETA + 1e-9)]])
    coeffs = np.zeros((2, 3, 3), dtype=complex)
    coeffs[1, 2, 1] = 1e-300
    with pytest.raises(ValidationFailure, match=r"entry \(2, 1\)"):
        FreeBundle._from_stack(THETA, TAU, [(0, 0), (0, 1)], coeffs)
    coeffs[1, 2, 1], coeffs[1, 1, 1] = 0.0, 1.0
    with pytest.raises(ValidationFailure, match="scalar multiples"):
        FreeBundle._from_stack(THETA, TAU, [(0, 0), (0, 1)], coeffs)
    coeffs[1, 1, 1], coeffs[0, 1, 1], coeffs[0, 2, 0] = 0.0, 1.0, -0.0
    assert FreeBundle._from_stack(THETA, TAU, [(0, 0), (0, 1)], coeffs).diagonal() == [0, 1, 0]


# --- standard bundles and stability -------------------------------------------------

def test_std_bundle_values():
    assert std_bundle_data(0, 1, THETA) == (0, 1.0, 0.0)
    m, rk, mu = std_bundle_data(1, 0, THETA)
    assert (m, rk) == (1, THETA) and abs(mu - 1.0 / THETA) < 1e-15
    m, rk, mu = std_bundle_data(1, 1, 0.4)
    assert rk == 1.4 and abs(mu - 1.0 / 1.4) < 1e-15


def test_std_bundle_errors():
    with pytest.raises(ValidationFailure):
        std_bundle_data(2, 4, THETA)
    with pytest.raises(ValidationFailure):
        std_bundle_data(-1, 0, THETA)  # rank -theta < 0


def test_k_swap_labels():
    assert k_swap(0, 1, THETA) == (1.0, 0)
    assert k_swap(0, 5, THETA) == (5.0, 0)
    deg, rk = k_swap(1, 0, THETA)
    assert deg == THETA and rk == -1


def test_central_charge_and_phase():
    assert central_charge(0, 1, THETA) == 1j
    assert phase(0, 1, THETA) == 0.5
    for n in range(1, 6):
        assert phase(0, n, THETA) == 0.5
    z = central_charge(1, 0, 0.4)
    assert z == complex(-1.0, 0.4)
    assert 0.5 < phase(1, 0, 0.4) < 1.0
    assert central_charge(-1, 1, 0.4) == complex(1.0, 0.6)
    assert 0.0 < phase(-1, 1, 0.4) < 0.5
    with pytest.raises(ValidationFailure):
        central_charge(0, 0, THETA)


def test_phase_monotone_with_slope():
    theta = 0.4
    grid = [(m, n) for m in range(-3, 4) for n in range(-3, 4)
            if (m, n) != (0, 0) and m * theta + n > 0.05]
    graded = sorted(grid, key=lambda mn: mn[0] / (mn[0] * theta + mn[1]))
    phases = [phase(m, n, theta) for m, n in graded]
    assert all(p1 <= p2 + 1e-12 for p1, p2 in zip(phases, phases[1:]))


# --- divisors ---------------------------------------------------------------------------

def test_reduce_mod_lattice():
    point, (s, t) = reduce_mod_lattice(0.3 + 0.4 * TAU, TAU)
    assert abs(point - (0.3 + 0.4 * TAU)) < 1e-12
    point, (s, t) = reduce_mod_lattice(1.3 + 2.0 * TAU - 5.0, TAU)
    assert abs(point - 0.3) < 1e-12
    with pytest.raises(ValidationFailure):
        reduce_mod_lattice(1.0, 2.0)  # real tau


def test_kmap_single_entry():
    zp = 0.25 * TAU + 0.1
    cls = K0Class(STRIP, [(2.0, zp, 1)])
    div = k0_to_divisor(cls)
    assert div.degree() == 1
    expected, _ = reduce_mod_lattice(-zp, TAU)
    assert abs(div.points[0][0] - expected) < 1e-12


def test_kmap_empty_and_b_forgotten():
    assert k0_to_divisor(K0Class(STRIP)).points == ()
    zp = 0.1 + 0.2 * TAU
    cls = K0Class(STRIP, [(2.0, zp, 1), (3.0 + 1.0j, zp, -1)])
    assert k0_to_divisor(cls).points == ()


def test_divisor_equivalence_criterion():
    a, b = 0.21 + 0.13 * TAU, 0.55 + 0.4 * TAU
    d1 = Divisor(TAU, [(a, 1), (b, 1)])
    d2 = Divisor(TAU, [(0.0, 1), (a + b, 1)])
    assert divisor_equivalent(d1, d1)
    assert divisor_equivalent(d1, d2)
    d3 = Divisor(TAU, [(a, 1)])
    d4 = Divisor(TAU, [(a + 0.5, 1)])
    assert not divisor_equivalent(d3, d4)
    # a degree mismatch is never equivalent
    assert not divisor_equivalent(d1, d3)


def test_divisor_equivalence_is_equivalence_relation():
    rng = np.random.default_rng(7)
    pts = [complex(rng.uniform(0, 1), 0) + rng.uniform(0, 1) * TAU for _ in range(3)]
    d = [Divisor(TAU, [(p, 1)]) for p in pts]
    principal = Divisor(TAU, [(pts[0], 1), (pts[1], 1), (0.0, -1),
                              (pts[0] + pts[1], -1)])
    zero = Divisor(TAU)
    assert divisor_equivalent(principal, zero)
    assert divisor_equivalent(d[2] + principal, d[2])
    # symmetry and transitivity on an equivalent chain
    shifted = Divisor(TAU, [(pts[0] + 1.0, 1)])
    assert divisor_equivalent(d[0], shifted) and divisor_equivalent(shifted, d[0])


def test_negation_turns_multiplicities_and_the_difference_merges_once():
    """``-d`` keeps d's reduced, merged points and turns their
    multiplicities, so ``-(-d)`` is d to the bit and ``-d`` equals the
    divisor built from the turned points; ``divisor_equivalent``, which now
    merges once, answers as the two-merge difference did, on seeded
    divisors against lattice translates of their points, some moved by
    steps around ``eps_key`` or far, some with a point split in two."""
    rng = np.random.default_rng(91)
    eps = eqconn.numkit.DEFAULT_TOL.eps_key
    answers = []
    for _ in range(300):
        n = int(rng.integers(1, 6))
        points = [(complex(*rng.uniform(-2.0, 2.0, size=2)), int(rng.choice([-2, -1, 1, 2])))
                  for _ in range(n)]
        d1 = Divisor(TAU, points)
        assert (-(-d1)).points == d1.points
        assert -d1 == Divisor(TAU, [(p, -m) for p, m in d1.points])
        moved = [(p + int(rng.integers(-3, 4)) + int(rng.integers(-3, 4)) * TAU, m)
                 for p, m in points]
        step = rng.choice([0.0, 0.5 * eps, 0.9 * eps, 2.0 * eps, 0.3])
        p0, m0 = moved[0]
        moved[0] = (p0 + step * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) / m0, m0)
        if rng.random() < 0.3:
            moved += [(p0, 1), (p0 + 0.1, -1), (0.1, 1), (0.0, -1)]
        d2 = Divisor(TAU, moved)
        got = divisor_equivalent(d1, d2)
        assert got == reference_divisor_equivalent(d1, d2)
        answers.append(got)
    assert 0 < sum(answers) < len(answers)


# Steps off a centre, in units of eps_key times the centre's size above 1:
# near-duplicates at 0.5 and 2, the radius itself, and the chain 0 ~ 0.75 ~
# 1.5, whose ends are not near each other.
MERGE_STEPS = (0.0, 0.5, 1.0, 2.0, 0.75, 1.5)


@st.composite
def label_lists(draw):
    """``(labels, seed)``: labels ``(b, z', mult)`` around one to three
    centres, of size 1 or 1e6 in each part, each label a step of
    ``MERGE_STEPS`` off its centre along one direction per centre and part,
    multiplicity -2 to 2; some labels are followed by their negation, which
    cancels them."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    centres = []
    for size_b, size_zp in draw(st.lists(st.tuples(st.sampled_from((1.0, 1e6)),
                                                   st.sampled_from((1.0, 1e6))),
                                         min_size=1, max_size=3)):
        b = size_b * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        zp = size_zp * TAU * complex(rng.uniform(0.05, 0.95), rng.uniform(-0.5, 0.5))
        turns = np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
        centres.append((b, zp, turns))
    eps = eqconn.numkit.DEFAULT_TOL.eps_key
    labels = []
    for c, step_b, step_zp, mult, cancel in draw(st.lists(st.tuples(
            st.integers(0, len(centres) - 1), st.sampled_from(MERGE_STEPS),
            st.sampled_from(MERGE_STEPS), st.sampled_from((-2, -1, 1, 2)), st.booleans()),
            min_size=1, max_size=12)):
        b, zp, turns = centres[c]
        label = (b + step_b * eps * max(1.0, abs(b)) * turns[0],
                 zp + step_zp * eps * max(1.0, abs(zp)) * turns[1], mult)
        labels.append(label)
        if cancel:
            labels.append(label[:2] + (-mult,))
    return labels, seed


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(label_lists())
@example(([(0.5, 0.3 * TAU, 1), (0.5 + 0.75e-7, 0.3 * TAU, 1),
           (0.5 + 1.5e-7, 0.3 * TAU, 1)], 0))      # a chain: the last is kept apart
def test_k0_and_divisor_merges_match_the_pairwise_loops(case):
    """The shared merge over a proximity matrix gives the entries of the
    pairwise loops, element for element: the same representatives, their
    multiplicities, the cancelled ones dropped, in the same order."""
    labels, _ = case
    assert K0Class(STRIP, labels).entries == reference_k0_entries(STRIP, labels)
    points = [(zp, mult) for _, zp, mult in labels]
    assert Divisor(TAU, points).points == reference_divisor_points(TAU, points)
    assert k0_to_divisor(K0Class(STRIP, labels)).points == reference_divisor_points(
        TAU, [(-zp, mult) for _, zp, mult in reference_k0_entries(STRIP, labels)])


def test_k0_to_divisor_additive_over_tensor_classes():
    rng = np.random.default_rng(8)
    x = random_normal_form(rng, 2)
    y = random_normal_form(rng, 2)
    cls = k0_class(tensor(x, y))
    div = k0_to_divisor(cls)
    assert div.degree() == cls.total_degree() == 4


def test_k0_to_divisor_additive_over_exact_sequences():
    from eqconn.category import Morphism, NormalForm, image, kernel
    import eqconn.category as category
    rng = np.random.default_rng(9)
    src = NormalForm(np.diag([0.1 * TAU, 0.5 * TAU]), np.diag([2.0, 3.0]),
                     STRIP, THETA, TAU)
    tgt = NormalForm(np.diag([0.1 * TAU, 0.8 * TAU]), np.diag([2.0, 7.0]),
                     STRIP, THETA, TAU)
    phi = np.zeros((2, 2), dtype=complex)
    phi[0, 0] = 1.0
    m = Morphism(src, tgt, phi)
    ker, _ = kernel(m)
    img, _ = image(m)
    lhs = k0_to_divisor(k0_class(src))
    rhs = k0_to_divisor(k0_class(ker) + k0_class(img))
    assert lhs == rhs


# --- finite monodromy -----------------------------------------------------------------

def test_nori_finite_cases():
    assert is_nori_finite(np.diag([1.0j, -1.0]), d_max=64)
    golden = np.array([[cmath.exp(TWO_PI_I * THETA)]])
    assert not is_nori_finite(golden, d_max=64)
    assert not is_nori_finite(np.array([[1.0, 1.0], [0.0, 1.0]]), d_max=64)


def test_nori_finite_pairs_and_errors():
    rep = MonodromyPair(np.diag([1.0j, -1.0j]), np.diag([-1.0, 1.0]))
    assert is_nori_finite(rep, d_max=8)
    rep_bad = MonodromyPair(np.diag([1.0j, -1.0j]),
                            np.diag([cmath.exp(TWO_PI_I * THETA), 1.0]))
    assert not is_nori_finite(rep_bad, d_max=64)
    with pytest.raises(ValidationFailure):
        is_nori_finite(np.diag([1.0, 0.0]))
    with pytest.raises(ValidationFailure):
        is_nori_finite(np.eye(2), d_max=0)


def _conjugated(rng, m):
    s = util.well_conditioned(rng, len(m))
    return s @ m @ np.linalg.inv(s)


def _roots(orders, powers):
    return np.diag([cmath.exp(TWO_PI_I * k / d) for d, k in zip(orders, powers)])


def test_nori_finite_reads_the_block_form_spectral_gives():
    # spectral's block form is the diagonal blocks of the clustered Schur
    # form, which is_nori_finite reads
    rng = np.random.default_rng(60)
    for n in (2, 4, 8, 12):
        for _ in range(5):
            for m in util.random_commuting_pair(rng, n):
                t, _, blocks = eqconn.numkit._clustered_schur(m, eqconn.numkit.DEFAULT_TOL)
                sd = eqconn.numkit.spectral(m)
                for s0, s1, _ in blocks:
                    assert np.array_equal(t[s0:s1, s0:s1], sd.block_form[s0:s1, s0:s1])


def test_nori_finite_matches_the_spectral_reference():
    rng = np.random.default_rng(61)
    jordan = np.eye(3, dtype=complex) + np.diag([1.0, 1.0], 1)
    repeated = _roots((4, 4, 2, 5, 5, 1), (1, 1, 1, 2, 2, 0))
    cases = [
        # (input, expected answer)
        (repeated, True),
        (_conjugated(rng, repeated), True),
        (_conjugated(rng, 1j * jordan), False),
        (np.array([[1.0, 0.5e-8], [0.0, 1.0]]), True),
        (np.array([[1.0, 2e-8], [0.0, 1.0]]), False),
        (_roots((7, 7), (1, 3)), True),
        (MonodromyPair(_roots((7,), (1,)), _roots((3,), (1,))), True),
    ]
    # M1 passes and M2 decides: a root of order above d_max, a Jordan
    # block, an eigenvalue off the circle, a repeated root.  The Jordan
    # block's coupling is small, so that rounding does not split its
    # eigenvalue beyond eps_spec (ROADMAP item 3)
    s = util.well_conditioned(rng, 3)
    s_inv = np.linalg.inv(s)
    m1 = s @ _roots((6, 6, 3), (1, 1, 2)) @ s_inv
    for m2, want in ((_roots((65, 65, 2), (1, 1, 1)), False),
                     (np.block([[np.array([[1.0, 1e-3], [0.0, 1.0]]), np.zeros((2, 1))],
                                [np.zeros((1, 2)), -np.eye(1)]]), False),
                     (np.diag([1.0, 1.0, 1.001]), False),
                     (_roots((8, 8, 4), (3, 3, 1)), True)):
        cases.append((MonodromyPair(m1, s @ m2 @ s_inv), want))
    for arg, want in cases:
        assert is_nori_finite(arg) is reference_is_nori_finite(arg) is want
    assert not is_nori_finite(_roots((7,), (1,)), d_max=6)
    assert not reference_is_nori_finite(_roots((7,), (1,)), d_max=6)
    for n in (2, 4, 8, 12):
        for _ in range(5):
            rep = MonodromyPair(*util.random_commuting_pair(rng, n))
            assert is_nori_finite(rep) is reference_is_nori_finite(rep)
            for m in (rep.M1, rep.M2):
                # on the unit circle, so that every test is reached
                lam = np.linalg.eigvals(m)
                m = m / np.exp(np.mean(np.log(np.abs(lam))))
                assert is_nori_finite(m) is reference_is_nori_finite(m)


def _schur_counter(monkeypatch):
    """A list whose length counts the clustered Schur forms ``is_nori_finite``
    takes, through the name ``eqconn.torus`` imports."""
    calls = []
    clustered_schur = eqconn.torus._clustered_schur

    def counted(m, tol):
        calls.append(len(m))
        return clustered_schur(m, tol)

    monkeypatch.setattr(eqconn.torus, "_clustered_schur", counted)
    return calls


def _with_condition(rng, n, cond):
    """A random similarity with singular values spread evenly on a log
    scale from 1 to ``cond``."""
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    v = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    return u @ np.diag(np.logspace(0.0, math.log10(cond), n)) @ v.conj().T


def _conjugated_roots(seed, n, cond, diagonal=None):
    """``S diag(d) S^-1``, S of ``_with_condition`` drawn from ``seed`` and
    d the n-th roots of unity unless ``diagonal`` is given, so two calls on
    one seed commute."""
    s = _with_condition(np.random.default_rng(seed), n, cond)
    d = np.exp(TWO_PI_I * np.arange(n) / n) if diagonal is None else diagonal
    return s @ np.diag(d) @ np.linalg.inv(s)


def test_the_determinant_exit_answers_the_commuting_draws(monkeypatch):
    """Every ``random_commuting_pair`` draw, as a pair and as single
    matrices, has |log |det M|| above 0.1: the determinant exit answers
    False with no clustered Schur form, as the dense oracle does."""
    calls = _schur_counter(monkeypatch)
    for n in (2, 4, 8, 12):
        for seed in range(20):
            m1, m2 = util.random_commuting_pair(np.random.default_rng(seed), n)
            for arg in (MonodromyPair(m1, m2), m1, m2):
                assert is_nori_finite(arg) is reference_is_nori_finite(arg) is False
            assert calls == []


@pytest.mark.parametrize("n", [3, 8, 12])
def test_conjugated_roots_of_unity_pass_the_cluster_tests(monkeypatch, n):
    """Roots of unity conjugated by S with cond(S) 1e2 and 1e4, so cond(M)
    up to about 5e7: the determinant is 1 within the slack, each matrix
    takes one clustered Schur form, and the answer is True, as the dense
    oracle's; so is it for (1 + 0.9 eps_spec) I, nearer the slack.  At
    cond(S) 1e6 both refuse the matrix as singular."""
    calls = _schur_counter(monkeypatch)
    for cond in (1e2, 1e4):
        for seed in range(20):
            m = _conjugated_roots(seed, n, cond)
            assert is_nori_finite(m) is reference_is_nori_finite(m) is True
    assert calls == [n] * 40
    # every eigenvalue 0.9 eps_spec off the circle: |log |det M|| is 0.9 n
    # eps_spec, within a third of the slack, and the cluster tests pass it
    near = (1.0 + 0.9 * eqconn.numkit.DEFAULT_TOL.eps_spec) * np.eye(n)
    assert is_nori_finite(near) is reference_is_nori_finite(near) is True
    for seed in range(20):
        m = _conjugated_roots(seed, n, 1e6)
        for test in (is_nori_finite, reference_is_nori_finite):
            with pytest.raises(ValidationFailure, match="singular"):
                test(m)


@pytest.mark.parametrize("n", [3, 8, 12])
def test_a_determinant_off_the_circle_takes_no_schur_form(monkeypatch, n):
    """A unit-circle matrix scaled so that |log |det M|| is 0.01 is answered
    False from its singular values, with no clustered Schur form; the
    unscaled matrix still takes one.  In a pair whose M1 passes, an M2 with
    |det M2| = 1.2 decides the answer with its exit: one Schur form, M1's."""
    calls = _schur_counter(monkeypatch)
    for seed in range(20):
        roots = np.exp(TWO_PI_I * np.arange(n) / n)
        scaled = _conjugated_roots(seed, n, 1e2, math.exp(0.01 / n) * roots)
        assert is_nori_finite(scaled) is reference_is_nori_finite(scaled) is False
        assert calls == []
        assert is_nori_finite(_conjugated_roots(seed, n, 1e2)) is True
        assert calls == [n]
        calls.clear()
        rep = MonodromyPair(_conjugated_roots(seed, n, 1e2),
                            _conjugated_roots(seed, n, 1e2, np.r_[1.2, np.ones(n - 1)]))
        assert is_nori_finite(rep) is reference_is_nori_finite(rep) is False
        assert calls == [n]
        calls.clear()
