"""Tests for the dense-matrix kernel and lattice-strip utilities."""

import math
import warnings

import numpy as np
import pytest

from eqconn.exceptions import SpectrumCollision, ValidationFailure
from eqconn.numkit import (
    SL2Z,
    Tolerances,
    Transversal,
    TransversalBranchWarning,
    find_small_width,
    log_transversal,
    mat_exp,
    moebius,
    nullspace,
    reduce_mod_transversal,
    reduce_to_transversal,
    solve_sylvester,
    spectral,
    wd,
)

TAU = 1.0 - 1.0j
TWO_PI_I = 2j * math.pi


# --- independent oracles ----------------------------------------------------

def reduce_oracle(lam, tau, offset):
    """Enumerate shifts until the strip condition holds."""
    for k in range(-50, 51):
        t = ((lam - k * tau) / tau).real - offset
        if 0.0 <= t < 1.0:
            return lam - k * tau, k
    raise AssertionError("oracle found no representative")


def sylvester_oracle(a, b, c):
    """Dense Kronecker solve of A X - X B = C (column-major vec)."""
    n, m = a.shape[0], b.shape[0]
    big = np.kron(np.eye(m), a) - np.kron(b.T, np.eye(n))
    x = np.linalg.solve(big, c.reshape(-1, order="F"))
    return x.reshape((n, m), order="F")


def expm_series_oracle(m, terms=60):
    out = np.eye(m.shape[0], dtype=complex)
    acc = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        acc = acc @ m / k
        out = out + acc
    return out


# --- transversal reduction ---------------------------------------------------

def test_reduce_in_strip_is_identity():
    t = Transversal(tau=-1j, offset=0.0)
    rep, shift = reduce_mod_transversal(0.0, t)
    assert rep == 0.0 and shift == 0


@pytest.mark.parametrize("scale,expected_shift", [(1.3, 1), (-0.2, -1), (0.3, 0)])
def test_reduce_scalar_multiples(scale, expected_shift):
    t = Transversal(TAU)
    lam = scale * TAU
    rep, shift = reduce_mod_transversal(lam, t)
    o_rep, o_shift = reduce_oracle(lam, TAU, 0.0)
    assert shift == o_shift == expected_shift
    assert abs(rep - o_rep) < 1e-14


def test_reduce_idempotent_random():
    rng = np.random.default_rng(7)
    t = Transversal(TAU, offset=-0.25)
    for _ in range(200):
        lam = complex(*rng.normal(size=2)) * 5
        rep, _ = t.reduce(lam)
        rep2, shift2 = t.reduce(rep)
        assert shift2 == 0
        assert rep2 == rep


def test_transversal_rejects_zero_tau():
    with pytest.raises(ValidationFailure):
        Transversal(0.0)


# --- spectral clustering ------------------------------------------------------

def test_spectral_identity_single_cluster():
    sd = spectral(np.eye(2))
    assert len(sd.clusters) == 1
    assert sd.clusters[0].multiplicity == 2
    assert abs(sd.clusters[0].eigenvalue - 1.0) < 1e-12


def test_spectral_separated_diagonal():
    sd = spectral(np.diag([1.0, 2.0]))
    eigs = sorted(c.eigenvalue.real for c in sd.clusters)
    assert [c.multiplicity for c in sd.clusters] == [1, 1]
    assert np.allclose(eigs, [1.0, 2.0])


def test_spectral_jordan_block_generalized_eigenspace():
    # characteristic polynomial (x-1)^2: one eigenvalue, full 2-dim space
    m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    sd = spectral(m)
    assert len(sd.clusters) == 1
    assert sd.clusters[0].multiplicity == 2
    assert sd.clusters[0].basis.shape == (2, 2)


def test_spectral_reassembly_random():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 7):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sd = spectral(m)
        rebuilt = sd.similarity @ sd.block_form @ np.linalg.inv(sd.similarity)
        assert np.linalg.norm(rebuilt - m, 2) < 1e-9 * np.linalg.norm(m, 2)
        assert sum(c.multiplicity for c in sd.clusters) == n
        # invariant subspaces really are invariant
        for c in sd.clusters:
            proj = c.basis @ np.linalg.pinv(c.basis)
            img = m @ c.basis
            assert np.linalg.norm(img - proj @ img, 2) < 1e-8 * np.linalg.norm(m, 2)


def test_spectral_rejects_nonsquare():
    with pytest.raises(ValidationFailure):
        spectral(np.ones((2, 3)))


# --- Sylvester ---------------------------------------------------------------

def test_sylvester_scalar_cases():
    x = solve_sylvester(np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]]))
    assert np.allclose(x, [[1.0]])
    x = solve_sylvester(np.array([[2.0]]), np.array([[-1.0]]), np.array([[6.0]]))
    assert np.allclose(x, [[2.0]])


def test_sylvester_matches_kronecker_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, m = rng.integers(2, 9), rng.integers(2, 9)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) + 8.0 * np.eye(m)
        c = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        x = solve_sylvester(a, b, c)
        x_oracle = sylvester_oracle(a, b, c)
        assert np.linalg.norm(x - x_oracle) < 1e-10 * np.linalg.norm(x_oracle)
        res = a @ x - x @ b - c
        assert np.linalg.norm(res) < 1e-9 * (np.linalg.norm(a) + np.linalg.norm(b)) \
            * np.linalg.norm(x) + 1e-9 * np.linalg.norm(c)


def test_sylvester_collision_names_pair():
    a = np.diag([1.0, 2.0])
    b = np.diag([2.0 + 1e-12, 5.0])
    with pytest.raises(SpectrumCollision) as err:
        solve_sylvester(a, b, np.ones((2, 2)))
    assert "2" in str(err.value)


# --- exponential and branch-selected logarithm --------------------------------

def test_exp_zero_and_diagonal_and_nilpotent():
    assert np.allclose(mat_exp(np.zeros((3, 3))), np.eye(3))
    assert np.allclose(mat_exp(np.diag([math.log(2.0), 0.0])), np.diag([2.0, 1.0]))
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(mat_exp(n), np.eye(2) + n)


def test_exp_matches_series_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m /= max(1.0, np.linalg.norm(m, 2))
        assert np.linalg.norm(mat_exp(m) - expm_series_oracle(m), 2) < 1e-9


def test_log_identity_is_zero():
    t = Transversal(TAU)
    assert np.allclose(log_transversal(np.eye(3), t), np.zeros((3, 3)))


def test_log_scalar_branch():
    t = Transversal(TAU)
    lam = np.exp(TWO_PI_I * 0.3)
    a = log_transversal(np.array([[lam]]), t)
    assert abs(a[0, 0] - 0.3 * TAU) < 1e-12


def test_log_unipotent_jordan_block():
    t = Transversal(TAU)
    m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    a = log_transversal(m, t)
    expected = (TAU / TWO_PI_I) * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(a, expected)
    # exp oracle closes the loop
    assert np.allclose(mat_exp(TWO_PI_I * a / TAU), m)


def test_log_roundtrip_random_invertible():
    rng = np.random.default_rng(5)
    t = Transversal(TAU, offset=0.0)
    for n in range(1, 7):
        for _ in range(8):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            if abs(np.linalg.det(m)) < 1e-3:
                m += 2.0 * np.eye(n)
            a = log_transversal(m, t)
            back = mat_exp(TWO_PI_I * a / TAU)
            assert np.linalg.norm(back - m) < 1e-8 * np.linalg.norm(m)
            for lam in np.linalg.eigvals(a):
                assert t.contains(lam, margin=1e-10)


def test_log_rejects_singular():
    t = Transversal(TAU)
    with pytest.raises(ValidationFailure):
        log_transversal(np.diag([1.0, 0.0]), t)


# --- reduction of spectra into the strip --------------------------------------

def test_reduce_matrix_already_inside_is_identity():
    t = Transversal(TAU)
    a = np.diag([0.2 * TAU, 0.7 * TAU])
    out, shifts = reduce_to_transversal(a, t)
    assert np.array_equal(out, a)
    assert all(s == 0 for _, s in shifts)


def test_reduce_matrix_scalar():
    t = Transversal(TAU)
    out, shifts = reduce_to_transversal(np.array([[1.3 * TAU]]), t)
    assert abs(out[0, 0] - 0.3 * TAU) < 1e-12
    assert shifts[0][1] == 1


def test_reduce_matrix_preserves_exponential():
    rng = np.random.default_rng(13)
    t = Transversal(TAU)
    for n in (1, 2, 4):
        a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * 2.0
        out, _ = reduce_to_transversal(a, t)
        e1 = mat_exp(TWO_PI_I * a / TAU)
        e2 = mat_exp(TWO_PI_I * out / TAU)
        assert np.linalg.norm(e1 - e2) < 1e-8 * np.linalg.norm(e1)
        for lam in np.linalg.eigvals(out):
            assert t.contains(lam, margin=1e-9)


def test_reduce_matrix_tensor_sum_of_scalars():
    # 0.6 tau + 0.7 tau = 1.3 tau lands on 0.3 tau, matching the scalar case
    t = Transversal(TAU)
    a = np.array([[0.6 * TAU + 0.7 * TAU]])
    out, shifts = reduce_to_transversal(a, t)
    assert abs(out[0, 0] - 0.3 * TAU) < 1e-12
    assert shifts[0][1] == 1


def test_cluster_straddling_the_strip_edge_warns_once():
    # one cluster whose members sit 1e-9 either side of Re(z/tau) = 0
    t = Transversal(TAU)
    z = 0.3j * TAU
    a = np.diag([z - 1e-9 * TAU, z + 1e-9 * TAU])
    for fn, arg in ((reduce_to_transversal, a),
                    (log_transversal, mat_exp(TWO_PI_I * a / TAU))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fn(arg, t)
        branch = [w for w in caught if issubclass(w.category, TransversalBranchWarning)]
        assert len(branch) == 1, (fn.__name__, [str(w.message) for w in caught])


# --- kernels -------------------------------------------------------------------

def test_nullspace_cases():
    assert nullspace(np.eye(3)).shape == (3, 0)
    assert nullspace(np.zeros((2, 2))).shape == (2, 2)
    basis = nullspace(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert basis.shape == (2, 1)
    v = basis[:, 0]
    expected = np.array([1.0, -1.0]) / math.sqrt(2.0)
    assert min(np.linalg.norm(v - expected), np.linalg.norm(v + expected)) < 1e-12


# --- widths and the modular move ------------------------------------------------

def test_wd_values():
    assert abs(wd(1.0 - 1.0j) - 2.0) < 1e-14
    assert wd(-1.0j) == math.inf
    # translate-then-invert image of 1 - i with N = 1
    tau0 = 1.0 - 1.0j
    assert abs(wd(-1.0 / (tau0 + 1.0)) - 0.5) < 1e-14
    with pytest.raises(ValidationFailure):
        wd(0.0)


def test_find_small_width_examples():
    g, gtau = find_small_width(1.0 - 1.0j)
    assert g.b == -1 and g.d == 1  # translation N composed with inversion
    assert abs(gtau - (-1.0 / (2.0 - 1.0j))) < 1e-14
    assert abs(wd(gtau) - 0.5) < 1e-12

    g, gtau = find_small_width(-1.0j)
    assert g.d == 2
    assert abs(wd(gtau) - 0.5) < 1e-12

    g, gtau = find_small_width(5.0 - 1.0j)
    assert g.d == 1
    assert abs(wd(gtau) - 1.0 / 6.0) < 1e-12


def test_find_small_width_rejects_real():
    with pytest.raises(ValidationFailure):
        find_small_width(2.0)


def test_width_identity_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        tau = complex(rng.uniform(0.05, 4.0), rng.uniform(-3.0, 3.0) or 0.7)
        for n in range(1, 6):
            g = SL2Z.inversion() @ SL2Z.translation(n)
            val = wd(moebius(g, tau)) * (tau.real + n)
            assert abs(val - 1.0) < 1e-12


def test_moebius_cases():
    assert moebius(SL2Z.identity(), 3.7 - 2.0j) == 3.7 - 2.0j
    assert abs(moebius(SL2Z.inversion(), 1.0j) - 1.0j) < 1e-15
    g = SL2Z.inversion() @ SL2Z.translation(1)
    assert abs(moebius(g, 1.0 - 1.0j) - (-1.0 / (2.0 - 1.0j))) < 1e-15
    with pytest.raises(ValidationFailure):
        moebius(SL2Z.inversion(), 0.0)


def test_sl2z_determinant_enforced():
    with pytest.raises(ValidationFailure):
        SL2Z(1, 1, 1, 1)


def test_tolerances_validation():
    with pytest.raises(ValidationFailure):
        Tolerances(eps_spec=-1.0)
    with pytest.raises(ValidationFailure):
        Tolerances(eps_spec=0.5)
