"""Tests for the dense-matrix kernel and lattice-strip utilities."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from eqconn import numkit
from eqconn.exceptions import NumericFailure, SpectrumCollision, ValidationFailure
from eqconn.numkit import (
    DEFAULT_TOL,
    SL2Z,
    SpectralData,
    Tolerances,
    Transversal,
    TransversalBranchWarning,
    _atomic_log_series,
    find_small_width,
    log_transversal,
    mat_exp,
    moebius,
    nullspace,
    reduce_to_transversal,
    solve_sylvester,
    spectral,
    wd,
)
import util
from reference import (
    _cluster_indices as reference_cluster_indices,
    _clustered_schur as reference_clustered_schur,
    frozen_cluster_triangular,
    frozen_fold,
    frozen_merge_keys,
    reference_fold,
    reference_log_transversal,
    reference_spectral,
    reference_spectral_diagnostics,
    reference_sylvester,
)
from util import random_normal_form

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
    rep, shift = t.reduce(0.0)
    assert rep == 0.0 and shift == 0


@pytest.mark.parametrize("scale,expected_shift", [(1.3, 1), (-0.2, -1), (0.3, 0)])
def test_reduce_scalar_multiples(scale, expected_shift):
    t = Transversal(TAU)
    lam = scale * TAU
    rep, shift = t.reduce(lam)
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


def test_sylvester_refuses_a_right_hand_side_that_is_not_finite():
    c = np.zeros((2, 2))
    c[1, 0] = math.nan
    with pytest.raises(ValidationFailure, match="C contains non-finite"):
        solve_sylvester(np.eye(2), 3.0 * np.eye(2), c)


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def sylvester_cases(rng):
    """``(a, b, c)`` for the kernel: triangular and full A, 1x1 and k x k B,
    rectangular C, exact zeros, -0.0 parts and repeated diagonals, and
    triangular blocks small or large enough for zgees to scale them."""
    def full(n, m=None):
        m = n if m is None else m
        return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))

    for n, m in ((1, 1), (1, 3), (3, 1), (2, 2), (4, 3), (5, 5)):
        for triangular in (True, False):
            a = np.triu(full(n)) if triangular else full(n)
            b = np.triu(full(m)) + 4.0 * np.eye(m)
            c = full(n, m)
            yield a, b, c
            yield a, b, c.real + 0j                      # zero imaginary parts
            yield a.real + 0j, b.real + 0j, c.real + 0j  # a real equation
            zeros = c.copy()
            zeros[rng.random((n, m)) < 0.5] = 0.0
            zeros.real[rng.random((n, m)) < 0.5] = -0.0
            yield a, b, zeros
            repeated = a.copy()
            np.fill_diagonal(repeated, a[0, 0])
            yield repeated, b, c
            signed = a.copy()
            signed[np.tril(np.ones((n, n), dtype=bool), -1)] = complex(-0.0, -0.0)
            yield signed, b, c
    for scale in (1e-140, 1e-100, 1e100, 1e140):
        a = np.triu(full(3)) * scale
        yield a, np.triu(full(2)) * scale + 2.0 * scale * np.eye(2), full(3, 2)
        yield a[:1, :1], a[1:2, 1:2], full(1, 1)


def test_sylvester_kernel_matches_the_reference_to_the_bit():
    for a, b, c in sylvester_cases(np.random.default_rng(31)):
        want = reference_sylvester(a, b, c)
        # a radius the blocks scaled by 1e-140 clear, so the checks pass them
        tight = Tolerances(eps_spec=1e-300)
        assert same_bits(numkit.solve_sylvester(a, b, c, tight), want)


def test_sylvester_against_one_b_solves_each_a_with_the_checks():
    rng = np.random.default_rng(34)
    b = np.triu(rng.normal(size=(3, 3))) + 2.0 * np.eye(3)
    for k in range(1, 5):
        a = rng.normal(size=(2, 2)) + (1.0 - 1.0j) * k * np.eye(2)
        c = rng.normal(size=(2, 3))
        assert same_bits(solve_sylvester(a, b, c), reference_sylvester(a, b, c))
    with pytest.raises(SpectrumCollision):
        solve_sylvester(b[:2, :2], b, np.ones((2, 3)))
    with pytest.raises(ValidationFailure, match="C must be 2 x 3"):
        solve_sylvester(np.eye(2), b, np.ones((3, 2)))
    with pytest.raises(ValidationFailure, match="A must be square"):
        solve_sylvester(np.ones((2, 3)), b, np.ones((2, 3)))


def test_shifted_sylvester_solves_every_shift_on_one_schur_form(monkeypatch):
    """``(M + s) X - X M = C`` solved in the Schur basis of M, ``(t + s) Y -
    Y t = q^H C q`` and ``X = q Y q^H``, agrees with scipy's solver on ``M
    + s`` and M to rounding, with one ztrsyl per shift and no Schur
    iteration; a shift that makes the spectra meet raises ``NumericFailure``
    from ztrsyl's info 1, which the caller may accept with ``close_ok``."""
    rng = np.random.default_rng(35)
    m = random_normal_form(rng, 6).A0
    t, q, _ = numkit._clustered_schur(m, DEFAULT_TOL)
    schur_calls, trsyl_calls = [], []
    ztrsyl = scipy.linalg.lapack.ztrsyl
    monkeypatch.setattr(numkit, "_schur", lambda *args: schur_calls.append(1))
    monkeypatch.setattr(scipy.linalg.lapack, "ztrsyl",
                        lambda *args, **kwargs: trsyl_calls.append(1) or ztrsyl(*args, **kwargs))
    for k in range(1, 17):
        shift = TAU * k
        c = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        want = reference_sylvester(m + shift * np.eye(6), m, c)
        y = numkit._triangular_sylvester(t + shift * np.eye(6), t, q.conj().T @ c @ q)
        got = q @ y @ q.conj().T
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert schur_calls == [] and len(trsyl_calls) == 16
    lam = np.diag(t)
    with pytest.raises(NumericFailure, match="ztrsyl info 1"):
        numkit._triangular_sylvester(t + (lam[1] - lam[0]) * np.eye(6), t, c)
    assert np.isfinite(numkit._triangular_sylvester(t + (lam[1] - lam[0]) * np.eye(6), t, c,
                                                    close_ok=True)).all()


def test_schur_returns_a_triangular_matrix_as_zgees_does():
    """``_schur`` is ``scipy.linalg.schur(m, output="complex")`` to the bit,
    on triangular inputs with exact and signed zeros and on dense complex
    and real ones up to dim 144; the workspace size is queried once per
    order and kept, so the second call at an order runs on the kept size.
    What the clustered form relies on beyond that is that no returned array
    is the input, so that it may reorder the form in place and leave the
    input as it was."""
    rng = np.random.default_rng(32)
    for n in range(1, 13):
        m = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        m[rng.random((n, n)) < 0.3] = 0.0
        m.imag[rng.random((n, n)) < 0.3] = -0.0
        m[np.tril(np.ones((n, n), dtype=bool), -1)] = -0.0
        for case in (m, np.diag(np.diag(m)), np.zeros((n, n), dtype=complex), m * 1e-140):
            t, z = scipy.linalg.schur(case, output="complex")
            fast, eye = numkit._schur(case)
            assert same_bits(fast, t)
            assert same_bits(eye, z) and eye.flags.f_contiguous == z.flags.f_contiguous
            assert not np.shares_memory(fast, case) and not np.shares_memory(eye, case)
    numkit._zgees_lwork.cache_clear()
    sizes = (1, 2, 4, 12, 64, 144)
    for n in sizes:
        dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        real = rng.normal(size=(n, n))
        for case in (dense, real, 3.0 * dense):
            t, z = scipy.linalg.schur(case, output="complex")
            fast, eye = numkit._schur(case)
            assert same_bits(fast, t) and same_bits(eye, z)
            assert fast.dtype == eye.dtype == np.complex128
            assert not np.shares_memory(fast, case) and not np.shares_memory(eye, case)
    assert numkit._zgees_lwork.cache_info().misses == len(sizes)
    assert numkit._zgees_lwork.cache_info().hits == 2 * len(sizes)


def test_schur_of_an_empty_or_non_square_matrix():
    t, z = numkit._schur(np.zeros((0, 0), dtype=complex))
    want_t, want_z = scipy.linalg.schur(np.zeros((0, 0), dtype=complex), output="complex")
    assert t.shape == z.shape == want_t.shape == (0, 0)
    assert t.dtype == z.dtype == want_t.dtype == want_z.dtype
    for bad in (np.ones((2, 3), dtype=complex), np.ones(3, dtype=complex)):
        with pytest.raises(NumericFailure, match="expected square matrix"):
            numkit._schur(bad)


def test_sylvester_kernel_raises_when_the_schur_form_fails(monkeypatch):
    """A Schur iteration that does not converge, which ``zgees`` reports
    with info > 0 (the number of eigenvalues it failed to find), raises
    ``NumericFailure``."""
    zgees = scipy.linalg.lapack.zgees

    def failing(*args, **kwargs):
        return zgees(*args, **kwargs)[:-1] + (1,)

    monkeypatch.setattr(scipy.linalg.lapack, "zgees", failing)
    a = np.array([[1.0, 0.0], [1.0, 2.0]], dtype=complex)
    with pytest.raises(NumericFailure, match="Schur form not found"):
        solve_sylvester(a, -np.eye(2), np.ones((2, 2)))
    with pytest.raises(NumericFailure, match="Schur form not found"):
        spectral(a)


def test_schur_of_a_matrix_that_is_not_finite_raises_numeric_failure():
    """A matrix with an inf or NaN entry, which ``scipy.linalg.schur``
    refuses with ``ValueError``, raises ``NumericFailure`` from ``_schur``
    and from the clustered Schur form that takes it."""
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
        m = np.array([[1.0, 0.0], [bad, 2.0]], dtype=complex)
        with pytest.raises(NumericFailure, match="infs or NaNs"):
            numkit._schur(m)
        with pytest.raises(NumericFailure, match="infs or NaNs"):
            numkit._clustered_schur(m, DEFAULT_TOL)


def test_sylvester_kernel_raises_when_lapack_perturbs_the_spectra(monkeypatch):
    """``solve_sylvester`` refuses ztrsyl's info 1; so does ``spectral``,
    whose grouping would join the two clusters as an unbounded projector
    but for their distance, beyond what rounding can split."""
    ztrsyl = scipy.linalg.lapack.ztrsyl

    def perturbing(*args, **kwargs):
        y, scale, _ = ztrsyl(*args, **kwargs)
        return y, scale, 1

    monkeypatch.setattr(scipy.linalg.lapack, "ztrsyl", perturbing)
    with pytest.raises(NumericFailure, match="ztrsyl info 1"):
        solve_sylvester(np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]]),
                        np.array([[1.0 + 0j]]))
    with pytest.raises(NumericFailure, match="ztrsyl info 1"):
        spectral(np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex))


def spectral_inputs(rng):
    for n in range(1, 13):
        yield rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    yield jordan_input(rng)[0]
    yield straddle_input(rng)[0]
    yield groups_input(rng)[0]
    yield random_normal_form(rng, 8).A0


def assert_spectral_matches_the_reference(m):
    """Where the reference similarity has condition number below 1e8, the
    clusters of ``spectral(m)`` equal the reference's to the bit, as both
    take one clustered Schur form, and the similarity and the block form
    match it to 1e-12 relative.  A worse conditioned reference similarity
    is that of a Jordan block that rounding splits into clusters: there
    ``spectral`` joins the pieces into one group, each cluster it returns
    the reference clusters within 1e-4 ||m|| of its mean.  Either way the
    similarity has condition number below 1e8 and block diagonalizes m to
    1e-12 ||m||."""
    got, want = spectral(m), reference_spectral(m)
    start = 0
    for c in got.clusters:
        assert same_bits(c.basis, got.similarity[:, start:start + c.multiplicity])
        start += c.multiplicity
    if np.linalg.cond(want.similarity) >= 1e8:
        assert len(got.clusters) < len(want.clusters)
        for c in got.clusters:
            assert c.multiplicity == sum(
                w.multiplicity for w in want.clusters
                if abs(w.eigenvalue - c.eigenvalue) <= 1e-4 * np.linalg.norm(m))
    else:
        assert [(c.eigenvalue, c.multiplicity) for c in got.clusters] == \
            [(c.eigenvalue, c.multiplicity) for c in want.clusters]
        for g, w in ((got.similarity, want.similarity), (got.block_form, want.block_form)):
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)
    assert np.linalg.cond(got.similarity) < 1e8
    off = np.linalg.solve(got.similarity, m @ got.similarity)
    start = 0
    for c in got.clusters:
        off[start:start + c.multiplicity, start:start + c.multiplicity] = 0.0
        start += c.multiplicity
    assert np.linalg.norm(off) <= 1e-12 * np.linalg.norm(m)


def test_spectral_matches_the_reference():
    for m in spectral_inputs(np.random.default_rng(33)):
        assert_spectral_matches_the_reference(m)


def signed_zero_parts():
    """Parts from +-0.0 and two nonzero values, and every complex of two."""
    parts = (0.0, -0.0, 1.5, -2.25)
    return [complex(re, im) for re in parts for im in parts]


def test_spectral_matches_the_reference_on_triangular_inputs():
    """Diagonal and triangular inputs come out of the Schur form as they
    are, so the couplings split off hold exact and signed zeros; 1x1
    clusters mix with clusters of two and three."""
    rng = np.random.default_rng(36)
    zeros = signed_zero_parts()
    eigs = [0.3, 0.3 + 1e-12, 0.7j, -0.2 + 0.1j, 0.5 + 0.5j, 1.5 + 0.5j, -0.4,
            -0.4 + 1e-11, -0.4 - 1e-11j, 0.9]
    inputs = [np.diag(eigs[:n]).astype(complex) for n in (2, 5, 10)]
    for n in (3, 6, 10):
        m = np.diag(eigs[:n]).astype(complex)
        upper = np.triu_indices(n, 1)
        m[upper] = [zeros[i] for i in rng.integers(len(zeros), size=len(upper[0]))]
        inputs.append(m)
        dense = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
        dense[rng.random((n, n)) < 0.4] = complex(-0.0, -0.0)
        dense.imag[rng.random((n, n)) < 0.3] = -0.0
        inputs.append(dense + np.diag(eigs[:n]))
    for m in inputs:
        assert_spectral_matches_the_reference(m)
    assert {c.multiplicity for c in spectral(inputs[-1]).clusters} == {1, 2, 3}


def test_spectral_data_takes_its_matrix_by_keyword_only():
    sd = spectral(np.diag([1.0, 2.0]))
    with pytest.raises(TypeError):
        SpectralData(sd.clusters, sd.similarity, sd.block_form, {"reassembly_residual": 0.0})
    assert SpectralData(sd.clusters, sd.similarity, sd.block_form).diagnostics == {}


def test_spectral_diagnostics_on_first_read_equal_the_eager_values():
    for m in spectral_inputs(np.random.default_rng(34)):
        sd = spectral(m)
        assert "diagnostics" not in vars(sd)
        assert sd.diagnostics == reference_spectral_diagnostics(m, sd)
        assert sd.diagnostics is sd.diagnostics


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


def clustered_monodromy(rng, n):
    """``exp(2 pi i A / tau)`` for a diagonalizable A whose eigenvalues come
    in equal pairs spread over three strips: clusters of two, with shifts."""
    k = (n + 1) // 2
    lam = TAU * (rng.uniform(-1.0, 2.0, size=k) + 0.4j * rng.normal(size=k))
    s = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
    return s @ np.diag(np.exp(TWO_PI_I * np.repeat(lam, 2)[:n] / TAU)) @ np.linalg.inv(s)


def test_log_matches_the_parlett_reference():
    rng = np.random.default_rng(71)
    t = Transversal(TAU)
    for n in range(2, 13):
        generic = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        for m in (generic, clustered_monodromy(rng, n)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TransversalBranchWarning)
                got, want = log_transversal(m, t), reference_log_transversal(m, t)
            assert np.linalg.norm(got - want) < 1e-11 * np.linalg.norm(want)


def test_log_takes_one_svd_and_no_series_norm_on_unit_blocks(monkeypatch):
    rng = np.random.default_rng(72)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) + 2.0 * np.eye(6)
    calls = []
    original = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(numkit, "mat_norm", lambda _: pytest.fail("series norm taken"))
    got = log_transversal(m, Transversal(TAU))
    # one SVD for the singularity test; six 1x1 clusters, so no series norm
    assert len(calls) == 1
    assert np.linalg.norm(got - reference_log_transversal(m, Transversal(TAU))) \
        < 1e-11 * np.linalg.norm(got)
    for z in (2.0 + 1.0j, -0.3 + 0.0j, 1e-200 + 1e-200j):
        series = _atomic_log_series(np.array([[z]]), z)
        assert series.shape == (1, 1) and series[0, 0] == 0.0
    with pytest.raises(ValidationFailure):
        log_transversal(np.zeros((0, 0)), Transversal(TAU))


def test_log_of_a_conjugated_jordan_block_is_no_worse_than_the_reference():
    # rounding splits the block's eigenvalue, and both logs lose about the
    # square root (J2) to the fourth root (J4) of the unit roundoff
    t = Transversal(TAU)
    lam = 0.3 * TAU + 0.1j
    for size, limit in ((2, 1e-7), (3, 1e-5), (4, 1e-3)):
        errors = []
        for seed in range(10):
            s = util.well_conditioned(np.random.default_rng(seed), size)
            jordan = lam * np.eye(size) + np.eye(size, k=1)
            exact = s @ jordan @ np.linalg.inv(s)
            m = s @ scipy.linalg.expm(TWO_PI_I * jordan / TAU) @ np.linalg.inv(s)
            errors.append([np.linalg.norm(log(m, t) - exact) / np.linalg.norm(exact)
                           for log in (log_transversal, reference_log_transversal)])
        got, want = np.array(errors).T
        assert got.max() <= want.max() < limit
        assert np.median(got / want) <= 1.0


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


def conjugated(rng, blocks):
    """``(S D S^-1, S (D - K tau) S^-1)`` for the block diagonal ``D`` of
    ``blocks`` (one eigenvalue cluster each), a seeded well-conditioned
    ``S``, and ``K`` the shift of each block's mean eigenvalue: the input and
    its exact fold."""
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    d = scipy.linalg.block_diag(*blocks)
    k = [Transversal(TAU).reduce(np.trace(b) / len(b))[1] for b in blocks
         for _ in range(len(b))]
    n = d.shape[0]
    s = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
    s_inv = np.linalg.inv(s)
    return s @ d @ s_inv, s @ (d - np.diag(k) * TAU) @ s_inv


def jordan_input(rng):
    """Jordan blocks of sizes 3 and 2 with shifts 1 and -1, and a 1x1 block
    inside the strip."""
    return conjugated(rng, [np.eye(3, k=1) + (1.3 * TAU + 0.1) * np.eye(3),
                            np.eye(2, k=1) - 0.6 * TAU * np.eye(2), [[0.4 * TAU]]])


def groups_input(rng):
    """Eight eigenvalues in five shift groups, -2 to 2, the groups
    interleaved."""
    positions = [2.3, -0.7, 0.2, 1.6, -1.4, 2.8, 0.5, -0.2]
    return conjugated(rng, [[[p * TAU + 0.05j * k]] for k, p in enumerate(positions)])


def straddle_input(rng):
    """A cluster 1e-9 either side of the strip's left edge, and one
    eigenvalue with shift 1."""
    z = 0.3j * TAU
    return conjugated(rng, [np.diag([z - 1e-9 * TAU, z + 1e-9 * TAU]), [[1.5 * TAU]]])


def tensor_square_input(rng):
    """x (x) x at dim 144; its exact fold is not known."""
    x = random_normal_form(rng, 12)
    return np.kron(x.A0, np.eye(12)) + np.kron(np.eye(12), x.A0), None


@pytest.mark.parametrize("make", [jordan_input, groups_input, straddle_input,
                                  tensor_square_input])
def test_fold_matches_the_cluster_by_cluster_reference(make):
    a, exact = make(np.random.default_rng(29))
    t = Transversal(TAU)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransversalBranchWarning)
        out, shifts = reduce_to_transversal(a, t)
    want, want_shifts = reference_fold(a, t)
    assert shifts == want_shifts
    # The reference solves between the clusters a Jordan block splits into
    # under rounding (1e-5 apart), and loses 5e-7 doing so; the fold never
    # solves inside a shift group.  Where the exact fold is known, it is
    # the oracle.
    if exact is not None:
        want = exact
    assert np.linalg.norm(out - want) < 1e-10 * max(1.0, np.linalg.norm(a))
    e1 = mat_exp(TWO_PI_I * a / TAU)
    e2 = mat_exp(TWO_PI_I * out / TAU)
    assert np.linalg.norm(e1 - e2) < 1e-8 * np.linalg.norm(e1)
    for lam in np.linalg.eigvals(out):
        assert t.contains(lam, margin=1e-7)


def test_fold_by_shift_group_warns_once_on_a_straddling_cluster():
    t = Transversal(TAU)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, shifts = reduce_to_transversal(straddle_input(np.random.default_rng(3))[0], t)
    assert len({s for _, s in shifts}) == 2
    branch = [w for w in caught if issubclass(w.category, TransversalBranchWarning)]
    assert len(branch) == 1


def test_fold_with_no_shift_returns_a_copy():
    a, _ = conjugated(np.random.default_rng(5), [[[0.2 * TAU]], [[0.5 * TAU]], [[0.8 * TAU]]])
    out, shifts = reduce_to_transversal(a, Transversal(TAU))
    assert all(s == 0 for _, s in shifts)
    assert np.array_equal(out, a) and out is not a


def test_fold_of_two_shift_groups_makes_one_sylvester_solve(monkeypatch):
    # four clusters, two per shift: one solve between the two groups where
    # a solve per pair of clusters would make six
    a, _ = conjugated(np.random.default_rng(11),
                      [[[0.2 * TAU]], [[1.3 * TAU]], [[0.6 * TAU]], [[1.8 * TAU]]])
    ztrsyl = scipy.linalg.lapack.ztrsyl
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return ztrsyl(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "ztrsyl", counting)
    _, shifts = reduce_to_transversal(a, Transversal(TAU))
    assert sorted(s for _, s in shifts) == [0, 0, 1, 1]
    assert calls == [(2, 2)]


def test_fold_refuses_an_ill_group_no_join_can_mend():
    """[[0.5 tau, 2e7], [0, 1.5 tau]] takes shifts 0 and 1, and its
    projectors have norm 1.4e7, above eps_res over the unit roundoff (9e6);
    its eigenvalues are |tau| apart, beyond the 2x2 join radius 4 (2
    u)^(1/2) ||t||_F (1.2), so no join mends the group and the fold
    refuses it."""
    a = np.array([[0.5 * TAU, 2e7], [0.0, 1.5 * TAU]])
    with pytest.raises(NumericFailure, match="projector norm 1.4e"):
        reduce_to_transversal(a, Transversal(TAU))


def test_fold_and_log_raise_where_lapack_perturbs_the_spectra(monkeypatch):
    """The fold refuses shift groups that ztrsyl reports it could not
    split, and so does the logarithm: its grouping joins no clusters
    farther apart than rounding can split one eigenvalue."""
    ztrsyl = scipy.linalg.lapack.ztrsyl

    def perturbing(*args, **kwargs):
        y, scale, _ = ztrsyl(*args, **kwargs)
        return y, scale, 1

    rng = np.random.default_rng(74)
    a = groups_input(rng)[0]
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 3.0 * np.eye(5)
    monkeypatch.setattr(scipy.linalg.lapack, "ztrsyl", perturbing)
    with pytest.raises(NumericFailure, match="ztrsyl info 1"):
        reduce_to_transversal(a, Transversal(TAU))
    with pytest.raises(NumericFailure, match="ztrsyl info 1"):
        log_transversal(m, Transversal(TAU))


@st.composite
def fold_inputs(draw):
    """``(m, groups)``: a matrix ``S diag(lam) S^-1``, S well conditioned,
    whose clusters take 2-6 distinct shifts; a cluster is one eigenvalue or
    a pair 1e-11 apart, and sits anywhere in the strip, near an edge or on
    one (a pair there straddles it)."""
    values = []
    shifts = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=6, unique=True))
    for shift in shifts:
        for _ in range(draw(st.integers(1, 3))):
            pos = draw(st.one_of(st.floats(0.01, 0.99), st.sampled_from(
                (0.0, 1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6))))
            lam = TAU * (shift + pos + 1j * draw(st.floats(-1.0, 1.0)))
            values.append(lam)
            if draw(st.booleans()):
                values.append(lam + 1e-11 * TAU * draw(st.sampled_from((1.0, 1j, -1.0))))
    s = util.well_conditioned(np.random.default_rng(draw(st.integers(0, 2 ** 32))),
                              len(values))
    return s @ np.diag(values) @ np.linalg.inv(s), len(shifts)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fold_inputs())
def test_fold_is_the_frozen_block_function_to_rounding(case):
    """``_fold``'s projector update ``t - tau v K w`` is the block function
    ``v diag(t_gg - k_g tau I) w`` it replaced, to rounding, and exactly
    upper triangular."""
    m, _ = case
    strip = Transversal(TAU)
    t, q, blocks = numkit._clustered_schur(m, DEFAULT_TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransversalBranchWarning)
        f, fq, pairs = numkit._fold(t, q, blocks, strip, DEFAULT_TOL)
        gt, gq, groups, v, w, _ = numkit._shift_groups(t, q, blocks, strip, DEFAULT_TOL)
    assert len(groups) >= 2 and any(shift for _, shift in pairs)
    assert same_bits(fq, gq)
    want = frozen_fold(gt, v, w, groups, strip.tau)
    assert np.linalg.norm(f - want) <= 1e-13 * np.linalg.norm(want)
    assert not np.tril(f, -1).any()


def graph_cluster_triangular(t, q, tol):
    """``numkit._cluster_triangular`` without its return for simple
    spectra: the clusters of the pairwise loop, ``_group_blocks`` and the
    means by reduceat."""
    diagonal = np.diag(t)
    labels = reference_cluster_indices(list(diagonal), tol.eps_spec)
    t, q, groups = numkit._group_blocks(t, q, [(i, i + 1, 0) for i in range(len(t))], labels)
    if not groups:
        return t, q, []
    starts, stops = np.array([(start, stop) for start, stop, _ in groups]).T
    means = np.add.reduceat(np.diag(t), starts) / (stops - starts)
    return t, q, list(zip(starts.tolist(), stops.tolist(), means.tolist()))


def block_bits(blocks):
    return [(start, stop, np.complex128(mean).tobytes()) for start, stop, mean in blocks]


def test_cluster_triangular_exit_gives_the_graph_path_blocks_to_the_bit():
    """A spectrum with no pair within eps_spec comes back as it is, ``t``
    and ``q`` themselves, with the graph path's blocks to the bit; one with
    a near pair gets the graph path's form and blocks too."""
    rng = np.random.default_rng(41)
    for n in (0, 1, 2, 5, 12, 64):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        t, q = numkit._schur(m)
        t.imag[np.diag_indices(n)] = -0.0 if n % 2 else 0.0
        got = numkit._cluster_triangular(t, q, DEFAULT_TOL)
        want = graph_cluster_triangular(t, q, DEFAULT_TOL)
        assert got[0] is t and got[1] is q and want[0] is t and want[1] is q
        assert block_bits(got[2]) == block_bits(want[2])
        assert all(type(x) is int for start, stop, _ in got[2] for x in (start, stop))
    t = np.triu(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    t[np.diag_indices(5)] = [0.3, 2.0, 0.3 + 1e-10j, -1.0, 0.3 + 5e-9]
    q = np.eye(5, dtype=complex)
    got = numkit._cluster_triangular(t, q, DEFAULT_TOL)
    want = graph_cluster_triangular(t, q, DEFAULT_TOL)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    assert block_bits(got[2]) == block_bits(want[2])
    assert [(start, stop) for start, stop, _ in got[2]] == [(0, 3), (3, 4), (4, 5)]


def test_log_series_that_does_not_converge_raises():
    # log(1 + 2) is outside the radius of convergence of the series at 1
    with pytest.raises(NumericFailure):
        _atomic_log_series(np.diag([1.0, 3.0]).astype(complex), 1.0)


# --- kernels -------------------------------------------------------------------

def test_nullspace_cases():
    assert nullspace(np.eye(3)).shape == (3, 0)
    assert nullspace(np.zeros((2, 2))).shape == (2, 2)
    basis = nullspace(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert basis.shape == (2, 1)
    v = basis[:, 0]
    expected = np.array([1.0, -1.0]) / math.sqrt(2.0)
    assert min(np.linalg.norm(v - expected), np.linalg.norm(v + expected)) < 1e-12


def test_nullspace_refuses_entries_that_are_not_finite():
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(ValidationFailure, match="m contains non-finite"):
            nullspace([[bad, 1.0]])


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


# --- clustered Schur form ------------------------------------------------------

def tensor_square(rng, n):
    x = random_normal_form(rng, n)
    return np.kron(x.A0, np.eye(n)) + np.kron(np.eye(n), x.A0)


def triangular_input(rng):
    """Upper triangular, so its own Schur form, with each repeated
    eigenvalue apart on the diagonal: the clusters must be moved."""
    t = np.triu(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    t[np.diag_indices(6)] = [0.1, 0.5j, 0.1, -0.3, 0.5j, 0.1 + 1e-10]
    return t


def clustered_schur_inputs(rng):
    yield from (tensor_square(rng, n) for n in (4, 8, 12))
    yield jordan_input(rng)[0]
    yield util.random_defective_normal_form(rng, groups=3).A0
    yield triangular_input(rng)


def test_clustered_schur_matches_the_givens_sorted_reference(monkeypatch):
    ztrsen = scipy.linalg.lapack.ztrsen
    calls = []
    monkeypatch.setattr(scipy.linalg.lapack, "ztrsen",
                        lambda *args, **kwargs: calls.append(1) or ztrsen(*args, **kwargs))
    moved = []
    for m in clustered_schur_inputs(np.random.default_rng(70)):
        calls.clear()
        t, q, blocks = numkit._clustered_schur(m, DEFAULT_TOL)
        moved.append(len(calls))
        _, _, want = reference_clustered_schur(m, DEFAULT_TOL.eps_spec)
        assert [b[:2] for b in blocks] == [b[:2] for b in want]
        got_means, want_means = (np.array([b[2] for b in bs]) for bs in (blocks, want))
        assert np.all(np.abs(got_means - want_means) <= 1e-12 * np.abs(want_means))
        assert not np.tril(t, -1).any()
        assert np.linalg.norm(q @ t @ q.conj().T - m) < 1e-13 * np.linalg.norm(m)
        assert not np.shares_memory(t, m)
    # the squares' and the triangular input's clusters have members apart
    # on zgees's diagonal; rounding makes each Jordan block clusters of one
    assert [k > 0 for k in moved] == [True, True, True, False, False, True]


def test_clustered_schur_moves_nothing_on_distinct_eigenvalues(monkeypatch):
    rng = np.random.default_rng(75)
    x, y = random_normal_form(rng, 4), random_normal_form(rng, 4)
    inputs = [np.kron(x.A0, np.eye(4)) + np.kron(np.eye(4), y.A0),
              rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)),
              np.triu(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))]
    monkeypatch.setattr(scipy.linalg.lapack, "ztrsen", pytest.fail)
    for m in inputs:
        t, q, blocks = numkit._clustered_schur(m, DEFAULT_TOL)
        want_t, want_q = scipy.linalg.schur(m, output="complex")
        assert same_bits(t, want_t) and same_bits(q, want_q)
        assert [b[:2] for b in blocks] == [(i, i + 1) for i in range(len(m))]
        assert not np.shares_memory(t, m)


# --- components, projector factors --------------------------------------------

def test_cluster_indices_match_the_pairwise_loop():
    """``_components`` over ``_near_pairs`` labels the clusters of the
    pairwise loop, in order of first appearance."""
    rng = np.random.default_rng(60)
    chain = [0.0, 0.9e-8, 1.8e-8, 5.0, 2.7e-8, 5.0 + 1e-9, 3.0j]
    cases = [[], [1.0], chain, list(reversed(chain)), [0.1] * 4]
    for n in (3, 8, 40):
        base = rng.normal(size=n) + 1j * rng.normal(size=n)
        cases.append(list(np.concatenate([base, base + 1e-9 * rng.normal(size=n)])))
        cases.append(list(rng.permutation(np.repeat(base[:3], 4))))
    for values in cases:
        for radius in (1e-8, 1e-4, 0.0):
            pairs = numkit._near_pairs(np.array(values, dtype=complex), radius)
            assert numkit._components(len(values), *pairs) == \
                reference_cluster_indices(values, radius)


@st.composite
def near_value_cases(draw):
    """``(values, radius)``: parts on a grid of the radius, one radius or
    just off it, or half of one, so that gaps fall exactly at the radius,
    real parts tie and chains of near values outrun it; parts near the
    float range, whose differences overflow to inf, and infinite ones; and
    repeated values.  The radius may be 0 or inf."""
    radius = draw(st.sampled_from([0.0, 1e-8, 0.25, 1.0, math.inf]))
    unit = (radius if 0.0 < radius < math.inf else 1.0) * draw(st.sampled_from(
        [1.0, 0.5, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 3.0]))
    part = st.one_of(st.integers(-4, 4).map(lambda k: k * unit),
                     st.sampled_from([1.7e308, -1.7e308, 9e307, -9e307, math.inf, -math.inf]),
                     st.floats(-2.0, 2.0))
    values = draw(st.lists(st.builds(complex, part, part), max_size=12))
    if values:
        values += draw(st.lists(st.sampled_from(values), max_size=4))
    return np.array(draw(st.permutations(values)), dtype=complex), radius


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(near_value_cases())
def test_near_pairs_are_the_dense_pairs_and_components_the_pairwise_loop(case):
    """``_near_pairs`` gives the pairs ``i > j`` of the dense test
    ``np.abs(v[:, None] - v) <= radius``, each once, and ``_components``
    over them the clusters of the pairwise loop, in order of first
    appearance."""
    values, radius = case
    n = len(values)
    with np.errstate(over="ignore", invalid="ignore"):
        i, j = numkit._near_pairs(values, radius)
        dense = np.tril(np.abs(values[:, None] - values) <= radius, -1).nonzero()
        # numpy's scalars, whose differences overflow to inf as the arrays' do
        loop = reference_cluster_indices(list(values), radius)
    assert (i > j).all()
    assert sorted(zip(i.tolist(), j.tolist())) == sorted(zip(*(k.tolist() for k in dense)))
    assert numkit._components(n, i, j) == loop


def near_pairs(rng, n, radius):
    """Seeded values with whether they hold no pair within ``radius``:
    values whose neighbours' real parts are 3 to 4 radii apart (none), and
    for n >= 2 the same with one value moved next to another, its real
    part just within the radius (a pair), just outside it (none), on it
    (either, as the sum rounds), and just within it with the imaginary
    part apart (none)."""
    re = np.cumsum(rng.uniform(3.0, 4.0, size=n)) * radius
    base = rng.permutation(re + 1j * rng.normal(size=n) * radius)
    cases = [(base, True)]
    for gap, alone in ((radius * (1 - 1e-6), False), (radius * (1 + 1e-6), True),
                       (radius, None), (radius * (1 - 1e-6) + 2j * radius, True)):
        if n >= 2:
            moved = base.copy()
            moved[-1] = moved[0] + gap
            cases.append((moved, alone))
    return cases


def parts(values):
    """The sorted ``(re, im)`` pairs of an array of complex values."""
    return sorted(zip(values.real.tolist(), values.imag.tolist()))


def test_cluster_early_exit_matches_the_dense_path():
    """A triangular matrix whose diagonal has no pair within eps_spec has
    clusters of one, ``t`` and ``q`` as they are; with or without a pair,
    its form and blocks are those of ``frozen_cluster_triangular``, the
    N x N graph, to the bit, and each block's values are a cluster of the
    pairwise loop."""
    rng = np.random.default_rng(81)
    for radius in (1e-8, 1e-3):
        tol = Tolerances(eps_spec=radius)
        for n in (1, 2, 5, 16):
            for values, alone in near_pairs(rng, n, radius):
                t = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
                t += np.diag(values)
                q = np.eye(n, dtype=complex)
                ft, fq, fast = numkit._cluster_triangular(t, q, tol)
                dt, dq, dense = frozen_cluster_triangular(t, q, tol)
                assert same_bits(ft, dt) and same_bits(fq, dq)
                assert block_bits(fast) == block_bits(dense)
                labels = np.array(reference_cluster_indices(list(values), radius))
                assert sorted(parts(np.diag(ft)[s0:s1]) for s0, s1, _ in fast) == \
                    sorted(parts(values[labels == label]) for label in set(labels))
                assert alone is None or alone == (len(set(labels.tolist())) == n)
                if len(set(labels.tolist())) == n:
                    assert ft is t and fq is q
                    assert [b[:2] for b in fast] == [(i, i + 1) for i in range(n)]


def test_merge_early_exit_matches_the_dense_path():
    """``_merge_keys`` gives the keys and multiplicities of
    ``frozen_merge_keys``, the m x m box test, to the bit; keys with no
    near pair in their first coordinates come back as given, the array
    itself, with their multiplicities.  Keys of one and two columns (the
    second apart, or equal to the first), a scalar radius and one per key,
    and no key or one key."""
    rng = np.random.default_rng(82)
    eps = 1e-7
    for n in (0, 1, 3, 12):
        for first, alone in near_pairs(rng, n, eps):
            second = rng.normal(size=n) + 1j * rng.normal(size=n)
            for keys in (first[:, None], np.stack([first, second], axis=1),
                         np.stack([first, first], axis=1)):
                mults = rng.integers(-2, 3, size=n).tolist()
                for radius in (eps, eps * np.maximum(1.0, np.abs(keys))):
                    got, total = numkit._merge_keys(keys, mults, radius)
                    want, want_total = frozen_merge_keys(keys, mults, radius)
                    assert same_bits(got, want)
                    assert total.dtype == want_total.dtype == np.int64
                    assert total.tolist() == want_total.tolist()
                    assert (got is keys) == (want is keys)
                    if alone or n < 2:
                        assert got is keys and total.tolist() == mults
    # radii that grow with the keys: the two near 1000 are within theirs,
    # 1e-4, but not within the smallest, 1e-7
    keys = np.array([0.1, 0.5, 1000.0, 1000.0 + 0.9e-4], dtype=complex)[:, None]
    radius = eps * np.maximum(1.0, np.abs(keys))
    (got, total), (want, want_total) = (merge(keys, [1, 1, 1, 1], radius) for merge
                                        in (numkit._merge_keys, frozen_merge_keys))
    assert got.tolist() == want.tolist() == keys[:3].tolist()
    assert total.tolist() == want_total.tolist() == [1, 1, 2]


def test_decouple_block_diagonalizes_a_triangular_matrix():
    rng = np.random.default_rng(61)
    t = np.triu(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
    t[np.arange(7), np.arange(7)] = [0.1, 0.1 + 1e-9, 0.5j, 1.0, 1.0, -2.0, 3.0]
    bounds = [(0, 2), (2, 3), (3, 5), (5, 6), (6, 7)]
    v, w, unresolved = numkit._decouple(t, [(start, stop, None) for start, stop in bounds])
    assert unresolved == []
    assert np.allclose(v @ w, np.eye(7), atol=1e-13)
    d = w @ t @ v
    for start, stop in bounds:
        assert np.allclose(d[start:stop, start:stop], t[start:stop, start:stop], atol=1e-13)
        d[start:stop, start:stop] = 0.0
    assert np.linalg.norm(d) < 1e-12 * np.linalg.norm(t)
    v1, w1, unresolved = numkit._decouple(t, [(0, 7, None)])
    assert np.array_equal(v1, np.eye(7)) and np.array_equal(w1, np.eye(7))
    assert unresolved == []


def test_decouple_shows_blocks_that_share_an_eigenvalue_by_the_factor_norms():
    """Blocks that share an eigenvalue give factors of huge norm, and the
    split is reported as one ztrsyl could not resolve."""
    t = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    v, w, unresolved = numkit._decouple(t, [(0, 1, None), (1, 2, None)])
    assert np.linalg.norm(v) * np.linalg.norm(w) > 1e12
    assert unresolved == [0]



@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 1.0),
                                 complex(0.5, math.nan), complex(1.0, -math.inf),
                                 complex(math.nan, math.nan), complex(math.inf, -math.inf)],
                         ids=["nan-real", "inf-real", "nan-imag", "inf-imag",
                              "nan-both", "inf-both"])
def test_a_non_finite_entry_in_either_part_is_refused(bad):
    """nan or inf in the real part, the imaginary part or both of one entry
    is refused by ``as_square_matrix``, one finiteness test on the complex
    array, through each caller that takes a matrix from the user."""
    from eqconn.torus import is_nori_finite
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    for call in (is_nori_finite, lambda x: log_transversal(x, Transversal(TAU)), mat_exp):
        with pytest.raises(ValidationFailure, match="contains non-finite entries"):
            call(m)
