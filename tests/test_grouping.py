"""Property tests for numkit's projector-bounded grouping of eigenvalue
clusters, over conjugated Jordan blocks.

Rounding splits an m-fold defective eigenvalue by about u^(1/m), beyond
eps_spec, so a conjugated Jordan block reaches the library as several
clusters.  ``numkit._bounded_groups`` joins them again, and the logarithm
(``log_transversal``, ``from_monodromy``), ``spectral`` and
``is_nori_finite`` read its groups.  The inputs are drawn with
``hypothesis`` (``derandomize=True``, bounded ``max_examples``): a Jordan
block of size 2-4 at an eigenvalue near the strip edge (argument near 0),
near the logarithm's branch cut (argument near pi) or at a root of unity,
beside up to two semisimple roots of unity, conjugated by a seeded well
conditioned matrix.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqconn.category import MonodromyPair, NormalForm, from_monodromy, validate_normal_form
from eqconn.exceptions import ValidationFailure
from eqconn.numkit import TransversalBranchWarning, log_transversal, mat_exp, spectral
from eqconn.torus import is_nori_finite
from util import STRIP, TAU, THETA, well_conditioned

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
NEAR = (0.0, 1e-9, -1e-9, 1e-6, -1e-6)


@st.composite
def jordan_cases(draw):
    """``(m, twin, size, root)``: ``m = S (J + D) S^-1`` for a Jordan block
    J of ``size`` 2-4 at mu and D diagonal, roots of unity of order 7 apart
    from mu; ``twin`` the same with mu I for J, semisimple; ``root`` whether
    mu was drawn as a root of unity, of order at most 12."""
    size = draw(st.integers(2, 4))
    place = draw(st.sampled_from(("edge", "cut", "root")))
    if place == "root":
        order = draw(st.integers(1, 12))
        mu = cmath.exp(2j * math.pi * draw(st.integers(0, order - 1)) / order)
    else:
        arg = draw(st.sampled_from(NEAR)) + (math.pi if place == "cut" else 0.0)
        mu = draw(st.sampled_from((1.0, 0.7, 1.3))) * cmath.exp(1j * arg)
    extra = [cmath.exp(2j * math.pi * k / 7)
             for k in draw(st.lists(st.integers(1, 6), max_size=2, unique=True))]
    extra = [lam for lam in extra if abs(lam - mu) > 0.3]
    jordan = mu * np.eye(size) + np.eye(size, k=1)
    s = well_conditioned(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                         size + len(extra))
    s_inv = np.linalg.inv(s)
    m = s @ _direct_sum(jordan, extra) @ s_inv
    twin = s @ _direct_sum(mu * np.eye(size), extra) @ s_inv
    return m, twin, size, place == "root"


def _direct_sum(block, extra):
    n = len(block) + len(extra)
    out = np.zeros((n, n), dtype=complex)
    out[:len(block), :len(block)] = block
    out[len(block):, len(block):] = np.diag(extra)
    return out


@SETTINGS
@given(jordan_cases())
def test_logarithm_of_a_conjugated_jordan_block_round_trips(case):
    """``from_monodromy``'s ``log_residual`` and the ``exp`` of
    ``log_transversal`` are within 1e-12 of the matrix, relative."""
    m, _, _, _ = case
    scale = np.linalg.norm(m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransversalBranchWarning)
        nf = from_monodromy(MonodromyPair(m, np.eye(len(m))), STRIP, THETA)
        log = log_transversal(m, STRIP)
    assert nf.diagnostics["log_residual"] <= 1e-12 * scale
    assert np.linalg.norm(mat_exp(2j * math.pi * log / TAU) - m) <= 1e-12 * scale


@SETTINGS
@given(jordan_cases())
def test_nori_test_reads_a_split_jordan_block_as_defective(case):
    """A nontrivial Jordan block is not of finite order; its semisimple
    twin at a root of unity is."""
    m, twin, _, root = case
    assert is_nori_finite(m) is False
    assert is_nori_finite(MonodromyPair(m, np.eye(len(m)))) is False
    if root:
        assert is_nori_finite(twin) is True


@SETTINGS
@given(jordan_cases())
def test_spectral_block_diagonalizes_a_conjugated_jordan_block(case):
    """The similarity has condition number below 1e8 and block diagonalizes
    m to 1e-12 ||m||; the Jordan block is one cluster of its size."""
    m, _, size, _ = case
    sd = spectral(m)
    s = sd.similarity
    assert np.linalg.cond(s) < 1e8
    off = np.linalg.solve(s, m @ s)
    start = 0
    for c in sd.clusters:
        off[start:start + c.multiplicity, start:start + c.multiplicity] = 0.0
        start += c.multiplicity
    assert np.linalg.norm(off) <= 1e-12 * np.linalg.norm(m)
    assert sorted(c.multiplicity for c in sd.clusters) == [1] * (len(m) - size) + [size]


def test_far_apart_coupled_eigenvalues_stay_apart():
    """Eigenvalues far apart but coupled so strongly that their projectors
    top the bound are not one eigenvalue that rounding split: they stay
    apart, so the logarithm round trips, ``spectral`` keeps both, and a
    matrix of finite order passes the Nori test.  The pair at +-4e-5 would
    join at mean 0 by the rounding radius of a 4 x 4 matrix alone, and the
    pair at +-1 coupled by 1e5, singular to eps_res, within first-order
    reach alone."""
    near_zero = np.diag([4e-5, -4e-5, 1.0, 1.0]).astype(complex)
    near_zero[0, 1] = 1.0
    for m in ([[1.0, 2.5e4], [0.0, -1.0]], [[1.0, 3e4], [0.0, 1j]], near_zero):
        m = np.array(m, dtype=complex)
        scale = np.linalg.norm(m)
        sd = spectral(m)
        assert sorted((c.eigenvalue.real, c.eigenvalue.imag) for c in sd.clusters) == \
            sorted({(lam.real, lam.imag) for lam in np.diag(m)})
        assert np.linalg.cond(sd.similarity) > 1e4
        log = log_transversal(m, STRIP)
        assert np.linalg.norm(mat_exp(2j * math.pi * log / TAU) - m) <= 1e-12 * scale
        nf = from_monodromy(MonodromyPair(m, np.eye(len(m))), STRIP, THETA)
        assert nf.diagnostics["log_residual"] <= 1e-12 * scale
    assert is_nori_finite(np.array([[1.0, 2.5e4], [0.0, -1.0]])) is True
    assert is_nori_finite(np.array([[1.0, 3e4], [0.0, 1j]])) is True
    singular = np.array([[1.0, 1e5], [0.0, -1.0]])
    assert [c.eigenvalue for c in spectral(singular).clusters] == [1.0, -1.0]
    with pytest.raises(ValidationFailure, match="singular"):
        log_transversal(singular, STRIP)


def test_a_coupled_eigenvalue_outside_the_strip_is_refused():
    """A normal form whose A0 couples an eigenvalue inside the strip
    strongly to one clearly outside it is refused: the two are not joined
    at a mean inside the strip."""
    a, b = 0.9 * TAU, 1.1 * TAU
    a0 = np.array([[a, 1e4 * abs(a - b) * 3], [0.0, b]])
    nf = NormalForm(a0, np.eye(2, dtype=complex), STRIP, THETA, TAU)
    with pytest.raises(ValidationFailure, match="1 eigenvalue"):
        validate_normal_form(nf)
