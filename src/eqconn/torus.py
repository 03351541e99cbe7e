"""The quantum-torus polynomial algebra and the bundle/divisor side.

The algebra is generated by two invertible elements U1, U2 subject to
``U2 U1 = exp(2 pi i theta) U1 U2``; elements here are finitely supported
Laurent polynomials in normal order (all U1-powers before U2-powers):
the polynomial subalgebra, which is all the identities downstream need.

On top of the algebra this module provides the basic derivations and the
modular generator automorphisms with their intertwining checks, the
embedding of Laurent polynomials on C* along ``z -> U1``, free holomorphic
bundles with upper-triangular connections (the image of the connection
categories) stored as coefficient stacks over their support, one ``(n, n)``
matrix per monomial, degree/rank/slope data of standard bundles, divisors on the
elliptic curve C/(Z + tau Z) with the Abel-type equivalence test, stability
central charges and phases, and the finite-monodromy test.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .category import MonodromyPair
from .exceptions import ValidationFailure
from .numkit import (DEFAULT_TOL, _bounded_groups, _clustered_schur, _FormalSum, _is_singular,
                     _snap, as_square_matrix, same_context)

TWO_PI_I = 2j * math.pi
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# ``build_extension`` copies every coefficient into place, so its residuals
# are exactly zero; any larger than this means the construction is broken
_EXTENSION_TOL = 1e-12


def _twist(theta, k):
    """``exp(2 pi i theta k)`` for an integer k, with ``theta k`` reduced mod 1
    exactly: a float theta is the dyadic rational ``num / den``, so the
    phase is that of ``(num k mod den) / den``, rounded once, at any k."""
    num, den = theta.as_integer_ratio()
    return cmath.exp(TWO_PI_I * (num * k % den / den))


class TorusPoly:
    """Finitely supported ``(n1, n2) -> coefficient`` in normal order; a
    theta that is not finite is refused with ``ValidationFailure``."""

    __slots__ = ("theta", "coeffs")

    def __init__(self, theta, coeffs=None):
        self.theta = float(theta)
        if not math.isfinite(self.theta):
            raise ValidationFailure("twist parameter theta must be finite, got %r" % self.theta)
        cleaned = {}
        for key, value in (coeffs or {}).items():
            value = complex(value)
            if value != 0.0:
                cleaned[(int(key[0]), int(key[1]))] = value
        self.coeffs = cleaned

    # -- constructors ---------------------------------------------------------

    @classmethod
    def unit(cls, theta):
        return cls(theta, {(0, 0): 1.0})

    @classmethod
    def u1(cls, theta, power=1):
        return cls(theta, {(power, 0): 1.0})

    @classmethod
    def u2(cls, theta, power=1):
        return cls(theta, {(0, power): 1.0})

    @classmethod
    def monomial(cls, theta, n1, n2, coeff=1.0):
        return cls(theta, {(n1, n2): coeff})

    # -- views ------------------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def norm(self):
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def support(self):
        return sorted(self.coeffs)

    def __repr__(self):
        return "TorusPoly(theta=%s, %s)" % (self.theta, self.coeffs)

    # -- ring structure -----------------------------------------------------------

    def _check(self, other):
        if not same_context((self.theta, other.theta)):
            raise ValidationFailure("twist parameters theta differ")

    def __add__(self, other):
        self._check(other)
        coeffs = dict(self.coeffs)
        for key, value in other.coeffs.items():
            coeffs[key] = coeffs.get(key, 0.0) + value
        return TorusPoly(self.theta, coeffs)

    def __neg__(self):
        return TorusPoly(self.theta, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TorusPoly):
            return self.scale(other)
        self._check(other)
        coeffs = {}
        for (a, b), ca in self.coeffs.items():
            for (c, d), cc in other.coeffs.items():
                # moving U2^b past U1^c costs the twist of b c
                key = (a + c, b + d)
                coeffs[key] = coeffs.get(key, 0.0) + ca * cc * _twist(self.theta, b * c)
        return TorusPoly(self.theta, coeffs)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar):
        scalar = complex(scalar)
        return TorusPoly(self.theta, {k: scalar * v for k, v in self.coeffs.items()})

    def distance(self, other):
        return (self - other).norm()

    # -- derivations ----------------------------------------------------------------

    def delta(self, j):
        """Basic derivation: monomial (n1, n2) scales by 2 pi i n_j."""
        if j not in (1, 2):
            raise ValidationFailure("derivation index must be 1 or 2")
        return TorusPoly(self.theta, {
            key: TWO_PI_I * key[j - 1] * value for key, value in self.coeffs.items()})

    def delta_omega(self, omega):
        """Direction derivation: monomial scales by 2 pi i (w1 n1 + w2 n2)."""
        w1, w2 = omega.w1, omega.w2
        return TorusPoly(self.theta, {
            key: TWO_PI_I * (w1 * key[0] + w2 * key[1]) * value
            for key, value in self.coeffs.items()})


@dataclass(frozen=True)
class Omega:
    """A direction in the two-dimensional derivation space."""

    w1: complex
    w2: complex

    def __post_init__(self):
        if self.w1 == 0 and self.w2 == 0:
            raise ValidationFailure("derivation direction must be nonzero")


# ---------------------------------------------------------------------------
# modular automorphisms
# ---------------------------------------------------------------------------

# Per generator token: its integer matrix ``((a, c), (b, d))``, whose columns
# are the exponents of the images ``U1^a U2^b`` of U1 and ``U1^c U2^d`` of
# U2, each with coefficient 1, and the inverse token.
_GENERATORS = {
    "g1": (((1, 0), (1, 1)), "g1_inv"),
    "g1_inv": (((1, 0), (-1, 1)), "g1"),
    "g2": (((0, 1), (-1, 0)), "g2_inv"),
    "g2_inv": (((0, -1), (1, 0)), "g2"),
}


def _generator(token):
    """The ``_GENERATORS`` entry of a token; an unknown one raises
    ``ValidationFailure``."""
    try:
        return _GENERATORS[token]
    except (KeyError, TypeError):
        raise ValidationFailure("unknown generator token %r" % (token,)) from None


def modular_apply(word, x):
    """Apply a word in the modular generator automorphisms, leftmost first.

    ``word`` is an iterable (or whitespace-separated string) of tokens
    ``g1, g2, g1_inv, g2_inv``: the generators act by ``U1 -> U1 U2``,
    ``U2 -> U2`` and ``U1 -> U2^-1``, ``U2 -> U1`` respectively, extended
    multiplicatively through the twisted product: in closed form, the
    generator of matrix ``((a, c), (b, d))`` maps ``U1^n1 U2^n2`` to ``(U1^a
    U2^b)^n1 (U1^c U2^d)^n2``, ``U1^(a n1 + c n2) U2^(b n1 + d n2)`` times
    the twist of ``ab n1(n1-1)/2 + cd n2(n2-1)/2 + bc n1 n2``, one to one.
    """
    if isinstance(word, str):
        word = word.split()
    for token in word:
        ((a, c), (b, d)), _ = _generator(token)
        x = TorusPoly(x.theta, {
            (a * n1 + c * n2, b * n1 + d * n2): coeff * _twist(x.theta, (
                a * b * (n1 * (n1 - 1) // 2) + c * d * (n2 * (n2 - 1) // 2) + b * c * n1 * n2))
            for (n1, n2), coeff in x.coeffs.items()})
    return x


def check_intertwine(token, omega, bound=3, theta=0.37):
    """Largest residual of the conjugation identity
    ``sigma^-1 . delta_omega . sigma = delta_(g omega)`` over all monomials
    with exponents bounded by ``bound``.

    The identity is independent of the twist parameter; ``theta`` only
    chooses which algebra the check runs in.
    """
    worst = 0.0
    ((a, c), (b, d)), inverse = _generator(token)
    # the transpose of the generator's matrix acts on the direction
    target = Omega(a * omega.w1 + b * omega.w2, c * omega.w1 + d * omega.w2)
    for n1 in range(-bound, bound + 1):
        for n2 in range(-bound, bound + 1):
            x = TorusPoly.monomial(theta, n1, n2)
            lhs = modular_apply([inverse], modular_apply([token], x).delta_omega(omega))
            rhs = x.delta_omega(target)
            worst = max(worst, lhs.distance(rhs))
    return worst


# ---------------------------------------------------------------------------
# the embedding of functions on C*
# ---------------------------------------------------------------------------

def psi_embed(f, theta):
    """Embed a scalar Laurent polynomial ``sum f_k z^k`` as ``sum f_k U1^k``.

    ``f`` is a mapping ``power -> coefficient``.  The image is a commutative
    subalgebra, and the embedding exchanges ``2 pi i tau z d/dz`` with
    ``tau delta_1``.
    """
    return TorusPoly(theta, {(int(k), 0): complex(v) for k, v in f.items()})


def psi_delta_residual(f, tau, theta):
    """Residual of the intertwining ``psi(2 pi i delta f) = tau delta_1(psi f)``
    with ``delta = tau z d/dz``; identically zero on Laurent polynomials."""
    delta_f = {k: tau * k * complex(v) for k, v in f.items()}
    lhs = psi_embed(delta_f, theta).scale(TWO_PI_I)
    rhs = psi_embed(f, theta).delta(1).scale(tau)
    return lhs.distance(rhs)


# ---------------------------------------------------------------------------
# free holomorphic bundles
# ---------------------------------------------------------------------------

def _stack(theta, rows, width):
    """Sorted supports and ``(S, len(rows), width)`` stack of ``(theta, {(n1, n2):
    c})`` entries, rows of ``width`` and twist ``theta`` or ValidationFailure."""
    if any(len(row) != width for row in rows):
        raise ValidationFailure("connection matrix must be square")
    if not same_context(*((entry_theta, theta) for row in rows for entry_theta, _ in row)):
        raise ValidationFailure("entry twist parameter differs")
    placed = [(i, j, key, value) for i, row in enumerate(rows)
              for j, (_, terms) in enumerate(row)
              for key, value in terms.items() if value != 0]
    supports = sorted({key for _, _, key, _ in placed})
    coeffs = np.zeros((len(supports), len(rows), width), dtype=complex)
    for i, j, key, value in placed:
        coeffs[supports.index(key), i, j] = value
    return supports, coeffs


class FreeBundle:
    """A free module of rank n with connection ``delta_tau + conn``, ``conn``
    upper triangular with scalar diagonal entries, stored as a stack over its
    support: ``coeffs[s]`` is the ``n x n`` matrix of the coefficients of
    ``U1^n1 U2^n2`` for ``(n1, n2) = supports[s]``, ``supports`` sorted.  The
    constructor converts a square matrix of ``TorusPoly`` once; ``entry(i,
    j)`` builds one algebra element on request."""

    __slots__ = ("theta", "tau", "supports", "coeffs")

    def __init__(self, theta, tau, conn):
        self._fill(theta, tau, *_stack(
            float(theta), [[(e.theta, e.coeffs) for e in row] for row in conn], len(conn)))

    @classmethod
    def _from_stack(cls, theta, tau, supports, coeffs):
        bundle = cls.__new__(cls)
        bundle._fill(theta, tau, supports, coeffs)
        return bundle

    def _fill(self, theta, tau, supports, coeffs):
        self.theta, self.tau = float(theta), complex(tau)
        self.supports, self.coeffs = list(supports), coeffs
        nonzero = coeffs != 0
        lower = np.tril(nonzero.any(axis=0), -1)
        if lower.any():
            raise ValidationFailure(
                "connection must be upper triangular; entry (%d, %d) is nonzero"
                % divmod(int(np.argmax(lower)), self.n))
        off_unit = [s for s, key in enumerate(self.supports) if key != (0, 0)]
        if np.diagonal(nonzero[off_unit], axis1=1, axis2=2).any():
            raise ValidationFailure(
                "diagonal entries must be scalar multiples of the unit")

    @property
    def n(self):
        return self.coeffs.shape[1]

    def entry(self, i, j):
        """The ``(i, j)`` entry of the connection as an algebra element."""
        terms = self.coeffs[:, i, j].tolist()
        return TorusPoly(self.theta, dict(zip(self.supports, terms)))

    def diagonal(self):
        """The scalar diagonal entries of the connection."""
        unit = [s for s, key in enumerate(self.supports) if key == (0, 0)]
        return self.coeffs[unit].sum(axis=0).diagonal().tolist()


def psi_star(nf):
    """Push a normal form to a free holomorphic bundle: the connection matrix
    brought to upper-triangular form by a constant unitary similarity, the
    normal form's shared clustered Schur form at the default tolerances
    (``NormalForm.schur_form``), and rescaled by ``2 pi i``, all at the one
    support ``(0, 0)``; the dilation matrix is forgotten."""
    t, _, _ = nf.schur_form()
    return FreeBundle._from_stack(nf.theta, nf.tau, [(0, 0)],
                                  (TWO_PI_I * np.triu(t))[None])


def extension_morphism_residuals(total, sub, zprime):
    """Holomorphy defects of the inclusion ``iota`` of the first line and the
    projection ``pi`` onto the rest, the largest coefficients of ``conn . iota
    - iota . zprime`` and ``pi . conn - conn_sub . pi``: as 0/1 matrices each
    product is a slice of a stack.  Both vanish on ``build_extension``'s output."""
    if not same_context((total.theta, sub.theta)):
        raise ValidationFailure("twist parameters theta differ")
    supports = sorted(set(total.supports) | set(sub.supports) | {(0, 0)})
    conn = np.zeros((len(supports), total.n, total.n), dtype=complex)
    conn[[supports.index(key) for key in total.supports]] = total.coeffs
    expect = np.zeros_like(conn[:, :, 0])       # iota . zprime
    expect[supports.index((0, 0)), 0] = zprime
    moved = np.zeros_like(conn[:, 1:])          # conn_sub . pi: columns shifted
    moved[[supports.index(key) for key in sub.supports], :, 1:] = sub.coeffs
    return (float(np.abs(conn[:, :, 0] - expect).max(initial=0.0)),
            float(np.abs(conn[:, 1:] - moved).max(initial=0.0)))


def build_extension(zprime, row, sub):
    """Extend a bundle by a rank-one line: new first diagonal entry
    ``zprime``, first-row tail ``row`` (algebra elements), lower block the
    given bundle.

    The inclusion of the line and the projection onto the given bundle are
    verified to commute with the connections (exactly, as polynomial
    identities); a nonzero lower-left block would break both, which is why
    the extension matrix is forced upper triangular.
    """
    if len(row) != sub.n:
        raise ValidationFailure("row length %d does not match rank %d"
                                % (len(row), sub.n))
    keys, top = _stack(sub.theta, [[(e.theta, e.coeffs) for e in row]], sub.n)
    supports = sorted(set(sub.supports) | set(keys) | {(0, 0)})
    coeffs = np.zeros((len(supports), sub.n + 1, sub.n + 1), dtype=complex)
    coeffs[supports.index((0, 0)), 0, 0] = zprime
    coeffs[[supports.index(key) for key in keys], :1, 1:] = top
    coeffs[[supports.index(key) for key in sub.supports], 1:, 1:] = sub.coeffs
    total = FreeBundle._from_stack(sub.theta, sub.tau, supports, coeffs)
    if max(extension_morphism_residuals(total, sub, zprime)) > _EXTENSION_TOL:
        raise ValidationFailure("extension morphisms fail to commute with the "
                                "connections")
    return total


# ---------------------------------------------------------------------------
# standard bundles, stability, divisors
# ---------------------------------------------------------------------------

def std_bundle_data(m, n, theta):
    """Degree, rank, and slope of the standard bundle labelled ``(m, n)``."""
    m, n = int(m), int(n)
    if math.gcd(abs(m), abs(n)) != 1:
        raise ValidationFailure("labels must be coprime, got (%d, %d)" % (m, n))
    rank = m * theta + n
    if rank <= 0:
        raise ValidationFailure("rank m*theta + n = %s is not positive" % rank)
    return m, rank, m / rank


def k_swap(m, n, theta):
    """Formal (degree, rank) relabelling under the torsion-sheaf equivalence:
    degree label becomes the old rank, rank label the negated old degree.

    Only the ``m = 0`` sector is an honest computation (rank-0 point sheaves
    of degree n); for ``m != 0`` this is bookkeeping on labels.
    """
    return m * theta + n, -m


def central_charge(m, n, theta):
    """Stability central charge ``-deg + i rk`` of the class ``(m, n)``."""
    if m == 0 and n == 0:
        raise ValidationFailure("the zero class has no central charge")
    rank = m * theta + n
    if rank < 0:
        raise ValidationFailure("class has negative rank %s" % rank)
    return complex(-m, rank)


def phase(m, n, theta):
    """Phase of the central charge in units of pi, valued in (0, 1]."""
    z = central_charge(m, n, theta)
    value = cmath.phase(z) / math.pi
    if value <= 0.0:
        raise ValidationFailure("class sits outside the (0, 1] phase slice")
    return value


def reduce_mod_lattice(z, tau):
    """Reduce into the fundamental parallelogram {s + t*tau : 0 <= s, t < 1}.

    ``z`` is a number or an array, reduced elementwise in one pass; returns
    ``(s + t*tau, st)`` with ``st`` the array of ``(s, t)`` stacked on its
    first axis, so that it unpacks as ``s, t``.  A coordinate within
    ``numkit._SNAP_TOL`` relative of an integer is snapped to it (``numkit._snap``), so it
    reduces to 0.  Each value has, to the bit, the point and coordinates
    Python's float and complex arithmetic give it one number at a time.  A
    real tau is refused when there is a value to reduce.  A coordinate past
    the float range is nan, without numpy's warning.
    """
    tau = complex(tau)
    z = np.asarray(z, dtype=complex)
    if tau.imag == 0.0 and z.size:
        raise ValidationFailure("lattice reduction needs a non-real tau")
    st = np.empty((2,) + z.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(z.imag, tau.imag, out=st[1, ...])
        np.subtract(z.real, st[1] * tau.real, out=st[0, ...])
        st = _snap(st)
        st -= np.floor(st)
        return st[0] + st[1] * tau, st


class Divisor(_FormalSum):
    """Finite multiset of lattice-reduced points with integer multiplicities,
    a ``numkit._FormalSum`` on the points, all reduced modulo the lattice at
    once and ordered on (Re, Im) rounded to 9 decimals as Python's ``round``
    rounds them.  Points within ``eps_key`` merge, one radius for every point.
    """

    _mismatch = functools.partial(ValidationFailure, "divisors live on different curves")

    def __init__(self, tau, points=(), tol=None):
        points = list(points)
        self._reduce(tau, [p for p, _ in points], [int(m) for _, m in points], tol)

    def _reduce(self, tau, points, mults, tol):
        """Reduce the points, a sequence or an array, and keep them."""
        self.tau = complex(tau)
        self.tol = tol or DEFAULT_TOL
        reduced, st = reduce_mod_lattice(points, self.tau)
        # fold points hugging the far edges back to the near edges
        far = st > 1.0 - self.tol.eps_key / max(1.0, abs(self.tau))
        if np.count_nonzero(far):
            np.subtract(reduced, 1.0, out=reduced, where=far[0])
            np.subtract(reduced, self.tau, out=reduced, where=far[1])
        return self._keep(reduced.reshape(-1, 1), mults)

    def _radius(self, keys):
        return self.tol.eps_key

    def _same(self, other):
        return same_context((self.tau, other.tau))

    @property
    def points(self):
        """The points ``(p, multiplicity)`` in order, as Python numbers."""
        return tuple(zip(self._keys[:, 0].tolist(), self._mults.tolist()))

    degree = _FormalSum._degree

    def weighted_sum(self):
        # a Python sum, term by term in order, as of the points one by one
        return sum((self._keys[:, 0] * self._mults).tolist())

    def __repr__(self):
        return "Divisor(tau=%s, %s)" % (self.tau, list(self.points))


def k0_to_divisor(cls):
    """Divisor class of a K-group element: each simple label ``(b, z')``
    maps to the point ``-z'`` on the curve; the ``b`` coordinate carries no
    divisor information and is forgotten."""
    return Divisor.__new__(Divisor)._reduce(cls.transversal.tau, -cls._keys[:, 0], cls._mults,
                                            cls.tol)


def divisor_equivalent(d1, d2, tol=None):
    """Abel-type linear equivalence: equal total degree and lattice-trivial
    weighted point sum of the difference."""
    tol = tol or DEFAULT_TOL
    diff = d1 - d2
    if diff.degree():
        return False
    w = diff.weighted_sum()
    tau = d1.tau
    t = w.imag / tau.imag
    s = w.real - t * tau.real
    nearest = round(s) + round(t) * tau
    return abs(w - nearest) <= tol.eps_key


# ---------------------------------------------------------------------------
# finite monodromy
# ---------------------------------------------------------------------------

# The multiple of the determinant test's slack past which ``is_nori_finite``
# answers from the singular values: it covers the Schur form's rounding beside
# theirs, and the first-order expansions of both.
_DET_SAFETY = 4.0


def is_nori_finite(rep_or_matrix, d_max=64, tol=None):
    """Whether the monodromy factors through a finite group: every matrix is
    diagonalizable and every eigenvalue is a root of unity of order <= d_max.

    Each matrix M of order n is tested by the cluster blocks of its
    clustered Schur form: a block's mean lies within eps_spec of the unit
    circle and its nilpotent part within eps_spec scale, scale = max(1,
    ||M||_F).  So every diagonal entry of a passing form lies within delta =
    eps_spec (1 + scale) of the circle, and |log |det M|| <= n (-log(1 -
    delta)).  The singular values that decide that M is invertible give
    log |det M| = sum log s_i, with an error of about n^2 u s_1 / s_n (u the
    unit roundoff).  Before any Schur form, a matrix with delta < 1/2 whose
    |sum log s_i| exceeds ``_DET_SAFETY`` (4) times the two added together,
    n (-log(1 - delta) + n u s_1 / s_n), is answered False, which the
    cluster tests would answer too.  When the clusters of each matrix pass,
    clusters that ``_bounded_groups`` joins, as the pieces of a Jordan block
    that rounding splits, are defective.
    """
    tol = tol or DEFAULT_TOL
    if d_max < 1:
        raise ValidationFailure("order bound must be at least 1")
    pair = isinstance(rep_or_matrix, MonodromyPair)
    for m in (rep_or_matrix.M1, rep_or_matrix.M2) if pair else (rep_or_matrix,):
        m = as_square_matrix(m)
        svals = np.linalg.svd(m, compute_uv=False)
        if _is_singular(svals, tol):
            raise ValidationFailure("monodromy matrix is singular")
        scale = max(1.0, float(np.linalg.norm(m)))
        delta = tol.eps_spec * (1.0 + scale)
        if svals.size and delta < 0.5:
            n = svals.size
            slack = n * (-math.log1p(-delta) + n * _UNIT_ROUNDOFF * svals[0] / svals[-1])
            if abs(float(np.log(svals).sum())) > _DET_SAFETY * slack:
                return False
        t, q, blocks = _clustered_schur(m, tol)
        for start, stop, lam in blocks:
            nilpotent = t[start:stop, start:stop] - lam * np.eye(stop - start)
            if (float(np.linalg.norm(nilpotent)) > tol.eps_spec * scale
                    or abs(abs(lam) - 1.0) > tol.eps_spec):
                return False
            power = 1.0 + 0.0j
            for _ in range(d_max):
                power *= lam
                if abs(power - 1.0) <= tol.eps_spec:
                    break
            else:
                return False
        if len(_bounded_groups(t, q, blocks, tol)[3]) < len(blocks):
            return False
    return True
