"""The quantum-torus polynomial algebra and the bundle/divisor side.

The algebra is generated by two invertible elements U1, U2 subject to
``U2 U1 = exp(2 pi i theta) U1 U2``; elements here are finitely supported
Laurent polynomials in normal order (all U1-powers before U2-powers):
the polynomial subalgebra, which is all the identities downstream need.

On top of the algebra this module provides the basic derivations and the
modular generator automorphisms with their intertwining checks, the
embedding of Laurent polynomials on C* along ``z -> U1``, free holomorphic
bundles with upper-triangular connections (the image of the connection
categories), degree/rank/slope data of standard bundles, divisors on the
elliptic curve C/(Z + tau Z) with the Abel-type equivalence test, stability
central charges and phases, and the finite-monodromy test.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .category import MonodromyPair
from .exceptions import ValidationFailure
from .numkit import DEFAULT_TOL, as_square_matrix, spectral

TWO_PI_I = 2j * math.pi


class TorusPoly:
    """Finitely supported ``(n1, n2) -> coefficient`` in normal order."""

    __slots__ = ("theta", "coeffs")

    def __init__(self, theta, coeffs=None):
        self.theta = float(theta)
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
        if abs(self.theta - other.theta) > 1e-12:
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
                # moving U2^b past U1^c costs the phase exp(2 pi i theta b c)
                phase = cmath.exp(TWO_PI_I * self.theta * b * c)
                key = (a + c, b + d)
                coeffs[key] = coeffs.get(key, 0.0) + ca * cc * phase
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

_GEN_TOKENS = ("g1", "g2", "g1_inv", "g2_inv")


def _monomial_inverse(theta, key, coeff):
    a, b = key
    phase = cmath.exp(TWO_PI_I * theta * a * b)
    return (-a, -b), phase / coeff


def _monomial_power(theta, key, coeff, power):
    """(c U1^a U2^b)^power computed by repeated products, power in Z."""
    if power == 0:
        return (0, 0), 1.0
    if power < 0:
        key, coeff = _monomial_inverse(theta, key, coeff)
        power = -power
    out_key, out_coeff = key, coeff
    for _ in range(power - 1):
        phase = cmath.exp(TWO_PI_I * theta * out_key[1] * key[0])
        out_key = (out_key[0] + key[0], out_key[1] + key[1])
        out_coeff = out_coeff * coeff * phase
    return out_key, out_coeff


def _generator_images(token, theta):
    """Images of (U1, U2) as single monomials ``(key, coeff)``."""
    if token == "g1":
        return ((1, 1), 1.0), ((0, 1), 1.0)
    if token == "g1_inv":
        return ((1, -1), 1.0), ((0, 1), 1.0)
    if token == "g2":
        return ((0, -1), 1.0), ((1, 0), 1.0)
    if token == "g2_inv":
        return ((0, 1), 1.0), ((-1, 0), 1.0)
    raise ValidationFailure("unknown generator token %r" % (token,))


def _apply_generator(token, x):
    img_u1, img_u2 = _generator_images(token, x.theta)
    out = TorusPoly(x.theta)
    for (n1, n2), coeff in x.coeffs.items():
        k1, c1 = _monomial_power(x.theta, img_u1[0], img_u1[1], n1)
        k2, c2 = _monomial_power(x.theta, img_u2[0], img_u2[1], n2)
        phase = cmath.exp(TWO_PI_I * x.theta * k1[1] * k2[0])
        key = (k1[0] + k2[0], k1[1] + k2[1])
        out = out + TorusPoly(x.theta, {key: coeff * c1 * c2 * phase})
    return out


def modular_apply(word, x):
    """Apply a word in the modular generator automorphisms, leftmost first.

    ``word`` is an iterable (or whitespace-separated string) of tokens
    ``g1, g2, g1_inv, g2_inv``: the generators act by ``U1 -> U1 U2``,
    ``U2 -> U2`` and ``U1 -> U2^-1``, ``U2 -> U1`` respectively, extended
    multiplicatively through the twisted product.
    """
    if isinstance(word, str):
        word = word.split()
    for token in word:
        x = _apply_generator(token, x)
    return x


def _inverse_token(token):
    return {"g1": "g1_inv", "g1_inv": "g1",
            "g2": "g2_inv", "g2_inv": "g2"}[token]


def _omega_action(token, omega):
    w1, w2 = omega.w1, omega.w2
    if token == "g1":
        return Omega(w1 + w2, w2)
    if token == "g1_inv":
        return Omega(w1 - w2, w2)
    if token == "g2":
        return Omega(-w2, w1)
    if token == "g2_inv":
        return Omega(w2, -w1)
    raise ValidationFailure("unknown generator token %r" % (token,))


def check_intertwine(token, omega, bound=3, theta=0.37):
    """Largest residual of the conjugation identity
    ``sigma^-1 . delta_omega . sigma = delta_(g omega)`` over all monomials
    with exponents bounded by ``bound``.

    The identity is independent of the twist parameter; ``theta`` only
    chooses which algebra the check runs in.
    """
    worst = 0.0
    target = _omega_action(token, omega)
    inverse = _inverse_token(token)
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

class FreeBundle:
    """A free module of rank n with connection ``delta_tau + conn``, ``conn``
    upper triangular with scalar diagonal entries."""

    __slots__ = ("theta", "tau", "conn")

    def __init__(self, theta, tau, conn):
        self.theta = float(theta)
        self.tau = complex(tau)
        n = len(conn)
        for row in conn:
            if len(row) != n:
                raise ValidationFailure("connection matrix must be square")
        for i in range(n):
            for j in range(n):
                entry = conn[i][j]
                if abs(entry.theta - self.theta) > 1e-12:
                    raise ValidationFailure("entry twist parameter differs")
                if j < i and not entry.is_zero():
                    raise ValidationFailure(
                        "connection must be upper triangular; entry (%d, %d) "
                        "is nonzero" % (i, j))
                if j == i and any(key != (0, 0) for key in entry.coeffs):
                    raise ValidationFailure(
                        "diagonal entries must be scalar multiples of the unit")
        self.conn = [list(row) for row in conn]

    @property
    def n(self):
        return len(self.conn)

    def diagonal(self):
        """The scalar diagonal entries of the connection."""
        return [self.conn[i][i].coeffs.get((0, 0), 0.0) for i in range(self.n)]


def psi_star(nf):
    """Push a normal form to a free holomorphic bundle.

    The connection matrix is first brought to upper-triangular form by a
    constant unitary similarity, then rescaled by ``2 pi i``; the dilation
    matrix is forgotten.
    """
    theta, tau = nf.theta, nf.tau
    if nf.n == 0:
        return FreeBundle(theta, tau, [])
    t, _ = scipy.linalg.schur(np.asarray(nf.A0, dtype=complex), output="complex")
    conn = [[TorusPoly(theta, {(0, 0): TWO_PI_I * t[i, j]}) if j >= i
             else TorusPoly(theta)
             for j in range(nf.n)] for i in range(nf.n)]
    return FreeBundle(theta, tau, conn)


def _mat_mul_torus(a, b, theta):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[TorusPoly(theta) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = TorusPoly(theta)
            for k in range(inner):
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def extension_morphism_residuals(total, sub, zprime):
    """Holomorphy defects of the inclusion of the first line and the
    projection onto the quotient; both vanish identically by construction."""
    theta = total.theta
    n = total.n
    iota = [[TorusPoly.unit(theta) if i == 0 else TorusPoly(theta)]
            for i in range(n)]
    # connection compatibility of the inclusion: conn . iota = iota . zprime
    lhs = _mat_mul_torus(total.conn, iota, theta)
    res_iota = 0.0
    for i in range(n):
        expect = TorusPoly(theta, {(0, 0): zprime}) if i == 0 else TorusPoly(theta)
        res_iota = max(res_iota, lhs[i][0].distance(expect))
    # projection onto the last n-1 coordinates against the quotient connection
    pi = [[TorusPoly.unit(theta) if j == i + 1 else TorusPoly(theta)
           for j in range(n)] for i in range(n - 1)]
    res_pi = 0.0
    lhs = _mat_mul_torus(pi, total.conn, theta)
    rhs = _mat_mul_torus(sub.conn, pi, theta)
    for i in range(n - 1):
        for j in range(n):
            res_pi = max(res_pi, lhs[i][j].distance(rhs[i][j]))
    return res_iota, res_pi


def build_extension(zprime, row, sub):
    """Extend a bundle by a rank-one line: new first diagonal entry
    ``zprime``, first-row tail ``row``, lower block the given bundle.

    The inclusion of the line and the projection onto the given bundle are
    verified to commute with the connections (exactly, as polynomial
    identities); a nonzero lower-left block would break both, which is why
    the extension matrix is forced upper triangular.
    """
    if len(row) != sub.n:
        raise ValidationFailure("row length %d does not match rank %d"
                                % (len(row), sub.n))
    theta, tau = sub.theta, sub.tau
    n = sub.n + 1
    conn = [[TorusPoly(theta) for _ in range(n)] for _ in range(n)]
    conn[0][0] = TorusPoly(theta, {(0, 0): zprime})
    for j, entry in enumerate(row):
        conn[0][j + 1] = entry
    for i in range(sub.n):
        for j in range(sub.n):
            conn[i + 1][j + 1] = sub.conn[i][j]
    total = FreeBundle(theta, tau, conn)
    res_iota, res_pi = extension_morphism_residuals(total, sub, zprime)
    if max(res_iota, res_pi) > 1e-12:
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
    """Reduce into the fundamental parallelogram {s + t*tau : 0 <= s, t < 1}."""
    tau = complex(tau)
    if tau.imag == 0.0:
        raise ValidationFailure("lattice reduction needs a non-real tau")
    z = complex(z)
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    s, t = _unit_mod(s), _unit_mod(t)
    return s + t * tau, (s, t)


def _unit_mod(x):
    nearest = round(x)
    if abs(x - nearest) < 1e-12 * max(1.0, abs(x)):
        x = float(nearest)
    return x - math.floor(x)


class Divisor:
    """Finite multiset of lattice-reduced points with integer multiplicities."""

    def __init__(self, tau, points=(), tol=None):
        self.tau = complex(tau)
        self.tol = tol or DEFAULT_TOL
        merged = []
        for point, mult in points:
            reduced, (s, t) = reduce_mod_lattice(point, self.tau)
            # fold points hugging the far edges back to the near edges
            edge = self.tol.eps_key / max(1.0, abs(self.tau))
            if s > 1.0 - edge:
                reduced -= 1.0
            if t > 1.0 - edge:
                reduced -= self.tau
            self._accumulate(merged, reduced, int(mult))
        self.points = tuple(sorted(
            ((p, m) for p, m in merged if m != 0),
            key=lambda pm: (round(pm[0].real, 9), round(pm[0].imag, 9))))

    def _accumulate(self, merged, point, mult):
        for i, (p0, m0) in enumerate(merged):
            if abs(point - p0) <= self.tol.eps_key:
                merged[i] = (p0, m0 + mult)
                return
        merged.append((point, mult))

    def degree(self):
        return sum(m for _, m in self.points)

    def weighted_sum(self):
        return sum(p * m for p, m in self.points)

    def _check(self, other):
        if abs(self.tau - other.tau) > 1e-12:
            raise ValidationFailure("divisors live on different curves")

    def __add__(self, other):
        self._check(other)
        return Divisor(self.tau, self.points + other.points, self.tol)

    def __neg__(self):
        return Divisor(self.tau, [(p, -m) for p, m in self.points], self.tol)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return abs(self.tau - other.tau) <= 1e-12 and not (self - other).points

    def __repr__(self):
        return "Divisor(tau=%s, %s)" % (self.tau, list(self.points))


def k0_to_divisor(cls):
    """Divisor class of a K-group element: each simple label ``(b, z')``
    maps to the point ``-z'`` on the curve; the ``b`` coordinate carries no
    divisor information and is forgotten."""
    tau = cls.transversal.tau
    return Divisor(tau, [(-zp, mult) for _, zp, mult in cls.entries], cls.tol)


def divisor_equivalent(d1, d2, tol=None):
    """Abel-type linear equivalence: equal total degree and lattice-trivial
    weighted point sum of the difference."""
    tol = tol or DEFAULT_TOL
    if abs(d1.tau - d2.tau) > 1e-12:
        raise ValidationFailure("divisors live on different curves")
    if d1.degree() != d2.degree():
        return False
    w = (d1 - d2).weighted_sum()
    tau = d1.tau
    t = w.imag / tau.imag
    s = w.real - t * tau.real
    nearest = round(s) + round(t) * tau
    return abs(w - nearest) <= tol.eps_key


# ---------------------------------------------------------------------------
# finite monodromy
# ---------------------------------------------------------------------------

def is_nori_finite(rep_or_matrix, d_max=64, tol=None):
    """Whether the monodromy factors through a finite group: every matrix is
    diagonalizable and every eigenvalue is a root of unity of order <= d_max.
    """
    tol = tol or DEFAULT_TOL
    if d_max < 1:
        raise ValidationFailure("order bound must be at least 1")
    if isinstance(rep_or_matrix, MonodromyPair):
        mats = [rep_or_matrix.M1, rep_or_matrix.M2]
    else:
        mats = [rep_or_matrix]
    for m in mats:
        m = as_square_matrix(m)
        svals = np.linalg.svd(m, compute_uv=False)
        if svals.size and svals[-1] <= tol.eps_res * max(1.0, svals[0]):
            raise ValidationFailure("monodromy matrix is singular")
        sd = spectral(m, tol)
        scale = max(1.0, float(np.linalg.norm(m)))
        start = 0
        for cluster in sd.clusters:
            stop = start + cluster.multiplicity
            block = sd.block_form[start:stop, start:stop]
            nilpotent = block - cluster.eigenvalue * np.eye(cluster.multiplicity)
            start = stop
            if float(np.linalg.norm(nilpotent)) > tol.eps_spec * scale:
                return False
            lam = cluster.eigenvalue
            if abs(abs(lam) - 1.0) > tol.eps_spec:
                return False
            power = 1.0 + 0.0j
            for _ in range(d_max):
                power *= lam
                if abs(power - 1.0) <= tol.eps_spec:
                    break
            else:
                return False
    return True
