"""Dilation-equivariant regular-singular connection modules on C*.

An object is a free module over the Laurent-polynomial functions of z,
carrying a connection ``nabla = delta + A(z)`` (``delta = tau z d/dz``, A
with no pole at the origin) and a commuting dilation action
``sigma(m)(z) = B(z) m(qz)`` with ``q = exp(2 pi i theta)``.  This module
implements the computable category structure on such objects:

* normalization to a constant commuting pair ``(A0, B0)`` with the spectrum
  of A0 inside a chosen transversal strip (shearing passes followed by a
  recursive series gauge);
* the equivalence with pairs of commuting invertible matrices -- the
  monodromy ``exp(2 pi i A0/tau)`` together with B0 -- in both directions;
* the rigid tensor structure (tensor, dual, evaluation/coevaluation, unit),
  morphism spaces, kernels and cokernels, composition series, classes in the
  Grothendieck group, and the dimension of flat sections.

All operations are pure; randomized searches take explicit seeds.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    EquivarianceViolation,
    NonConstantB,
    NumericFailure,
    RegularityViolation,
    SingularB,
    TransversalMismatch,
    ValidationFailure,
)
from .laurent import (
    GaugeRecord,
    PolyMat,
    apply_shear_dilation,
    dilation_transform,
    gauge_transform,
    shear,
)
from .numkit import (
    DEFAULT_TOL,
    Transversal,
    log_transversal,
    mat_exp,
    nullspace,
    reduce_to_transversal,
    solve_sylvester,
    spectral,
)

TWO_PI_I = 2j * math.pi


def theta_to_q(theta):
    return cmath.exp(TWO_PI_I * theta)


def same_transversal(t1, t2, tol=1e-12):
    return abs(t1.tau - t2.tau) <= tol and abs(t1.offset - t2.offset) <= tol


# ---------------------------------------------------------------------------
# objects
# ---------------------------------------------------------------------------

class EquivariantConnection:
    """A presentation ``(A(z), B(z))`` of one object, dimension ``n``.

    ``A`` is the connection matrix (no negative powers), ``B`` the dilation
    matrix with invertible constant term; both share the parameters
    ``(tau, q = exp(2 pi i theta))``.
    """

    __slots__ = ("A", "B", "theta", "tau", "transversal")

    def __init__(self, A, B, theta, tau, transversal=None):
        if A.dim != B.dim:
            raise ValidationFailure("connection and dilation dimensions differ")
        q = theta_to_q(theta)
        for name, p in (("A", A), ("B", B)):
            if abs(p.tau - tau) > 1e-9 or abs(p.q - q) > 1e-9:
                raise ValidationFailure(
                    "%s carries parameters inconsistent with (tau, theta)" % name)
        self.A = A
        self.B = B
        self.theta = float(theta)
        self.tau = complex(tau)
        self.transversal = transversal

    @property
    def n(self):
        return self.A.dim

    @property
    def q(self):
        return theta_to_q(self.theta)

    @classmethod
    def from_constant(cls, a0, b0, theta, tau, transversal=None):
        a0 = np.atleast_2d(np.asarray(a0, dtype=complex))
        b0 = np.atleast_2d(np.asarray(b0, dtype=complex))
        q = theta_to_q(theta)
        return cls(PolyMat.constant(a0, tau, q), PolyMat.constant(b0, tau, q),
                   theta, tau, transversal)

    def __repr__(self):
        return "EquivariantConnection(n=%d, tau=%s, theta=%s)" % (
            self.n, self.tau, self.theta)


def equivariance_residual(a, b):
    """Laurent residual of ``delta(B) + [A, B]``, certified on the orders the
    presentation determines.

    This is the compatibility bookkeeping in which the dilation matrix of a
    normalized object is an isomorphism invariant at fixed strip; it agrees
    with the honest ``sigma . nabla = nabla . sigma`` expansion for constant
    connection matrices.
    """
    r = b.delta() + a * b - b * a
    lo = min(b.min_power, 0)
    hi = max(a.max_power, b.max_power, 0)
    return r.truncate(hi, lo=lo)


def validate(obj, tol=None, strict=True):
    """Check the object invariants; returns residuals, raises when strict.

    Raised failures name the violated invariant: ``RegularityViolation`` for
    poles in A, ``SingularB`` for a non-invertible constant term of B, and
    ``EquivarianceViolation`` when connection and dilation fail to commute.
    """
    tol = tol or DEFAULT_TOL
    diag = {}
    pole = 0.0
    for k, coeff in obj.A.terms.items():
        if k < 0:
            pole = max(pole, float(np.linalg.norm(coeff)))
    diag["pole_residual"] = pole
    if strict and pole > tol.eps_res * (obj.A.norm() + 1.0):
        raise RegularityViolation(
            "connection matrix has a pole: negative-power coefficient of "
            "norm %.3e" % pole)

    b0 = obj.B.term(0)
    svals = np.linalg.svd(b0, compute_uv=False) if obj.n else np.array([1.0])
    smin = float(svals[-1]) if svals.size else 0.0
    diag["b_smallest_singular_value"] = smin
    if strict and smin <= tol.eps_res * max(1.0, float(svals[0]) if svals.size else 0.0):
        raise SingularB("constant term of the dilation matrix is singular "
                        "(smallest singular value %.3e)" % smin)

    res = equivariance_residual(obj.A, obj.B).norm()
    scale = max(1.0, obj.A.norm()) * max(1.0, obj.B.norm())
    diag["equivariance_residual"] = res
    if strict and res > tol.eps_res * scale:
        raise EquivarianceViolation(
            "connection and dilation do not commute: residual %.3e" % res)
    return diag


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalForm:
    """Constant commuting presentation of an object: ``nabla = delta + A0``,
    dilation ``B0``, with ``spec(A0)`` inside ``transversal``."""

    A0: np.ndarray
    B0: np.ndarray
    transversal: Transversal
    theta: float
    tau: complex
    gauge: GaugeRecord = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.A0.shape[0]

    @property
    def q(self):
        return theta_to_q(self.theta)

    def eigen_margins(self):
        """Distance of each eigenvalue of A0 to the strip boundary."""
        return [self.transversal.boundary_distance(lam)
                for lam in np.linalg.eigvals(self.A0)]


def validate_normal_form(nf, tol=None, strict=True):
    tol = tol or DEFAULT_TOL
    diag = {}
    if nf.n:
        outside = [lam for lam in np.linalg.eigvals(nf.A0)
                   if not nf.transversal.contains(lam, margin=tol.eps_spec)]
        diag["eigenvalues_outside"] = len(outside)
        if strict and outside:
            raise ValidationFailure(
                "normal form has %d eigenvalue(s) outside the strip" % len(outside))
        comm = float(np.linalg.norm(nf.A0 @ nf.B0 - nf.B0 @ nf.A0))
        bound = tol.eps_res * (np.linalg.norm(nf.A0) + 1.0) * (np.linalg.norm(nf.B0) + 1.0)
        diag["commutator_residual"] = comm
        if strict and comm > bound:
            raise EquivarianceViolation(
                "constant pair does not commute: residual %.3e" % comm)
        svals = np.linalg.svd(nf.B0, compute_uv=False)
        diag["b_smallest_singular_value"] = float(svals[-1])
        if strict and svals[-1] <= tol.eps_res * max(1.0, svals[0]):
            raise SingularB("dilation matrix of the normal form is singular")
    return diag


def to_object(nf):
    """Present a normal form as an (constant-matrix) object."""
    return EquivariantConnection.from_constant(
        nf.A0, nf.B0, nf.theta, nf.tau, nf.transversal)


def unit_object(theta, tau, transversal=None):
    """The tensor unit: one-dimensional, trivial dilation, flat connection."""
    transversal = transversal or Transversal(tau)
    rep, _ = transversal.reduce(0.0)
    return NormalForm(np.array([[rep]], dtype=complex),
                      np.eye(1, dtype=complex), transversal, float(theta),
                      complex(tau))


def direct_sum(x, y):
    _check_same_context(x, y)
    a0 = np.zeros((x.n + y.n, x.n + y.n), dtype=complex)
    b0 = np.zeros_like(a0)
    a0[:x.n, :x.n], a0[x.n:, x.n:] = x.A0, y.A0
    b0[:x.n, :x.n], b0[x.n:, x.n:] = x.B0, y.B0
    return NormalForm(a0, b0, x.transversal, x.theta, x.tau)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize(obj, transversal=None, order=16, tol=None):
    """Gauge an object to a constant commuting pair with spectrum in the strip.

    Three stages: (1) shearing passes move each eigenvalue cluster of the
    constant term into the transversal, one unit step at a time; (2) the
    series gauge ``P = I + P_1 z + ...`` is built order by order through
    Sylvester solves, killing every positive power of the connection matrix;
    (3) the dilation matrix is transported through the same gauge and must
    come out constant up to the truncation residual.
    """
    tol = tol or DEFAULT_TOL
    transversal = transversal or obj.transversal or Transversal(obj.tau)
    if abs(transversal.tau - obj.tau) > 1e-9:
        raise TransversalMismatch("transversal modulus differs from the object's tau")
    validate(obj, tol)

    a, b = obj.A, obj.B
    steps = []
    sd = spectral(a.term(0), tol)
    budget = 8 + 4 * sum(abs(transversal.reduce(c.eigenvalue)[1])
                         for c in sd.clusters)
    passes = 0
    while True:
        shifts = [transversal.reduce(c.eigenvalue)[1] for c in sd.clusters]
        if all(s == 0 for s in shifts):
            break
        if passes >= budget:
            raise NumericFailure(
                "shearing did not settle within %d passes" % budget)
        # move one cluster by one unit step; mixed simultaneous steps could
        # push sub-threshold coefficients to negative powers
        target = next(i for i, s in enumerate(shifts) if s != 0)
        move = [0] * len(shifts)
        move[target] = -1 if shifts[target] > 0 else 1
        a, step = shear(a, sd, move, tol)
        b = apply_shear_dilation(b, step, tol)
        steps.append(step)
        passes += 1
        sd = spectral(a.term(0), tol)

    a0 = a.term(0)
    series = _series_gauge(a, a0, transversal, order, tol)
    gauged = gauge_transform(a, series, order) if not series.is_constant() else a
    gauge_residual = (gauged - PolyMat.constant(a0, a.tau, a.q)).norm()

    b_final = (dilation_transform(b, series, order)
               if not series.is_constant() else b)
    b0 = b_final.term(0)
    b_residual = (b_final - PolyMat.constant(b0, b.tau, b.q)).norm()
    if b_residual > tol.eps_res * max(1.0, b_final.norm()):
        raise NonConstantB(
            "dilation matrix retains non-constant terms of norm %.3e at "
            "truncation order %d" % (b_residual, order))

    record = GaugeRecord(shears=tuple(steps), series=series, truncation=order)
    nf = NormalForm(a0, b0, transversal, obj.theta, obj.tau, record, {
        "gauge_residual": gauge_residual,
        "b_residual": b_residual,
        "shear_passes": passes,
        "strip_margin": min([transversal.boundary_distance(lam)
                             for lam in np.linalg.eigvals(a0)], default=1.0),
    })
    validate_normal_form(nf, tol)
    return nf


def _series_gauge(a, a0, transversal, order, tol):
    n = a.dim
    coeffs = {0: np.eye(n, dtype=complex)}
    eye = np.eye(n, dtype=complex)
    for k in range(1, order + 1):
        rhs = np.zeros((n, n), dtype=complex)
        for j in range(1, k + 1):
            aj = a.terms.get(j)
            if aj is not None:
                rhs -= aj @ coeffs[k - j]
        if not np.any(rhs):
            coeffs[k] = np.zeros((n, n), dtype=complex)
            continue
        # spectra of A0 + tau k and A0 are disjoint once the spectrum sits in
        # one strip, so each order has a unique solution
        coeffs[k] = solve_sylvester(a0 + (transversal.tau * k) * eye, a0, rhs, tol)
    return PolyMat(n, coeffs, a.tau, a.q)


# ---------------------------------------------------------------------------
# the correspondence with commuting pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyPair:
    """Two commuting invertible matrices acting on the flat sections."""

    M1: np.ndarray
    M2: np.ndarray

    @property
    def n(self):
        return self.M1.shape[0]


def validate_monodromy(rep, tol=None, strict=True):
    tol = tol or DEFAULT_TOL
    diag = {}
    for name, m in (("M1", rep.M1), ("M2", rep.M2)):
        svals = np.linalg.svd(m, compute_uv=False) if rep.n else np.array([1.0])
        diag[name + "_smallest_singular_value"] = float(svals[-1]) if svals.size else 0.0
        if strict and svals.size and svals[-1] <= tol.eps_res * max(1.0, svals[0]):
            raise ValidationFailure("%s is singular" % name)
    comm = float(np.linalg.norm(rep.M1 @ rep.M2 - rep.M2 @ rep.M1))
    bound = tol.eps_res * max(1.0, np.linalg.norm(rep.M1)) \
        * max(1.0, np.linalg.norm(rep.M2))
    diag["commutator_residual"] = comm
    if strict and comm > bound:
        raise ValidationFailure("matrices do not commute: residual %.3e" % comm)
    return diag


def from_monodromy(rep, transversal, theta, tol=None):
    """Build the normal form whose flat sections carry the given pair.

    The connection matrix is the transversal-branch logarithm of M1 rescaled
    so that ``exp(2 pi i A0/tau) = M1``; the dilation matrix is M2.
    """
    tol = tol or DEFAULT_TOL
    validate_monodromy(rep, tol)
    a0 = log_transversal(np.asarray(rep.M1, dtype=complex), transversal, tol)
    b0 = np.asarray(rep.M2, dtype=complex).copy()
    nf = NormalForm(a0, b0, transversal, float(theta), complex(transversal.tau),
                    diagnostics={"log_residual": float(np.linalg.norm(
                        mat_exp(TWO_PI_I * a0 / transversal.tau) - rep.M1))})
    validate_normal_form(nf, tol)
    return nf


def monodromy(nf):
    """The commuting pair on flat sections: ``(exp(2 pi i A0/tau), B0)``."""
    return MonodromyPair(mat_exp(TWO_PI_I * nf.A0 / nf.tau), nf.B0.copy())


# ---------------------------------------------------------------------------
# rigid tensor structure
# ---------------------------------------------------------------------------

def _check_same_context(x, y):
    if abs(x.tau - y.tau) > 1e-12 or abs(x.theta - y.theta) > 1e-12:
        raise ValidationFailure("objects live over different (tau, theta)")
    if not same_transversal(x.transversal, y.transversal):
        raise TransversalMismatch("objects are normalized to different strips")


def tensor(x, y, tol=None):
    """Tensor product: connection matrices add across the factors, the sum
    of spectra is folded back into the strip, dilations multiply."""
    tol = tol or DEFAULT_TOL
    _check_same_context(x, y)
    raw = np.kron(x.A0, np.eye(y.n)) + np.kron(np.eye(x.n), y.A0)
    a0, shifts = reduce_to_transversal(raw, x.transversal, tol)
    b0 = np.kron(x.B0, y.B0)
    return NormalForm(a0, b0, x.transversal, x.theta, x.tau,
                      diagnostics={"fold_shifts": [(lam, s) for lam, s in shifts]})


def dual(x, tol=None):
    """Dual object: negative-transpose connection folded into the strip,
    inverse-transpose dilation."""
    tol = tol or DEFAULT_TOL
    a0, shifts = reduce_to_transversal(-x.A0.T, x.transversal, tol)
    b0 = np.linalg.inv(x.B0.T)
    return NormalForm(a0, b0, x.transversal, x.theta, x.tau,
                      diagnostics={"fold_shifts": [(lam, s) for lam, s in shifts]})


def evaluation_matrix(n):
    """Pairing ``x (x) dual(x) -> unit`` as a 1 x n^2 matrix (Kronecker order)."""
    eps = np.zeros((1, n * n), dtype=complex)
    for i in range(n):
        eps[0, i * n + i] = 1.0
    return eps


def coevaluation_matrix(n):
    """Unit morphism ``unit -> dual(x) (x) x`` as an n^2 x 1 matrix."""
    eta = np.zeros((n * n, 1), dtype=complex)
    for i in range(n):
        eta[i * n + i, 0] = 1.0
    return eta


def evaluation_map(x, tol=None):
    """The evaluation, as a concrete morphism ``x (x) dual(x) -> unit``."""
    src = tensor(x, dual(x, tol), tol)
    tgt = unit_object(x.theta, x.tau, x.transversal)
    return Morphism(src, tgt, evaluation_matrix(x.n))


def coevaluation_map(x, tol=None):
    """The coevaluation, as a concrete morphism ``unit -> dual(x) (x) x``."""
    src = unit_object(x.theta, x.tau, x.transversal)
    tgt = tensor(dual(x, tol), x, tol)
    return Morphism(src, tgt, coevaluation_matrix(x.n))


def triangle_residuals(x):
    """Deviation of the two rigidity triangle identities from the identity."""
    n = x.n
    eps = evaluation_matrix(n)
    eta = coevaluation_matrix(n)
    eye = np.eye(n)
    first = np.kron(eps, eye) @ np.kron(eye, eta)
    second = np.kron(eye, eps) @ np.kron(eta, eye)
    return (float(np.linalg.norm(first - eye)), float(np.linalg.norm(second - eye)))


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Morphism:
    """A constant matrix intertwining two normal forms."""

    source: NormalForm
    target: NormalForm
    phi: np.ndarray

    def residuals(self):
        ra = float(np.linalg.norm(self.phi @ self.source.A0 - self.target.A0 @ self.phi))
        rb = float(np.linalg.norm(self.phi @ self.source.B0 - self.target.B0 @ self.phi))
        return ra, rb

    def is_valid(self, tol=None):
        tol = tol or DEFAULT_TOL
        scale = max(1.0, float(np.linalg.norm(self.phi)))
        ra, rb = self.residuals()
        sa = scale * max(1.0, np.linalg.norm(self.source.A0), np.linalg.norm(self.target.A0))
        sb = scale * max(1.0, np.linalg.norm(self.source.B0), np.linalg.norm(self.target.B0))
        return ra <= 100 * tol.eps_res * sa and rb <= 100 * tol.eps_res * sb


def hom_basis(x, y, tol=None):
    """Orthonormal basis of the space of morphisms ``x -> y``.

    Both arguments must be normalized to the same strip; the space is the
    joint kernel of the two intertwining systems, computed by a stacked
    vectorized solve.  Completeness of constant intertwiners is exactly the
    mode-exclusion argument checked by ``hom_mode_dims``.
    """
    tol = tol or DEFAULT_TOL
    _check_same_context(x, y)
    if x.n == 0 or y.n == 0:
        return []
    eye_x, eye_y = np.eye(x.n), np.eye(y.n)
    top = np.kron(x.A0.T, eye_y) - np.kron(eye_x, y.A0)
    bot = np.kron(x.B0.T, eye_y) - np.kron(eye_x, y.B0)
    # the kernel decision is scaled by the object data, not by the stacked
    # matrix itself, which is pure noise for numerically equal objects
    basis = _nullspace_scaled(np.vstack([top, bot]), _data_scale(x, y), tol)
    return [Morphism(x, y, basis[:, i].reshape((y.n, x.n), order="F"))
            for i in range(basis.shape[1])]


def _data_scale(x, y):
    return max(1.0, np.linalg.norm(x.A0), np.linalg.norm(y.A0),
               np.linalg.norm(x.B0), np.linalg.norm(y.B0))


def _nullspace_scaled(m, scale, tol):
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > tol.eps_res * scale))
    return vh[rank:].conj().T


def hom_mode_dims(x, y, k_range=8, tol=None):
    """Dimensions of would-be intertwiners carried by each power of z.

    For presentations sharing one strip every nonzero mode must vanish; this
    scan makes that exclusion checkable rather than assumed.
    """
    tol = tol or DEFAULT_TOL
    _check_same_context(x, y)
    q = x.q
    eye_x, eye_y = np.eye(x.n), np.eye(y.n)
    out = {}
    for k in range(-k_range, k_range + 1):
        if k == 0:
            continue
        top = np.kron(x.A0.T, eye_y) - np.kron(eye_x, y.A0 + (x.tau * k) * eye_y)
        bot = np.kron(x.B0.T, eye_y) - (q ** k) * np.kron(eye_x, y.B0)
        out[k] = _nullspace_scaled(np.vstack([top, bot]),
                                   _data_scale(x, y) + abs(x.tau) * abs(k),
                                   tol).shape[1]
    return out


def is_isomorphic(x, y, tol=None, seed=0, trials=32):
    """Search for an invertible intertwiner; returns it or None.

    Random linear combinations of a hom basis are tested against a
    determinant threshold; invertibility is an open condition, so a handful
    of seeded trials suffices whenever an isomorphism exists.
    """
    tol = tol or DEFAULT_TOL
    if x.n != y.n:
        return None
    if x.n == 0:
        return Morphism(x, y, np.zeros((0, 0), dtype=complex))
    forward = hom_basis(x, y, tol)
    backward = hom_basis(y, x, tol)
    if not forward or not backward:
        return None
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        coeff = rng.normal(size=len(forward)) + 1j * rng.normal(size=len(forward))
        phi = sum(c * m.phi for c, m in zip(coeff, forward))
        if abs(np.linalg.det(phi)) > tol.eps_res:
            return Morphism(x, y, phi)
    return None


def kernel(m, tol=None):
    """Kernel object and its inclusion into the source."""
    tol = tol or DEFAULT_TOL
    v = nullspace(m.phi, tol) if m.phi.size else np.eye(m.source.n, dtype=complex)
    a0 = v.conj().T @ m.source.A0 @ v
    b0 = v.conj().T @ m.source.B0 @ v
    ker = NormalForm(a0, b0, m.source.transversal, m.source.theta, m.source.tau)
    return ker, Morphism(ker, m.source, v)


def cokernel(m, tol=None):
    """Cokernel object and the projection from the target."""
    tol = tol or DEFAULT_TOL
    w = nullspace(m.phi.conj().T, tol) if m.phi.size else np.eye(m.target.n, dtype=complex)
    a0 = w.conj().T @ m.target.A0 @ w
    b0 = w.conj().T @ m.target.B0 @ w
    cok = NormalForm(a0, b0, m.target.transversal, m.target.theta, m.target.tau)
    return cok, Morphism(m.target, cok, w.conj().T)


def image(m, tol=None):
    """Image object inside the target, with its inclusion."""
    tol = tol or DEFAULT_TOL
    if m.phi.size == 0:
        img = NormalForm(np.zeros((0, 0), dtype=complex),
                         np.zeros((0, 0), dtype=complex),
                         m.target.transversal, m.target.theta, m.target.tau)
        return img, Morphism(img, m.target, np.zeros((m.target.n, 0), dtype=complex))
    u, s, _ = np.linalg.svd(m.phi)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol.eps_res * smax)) if smax else 0
    basis = u[:, :rank]
    a0 = basis.conj().T @ m.target.A0 @ basis
    b0 = basis.conj().T @ m.target.B0 @ basis
    img = NormalForm(a0, b0, m.target.transversal, m.target.theta, m.target.tau)
    return img, Morphism(img, m.target, basis)


# ---------------------------------------------------------------------------
# composition series, K-classes, flat sections
# ---------------------------------------------------------------------------

def _lex_key(z):
    return (round(z.real, 9), round(z.imag, 9))


def decompose(nf, tol=None):
    """Composition series as the ordered list of simple labels ``(lam, b)``.

    Repeatedly extracts a joint eigenvector of the commuting pair (smallest
    label in the lexicographic order on (Re, Im) for determinism) and passes
    to the quotient; the resulting multiset is the joint spectrum with
    multiplicity.
    """
    tol = tol or DEFAULT_TOL
    a = nf.A0.copy()
    b = nf.B0.copy()
    out = []
    while a.shape[0] > 0:
        n = a.shape[0]
        if n == 1:
            out.append((complex(a[0, 0]), complex(b[0, 0])))
            break
        eigs = np.linalg.eigvals(a)
        lam = min(eigs, key=_lex_key)
        shifted = a - lam * np.eye(n)
        space = nullspace(shifted, tol)
        if space.shape[1] == 0:
            # eigenvalues scattered beyond the kernel threshold; take the most
            # singular direction instead
            _, _, vh = np.linalg.svd(shifted)
            space = vh[-1:].conj().T
        b_small = space.conj().T @ b @ space
        bvals, bvecs = np.linalg.eig(b_small)
        pick = min(range(len(bvals)), key=lambda i: _lex_key(bvals[i]))
        w = space @ bvecs[:, pick]
        w = w / np.linalg.norm(w)
        lam_w = complex(w.conj() @ a @ w)
        b_w = complex(w.conj() @ b @ w)
        out.append((lam_w, b_w))
        comp = nullspace(w[None, :].conj(), tol)
        if comp.shape[1] != n - 1:
            raise NumericFailure("failed to split off a joint eigenvector; "
                                 "tolerance breach in the commuting pair")
        a = comp.conj().T @ a @ comp
        b = comp.conj().T @ b @ comp
    return out


class K0Class:
    """Formal integer combination of simple labels ``(b, z')`` with ``z'``
    reduced into the ambient strip.

    Keys within ``eps_key`` merge, the radius scaled by the size of each part
    of the key above 1, so labels carrying rounding at their own scale still
    collide; keys hugging the right strip edge fold to the left edge so equal
    cosets always collide.
    """

    def __init__(self, transversal, entries=(), tol=None):
        self.transversal = transversal
        self.tol = tol or DEFAULT_TOL
        merged = []
        for b, zp, mult in entries:
            self._accumulate(merged, complex(b), self._canon(complex(zp)), int(mult))
        self.entries = tuple(sorted(
            ((b, zp, m) for b, zp, m in merged if m != 0),
            key=lambda t: (_lex_key(t[1]), _lex_key(t[0]))))

    def _canon(self, zp):
        rep, _ = self.transversal.reduce(zp)
        edge = self.tol.eps_key / abs(self.transversal.tau)
        if self.transversal.position(rep) > 1.0 - edge:
            rep -= self.transversal.tau
        return rep

    def _accumulate(self, merged, b, zp, mult):
        eps = self.tol.eps_key
        for i, (b0, zp0, m0) in enumerate(merged):
            if (abs(b - b0) <= eps * max(1.0, abs(b0))
                    and abs(zp - zp0) <= eps * max(1.0, abs(zp0))):
                merged[i] = (b0, zp0, m0 + mult)
                return
        merged.append((b, zp, mult))

    def __add__(self, other):
        self._check(other)
        return K0Class(self.transversal, self.entries + other.entries, self.tol)

    def __neg__(self):
        return K0Class(self.transversal,
                       [(b, zp, -m) for b, zp, m in self.entries], self.tol)

    def __sub__(self, other):
        return self + (-other)

    def _check(self, other):
        if not same_transversal(self.transversal, other.transversal):
            raise TransversalMismatch("K-classes live over different strips")

    def total_degree(self):
        return sum(m for _, _, m in self.entries)

    def same_class(self, other):
        return not (self - other).entries

    def __eq__(self, other):
        if not isinstance(other, K0Class):
            return NotImplemented
        return self.same_class(other)

    def __repr__(self):
        return "K0Class(%s)" % (list(self.entries),)


def k0_class(nf, tol=None):
    """Class of an object in the Grothendieck group: the multiset of its
    simple labels, additive along exact sequences."""
    tol = tol or DEFAULT_TOL
    pairs = decompose(nf, tol)
    return K0Class(nf.transversal, [(b, lam, 1) for lam, b in pairs], tol)


def h0_dim(nf_or_matrix, tau=None, tol=None):
    """Dimension of global flat sections.

    A Laurent section ``sum f_k z^k`` is flat precisely when each ``f_k``
    lies in ``ker(A0 + tau k I)``, so only eigenvalues of A0 sitting on the
    ray ``-tau Z`` contribute; the sum is finite.
    """
    tol = tol or DEFAULT_TOL
    if isinstance(nf_or_matrix, NormalForm):
        a0, tau = nf_or_matrix.A0, nf_or_matrix.tau
    else:
        if tau is None:
            raise ValidationFailure("matrix input needs an explicit tau")
        a0 = np.atleast_2d(np.asarray(nf_or_matrix, dtype=complex))
    if a0.shape[0] == 0:
        return 0
    total = 0
    seen = set()
    scale = max(1.0, float(np.linalg.norm(a0)), abs(tau))
    for lam in np.linalg.eigvals(a0):
        t = -lam / tau
        k = round(t.real)
        if abs(t - k) > 10 * tol.eps_spec * scale / abs(tau) or k in seen:
            continue
        seen.add(k)
        shifted = a0 + (k * tau) * np.eye(a0.shape[0])
        svals = np.linalg.svd(shifted, compute_uv=False)
        smax = max(float(svals[0]), 1.0)
        total += int(np.sum(svals <= 10 * tol.eps_spec * smax))
    return total
