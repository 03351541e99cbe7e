"""Dense complex-matrix numerics and lattice-strip utilities.

Everything downstream works with square complex matrices at desk scale
(dimensions up to a dozen or so), double precision throughout.  This module
supplies the primitives the rest of the package leans on:

* ``Transversal`` -- a half-open strip ``{z : a <= Re(z/tau) < a+1}`` carrying
  exactly one representative of each coset of ``tau*Z`` in the complex plane,
  plus reduction into it, of a number or of an array at once;
* the order of label arrays (``_lex_order``), Python's sort on keys rounded
  to 9 decimals, to the tie, and the formal sums over merged keys that
  K-classes and divisors share (``_FormalSum``);
* clustered spectral data (Schur form, eigenvalue clustering by proximity,
  clusters made contiguous by LAPACK's ztrsen, grouped until each spectral
  projector is bounded, block diagonalization with one ztrsyl per group);
* Sylvester solves (``solve_sylvester``, scipy's Bartels-Stewart to the
  bit but refusing ztrsyl's info 1; ``_triangular_sylvester`` on one
  triangular t for many shifts), the matrix exponential, and a matrix
  logarithm whose branch is chosen per group so that the result's
  spectrum lands inside a prescribed transversal;
* the fold of a spectrum into a strip, as a matrix (``_fold``, one
  projector update of the Schur form) or as the shift groups and
  similarity of a gauge (``_shift_groups``);
* the real-width function on moduli and the explicit translate-then-invert
  Moebius move that makes the width smaller than one.

Matrix functions are evaluated on the clustered Schur form ``t``, never by
diagonalization, so non-diagonalizable inputs are handled exactly as well as
generic ones: ``f(t) = V diag(f(t_ii)) V^-1`` for the ``V`` that block
diagonalizes ``t`` with one ztrsyl call per block (Bavely & Stewart, SIAM J.
Numer. Anal. 1979).  All values are immutable and all functions are pure.
"""

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.linalg import lapack_lite

from .exceptions import NumericFailure, SpectrumCollision, ValidationFailure

TWO_PI_I = 2j * math.pi


class TransversalBranchWarning(UserWarning):
    """Two eigenvalues inside one cluster straddle a strip boundary."""


# ---------------------------------------------------------------------------
# basic value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    eps_spec : eigenvalue clustering radius,
    eps_res  : residual acceptance threshold,
    eps_key  : identification radius for K-class keys and lattice points.

    Other thresholds are named module constants beside their decisions:
    one context (numkit ``_CONTEXT_TOL``), a coordinate on an integer
    (``_SNAP_TOL``), the log series' last term (``_SERIES_STOP``), grouping
    (``_PROJECTOR_BOUND``); ``Morphism.is_valid`` (category
    ``_MORPHISM_SLACK`` x eps_res), ``h0_dim`` (``_FLAT_SLACK`` x eps_spec),
    Hom components (``_COMPONENT_RADIUS``); ``build_extension`` (torus
    ``_EXTENSION_TOL``) and ``is_nori_finite`` (``_DET_SAFETY``).
    """

    eps_spec: float = 1e-8
    eps_res: float = 1e-9
    eps_key: float = 1e-7

    def __post_init__(self):
        for name in ("eps_spec", "eps_res", "eps_key"):
            if getattr(self, name) <= 0:
                raise ValidationFailure("%s must be strictly positive" % name)
        if self.eps_spec >= 1e-2:
            raise ValidationFailure("eps_spec must be below 1e-2")
        # the memo keys of every normal form hold one: hash it once
        object.__setattr__(self, "_hash", hash((self.eps_spec, self.eps_res, self.eps_key)))

    def __hash__(self):
        return self._hash


DEFAULT_TOL = Tolerances()

# Both sides of a context comparison read tau, theta, q or a strip offset from
# one float; a gap larger than this means another curve, torus or strip.
_CONTEXT_TOL = 1e-12
# A strip or lattice coordinate this close to an integer, relative, is that
# integer: a value built on an edge reaches it to a few roundings.
_SNAP_TOL = 1e-12
# The log series of a cluster stops at a term this small relative to 1 plus
# the sum: far below the unit roundoff, 1.1e-16, it no longer moves the sum.
_SERIES_STOP = 1e-18


def same_context(*pairs):
    """Whether each ``(a, b)`` pair of context parameters -- moduli tau,
    twists theta or q, strip offsets -- agrees within ``_CONTEXT_TOL``; a
    nan never agrees."""
    return all(abs(a - b) <= _CONTEXT_TOL for a, b in pairs)


@dataclass(frozen=True)
class Transversal:
    """The strip ``{z : offset <= Re(z/tau) < offset + 1}``.

    For every complex ``lam`` there is exactly one integer ``k`` with
    ``lam - k*tau`` inside the strip; the strip is half open on the right.
    Any nonzero ``tau`` is accepted.  ``position`` and ``shift`` take an
    array as they take a number, so a spectrum's labels are reduced as one
    array, each to the bits and the decision it gets alone.
    """

    tau: complex
    offset: float = 0.0

    def __post_init__(self):
        if self.tau == 0:
            raise ValidationFailure("transversal modulus tau must be nonzero")
        # Python's complex division divides through by the larger part of tau
        tr, ti = self.tau.real, self.tau.imag
        if abs(tr) >= abs(ti):
            smith = (True, ti / tr, tr + ti * (ti / tr))
        else:
            smith = (False, tr / ti, tr * (tr / ti) + ti)
        object.__setattr__(self, "_smith", smith)

    def position(self, z):
        """Strip coordinate Re(z/tau) - offset; inside means [0, 1).

        A number or an array alike: Re(z/tau) is computed from the real and
        imaginary parts by the formula Python's complex division uses
        (Smith's), so an array gets, to the bit, what ``(complex(v) /
        tau).real`` gives for each value.  numpy's complex division scales
        by a reciprocal instead; for tau = 1 - 1j the two agree, and for a
        general tau they differ in the last bit on some values, so a numpy
        value whose position went through numpy's division before can change
        a decision only where it sits exactly on a snap or floor boundary.
        """
        real_first, ratio, denom = self._smith
        if real_first:
            pos = (z.real + z.imag * ratio) / denom
        else:
            pos = (z.real * ratio + z.imag) / denom
        # x - 0.0 is x, signed zeros included
        return pos - self.offset if self.offset else pos

    def shift(self, z):
        """The integer k, as a float, with ``z - k*tau`` inside the strip;
        elementwise on an array, one vectorized snap-and-floor of the
        positions.

        Positions within ``_SNAP_TOL`` relative of an integer are snapped to it
        before taking the floor (``_snap``), so values landing exactly on
        the half-open right edge fold deterministically to the left edge.
        A position past the float range is inf or nan, without numpy's
        warning.
        """
        return self.shift_at(self.position(z))

    @staticmethod
    def shift_at(pos):
        """``shift`` of the values at the strip positions ``pos``."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.floor(_snap(pos))

    def reduce(self, lam):
        """Return ``(representative, shift)`` for a number ``lam``, with
        ``representative = lam - shift*tau`` inside the strip and ``shift``
        the int of ``self.shift(lam)``; a shift past the float range raises
        NumericFailure."""
        shift = self.shift(lam)
        if not math.isfinite(shift):
            raise NumericFailure("%r has no strip shift in the float range" % (lam,))
        shift = int(shift)
        return lam - shift * self.tau, shift

    def contains(self, z, margin=0.0):
        """Whether ``z`` is in the strip widened by ``margin``; elementwise on an array."""
        t = self.position(z)
        return (t >= -margin) & (t < 1.0 + margin)

    def boundary_distance(self, z):
        """Distance of the strip coordinate to the nearest boundary {0, 1};
        elementwise on an array, each value to the bits it gets alone."""
        t = self.position(z) % 1.0
        return np.minimum(t, 1.0 - t)


def _snap(x):
    """``x`` with each value within ``_SNAP_TOL`` relative (absolute below
    1) of an integer replaced by that integer, elementwise; the nearest
    integer is ``np.rint``'s, ties to even as Python's ``round``."""
    nearest = np.rint(x)
    return np.where(np.abs(x - nearest) < _SNAP_TOL * np.maximum(1.0, np.abs(x)), nearest, x)


@dataclass(frozen=True)
class SL2Z:
    """An integer matrix ``[[a, b], [c, d]]`` with ``ad - bc = 1``."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValidationFailure("SL2Z entries must satisfy ad - bc = 1")

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, n):
        """tau -> tau + n."""
        return cls(1, n, 0, 1)

    @classmethod
    def inversion(cls):
        """tau -> -1/tau."""
        return cls(0, -1, 1, 0)

    def __matmul__(self, other):
        return SL2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @property
    def matrix(self):
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=int)


def moebius(g, tau):
    """Fractional-linear action ``(a*tau + b) / (c*tau + d)``."""
    denom = g.c * tau + g.d
    if abs(denom) == 0:
        raise ValidationFailure("Moebius transform has a pole at tau = %s" % tau)
    return (g.a * tau + g.b) / denom


def wd(tau):
    """Real width ``|tau|^2 / |Re tau|`` of a transversal strip; +inf on the
    imaginary axis."""
    if tau == 0:
        raise ValidationFailure("width is undefined at tau = 0")
    tau = complex(tau)
    if tau.real == 0.0:
        return math.inf
    return (tau.real * tau.real + tau.imag * tau.imag) / abs(tau.real)


def find_small_width(tau):
    """Translate by the smallest positive integer N with Re(tau)+N > 1, then
    invert; the image modulus has width strictly below one.

    Returns ``(g, g(tau))`` with ``g`` the composed SL2Z element.
    """
    tau = complex(tau)
    if tau.imag == 0.0:
        raise ValidationFailure("real tau admits no width-reducing move")
    n = math.floor(1.0 - tau.real) + 1
    n = max(n, 1)
    while tau.real + n <= 1.0:
        n += 1
    g = SL2Z.inversion() @ SL2Z.translation(n)
    gtau = moebius(g, tau)
    if not wd(gtau) < 1.0:
        # guard against a float landing exactly on the threshold
        n += 1
        g = SL2Z.inversion() @ SL2Z.translation(n)
        gtau = moebius(g, tau)
    return g, gtau


# ---------------------------------------------------------------------------
# matrix helpers
# ---------------------------------------------------------------------------

def as_square_matrix(m, name="matrix"):
    """Coerce to a finite square complex ndarray, ``m`` itself if it is one."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2:
        arr = np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationFailure("%s must be square, got shape %s" % (name, arr.shape))
    return _finite(arr, name)


def _finite(arr, name):
    """``arr``, or ``ValidationFailure`` naming it when an entry is not finite."""
    if not np.isfinite(arr).all():
        raise ValidationFailure("%s contains non-finite entries" % name)
    return arr


def mat_norm(m):
    """Spectral norm, with the convention that the empty matrix has norm 0."""
    arr = np.asarray(m)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.norm(arr, 2))


def _frobenius(m):
    """``||m||_F`` as a float; where its squares overflow but the entries
    are finite, the norm taken in units of the largest real or imaginary
    part, finite up to the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(m))
        if math.isinf(norm) and np.isfinite(m).all():
            part = max(np.abs(m.real).max(), np.abs(m.imag).max())
            norm = float(part * np.linalg.norm(m / part))
    return norm


def mat_exp(m):
    """Matrix exponential of a square complex matrix."""
    return scipy.linalg.expm(as_square_matrix(m))


def nullspace(m, tol=None):
    """Orthonormal basis of the kernel, rank decided by a relative
    singular-value threshold; an entry that is not finite raises
    ``ValidationFailure``."""
    return _svd_split(_finite(np.asarray(m, dtype=complex), "m"), tol or DEFAULT_TOL)[0]


def _svd_split(m, tol):
    """``(kernel basis, u, s, rank)`` of a matrix, from its full SVD
    ``u s vh``: the rank counts the singular values above eps_res times the
    largest, and the kernel basis is the trailing rows of ``vh`` made
    columns, or the identity when the rank is 0.  An empty matrix has
    ``u = None`` and no singular values.
    """
    arr = np.atleast_2d(np.asarray(m, dtype=complex))
    if arr.size == 0:
        return np.eye(arr.shape[1], dtype=complex), None, np.zeros(0), 0
    u, s, vh = np.linalg.svd(arr)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.eye(arr.shape[1], dtype=complex), u, s, 0
    rank = int(np.sum(s > tol.eps_res * smax))
    return vh[rank:].conj().T, u, s, rank


def _is_singular(svals, tol):
    """Whether the descending singular values ``svals`` of a data matrix
    make it singular: the smallest at most eps_res max(1, the largest)."""
    return bool(svals.size) and svals[-1] <= tol.eps_res * max(1.0, svals[0])


def solve_sylvester(a, b, c, tol=None):
    """Solve ``A X - X B = C`` for spectra separated beyond eps_spec.

    Raises ``SpectrumCollision`` naming the offending eigenvalue pair when
    the spectra of A and B overlap within the clustering tolerance, and
    ``ValidationFailure`` naming a matrix of the wrong shape or with an
    entry that is not finite.
    """
    tol = tol or DEFAULT_TOL
    b = as_square_matrix(b, "B")
    a = as_square_matrix(a, "A")
    c = np.atleast_2d(np.asarray(c, dtype=complex))
    if c.shape != (a.shape[0], b.shape[0]):
        raise ValidationFailure(
            "C must be %d x %d, got %s" % (a.shape[0], b.shape[0], c.shape)
        )
    _finite(c, "C")
    # Bartels-Stewart on a = u r u^H and -b^H = v s v^H, whose diagonals
    # are the spectra of a and -conj(b): ztrsyl on f = u^H c v, then
    # x = u y v^H, with scipy's products
    (r, u), (s, v) = _schur(a), _schur(-b.conj().T)
    _check_separated(np.diag(r), -np.diag(s).conj(), tol)
    f = np.dot(np.dot(u.conj().T, c), v)
    y, scale, info = scipy.linalg.lapack.ztrsyl(r, s, f, tranb="C")
    _check_trsyl(info)
    return np.dot(np.dot(u, scale * y), v.conj().T)


def _triangular_sylvester(a, b, c, close_ok=False):
    """Solve ``A Y - Y B = C`` for upper triangular ``A`` and ``B``: one
    ztrsyl.  With ``A = t + shift`` and ``B = t`` for ``M = q t q^H`` it is
    ``(M + shift) X - X M = q C q^H`` in the Schur basis, ``X = q Y q^H``,
    so the orders of a series gauge share the one form; a Fortran-ordered
    A and B reach LAPACK without a copy.  The caller checks the separation
    of the spectra: ztrsyl's info 1, which perturbs diagonal entries of A
    and B that lie within its rounding of each other, raises
    ``NumericFailure`` unless ``close_ok``, as for entries whose right-hand
    side is known to be zero.
    """
    y, scale, info = scipy.linalg.lapack.ztrsyl(a, b, c, isgn=-1)
    if info < 0 or not close_ok:
        _check_trsyl(info)
    return y if scale == 1.0 else y / scale


def _check_trsyl(info):
    if info != 0:
        raise NumericFailure("Sylvester solve on too close spectra (ztrsyl info %d)"
                             % info)


def _check_separated(eig_a, eig_b, tol):
    """Raise ``SpectrumCollision`` for the closest pair of eigenvalues of
    the two spectra when it lies within eps_spec."""
    gaps = np.abs(eig_a[:, None] - eig_b[None, :])
    i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[i, j] <= tol.eps_spec:
        raise SpectrumCollision(eig_a[i], eig_b[j], float(gaps[i, j]))


def _no_sort(value):
    return None


@functools.cache
def _zgees_lwork(n):
    """zgees's optimal workspace size at order n: its workspace query reads
    n alone, so it is asked once per size."""
    return int(scipy.linalg.lapack.zgees(_no_sort, np.zeros((n, n), dtype=complex),
                                         lwork=-1)[-2][0].real)


def _schur(m):
    """Complex Schur form ``(t, z)``, ``z t z^H = m``, from one LAPACK
    ``zgees`` call with the optimal workspace size kept per order
    (``_zgees_lwork``): to the bit ``scipy.linalg.schur(m,
    output="complex")`` for a float64 or complex128 ``m``, without its
    wrappers and its second, workspace-querying call.  The arrays returned
    are new, never ``m``.  A matrix that is not square or has an entry that
    is not finite, and a Schur iteration that does not converge (zgees info
    > 0), raise ``NumericFailure``."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericFailure("no Schur form: expected square matrix, got shape %s"
                             % (m.shape,))
    if not np.isfinite(m).all():
        raise NumericFailure("no Schur form: array must not contain infs or NaNs")
    n = len(m)
    if not n:
        return np.empty((0, 0), dtype=complex), np.empty((0, 0), dtype=complex)
    t, _, _, z, _, info = scipy.linalg.lapack.zgees(_no_sort, m, lwork=_zgees_lwork(n))
    if info:
        raise NumericFailure("Schur form not found (zgees info %d)" % info)
    return t, z


@functools.cache
def _qr_lwork(m, n):
    """The optimal workspace size of zgeqrf and zungqr for an ``m x n``
    matrix: their queries read the shape alone, so they are asked once per
    shape, on an uninitialized array that neither query touches."""
    a, tau = np.empty((n, m), dtype=complex), np.empty(n, dtype=complex)
    work = np.ones(1, dtype=complex)
    lapack_lite.zgeqrf(m, n, a, m, tau, work, -1, 0)
    lwork = work[0].real
    lapack_lite.zungqr(m, n, n, a, m, tau, work, -1, 0)
    return int(max(lwork, work[0].real, 1))


def _orthonormal_columns(a):
    """The ``Q`` of the reduced QR factorization of the Fortran-ordered
    complex ``m x n`` array ``a``, ``m >= n``, which it overwrites: one
    LAPACK ``zgeqrf`` and one ``zungqr`` call through numpy's
    ``lapack_lite``, with the optimal workspace kept per shape
    (``_qr_lwork``).  These are the calls and workspaces of
    ``np.linalg.qr(a)[0]`` on numpy's own LAPACK, so they give its bits,
    without its wrappers, copies and workspace queries.  A nonzero ``info``
    raises ``NumericFailure``."""
    m, n = a.shape
    at, tau = a.T, np.empty(n, dtype=complex)   # at: a's memory, C-ordered
    work = np.empty(_qr_lwork(m, n), dtype=complex)
    info = lapack_lite.zgeqrf(m, n, at, m, tau, work, len(work), 0)["info"]
    if info == 0:
        info = lapack_lite.zungqr(m, n, n, at, m, tau, work, len(work), 0)["info"]
    if info:
        raise NumericFailure("QR factorization failed (info %d)" % info)
    return a


# ---------------------------------------------------------------------------
# clustered Schur machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralCluster:
    eigenvalue: complex
    multiplicity: int
    basis: np.ndarray


@dataclass(frozen=True)
class SpectralData:
    """Clustered spectral decomposition ``similarity^-1 M similarity = block_form``
    with one diagonal block per eigenvalue cluster.

    ``matrix`` is M, kept for ``diagnostics``: the residual of each cluster's
    invariant subspace and of the reassembled M, both relative to ``||M||``,
    computed on first read.
    """

    clusters: tuple
    similarity: np.ndarray
    block_form: np.ndarray
    matrix: np.ndarray = field(default=None, repr=False, compare=False, kw_only=True)

    @functools.cached_property
    def diagnostics(self):
        if self.matrix is None:
            return {}
        m, s, t = self.matrix, self.similarity, self.block_form
        norm_m = mat_norm(m)
        residuals, start = [], 0
        for c in self.clusters:
            stop = start + c.multiplicity
            res = mat_norm(m @ c.basis - c.basis @ t[start:stop, start:stop])
            residuals.append(res / norm_m if norm_m else res)
            start = stop
        res = mat_norm(s @ t @ np.linalg.inv(s) - m)
        return {"subspace_residuals": residuals,
                "reassembly_residual": res / norm_m if norm_m else res}


def _near_pairs(values, radius):
    """The index pairs ``(i, j)``, ``i > j``, of the complex array
    ``values`` with ``abs(values[i] - values[j]) <= radius``, as two int
    arrays: the pairs of the dense test ``np.abs(values[:, None] - values)
    <= radius``, to the bit, in no particular order.

    The real parts are sorted, and each gap between neighbours above
    ``radius`` cuts them into runs; only the pairs within a run take the
    dense ``abs`` test, those ``d`` apart in sorted order in the ``d``-th
    pass, the first pass the neighbours.  No pair across a cut passes it:
    rounding is monotone, so the rounded difference of their real parts is
    at least that of the neighbours at the cut, and ``|z| >= |Re z|`` holds
    for ``abs`` as computed.  With every gap cut, no pair is formed after
    that one sort.
    """
    reals = values.real.copy()
    reals.sort()
    cut = reals[1:] - reals[:-1] > radius
    if np.count_nonzero(cut) == cut.size:
        none = np.zeros(0, dtype=int)
        return none, none
    # the cuts fall between the same sorted positions whatever the order of ties
    order = values.real.argsort()
    near = ~cut
    k = near.nonzero()[0]
    a, b, span, d = order[k], order[k + 1], near[:-1] & near[1:], 2
    while np.count_nonzero(span):
        # span[k]: sorted positions k and k + d lie in one run
        k = span.nonzero()[0]
        a, b = np.concatenate([a, order[k]]), np.concatenate([b, order[k + d]])
        span, d = span[:-1] & near[d:], d + 1
    near = (np.abs(values[a] - values[b]) <= radius).nonzero()[0]
    a, b = a[near], b[near]
    return np.maximum(a, b), np.minimum(a, b)


def _components(n, i, j):
    """Connected components of the graph on ``n`` vertices with the edges
    ``(i[k], j[k])``, labelled in order of first appearance, as a list.
    Each vertex points at a smaller one of its component, and a root, its
    smallest vertex, at itself: per round the larger root of each edge whose
    ends have two roots is pointed at the smaller, and every pointer then
    jumps to its root, until no edge joins two roots."""
    root = np.arange(n)
    while True:
        ri, rj = root[i], root[j]
        apart = (ri != rj).nonzero()[0]
        if not apart.size:
            break
        ri, rj = ri[apart], rj[apart]
        root[np.maximum(ri, rj)] = np.minimum(ri, rj)
        while True:
            up = root[root]
            if not np.count_nonzero(up != root):
                break
            root = up
    return ((root == np.arange(n)).cumsum() - 1)[root].tolist()


def _merge_keys(keys, mults, radius):
    """Merge keys carrying integer multiplicities, greedily in order: each
    key joins the first key before it that is a representative and lies
    within that representative's radius in every coordinate, or becomes a
    representative itself.

    ``keys`` is ``(m, k)`` complex, one row per key; ``radius`` is a scalar
    or the ``(m, k)`` radii each key has as a representative.  The pairs
    within the radius are found at once: the near pairs of the first
    coordinates at its largest radius (``_near_pairs``), then ``abs`` in
    every coordinate on those only.  A key with no near key before it is a
    representative, and a key whose first near key is one of those joins
    it; only the others, as along a chain, are looked at one by one.
    Returns ``(representatives, multiplicities)`` in the order the
    representatives were made; a multiplicity that sums to 0 is kept.
    """
    m = len(keys)
    if np.ndim(radius):
        # a nan radius forms no pair; the others' near pairs hold the pairs
        i, j = _near_pairs(keys[:, 0], np.fmax.reduce(radius[:, 0], initial=-np.inf))
        radius = radius[j]
    else:
        i, j = _near_pairs(keys[:, 0], radius)
    if i.size:
        pair = (np.abs(keys[i] - keys[j]) <= radius).all(axis=1)
        # the pairs (i, j), j < i, in the order of i, then of j, within j's radius
        pair = pair.nonzero()[0][np.lexsort((j[pair], i[pair]))]
        i, j = i[pair], j[pair]
    if not i.size:
        return keys, np.array(mults, dtype=np.int64)
    owner = np.arange(m)
    first = np.flatnonzero(np.diff(i, prepend=-1))
    rows = i[first]
    owner[rows] = j[first]
    joined = np.zeros(m, dtype=bool)
    joined[rows] = True
    for row in rows[joined[j[first]]]:
        # the owners of the keys before row are settled; representatives own themselves
        before = j[i == row]
        before = before[owner[before] == before]
        owner[row] = before[0] if before.size else row
    total = np.zeros(m, dtype=np.int64)
    np.add.at(total, owner, mults)
    kept = owner == np.arange(m)
    return keys[kept], total[kept]


# Parts of a key are clamped to this size before scaling by 1e9: the product
# then stays below 2**43, where it is off from the exact one by at most
# 2**-11, and a clamped part scales to within 2**-9 of a half, so that it
# goes to Python's ``round``; no product overflows.
_KEY_BOUND = (2.0 ** 42 + 0.5) / 1e9


def _lex_order(keys):
    """Indices that sort the rows of the complex ``(m, k)`` array ``keys``
    as Python's stable ``sorted`` does with the key ``(round(re, 9),
    round(im, 9))`` of each column in turn, ties included.

    Each part's key is ``rint(x * 1e9) / 1e9``, which is ``round(x, 9)``
    to the bit wherever ``x * 1e9`` rounds to the integer that the exact
    product rounds to: below ``_KEY_BOUND``, about 4398, the product is off
    by at most 2**-11, so that holds when it is more than 2**-9 from a
    half; and the quotient of an integer below 2**43 by 1e9 is the nearest
    double, as Python's ``round`` returns, distinct for distinct integers
    and in their order.  A part that fails the test, a digit within reach
    of a half or a part above the bound (0.3% and 0.05% of the parts of
    the tensor-decompose benchmark's labels), takes Python's ``round``
    instead; when none does, the integers themselves are the keys.
    ``np.lexsort`` is stable, as ``sorted`` is.
    """
    parts = np.ascontiguousarray(keys).view(float)
    scaled = parts.clip(-_KEY_BOUND, _KEY_BOUND)
    scaled *= 1e9
    nearest = np.rint(scaled)
    scaled -= nearest
    unsure = (np.abs(scaled) >= 0.5 - 2.0 ** -9).nonzero()
    if unsure[0].size:
        # the integers order as their quotients by 1e9 do, which mix with round's
        nearest /= 1e9
        for i, j in zip(*unsure):
            nearest[i, j] = round(parts[i, j].item(), 9)
    return np.lexsort(nearest.T[::-1])


class _FormalSum:
    """The free abelian group on keys under ``category.K0Class`` and
    ``torus.Divisor``: ``_keys``, ``(m, k)`` complex rows of reduced keys in
    ``_lex_order``, and ``_mults``, their nonzero int64 multiplicities.  A
    subclass reduces its keys into its context and supplies ``_radius``, the
    merge radius of given keys, ``_same``, whether another element shares
    the context, and ``_mismatch``, the exception a sum across contexts
    raises.  A sum merges both terms' reduced keys; a negation turns the
    multiplicities only, so ``-(-a)`` is ``a`` entry for entry."""

    def _keep(self, keys, mults, ordered=False):
        """Merge the rows of ``keys`` with multiplicities ``mults`` within
        ``_radius`` (``_merge_keys``), order them, drop zero multiplicities
        and keep the rest; returns ``self``.  Rows that arrive ``ordered``
        merge to a subsequence, already in order, so the sort is skipped."""
        keys, mults = _merge_keys(keys, mults, self._radius(keys))
        if not ordered:
            order = _lex_order(keys)
            keys, mults = keys[order], mults[order]
        if not mults.all():
            kept = mults != 0
            keys, mults = keys[kept], mults[kept]
        self._keys, self._mults = keys, mults
        return self

    def _check(self, other):
        if not self._same(other):
            raise self._mismatch()

    def _copy(self):
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        return out

    def __add__(self, other):
        self._check(other)
        return self._copy()._keep(np.concatenate([self._keys, other._keys]),
                                  np.concatenate([self._mults, other._mults]))

    def __neg__(self):
        out = self._copy()
        out._mults = -self._mults
        return out

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        """Equal elements in one context; elements in two contexts differ."""
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._same(other) and not (self - other)._mults.size

    def _degree(self):
        return sum(self._mults.tolist())


def _block_arrays(blocks):
    """``(starts, sizes, means)`` of ``blocks = [(start, stop, mean), ...]``
    as int, int and complex arrays."""
    starts, stops, means = zip(*blocks) if blocks else ((), (), ())
    starts = np.array(starts, dtype=int)
    return starts, np.array(stops, dtype=int) - starts, np.array(means, dtype=complex)


def _clustered_schur(m, tol):
    """Complex Schur form with eigenvalue clusters contiguous on the diagonal.

    Returns ``(t, q, blocks)`` where blocks is a list of (start, stop, mean
    eigenvalue) and ``q t q^H = m``: ``_schur``'s form, clustered by
    ``_cluster_triangular``.
    """
    return _cluster_triangular(*_schur(m), tol)


def _cluster_triangular(t, q, tol):
    """Cluster the eigenvalues of a Schur form ``q t q^H``, ``t`` upper
    triangular, and make each cluster a contiguous diagonal block.

    The clusters are the connected components of the graph |t_ii - t_jj|
    <= eps_spec over the near pairs of the diagonal (``_near_pairs``).
    With no pair, every eigenvalue is its own cluster: ``t``, ``q`` come
    back as they are with the blocks ``(i, i + 1, t_ii / 1)`` (the division
    by 1 sets the signs of zero parts as the means' division does).
    Otherwise the clusters are ordered by first appearance by
    ``_group_blocks`` (nothing moves unless one has members apart), and
    the means are one ``np.add.reduceat`` over the diagonal, which sums a
    cluster of three or more in another order than ``np.mean``; a mean
    whose sum leaves the float range is summed again from its members
    divided by the cluster size.  Returns ``(t, q, blocks)`` as
    ``_clustered_schur``.
    """
    diagonal = t.diagonal()
    n = len(diagonal)
    i, j = _near_pairs(diagonal, tol.eps_spec)
    if not i.size:
        return t, q, list(zip(range(n), range(1, n + 1), (diagonal / 1).tolist()))
    labels = _components(n, i, j)
    t, q, groups = _group_blocks(t, q, [(i, i + 1, 0) for i in range(len(t))], labels)
    starts, stops = np.array([(start, stop) for start, stop, _ in groups]).T
    sizes = stops - starts
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.add.reduceat(t.diagonal(), starts) / sizes
        wide = ~np.isfinite(means)
        if wide.any():
            # a sum past the float range: each member divided by the size first
            means[wide] = np.add.reduceat(t.diagonal() / np.repeat(sizes, sizes), starts)[wide]
    return t, q, list(zip(starts.tolist(), stops.tolist(), means.tolist()))


def spectral(m, tol=None):
    """Cluster the spectrum of a square matrix and block-diagonalize it.

    Eigenvalues joined by a chain of gaps within eps_spec form one cluster,
    and the clusters are grouped by ``_bounded_groups``, so that the pieces
    of a Jordan block that rounding splits are one group; each returned
    cluster is a group, its generalized eigenspace in contiguous columns of
    the similarity ``q v`` for the grouped Schur form ``q t q^H`` and the
    ``v`` of ``_decouple``; the block form is ``t``'s diagonal blocks.  Two
    groups that ztrsyl cannot split raise ``NumericFailure``.
    """
    tol = tol or DEFAULT_TOL
    m = as_square_matrix(m)
    _, t, q, groups, v, _, _ = _bounded_groups(*_clustered_schur(m, tol), tol)
    owner = np.repeat(np.arange(len(groups)), _block_arrays(groups)[1])
    similarity = q @ v
    clusters = tuple(SpectralCluster(lam, stop - start, similarity[:, start:stop])
                     for start, stop, lam in groups)
    return SpectralData(clusters, similarity, np.where(owner[:, None] == owner, t, 0.0),
                        matrix=m.copy(order="K"))


# ---------------------------------------------------------------------------
# matrix functions on the block diagonalized Schur form
# ---------------------------------------------------------------------------

def _atomic_log_series(block, lam):
    """log(block) - log(lam) for a block whose spectrum clusters at lam.

    A 1x1 block is its own mean, so its series is exactly zero."""
    n = block.shape[0]
    if n == 1:
        return np.zeros((1, 1), dtype=complex)
    m = (block - lam * np.eye(n)) / lam
    term = np.eye(n, dtype=complex)
    out = np.zeros((n, n), dtype=complex)
    for k in range(1, 40 + 2 * n):
        term = term @ m
        contrib = ((-1) ** (k + 1) / k) * term
        out += contrib
        if mat_norm(contrib) < _SERIES_STOP * (1.0 + mat_norm(out)):
            return out
    raise NumericFailure("log series of a %d x %d block at %s did not converge"
                         % (n, n, lam))


def _cluster_shifts(t, blocks, transversal, to_strip):
    """One strip shift per cluster of the cluster-ordered triangular ``t``,
    whose ``blocks`` cover it in order: the shift that reduces ``to_strip``
    of the cluster's mean eigenvalue.  ``to_strip`` maps an array of values
    to an array.

    A cluster whose members would individually reduce by other shifts
    (``_straddling``) is flagged with a ``TransversalBranchWarning`` giving
    the boundary distance, clusters in order.  The means and the members of
    clusters of two or more take one ``Transversal.shift`` together; a
    cluster of one is its own mean.  Returns the shifts as ints.
    """
    values = np.array([lam for _, _, lam in blocks], dtype=complex)
    if len(blocks) < len(t):
        # the members of the clusters of two or more, after the means
        _, sizes, _ = _block_arrays(blocks)
        several = sizes > 1
        values = np.concatenate([values, t.diagonal()[np.repeat(several, sizes)]])
    values = to_strip(values)
    shifts = transversal.shift(values)
    own = shifts[:len(blocks)]
    try:
        ints = [int(shift) for shift in own.tolist()]
    except (ValueError, OverflowError):   # a shift of inf or nan
        raise NumericFailure("a cluster mean has no strip shift in the float range")
    if len(blocks) < len(t):
        cluster = np.repeat(np.flatnonzero(several), sizes[several])
        for c, _ in _straddling(shifts[len(blocks):], own[cluster], cluster):
            _warn_straddle(blocks[c][2], ints[c],
                           transversal.boundary_distance(values[c].item()))
    return ints


def _straddling(shifts, expected, group):
    """The groups whose members shift other than their mean: ``(g, i)``
    per such group ``g``, in increasing order, ``i`` its first member whose
    strip shift ``shifts[i]`` is not ``expected[i]``, its group's;
    ``group[i]`` is member i's group."""
    member = np.flatnonzero(shifts != expected)
    groups, first = np.unique(group[member], return_index=True)
    return zip(groups.tolist(), member[first].tolist())


def _warn_straddle(mean, shift, distance):
    """The ``TransversalBranchWarning`` for a cluster at ``mean`` whose
    members would reduce by other shifts than ``shift``, its mean's, at
    ``distance`` from the strip boundary."""
    warnings.warn("cluster at %s straddles a strip boundary; shift forced to %d "
                  "(boundary distance %.3e)" % (mean, shift, distance),
                  TransversalBranchWarning)


def log_transversal(m, transversal, tol=None):
    """Matrix A with ``exp(2*pi*i*A/tau) = m`` and spectrum inside the strip.

    The branch integer is chosen once per group of eigenvalue clusters
    (``_bounded_groups``), so Jordan structure is never torn across a branch
    cut, not even where rounding splits a Jordan block into clusters.  A
    group whose members alone would reduce by other shifts is flagged with a
    ``TransversalBranchWarning``, and two groups that ztrsyl cannot split
    raise ``NumericFailure``.
    """
    f, q = _log_schur(as_square_matrix(m), transversal, tol or DEFAULT_TOL)
    return q @ f @ q.conj().T


def _log_schur(m, transversal, tol, svals=None):
    """``(f, q)`` with ``log_transversal(m) = q f q^H``: ``q`` the Schur
    vectors of ``m`` grouped by ``_bounded_groups``, ``f`` exactly upper
    triangular, a log series per group at its mean joined by ``_decouple``'s
    factors.  ``svals`` are the singular values of ``m`` if the caller has
    them; an empty ``m`` is refused as singular whatever they are."""
    if not m.size:
        svals = np.zeros(1)
    elif svals is None:
        svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] <= tol.eps_res * svals[0]:
        raise ValidationFailure("matrix logarithm requested for a singular matrix")
    _, t, q, groups, v, w, _ = _bounded_groups(*_clustered_schur(m, tol), tol)
    scale = transversal.tau / TWO_PI_I
    logs = [cmath.log(lam) for _, _, lam in groups]   # the means lead the values
    shifts = _cluster_shifts(t, groups, transversal, lambda values: np.array(
        [scale * z for z in logs + [cmath.log(z) for z in values[len(logs):].tolist()]],
        dtype=complex))
    # on each block, scale times the branch of its log lowered by shift turns,
    # plus its log series; blocks of one have none, and take one array op
    logs = [z - TWO_PI_I * shift for z, shift in zip(logs, shifts)]
    if len(groups) == len(t):
        return _block_function(v, w, np.diag(scale * (np.array(logs) + 0.0))), q
    d = np.zeros(t.shape, dtype=complex)
    for (s0, s1, lam), z in zip(groups, logs):
        d[s0:s1, s0:s1] = scale * (z * np.eye(s1 - s0)
                                   + _atomic_log_series(t[s0:s1, s0:s1], lam))
    return _block_function(v, w, d), q


def _group_blocks(t, q, blocks, keys):
    """Reorder the cluster-ordered Schur form ``q t q^H`` so that clusters
    sharing an integer key (a shift, a group of clusters, a rank along the
    strip) sit in one contiguous group, groups in increasing key.

    Keys that already increase along the diagonal need no call: the groups
    are read off in plain Python, and ``t``, ``q`` come back as they are.
    Otherwise LAPACK's ``ztrsen`` moves the selected eigenvalues to the top
    keeping their order, so selecting every group up to the next boundary,
    once per boundary, leaves the groups in place; a level whose selection
    already sits on top is skipped.  The first call copies ``t`` and ``q``,
    which may be read-only memoized forms, and the later ones overwrite that
    copy.  A cluster moves whole, each of its members past the same
    eigenvalues, so no swap is made within a cluster.  The keys of the
    eigenvalues then increase down the diagonal, and one pass over them
    reads off the groups, as ``np.unique(..., return_counts=True)`` would.
    Returns ``(t, q, groups)`` with groups a list of ``(start, stop, key)``.
    """
    if all(a <= b for a, b in zip(keys, keys[1:])):
        groups = []
        for (start, stop, _), key in zip(blocks, keys):
            if groups and groups[-1][2] == key:
                groups[-1] = (groups[-1][0], stop, key)
            else:
                groups.append((start, stop, key))
        return t, q, groups
    member = np.repeat(keys, [s1 - s0 for s0, s1, _ in blocks])
    own = False
    for level in sorted(set(keys))[:-1]:
        select = member <= level
        if select[:np.count_nonzero(select)].all():
            continue
        t, q, _, _, _, _, info = scipy.linalg.lapack.ztrsen(
            select, t, q, job="N", overwrite_t=own, overwrite_q=own)
        if info != 0:
            raise NumericFailure("Schur reordering failed (info %d)" % info)
        own = True
        member = np.concatenate([member[select], member[~select]])
    member, groups, start = member.tolist(), [], 0
    for stop in range(1, len(member) + 1):
        if stop == len(member) or member[stop] != member[start]:
            groups.append((start, stop, member[start]))
            start = stop
    return t, q, groups


def _decouple(t, bounds):
    """Block diagonalize the upper triangular ``t`` on the contiguous
    diagonal blocks ``bounds = [(start, stop, key), ...]`` covering it.

    Returns ``(v, w, unresolved)``, ``w = v^-1``, ``w t v`` block diagonal
    and equal to ``t`` on the blocks, the columns of ``v`` and rows of ``w``
    on block i the factors of its spectral projector.  Row block i of ``w``
    is ``[0, I, -r_i]``, one ztrsyl ``t_ii r_i - r_i t_rest = -t_(i, rest)``
    on ``t`` itself; ``v`` is ``[[I, -w_01], [0, I]]`` for two blocks, else
    ztrtri's inverse.  ``unresolved`` lists the splits ztrsyl found too
    close to resolve (info 1: it perturbs the eigenvalues, and the factors
    get a huge norm).  One block, or none, gives ``v = w = I``.
    """
    n = t.shape[0]
    w, unresolved = np.eye(n, dtype=complex), []
    if len(bounds) < 2:
        return np.eye(n, dtype=complex), w, unresolved
    for i, (start, stop, _) in enumerate(bounds[:-1]):
        y, scale, info = scipy.linalg.lapack.ztrsyl(
            t[start:stop, start:stop], t[stop:, stop:], t[start:stop, stop:], isgn=-1)
        if info < 0:
            raise NumericFailure("Sylvester solve failed (ztrsyl info %d)" % info)
        if info:
            unresolved.append(i)
        w[start:stop, stop:] = y if scale == 1.0 else y / scale
    if len(bounds) == 2:
        v, stop = np.eye(n, dtype=complex), bounds[0][1]
        np.negative(w[:stop, stop:], out=v[:stop, stop:])
        return v, w, unresolved
    v, trtri = scipy.linalg.lapack.ztrtri(w, unitdiag=1)
    if trtri != 0:
        raise NumericFailure("inverting the projector factors failed (ztrtri info %d)"
                             % trtri)
    return v, w, unresolved


# The projectors of the pieces of a Jordan block that rounding splits reach
# 1e8 and more; those of well separated eigenvalues stay near 1.
_PROJECTOR_BOUND = 1e4


def _projector_norms(v, w, groups, bound):
    """The squares of ``|v_g|_F |w_g|_F``, bounds on the norms of the
    projectors ``v_g w_g`` on the ``groups = [(start, ...), ...]``; or None,
    for one ``vdot`` each, when ``|v|_F |w|_F`` is at most ``bound``."""
    if np.vdot(v, v).real * np.vdot(w, w).real <= bound * bound:
        return None
    starts = [g[0] for g in groups]
    return (np.add.reduceat(np.einsum("ij,ij->j", v.conj(), v).real, starts)
            * np.add.reduceat(np.einsum("ij,ij->i", w.conj(), w).real, starts))


def _bounded_groups(t, q, blocks, tol, keys=None):
    """Group the clusters of a clustered Schur form ``(t, q, blocks)``, one
    group per cluster or per integer of ``keys``, until each spectral
    projector has Frobenius norm at most ``_PROJECTOR_BOUND`` (Bavely &
    Stewart, SIAM J. Numer. Anal. 1979): a group above it, or one ztrsyl
    could not split off, joins its nearest cluster, the clusters joined to
    none staying grouped by key, and the groups are made contiguous
    (``_group_blocks``) and split (``_decouple``) again.  A join closes a
    gap of at most P eps_res |t|_F, P the projector norm, as an eps_res
    perturbation of t does to first order, and at most 4 (n u)^(1/n) |t|_F,
    twice the reach of the Schur form's backward error (Elsner, Linear
    Algebra Appl. 1985).  A split ztrsyl could not make and no join mends
    raises ``NumericFailure``.  Returns ``(group, t, q, groups, v, w,
    norms)``: each cluster's group, the grouped form with blocks ``(start,
    stop, mean)``, means weighted by size, ``(v, w)`` over them and
    ``_projector_norms``; without a join, None and the first groups.
    """
    form, groups, group, link = (t, q), blocks, None, None
    if keys is not None:
        t, q, groups = _group_blocks(t, q, blocks, keys)
    while True:
        v, w, unresolved = _decouple(t, groups)
        norms = _projector_norms(v, w, groups, _PROJECTOR_BOUND) if len(groups) > 1 else None
        ill = {} if norms is None else {g: math.sqrt(norms[g]) for g in np.flatnonzero(
            ~(norms <= _PROJECTOR_BOUND ** 2)).tolist()}
        for g in unresolved:   # ztrsyl's info 1: eigenvalues within its rounding
            ill.setdefault(g, 1.0)
        if not ill:
            break
        if link is None:   # set up at the first ill group
            _, sizes, values = _block_arrays(blocks)
            n, scale = len(t), np.linalg.norm(t)
            reach, link = tol.eps_res * scale, []
            radius = 4 * (n * np.finfo(float).eps / 2) ** (1 / n) * scale
            group = key = np.unique(range(len(blocks)) if keys is None else keys,
                                    return_inverse=True)[1]
        linked = len(link)
        for g, norm in ill.items():
            inside, outside = np.flatnonzero(group == g), np.flatnonzero(group != g)
            gaps = np.abs(values[inside, None] - values[outside])
            i, j = np.unravel_index(gaps.argmin(), gaps.shape)
            if gaps[i, j] <= radius and not gaps[i, j] > norm * reach:   # nan: unbounded
                link.append((inside[i], outside[j]))
        if len(link) == linked:   # no join
            if unresolved:
                raise NumericFailure("Sylvester solve failed (ztrsyl info 1)")
            break
        # the clusters linked to none stay grouped by key, each to its key's first
        alone = np.ones(len(blocks), dtype=bool)
        alone[np.ravel(link)] = False
        alone = np.flatnonzero(alone)
        _, first, inverse = np.unique(key[alone], return_index=True, return_inverse=True)
        i, j = np.array(link).T
        group = np.array(_components(len(blocks), np.concatenate([i, alone]),
                                     np.concatenate([j, alone[first][inverse]])))
        t, q, groups = _group_blocks(*form, blocks, group.tolist())
    if group is None or group is key:   # no clusters joined
        return None, t, q, groups, v, w, norms
    start, size, _ = _block_arrays(groups)
    means = np.bincount(group, values.real * sizes) + 1j * np.bincount(group, values.imag * sizes)
    groups = list(zip(start.tolist(), (start + size).tolist(), (means / size).tolist()))
    return group, t, q, groups, v, w, norms


def _block_function(v, w, d):
    """``f(t) = v d w`` for ``d = diag(f(t_ii))``, C-contiguous and block
    diagonal on the blocks of a triangular ``t``, and ``(v, w) =
    _decouple(t, ...)``; the mean of d's diagonal, read and written through
    the strided view ``d.reshape(-1)[::n + 1]``, is added after the
    products, which then round with the spread of the values, not their size.
    """
    n = len(d)
    diagonal = d.reshape(-1)[::n + 1]
    mean = diagonal.sum() / n
    diagonal -= mean
    f = v @ d @ w
    f.reshape(-1)[::n + 1] += mean
    return f


def reduce_to_transversal(a, transversal, tol=None):
    """Shift each eigenvalue cluster of ``a`` by an integer multiple of tau so
    that the full spectrum lands inside the strip.

    Returns ``(a_tilde, shifts)`` where shifts lists ``(cluster eigenvalue,
    integer)``; the exponential ``exp(2*pi*i * . /tau)`` is unchanged.  This
    is ``_fold`` on the clustered Schur form of ``a`` from ``_schur``; ``a``
    comes back copied when no cluster shifts.
    """
    tol = tol or DEFAULT_TOL
    a = as_square_matrix(a)
    f, q, pairs = _fold(*_clustered_schur(a, tol), transversal, tol)
    if not any(shift for _, shift in pairs):
        return a.copy(), pairs
    return q @ f @ q.conj().T, pairs


def _fold(t, q, blocks, transversal, tol):
    """The fold of ``reduce_to_transversal`` on a clustered Schur form
    ``(t, q, blocks)`` of the matrix, whose Schur form the caller may know
    without a Schur iteration.

    Returns ``(f, q, shifts)``: the folded matrix is ``q f q^H``, ``q``
    the Schur vectors reordered by shift, and shifts as
    ``reduce_to_transversal`` lists them; ``(t, q)`` come back as they are
    when no cluster shifts.  The fold is a constant shift on each group of
    ``_shift_groups``, and a function of the block diagonalized ``t = v
    diag(t_gg) w`` is fixed by its values on the blocks (Higham, *Functions
    of Matrices*, SIAM 2008, ch. 1), so it is one projector update, ``f = t
    - tau v K w`` with ``K`` the shifts of the columns that move: exactly
    upper triangular, as ``t``, ``v``, ``w`` are.
    """
    t, q, groups, v, w, pairs = _shift_groups(t, q, blocks, transversal, tol)
    if not groups:
        return t, q, pairs
    k = np.repeat([shift for _, _, shift in groups], [g1 - g0 for g0, g1, _ in groups])
    moved = k != 0
    return t - (v[:, moved] * (transversal.tau * k[moved])) @ w[moved], q, pairs


def _shift_groups(t, q, blocks, transversal, tol):
    """The groups of clusters that the fold moves by one shift each: the
    clusters sharing a shift, joined by ``_bounded_groups``.  Where clusters
    join, each group folds whole by the shift of its mean, one joined across
    shifts (a Jordan block that rounding spreads over the strip edge) with a
    ``TransversalBranchWarning``.  Returns ``(t, q, groups, v, w, pairs)``:
    the Schur form with each group a contiguous block ``(start, stop,
    shift)``, ``(v, w)`` from ``_decouple`` over them, and pairs ``(cluster
    eigenvalue, shift)``; ``(t, q)``, no groups and ``v = w = None`` when no
    cluster shifts.  Raises ``NumericFailure`` when ztrsyl cannot split two
    groups, and when a projector no join mends tops eps_res over u.
    """
    shifts = _cluster_shifts(t, blocks, transversal, lambda values: values)
    if any(shifts):
        group, t, q, groups, v, w, norms = _bounded_groups(t, q, blocks, tol, shifts)
        limit = tol.eps_res / (np.finfo(float).eps / 2)
        if norms is not None and not norms.max() <= limit * limit:
            raise NumericFailure("projector norm %.1e: shift groups too close"
                                 % math.sqrt(norms.max()))
        if group is not None:   # each group folds by the shift of its mean
            shifts = _cluster_shifts(t, groups, transversal, lambda values: values)
            groups = [(start, stop, s) for (start, stop, _), s in zip(groups, shifts)]
            shifts = [shifts[g] for g in group.tolist()]
    else:
        groups, v, w = [], None, None
    return t, q, groups, v, w, [(lam, s) for (_, _, lam), s in zip(blocks, shifts)]
