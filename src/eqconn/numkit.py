"""Dense complex-matrix numerics and lattice-strip utilities.

Everything downstream works with square complex matrices at desk scale
(dimensions up to a dozen or so), double precision throughout.  This module
supplies the primitives the rest of the package leans on:

* ``Transversal`` -- a half-open strip ``{z : a <= Re(z/tau) < a+1}`` carrying
  exactly one representative of each coset of ``tau*Z`` in the complex plane,
  plus reduction into it;
* clustered spectral data (Schur form, greedy eigenvalue clustering, block
  diagonalization);
* Sylvester solves, the matrix exponential, and a matrix logarithm whose
  branch is chosen per eigenvalue cluster so that the result's spectrum lands
  inside a prescribed transversal;
* the real-width function on moduli and the explicit translate-then-invert
  Moebius move that makes the width smaller than one.

Matrix functions are evaluated by triangularization plus a block recurrence,
never by diagonalization, so non-diagonalizable inputs are handled exactly as
well as generic ones.  All values are immutable after construction and all
functions are pure.
"""

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class Transversal:
    """The strip ``{z : offset <= Re(z/tau) < offset + 1}``.

    For every complex ``lam`` there is exactly one integer ``k`` with
    ``lam - k*tau`` inside the strip; the strip is half open on the right.
    Any nonzero ``tau`` is accepted.
    """

    tau: complex
    offset: float = 0.0

    def __post_init__(self):
        if self.tau == 0:
            raise ValidationFailure("transversal modulus tau must be nonzero")

    def position(self, z):
        """Strip coordinate Re(z/tau) - offset; inside means [0, 1)."""
        return (z / self.tau).real - self.offset

    def reduce(self, lam):
        """Return ``(representative, shift)`` with ``representative = lam - shift*tau``
        inside the strip.

        Positions within float dust of an integer are snapped before taking
        the floor, so values landing exactly on the half-open right edge fold
        deterministically to the left edge.
        """
        pos = self.position(lam)
        nearest = round(pos)
        if abs(pos - nearest) < 1e-12 * max(1.0, abs(pos)):
            shift = int(nearest)
        else:
            shift = math.floor(pos)
        return lam - shift * self.tau, shift

    def contains(self, z, margin=0.0):
        t = self.position(z)
        return -margin <= t < 1.0 + margin

    def boundary_distance(self, z):
        """Distance of the strip coordinate to the nearest boundary {0, 1}."""
        t = self.position(z) % 1.0
        return min(t, 1.0 - t)


def reduce_mod_transversal(lam, transversal):
    """Reduce a scalar modulo ``tau*Z`` into the strip; total function."""
    return transversal.reduce(lam)


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
    """Coerce to a finite square complex ndarray."""
    arr = np.atleast_2d(np.asarray(m, dtype=complex))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationFailure("%s must be square, got shape %s" % (name, arr.shape))
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValidationFailure("%s contains non-finite entries" % name)
    return arr


def mat_norm(m):
    """Spectral norm, with the convention that the empty matrix has norm 0."""
    arr = np.asarray(m)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.norm(arr, 2))


def mat_exp(m):
    """Matrix exponential of a square complex matrix."""
    return scipy.linalg.expm(as_square_matrix(m))


def nullspace(m, tol=None):
    """Orthonormal basis of the kernel, rank decided by a relative
    singular-value threshold."""
    tol = tol or DEFAULT_TOL
    arr = np.atleast_2d(np.asarray(m, dtype=complex))
    if arr.size == 0:
        return np.eye(arr.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(arr)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.eye(arr.shape[1], dtype=complex)
    rank = int(np.sum(s > tol.eps_res * smax))
    return vh[rank:].conj().T


def solve_sylvester(a, b, c, tol=None):
    """Solve ``A X - X B = C`` for spectra separated beyond eps_spec.

    Raises ``SpectrumCollision`` naming the offending eigenvalue pair when
    the spectra of A and B overlap within the clustering tolerance.
    """
    tol = tol or DEFAULT_TOL
    a = as_square_matrix(a, "A")
    b = as_square_matrix(b, "B")
    c = np.atleast_2d(np.asarray(c, dtype=complex))
    if c.shape != (a.shape[0], b.shape[0]):
        raise ValidationFailure(
            "C must be %d x %d, got %s" % (a.shape[0], b.shape[0], c.shape)
        )
    eig_a = np.linalg.eigvals(a)
    eig_b = np.linalg.eigvals(b)
    gaps = np.abs(eig_a[:, None] - eig_b[None, :])
    i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[i, j] <= tol.eps_spec:
        raise SpectrumCollision(eig_a[i], eig_b[j], float(gaps[i, j]))
    return scipy.linalg.solve_sylvester(a, -b, c)


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
    with one diagonal block per eigenvalue cluster."""

    clusters: tuple
    similarity: np.ndarray
    block_form: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.similarity.shape[0]

    def eigenvalues(self):
        return [c.eigenvalue for c in self.clusters]


def _cluster_indices(values, radius):
    """Connected components of the proximity graph |v_i - v_j| <= radius,
    labelled in order of first appearance."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    labels, seen = [], {}
    for i in range(n):
        r = find(i)
        if r not in seen:
            seen[r] = len(seen)
        labels.append(seen[r])
    return labels


def _swap_adjacent(t, q, i):
    """Unitary similarity swapping diagonal entries i, i+1 of triangular t."""
    a, b, d = t[i, i], t[i, i + 1], t[i + 1, i + 1]
    v = np.array([b, d - a], dtype=complex)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return
    u = v / nv
    g = np.array([[u[0], -np.conj(u[1])], [u[1], np.conj(u[0])]], dtype=complex)
    t[i:i + 2, :] = g.conj().T @ t[i:i + 2, :]
    t[:, i:i + 2] = t[:, i:i + 2] @ g
    q[:, i:i + 2] = q[:, i:i + 2] @ g
    t[i + 1, i] = 0.0
    t[i, i], t[i + 1, i + 1] = d, a


def _clustered_schur(m, tol):
    """Complex Schur form with eigenvalue clusters contiguous on the diagonal.

    Returns ``(t, q, blocks)`` where blocks is a list of (start, stop, mean
    eigenvalue) and ``q t q^H = m``.
    """
    try:
        t, q = scipy.linalg.schur(m, output="complex")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - QR rarely fails
        raise NumericFailure("Schur iteration failed to converge: %s" % exc)
    n = m.shape[0]
    labels = _cluster_indices(list(np.diag(t)), tol.eps_spec)
    # selection sort on cluster labels, realized through adjacent swaps so
    # that the triangular form is maintained exactly
    for pos in range(n):
        best = min(range(pos, n), key=lambda idx: (labels[idx], idx))
        for j in range(best, pos, -1):
            _swap_adjacent(t, q, j - 1)
            labels[j - 1], labels[j] = labels[j], labels[j - 1]
    blocks, start = [], 0
    while start < n:
        stop = start
        while stop < n and labels[stop] == labels[start]:
            stop += 1
        blocks.append((start, stop, complex(np.mean(np.diag(t)[start:stop]))))
        start = stop
    return t, q, blocks


def spectral(m, tol=None):
    """Cluster the spectrum of a square matrix and block-diagonalize it.

    Eigenvalues within eps_spec of each other are merged greedily into one
    cluster; the returned similarity carries each cluster's generalized
    eigenspace in contiguous columns.
    """
    tol = tol or DEFAULT_TOL
    m = as_square_matrix(m)
    t, q, blocks = _clustered_schur(m, tol)
    n = m.shape[0]
    # Peel off the coupling between distinct clusters with Sylvester solves;
    # the result of the accumulated (non-unitary) similarity is block diagonal.
    r_total = np.eye(n, dtype=complex)
    t = t.copy()
    for jb in range(1, len(blocks)):
        j0, j1, _ = blocks[jb]
        for ib in range(jb - 1, -1, -1):
            i0, i1, _ = blocks[ib]
            x = scipy.linalg.solve_sylvester(t[i0:i1, i0:i1], -t[j0:j1, j0:j1],
                                             -t[i0:i1, j0:j1])
            r = np.eye(n, dtype=complex)
            r[i0:i1, j0:j1] = x
            rinv = np.eye(n, dtype=complex)
            rinv[i0:i1, j0:j1] = -x
            t = rinv @ t @ r
            t[i0:i1, j0:j1] = 0.0
            r_total = r_total @ r
    similarity = q @ r_total
    clusters = []
    norm_m = mat_norm(m)
    residuals = []
    for (start, stop, lam) in blocks:
        basis = similarity[:, start:stop]
        block = t[start:stop, start:stop]
        res = mat_norm(m @ basis - basis @ block)
        residuals.append(res / norm_m if norm_m else res)
        clusters.append(SpectralCluster(lam, stop - start, basis))
    diag = {
        "subspace_residuals": residuals,
        "reassembly_residual": _reassembly_residual(m, similarity, t),
    }
    return SpectralData(tuple(clusters), similarity, t, diag)


def _reassembly_residual(m, s, block):
    rebuilt = s @ block @ np.linalg.inv(s)
    norm_m = mat_norm(m)
    res = mat_norm(rebuilt - m)
    return res / norm_m if norm_m else res


# ---------------------------------------------------------------------------
# matrix functions through the block recurrence
# ---------------------------------------------------------------------------

def _atomic_log_series(block, lam):
    """log(block) - log(lam) for a block whose spectrum clusters at lam."""
    n = block.shape[0]
    m = (block - lam * np.eye(n)) / lam
    term = np.eye(n, dtype=complex)
    out = np.zeros((n, n), dtype=complex)
    for k in range(1, 40 + 2 * n):
        term = term @ m
        contrib = ((-1) ** (k + 1) / k) * term
        out += contrib
        if mat_norm(contrib) < 1e-18 * (1.0 + mat_norm(out)):
            break
    return out


def _cluster_shifts(t, blocks, transversal, to_strip):
    """One strip shift per cluster of the cluster-ordered triangular ``t``:
    the shift that reduces ``to_strip`` of the cluster's mean eigenvalue.

    A cluster whose members would individually reduce by other shifts is
    flagged with a ``TransversalBranchWarning`` giving the boundary distance.
    """
    shifts = []
    for (s0, s1, lam) in blocks:
        _, shift = transversal.reduce(to_strip(lam))
        shifts.append(shift)
        if any(transversal.reduce(to_strip(member))[1] != shift
               for member in np.diag(t)[s0:s1]):
            warnings.warn(
                "cluster at %s straddles a strip boundary; shift forced to %d "
                "(boundary distance %.3e)"
                % (lam, shift, transversal.boundary_distance(to_strip(lam))),
                TransversalBranchWarning,
            )
    return shifts


def log_transversal(m, transversal, tol=None):
    """Matrix A with ``exp(2*pi*i*A/tau) = m`` and spectrum inside the strip.

    The branch integer is chosen once per eigenvalue cluster, so Jordan
    structure is never torn across a branch cut.  Eigenvalue clusters whose
    members would individually reduce to different strip representatives are
    flagged with a ``TransversalBranchWarning`` carrying a condition estimate.
    """
    tol = tol or DEFAULT_TOL
    m = as_square_matrix(m)
    tau = transversal.tau
    smin = float(np.linalg.svd(m, compute_uv=False)[-1]) if m.size else 0.0
    if smin <= tol.eps_res * mat_norm(m):
        raise ValidationFailure("matrix logarithm requested for a singular matrix")
    t, q, blocks = _clustered_schur(m, tol)
    scale = tau / TWO_PI_I
    shifts = _cluster_shifts(t, blocks, transversal, lambda z: scale * cmath.log(z))
    diagonal = [_log_atomic(t[s0:s1, s0:s1], lam, shift, scale)
                for (s0, s1, lam), shift in zip(blocks, shifts)]
    f = _funm_with_block_atomics(t, blocks, diagonal)
    return q @ f @ q.conj().T


def _log_atomic(block, lam, shift, scale):
    """``scale`` times the branch of log(block) lowered by ``shift`` turns."""
    w = cmath.log(lam) - TWO_PI_I * shift
    return scale * (w * np.eye(block.shape[0]) + _atomic_log_series(block, lam))


def _funm_with_block_atomics(t, blocks, diagonal):
    """Block Parlett recurrence on a cluster-ordered triangular matrix.

    ``diagonal`` holds the function's value on each diagonal block;
    off-diagonal blocks follow from Sylvester solves, which are well posed
    because distinct clusters are separated.
    """
    n = t.shape[0]
    f = np.zeros((n, n), dtype=complex)
    for (s0, s1, _), block in zip(blocks, diagonal):
        f[s0:s1, s0:s1] = block
    nb = len(blocks)
    for gap in range(1, nb):
        for ib in range(nb - gap):
            jb = ib + gap
            i0, i1, _ = blocks[ib]
            j0, j1, _ = blocks[jb]
            rhs = f[i0:i1, i0:i1] @ t[i0:i1, j0:j1] - t[i0:i1, j0:j1] @ f[j0:j1, j0:j1]
            for kb in range(ib + 1, jb):
                k0, k1, _ = blocks[kb]
                rhs += f[i0:i1, k0:k1] @ t[k0:k1, j0:j1]
                rhs -= t[i0:i1, k0:k1] @ f[k0:k1, j0:j1]
            f[i0:i1, j0:j1] = scipy.linalg.solve_sylvester(
                t[i0:i1, i0:i1], -t[j0:j1, j0:j1], rhs)
    return f


def reduce_to_transversal(a, transversal, tol=None):
    """Shift each eigenvalue cluster of ``a`` by an integer multiple of tau so
    that the full spectrum lands inside the strip.

    Returns ``(a_tilde, shifts)`` where shifts lists ``(cluster eigenvalue,
    integer)``; the exponential ``exp(2*pi*i * . /tau)`` is unchanged.
    """
    tol = tol or DEFAULT_TOL
    a = as_square_matrix(a)
    t, q, blocks = _clustered_schur(a, tol)
    shifts = _cluster_shifts(t, blocks, transversal, lambda z: z)
    pairs = [(lam, shift) for (_, _, lam), shift in zip(blocks, shifts)]
    if all(s == 0 for s in shifts):
        return a.copy(), pairs
    diagonal = [t[s0:s1, s0:s1] - (shift * transversal.tau) * np.eye(s1 - s0)
                for (s0, s1, _), shift in zip(blocks, shifts)]
    f = _funm_with_block_atomics(t, blocks, diagonal)
    return q @ f @ q.conj().T, pairs
