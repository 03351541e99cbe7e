"""Matrix-valued Laurent polynomials in z and the gauge calculus on them.

The coefficient ring is square complex matrices of a fixed dimension; every
value also carries the pair ``(tau, q)``: ``tau`` scales the derivation
``delta = tau * z * d/dz`` and ``q`` (a unimodular number) drives the dilation
``z -> q z``.  Values are kept in canonical sparse form, meaning exact-zero
coefficient matrices are never stored.

A gauge P sends A to ``P^-1 A P + P^-1 delta(P)`` and B to ``P^-1 B P``, and
one body does both.  Constant and diagonal monomial gauges are exact, the
latter an array shift of entries; series gauges go through a truncated
inverse and record the first discarded order in ``diagnostics``.  Products
sum in ``terms`` order and normalization residuals sit near their limits, so
the shift inserts output powers in the order a row-major pass reaches them.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import RegularityViolation, ValidationFailure
from .numkit import DEFAULT_TOL

_PARAM_TOL = 1e-12


def _clean_terms(dim, terms):
    out = {}
    for k, coeff in terms.items():
        arr = np.asarray(coeff, dtype=complex)
        if arr.shape != (dim, dim):
            raise ValidationFailure(
                "coefficient at power %d has shape %s, expected (%d, %d)"
                % (k, arr.shape, dim, dim)
            )
        if np.any(arr):
            out[int(k)] = arr
    return out


class PolyMat:
    """A finitely supported map ``power -> coefficient matrix``."""

    __slots__ = ("dim", "terms", "tau", "q", "diagnostics")

    def __init__(self, dim, terms, tau, q, diagnostics=None):
        if dim < 1:
            raise ValidationFailure("dimension must be positive")
        if abs(abs(q) - 1.0) > _PARAM_TOL:
            raise ValidationFailure("dilation parameter q must be unimodular")
        self.dim = int(dim)
        self.terms = _clean_terms(self.dim, terms)
        self.tau = complex(tau)
        self.q = complex(q)
        self.diagnostics = dict(diagnostics or {})

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim, tau, q):
        return cls(dim, {}, tau, q)

    @classmethod
    def constant(cls, mat, tau, q):
        mat = np.atleast_2d(np.asarray(mat, dtype=complex))
        return cls(mat.shape[0], {0: mat}, tau, q)

    @classmethod
    def identity(cls, dim, tau, q):
        return cls(dim, {0: np.eye(dim, dtype=complex)}, tau, q)

    @classmethod
    def monomial_diag(cls, exponents, tau, q):
        """diag(z**k_1, ..., z**k_n)."""
        exponents = np.array(exponents, dtype=int)
        return cls(len(exponents), {k: np.diag((exponents == k).astype(complex))
                                    for k in exponents.tolist()}, tau, q)

    # -- views ---------------------------------------------------------------

    def powers(self):
        return sorted(self.terms)

    def term(self, k):
        coeff = self.terms.get(int(k))
        if coeff is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return coeff.copy()

    @property
    def min_power(self):
        return min(self.terms) if self.terms else 0

    @property
    def max_power(self):
        return max(self.terms) if self.terms else 0

    def is_constant(self):
        return set(self.terms) <= {0}

    def is_zero(self):
        return not self.terms

    def norm(self):
        """Largest coefficient Frobenius norm."""
        if not self.terms:
            return 0.0
        return max(float(np.linalg.norm(c)) for c in self.terms.values())

    def copy(self):
        return PolyMat(self.dim, {k: c.copy() for k, c in self.terms.items()},
                       self.tau, self.q)

    def __repr__(self):
        return "PolyMat(dim=%d, powers=%s)" % (self.dim, self.powers())

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other):
        if self.dim != other.dim:
            raise ValidationFailure("dimension mismatch: %d vs %d"
                                    % (self.dim, other.dim))
        if abs(self.tau - other.tau) > _PARAM_TOL or abs(self.q - other.q) > _PARAM_TOL:
            raise ValidationFailure("parameter (tau, q) mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        terms = {k: c.copy() for k, c in self.terms.items()}
        for k, c in other.terms.items():
            terms[k] = terms[k] + c if k in terms else c.copy()
        return PolyMat(self.dim, terms, self.tau, self.q)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyMat(self.dim, {k: -c for k, c in self.terms.items()},
                       self.tau, self.q)

    def __mul__(self, other):
        if isinstance(other, PolyMat):
            self._check_compatible(other)
            terms = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    k = k1 + k2
                    prod = c1 @ c2
                    terms[k] = terms[k] + prod if k in terms else prod
            return PolyMat(self.dim, terms, self.tau, self.q)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar):
        scalar = complex(scalar)
        return PolyMat(self.dim, {k: scalar * c for k, c in self.terms.items()},
                       self.tau, self.q)

    def distance(self, other):
        return (self - other).norm()

    # -- calculus --------------------------------------------------------------

    def delta(self):
        """Apply the derivation tau * z * d/dz (power k scales by tau*k)."""
        return PolyMat(self.dim,
                       {k: (self.tau * k) * c for k, c in self.terms.items()},
                       self.tau, self.q)

    def dilate(self):
        """Substitute z -> q z (power k scales by q**k)."""
        return PolyMat(self.dim,
                       {k: (self.q ** k) * c for k, c in self.terms.items()},
                       self.tau, self.q)

    def truncate(self, hi, lo=None):
        """Keep powers k with lo <= k <= hi (lo unbounded when omitted)."""
        kept = {k: c for k, c in self.terms.items()
                if k <= hi and (lo is None or k >= lo)}
        return PolyMat(self.dim, kept, self.tau, self.q)


def truncated_inverse(f, order):
    """Series inverse of ``f`` through power ``order``.

    Requires the lowest-order term to sit at power 0 and be invertible;
    the result g satisfies ``f * g = I`` up to and including power ``order``.
    """
    if f.is_zero() or f.min_power < 0:
        raise ValidationFailure("series inverse needs lowest power at 0")
    c0 = f.term(0)
    if abs(np.linalg.det(c0)) == 0.0:
        raise ValidationFailure("constant term is singular; no series inverse")
    c0_inv = np.linalg.inv(c0)
    coeffs = {0: c0_inv}
    for k in range(1, order + 1):
        acc = np.zeros((f.dim, f.dim), dtype=complex)
        for j in range(1, k + 1):
            fj = f.terms.get(j)
            if fj is not None and (k - j) in coeffs:
                acc += fj @ coeffs[k - j]
        coeffs[k] = -c0_inv @ acc
    return PolyMat(f.dim, coeffs, f.tau, f.q)


# ---------------------------------------------------------------------------
# gauge transformations
# ---------------------------------------------------------------------------

def _monomial_gauge(p):
    """Return ``(exponents, values)`` as arrays when p is diagonal with one
    monomial per diagonal slot, else None."""
    stack = np.array(list(p.terms.values()))
    diags = np.diagonal(stack, axis1=1, axis2=2)
    if np.any(stack - diags[:, :, None] * np.eye(p.dim)):
        return None
    hits = diags != 0
    if np.any(hits.sum(axis=0) != 1):
        return None
    slot = hits.argmax(axis=0)
    return np.fromiter(p.terms, dtype=int)[slot], diags[slot, np.arange(p.dim)]


def _shift(a, exps, vals):
    """Entrywise map ``A_ij(z) -> (A_ij(z) * v_j / v_i) * z**(e_j - e_i)``,
    inserting output powers in the order a pass over the input powers,
    row-major over nonzero entries, first reaches them."""
    stack = np.array(list(a.terms.values()), dtype=complex).reshape(-1, a.dim, a.dim)
    ks, rows, cols = np.nonzero(stack)
    powers = np.fromiter(a.terms, dtype=int)[ks] + exps[cols] - exps[rows]
    found, first, slot = np.unique(powers, return_index=True, return_inverse=True)
    v, r = stack[ks, rows, cols], vals[cols]
    # formed part by part, as a scalar complex product is: numpy's vectorised
    # complex product may round differently
    moved = np.empty_like(v)
    moved.real = v.real * r.real - v.imag * r.imag
    moved.imag = v.real * r.imag + v.imag * r.real
    out = np.zeros((len(found), a.dim, a.dim), dtype=complex)
    out[slot, rows, cols] += moved / vals[rows]   # onto zeros: a -0.0 part ends +0.0
    return PolyMat(a.dim, {int(found[t]): out[t] for t in np.argsort(first)},
                   a.tau, a.q)


def _transport(a, p, order, drift):
    """``P^-1 A P``, plus ``P^-1 delta(P)`` when ``drift`` is set."""
    if a.dim != p.dim:
        raise ValidationFailure("gauge dimension mismatch")
    if p.is_constant():
        c = p.term(0)
        if abs(np.linalg.det(c)) == 0.0:
            raise ValidationFailure("constant gauge is singular")
        c_inv = np.linalg.inv(c)
        return PolyMat(a.dim, {k: c_inv @ coeff @ c for k, coeff in a.terms.items()},
                       a.tau, a.q)
    mono = _monomial_gauge(p)
    if mono is not None:
        exps, vals = mono
        out = _shift(a, exps, vals)
        if drift:
            out = out + PolyMat.constant(np.diag([a.tau * e for e in exps.tolist()]),
                                         a.tau, a.q)
        return out
    if order is None:
        raise ValidationFailure("series gauge needs an explicit truncation order")
    p_inv = truncated_inverse(p, order)
    full = p_inv * (a * p)
    if drift:
        full = full + p_inv * p.delta()
    result = full.truncate(order)
    tail = full.terms.get(order + 1)
    result.diagnostics["truncation_residual"] = (
        float(np.linalg.norm(tail)) if tail is not None else 0.0)
    return result


def gauge_transform(a, p, order=None):
    """Connection-matrix transport ``P^-1 A P + P^-1 delta(P)``; a series
    gauge needs a truncation ``order`` and the result is cut there."""
    return _transport(a, p, order, drift=True)


def dilation_transform(b, p, order=None):
    """Dilation-matrix transport ``P^-1 B P``: no derivation drift, so monomial
    shears leave the dilation data of one-dimensional objects untouched and
    strip-shifted presentations of one object carry literally equal labels."""
    return _transport(b, p, order, drift=False)


# ---------------------------------------------------------------------------
# shearing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShearStep:
    """One recorded shear: a constant similarity followed by diag(z**k_i)."""

    similarity: np.ndarray
    exponents: tuple


@dataclass(frozen=True)
class GaugeRecord:
    """The full gauge produced by normalization: shears applied in order,
    then a unit-constant-term series gauge truncated at ``truncation``."""

    shears: tuple
    series: PolyMat
    truncation: int


def shear(a, sdata, cluster_shifts, tol=None):
    """Move each eigenvalue cluster of the constant term by ``shift * tau``.

    ``sdata`` is the clustered spectral data of the constant term of ``a``;
    ``cluster_shifts`` holds one integer per cluster.  The input is
    conjugated by the cluster similarity and then gauged by the diagonal
    monomial with exponent ``shift_j`` on cluster j's columns.  Raises
    ``RegularityViolation`` when a genuinely nonzero coefficient would land
    at a negative power.
    """
    tol = tol or DEFAULT_TOL
    if len(cluster_shifts) != len(sdata.clusters):
        raise ValidationFailure("need exactly one shift per cluster")
    exponents = []
    for c, shift in zip(sdata.clusters, cluster_shifts):
        exponents.extend([int(shift)] * c.multiplicity)
    if all(e == 0 for e in exponents):
        # record a no-op so replaying the step leaves inputs untouched
        return a.copy(), ShearStep(np.eye(a.dim, dtype=complex), tuple(exponents))
    step = ShearStep(sdata.similarity.copy(), tuple(exponents))
    sheared = apply_shear(a, step, tol=tol)
    return sheared, step


def apply_shear(a, step, tol=None):
    """Apply a recorded shear to a connection matrix (checked for regularity)."""
    tol = tol or DEFAULT_TOL
    conj = gauge_transform(a, PolyMat.constant(step.similarity, a.tau, a.q))
    out = gauge_transform(conj, PolyMat.monomial_diag(step.exponents, a.tau, a.q))
    return _checked_regular(out, tol, scale=a.norm())


def apply_shear_dilation(b, step, tol=None):
    """Apply a recorded shear to a dilation matrix (no regularity demanded)."""
    conj = dilation_transform(b, PolyMat.constant(step.similarity, b.tau, b.q))
    return dilation_transform(conj, PolyMat.monomial_diag(step.exponents, b.tau, b.q))


def invert_shear(a, step):
    """Undo a shear on a connection matrix: gauge by diag(z**-k) then S^-1."""
    out = gauge_transform(a, PolyMat.monomial_diag([-e for e in step.exponents],
                                                   a.tau, a.q))
    return gauge_transform(out, PolyMat.constant(np.linalg.inv(step.similarity),
                                                 a.tau, a.q))


def _checked_regular(a, tol, scale):
    threshold = tol.eps_res * (scale + 1.0)
    kept = {}
    for k, coeff in a.terms.items():
        if k < 0:
            size = float(np.linalg.norm(coeff))
            if size > threshold:
                raise RegularityViolation(
                    "shear would create a pole: coefficient of z**%d has "
                    "norm %.3e" % (k, size))
            continue
        kept[k] = coeff
    return PolyMat(a.dim, kept, a.tau, a.q)


def apply_gauge_record(a, b, record, tol=None):
    """Replay a normalization gauge on a connection/dilation pair."""
    tol = tol or DEFAULT_TOL
    for step in record.shears:
        a = apply_shear(a, step, tol=tol)
        b = apply_shear_dilation(b, step, tol=tol)
    if record.series is not None and not record.series.is_constant():
        a = gauge_transform(a, record.series, record.truncation)
        b = dilation_transform(b, record.series, record.truncation)
    return a, b
