"""Matrix-valued Laurent polynomials in z and the gauge calculus on them.

The coefficient ring is square complex matrices of a fixed dimension; every
value also carries the pair ``(tau, q)``: ``tau`` scales the derivation
``delta = tau * z * d/dz`` and ``q`` (a unimodular number) drives the dilation
``z -> q z``.  Values are kept in canonical sparse form: exact-zero
coefficient matrices are never stored, and the powers are kept in ascending
order.

Arithmetic runs on ``(K, n, n)`` stacks of coefficients: a product makes one
stacked matmul per left-hand power, a conjugation covers the whole stack at
once, a recurrence makes one stacked sum per order, and every result goes
through one internal constructor that drops exact-zero coefficients with a
single ``np.any`` over its stack (the public constructor checks each
coefficient of user input).

A gauge P sends A to ``P^-1 A P + P^-1 delta(P)`` and B to ``P^-1 B P``, and
one body does both.  A constant gauge C and a diagonal monomial gauge
``diag(v_i z**e_i)`` are exact and take the path of a recorded shear,
``ShearStep(C, zeros)`` and ``ShearStep(diag(v), e)``: one conjugation of
the stack and one array shift by the exponents.  Series gauges go through a
truncated inverse and record the first discarded order in ``diagnostics``;
a series transport cut at ``order`` forms only the powers up to ``order +
1``, cutting A there and taking both products within that window.  A
similarity (a constant gauge, the values of a monomial, a step's or a series
lead term) whose 1-norm reciprocal condition number is below machine epsilon
is refused as singular.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import RegularityViolation, ValidationFailure
from .numkit import DEFAULT_TOL

_PARAM_TOL = 1e-12
_MACHINE_EPS = np.finfo(float).eps


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
    return dict(sorted(out.items()))


def _checked_inverse(c, what):
    """Inverse of ``c``, refused when the 1-norm reciprocal condition number
    it gives is below machine epsilon."""
    try:
        c_inv = np.linalg.inv(c)
    except np.linalg.LinAlgError:
        c_inv = None
    rcond = (0.0 if c_inv is None
             else 1.0 / (np.linalg.norm(c, 1) * np.linalg.norm(c_inv, 1)))
    if not rcond >= _MACHINE_EPS:
        raise ValidationFailure("%s is singular to working precision "
                                "(reciprocal condition number %.1e)" % (what, rcond))
    return c_inv


class PolyMat:
    """A finitely supported map ``power -> coefficient matrix``: ``terms``
    holds the nonzero coefficients with their powers in ascending order."""

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

    # -- stacks: the (K, dim, dim) arrays the arithmetic runs on --------------

    def _derive(self, powers, stack):
        """A value built by this one's arithmetic: ``stack[i]`` is the
        coefficient of ``powers[i]``, which ascend.  Exact-zero slices are
        dropped; nothing else is checked."""
        out = PolyMat.__new__(PolyMat)
        out.dim, out.tau, out.q, out.diagnostics = self.dim, self.tau, self.q, {}
        kept = np.any(stack, axis=(1, 2)).tolist()
        out.terms = {int(k): c for k, c, keep in zip(powers, stack, kept) if keep}
        return out

    def _stack(self, powers=None):
        """The coefficients of ``powers`` (by default all, in ``terms`` order)
        as one ``(K, dim, dim)`` array."""
        coeffs = self.terms.values() if powers is None else [self.terms[k] for k in powers]
        return np.array(list(coeffs), dtype=complex).reshape(-1, self.dim, self.dim)

    def _dense(self, lo, hi):
        """The coefficients of the powers ``lo..hi`` as one ``(hi - lo + 1,
        dim, dim)`` array, zero where no term is stored."""
        out = np.zeros((max(hi - lo + 1, 0), self.dim, self.dim), dtype=complex)
        for k, c in self.terms.items():
            if lo <= k <= hi:
                out[k - lo] = c
        return out

    def _summed(self, powers, blocks):
        """Sum stacks of contributions into one value: ``blocks[r]`` is a
        ``(len(powers[r]), n, n)`` stack adding to the powers ``powers[r]``,
        which are distinct within a row."""
        flat = np.concatenate(powers) if powers else np.zeros(0, dtype=int)
        found, slot = np.unique(flat, return_inverse=True)
        out = np.zeros((len(found), self.dim, self.dim), dtype=complex)
        stop = 0
        for row, block in zip(powers, blocks):
            start, stop = stop, stop + len(row)
            out[slot[start:stop]] += block
        return self._derive(found, out)

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

    def norm(self, hi=None):
        """Largest coefficient Frobenius norm, among the powers up to ``hi``
        when it is given."""
        stack = self._stack(None if hi is None else [k for k in self.terms if k <= hi])
        return float(np.linalg.norm(stack, axis=(1, 2)).max(initial=0.0))

    def copy(self):
        return self._derive(list(self.terms), self._stack())

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
        return self._summed([np.fromiter(self.terms, dtype=int),
                             np.fromiter(other.terms, dtype=int)],
                            [self._stack(), other._stack()])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._derive(list(self.terms), -self._stack())

    def __mul__(self, other):
        if not isinstance(other, PolyMat):
            return self.scale(other)
        return self._product(other)

    def _product(self, other, lo=None, hi=None):
        """``self * other``; given ``lo`` and ``hi``, only its powers k with
        ``lo <= k <= hi``, and only the products that land there are formed.
        Each power sums the same products in the same order either way."""
        self._check_compatible(other)
        # one row of products per left-hand power: the full (Ka, Kb, n, n)
        # stack of products is never held at once
        right_powers = np.fromiter(other.terms, dtype=int)
        right = other._stack()
        if lo is None:
            return self._summed([k + right_powers for k in self.terms],
                                (c @ right for c in self.terms.values()))
        inside = [(lo <= k + right_powers) & (k + right_powers <= hi) for k in self.terms]
        return self._summed([k + right_powers[keep] for k, keep in zip(self.terms, inside)],
                            (c @ right[keep] for c, keep in zip(self.terms.values(), inside)))

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar):
        return self._derive(list(self.terms), complex(scalar) * self._stack())

    def distance(self, other):
        return (self - other).norm()

    # -- calculus --------------------------------------------------------------

    def _by_power(self, factors):
        return self._derive(list(self.terms),
                            np.array(factors, dtype=complex)[:, None, None] * self._stack())

    def delta(self):
        """Apply the derivation tau * z * d/dz (power k scales by tau*k)."""
        return self._by_power([self.tau * k for k in self.terms])

    def dilate(self):
        """Substitute z -> q z (power k scales by q**k)."""
        return self._by_power([self.q ** k for k in self.terms])

    def truncate(self, hi, lo=None):
        """Keep powers k with lo <= k <= hi (lo unbounded when omitted)."""
        kept = [k for k in self.terms if k <= hi and (lo is None or k >= lo)]
        return self._derive(kept, self._stack(kept))


def truncated_inverse(f, order):
    """Series inverse of ``f`` through power ``order``.

    Requires the lowest-order term to sit at power 0 and be invertible;
    the result g satisfies ``f * g = I`` up to and including power ``order``.
    """
    if f.is_zero() or f.min_power < 0:
        raise ValidationFailure("series inverse needs lowest power at 0")
    c0_inv = _checked_inverse(f.term(0), "constant term of the series")
    lead = f._dense(1, order)
    coeffs = np.empty((len(lead) + 1, f.dim, f.dim), dtype=complex)
    coeffs[0] = c0_inv
    for k in range(1, len(coeffs)):
        # g_k = -f_0^-1 (f_1 g_(k-1) + ... + f_k g_0)
        coeffs[k] = -c0_inv @ (lead[:k] @ coeffs[k - 1::-1]).sum(0)
    return f._derive(range(len(coeffs)), coeffs)


# ---------------------------------------------------------------------------
# gauge transformations
# ---------------------------------------------------------------------------

def _gauge_step(p):
    """``p`` as a recorded step when it is not a series: ``ShearStep(C,
    zeros)`` for a constant gauge C, ``ShearStep(diag(v), e)`` for a
    diagonal monomial ``diag(v_i z**e_i)``, else None."""
    if p.is_constant():
        return ShearStep(p.term(0), (0,) * p.dim)
    stack = p._stack()
    diags = np.diagonal(stack, axis1=1, axis2=2)
    hits = diags != 0
    if np.any(stack - diags[:, :, None] * np.eye(p.dim)) or np.any(hits.sum(axis=0) != 1):
        return None
    slot = hits.argmax(axis=0)
    return ShearStep(np.diag(diags[slot, np.arange(p.dim)]),
                     tuple(np.fromiter(p.terms, dtype=int)[slot].tolist()))


def _shift(a, exps):
    """Entrywise map ``A_ij(z) -> A_ij(z) z**(e_j - e_i)``: one scatter of
    the whole stack, each output entry taken from one input entry."""
    if not a.terms:
        return a
    n, powers = a.dim, np.fromiter(a.terms, dtype=int)
    moves = exps[None, :] - exps[:, None]
    lo, hi = powers[0] + moves.min(), powers[-1] + moves.max()
    out = np.zeros((hi - lo + 1, n, n), dtype=complex)
    rows, cols = np.indices((n, n))
    out[powers[:, None, None] + (moves - lo), rows, cols] = a._stack()
    return a._derive(range(lo, hi + 1), out)


def _transport(a, p, order, drift):
    """``P^-1 A P``, plus ``P^-1 delta(P)`` when ``drift`` is set."""
    if a.dim != p.dim:
        raise ValidationFailure("gauge dimension mismatch")
    step = _gauge_step(p)
    if step is not None:
        return _sheared(a, step, drift)
    if order is None:
        raise ValidationFailure("series gauge needs an explicit truncation order")
    # P and its inverse hold no negative powers, so powers above order + 1 of
    # A reach no power kept; each kept power sums what the full products sum.
    # The drift P^-1 delta(P) starts at power 1, which may lie below A's
    # lowest power
    p_inv = truncated_inverse(p, order)
    lo, hi = min(a.min_power, 0), order + 1
    full = p_inv._product(a.truncate(hi)._product(p, lo, hi), lo, hi)
    if drift:
        full = full + p_inv._product(p.delta(), lo, hi)
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
    then a unit-constant-term series gauge truncated at ``truncation``, then
    the ``fold`` into the strip, a ``ShearStep`` or None, all on the object
    balanced by ``z -> radius z`` (power k scaled by ``radius**k``, exactly:
    the radius is a power of two, 1 for none).  Normalization records shears
    where eigenvalues of the constant term resonate and a fold elsewhere,
    never both."""

    shears: tuple
    series: PolyMat
    truncation: int
    radius: float = 1.0
    fold: ShearStep = None


def shear(a, sdata, cluster_shifts, tol=None):
    """Move each eigenvalue cluster of the constant term by ``shift * tau``.

    ``sdata`` is the clustered spectral data of the constant term of ``a``;
    ``cluster_shifts`` holds one integer per cluster.  The input is
    conjugated by the cluster similarity and then gauged by the diagonal
    monomial with exponent ``shift_j`` on cluster j's columns.  Raises
    ``RegularityViolation`` when a genuinely nonzero coefficient would land
    at a negative power: one above ``eps_res`` times one plus the largest
    norm among the powers the step can move below zero (``apply_shear``).
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


def _sheared(a, step, drift):
    """``a`` through a recorded step: ``S^-1 A_k S`` at each power, then the
    monomial ``diag(z**k_i)`` of the step's exponents as an array shift, and
    its drift ``diag(tau k_i)`` added at power 0 when ``drift`` is set."""
    s = step.similarity
    out = a._derive(list(a.terms),
                    _checked_inverse(s, "constant gauge") @ a._stack() @ s)
    exps = np.array(step.exponents, dtype=int)
    if not np.any(exps):
        return out
    out = _shift(out, exps)
    if drift:
        out = out + PolyMat.constant(np.diag(a.tau * exps), a.tau, a.q)
    return out


def apply_shear(a, step, tol=None):
    """Apply a recorded shear to a connection matrix (checked for regularity).

    A unit monomial moves a power by at most ``max k - min k``, so only the
    powers below that can land below zero: a coefficient there is a pole
    when its norm exceeds ``eps_res`` times one plus the largest norm among
    them (the norm of the whole series would let a pole through beside
    large high powers)."""
    tol = tol or DEFAULT_TOL
    reach = max(step.exponents, default=0) - min(step.exponents, default=0)
    return _checked_regular(_sheared(a, step, drift=True), tol,
                            scale=a.norm(hi=reach - 1))


def apply_shear_dilation(b, step, tol=None):
    """Apply a recorded shear to a dilation matrix (no regularity demanded)."""
    return _sheared(b, step, drift=False)


def invert_shear(a, step):
    """Undo a shear on a connection matrix: gauge by diag(z**-k) then S^-1."""
    out = gauge_transform(a, PolyMat.monomial_diag([-e for e in step.exponents],
                                                   a.tau, a.q))
    return gauge_transform(out, PolyMat.constant(np.linalg.inv(step.similarity),
                                                 a.tau, a.q))


def _checked_regular(a, tol, scale):
    """``a`` without its negative powers, which must be rounding: a
    coefficient there whose norm exceeds ``eps_res (scale + 1)`` is a pole,
    and raises ``RegularityViolation``.  ``apply_shear`` passes the largest
    norm among the powers its step can move below zero."""
    threshold = tol.eps_res * (scale + 1.0)
    for k, coeff in a.terms.items():
        if k < 0:
            size = float(np.linalg.norm(coeff))
            if size > threshold:
                raise RegularityViolation(
                    "shear would create a pole: coefficient of z**%d has "
                    "norm %.3e" % (k, size))
    return a.truncate(a.max_power, lo=0)


def _rescaled(p, radius):
    """``p(radius z)``: power k scaled by ``radius**k``, each part of each
    coefficient as a real, which is exact for a power of two; ``p`` itself
    when the radius is 1."""
    if radius == 1.0:
        return p
    factors = np.array([radius ** k for k in p.terms], dtype=float)
    parts = p._stack().view(float) * factors[:, None, None]
    return p._derive(list(p.terms), parts.view(complex))


def apply_gauge_record(a, b, record, tol=None):
    """Replay a normalization gauge on a connection/dilation pair: the pair
    is balanced by ``z -> radius z``, goes through the shears, the series
    gauge and the fold there, and is mapped back by ``z -> z / radius``, so
    a power k of the result is ``radius**-k`` times the balanced one."""
    tol = tol or DEFAULT_TOL
    a, b = _rescaled(a, record.radius), _rescaled(b, record.radius)
    for step in record.shears:
        a = apply_shear(a, step, tol=tol)
        b = apply_shear_dilation(b, step, tol=tol)
    if record.series is not None and not record.series.is_constant():
        a = gauge_transform(a, record.series, record.truncation)
        b = dilation_transform(b, record.series, record.truncation)
    if record.fold is not None:
        a = apply_shear(a, record.fold, tol=tol)
        b = apply_shear_dilation(b, record.fold, tol=tol)
    return _rescaled(a, 1.0 / record.radius), _rescaled(b, 1.0 / record.radius)
