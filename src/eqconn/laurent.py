"""Matrix-valued Laurent polynomials in z and the gauge calculus on them.

The coefficient ring is square complex matrices of a fixed dimension; every
value also carries the pair ``(tau, q)``: ``tau`` scales the derivation
``delta = tau * z * d/dz`` and ``q`` (a unimodular number) drives the dilation
``z -> q z``.

A value stores one *slab*: an ascending int array of its powers and a
read-only ``(K, n, n)`` stack of their coefficients, none exactly zero;
``PolyMat.terms`` is a read-only view of it, and no other module reads the
slab.  Each value computes the Frobenius norm of every coefficient once, on
first use, and keeps the vector: ``norm``, the balancing radius and a
shear's regularity check read it, a truncation keeps its slice, and
normalization's residuals are read off it (``_residual_norms``), with no
subtraction or rescaled copy.  A product is block Toeplitz: one GEMM per
chunk of the powers it lands on, each chunk's slab of left coefficients
within a fixed byte budget; a conjugation covers the whole stack, the one
series recurrence (``_series``: series inverses and normalization's series
gauge) is one GEMM per order on lead coefficients negated once, and every
result goes through one internal constructor that drops exact-zero slices
with one ``np.any``.  Sums run in BLAS order, so results agree with a
matmul per pair of powers within rounding.  Two kernels evaluate on the
circle instead, when that forms fewer products, with a normwise error: the
windowed commutator (``_commutator_circle``, which ``_commutator`` and the
validation residual ``_equivariance_norm`` share), and the series
transport, for a gauge balanced along with its truncated inverse, each
transforming all it reads by one FFT call (``_transforms``).  The public
constructor copies its input and refuses a coefficient of the wrong shape
or with a non-finite entry.

A gauge P sends A to ``P^-1 A P + P^-1 delta(P)`` and B to ``P^-1 B P``.
One function, ``_transport``, does both for every caller, with one policy:
``gauge_transform`` and ``dilation_transform`` one operand at a time,
normalization A and B with the recorded fold in one pass (``_gauged_pair``).
Every transport and shear ends in one step on slabs, ``_finished``: a
series transport hands it each operand's window of powers up to ``order``
and the norm of power ``order + 1``, from the circle or the block
products, and it checks the window finite, conjugates it by S (inverted
once), shifts it by the exponents, what the shift reads of them built once
(``_levels``), with the drift added inside the shift (``_shift``), checks a
connection matrix's regularity off the window's own norms and builds one
value per operand.  A constant gauge C and a diagonal
monomial ``diag(v_i z**e_i)`` are exact recorded shears (``_sheared``),
``ShearStep(C, zeros)`` and ``ShearStep(diag(v), e)``.  A product,
commutator or shift whose landing powers leave int64 raises
``NumericFailure``.  Series gauges go through a truncated inverse and,
unless a fold follows, record the first discarded order in
``diagnostics``; a series transport cut at ``order`` forms only the powers
up to ``order + 1``.  A similarity (a constant gauge, the values of a
monomial, a step's or a series lead term other than I) whose 1-norm
reciprocal condition number is below machine epsilon is refused as
singular, and a result that overflows raises ``NumericFailure``.

The kernels that make large temporaries write them into one workspace per
thread (``_scratch``): the circle commutator's transforms and products, the
circle transport's, and each product chunk's slab.  A slot keeps one flat
complex buffer that grows to the largest request, up to ``_SCRATCH_BYTES``
a slot; a larger request gets a fresh array that is not kept, so one large
object pins no memory.  Reusing the buffers spares the allocator handing
such arrays back to the system and paging them in again on every call.
No value returned aliases the workspace: each kernel copies out the window
it keeps, or ``_finished`` does.  The transforms write in place through ``out=`` of ``numpy.fft``,
which needs numpy 2.0 or later.
"""

import functools
import math
import threading
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .exceptions import NumericFailure, RegularityViolation, ValidationFailure
from .numkit import DEFAULT_TOL, same_context

_MACHINE_EPS = np.finfo(float).eps
# the byte budget of one slab of a product's block-Toeplitz GEMM
_SLAB_BYTES = 512 * 1024
# the byte cap of one workspace slot: a larger request gets a fresh array
_SCRATCH_BYTES = 2 * _SLAB_BYTES
_INT64 = np.iinfo(np.int64)
# |e| <= 1074 for a radius 2**e: a power clipped to this size keeps its factor,
# and 2.0 ** _MAX_EXP is the first power of two with no float value
_POWER_CLIP, _MAX_EXP = 1 << 12, np.finfo(float).maxexp


class _Workspace(threading.local):
    """The workspace buffers of one thread, by slot."""

    def __init__(self):
        self.buffers = {}


_WORKSPACE = _Workspace()


def _scratch(slot, shape):
    """A C-contiguous complex array of ``shape`` over this thread's buffer
    ``slot``, its entries whatever the last user left there.  The buffer
    grows to the largest request up to ``_SCRATCH_BYTES``; a larger request
    gets a fresh array that is not kept.  A kernel copies out what it
    returns and calls no kernel that takes a slot it holds."""
    size = math.prod(shape)
    if 16 * size > _SCRATCH_BYTES:
        return np.empty(shape, dtype=complex)
    buffers = _WORKSPACE.buffers
    buf = buffers.get(slot)
    if buf is None or buf.size < size:
        buf = buffers[slot] = np.empty(size, dtype=complex)
    return buf[:size].reshape(shape)


def _check_landing(lo, hi):
    """Raise ``NumericFailure`` unless the powers ``lo..hi`` (Python ints),
    the ends of what a product or shift lands on, have int64 values."""
    if not (_INT64.min <= lo and hi <= _INT64.max):
        raise NumericFailure("a power in %d..%d has no int64 value" % (lo, hi))


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
    """A finitely supported map ``power -> coefficient matrix``, stored as
    ``_powers``, the ascending powers of the nonzero coefficients, and
    ``_coeffs``, their read-only ``(K, dim, dim)`` stack; ``terms`` is a
    read-only view.  The slab's per-power Frobenius norms are computed on
    first use and kept (``_power_norms``): the slab is read-only, so they
    cannot go stale.  The constructor copies ``terms`` and raises
    ``ValidationFailure`` naming the power of a coefficient of the wrong
    shape or with a non-finite entry; arithmetic skips those checks."""

    __slots__ = ("dim", "tau", "q", "diagnostics", "_powers", "_coeffs", "_norms")

    def __init__(self, dim, terms, tau, q, diagnostics=None):
        if dim < 1:
            raise ValidationFailure("dimension must be positive")
        if not same_context((abs(q), 1.0)):
            raise ValidationFailure("dilation parameter q must be unimodular")
        self.dim = int(dim)
        self.tau = complex(tau)
        self.q = complex(q)
        self.diagnostics = dict(diagnostics or {})
        powers = sorted(terms, key=int)
        stack = np.zeros((len(powers), self.dim, self.dim), dtype=complex)
        for i, k in enumerate(powers):
            arr = np.asarray(terms[k], dtype=complex)
            if arr.shape != (self.dim, self.dim):
                raise ValidationFailure(
                    "coefficient at power %d has shape %s, expected (%d, %d)"
                    % (k, arr.shape, self.dim, self.dim))
            if not np.isfinite(arr).all():
                raise ValidationFailure(
                    "coefficient at power %d has non-finite entries" % k)
            stack[i] = arr
        slab = self._derive(np.array(powers, dtype=int), stack)
        self._powers, self._coeffs, self._norms = slab._powers, slab._coeffs, None

    # -- the slab ---------------------------------------------------------------

    def _derive(self, powers, stack):
        """A value built by this one's arithmetic, with its ``(tau, q)``:
        ``stack[i]`` is the coefficient of ``powers[i]`` (an int array),
        which ascend.  Exact-zero slices are dropped, both arrays are made
        read-only, and nothing else is checked."""
        powers, stack = _nonzero(powers, stack)
        powers.flags.writeable = stack.flags.writeable = False
        return self._slab(powers, stack, None)

    def _slab(self, powers, stack, norms):
        """A value with this one's ``(tau, q)`` on a read-only slab free of
        exact-zero slices, and ``norms`` its norm vector or None."""
        out = PolyMat.__new__(PolyMat)
        out.dim, out.tau, out.q, out.diagnostics = self.dim, self.tau, self.q, {}
        out._powers, out._coeffs, out._norms = powers, stack, norms
        return out

    def _power_norms(self):
        """The Frobenius norm of each stored coefficient, in the order of the
        powers: computed once, on first use, and read-only.  A norm depends
        on its coefficient alone, so a slice of this vector is, to the bit,
        the norms of that slice of the slab.  A norm whose squares overflow
        is inf, without numpy's overflow warning: ``_balancing_radius``
        rescales it, and the finite norms keep their bits."""
        if self._norms is None:
            norms = _norms(self._coeffs)
            norms.flags.writeable = False
            self._norms = norms
        return self._norms

    def _dense(self, lo, hi):
        """The coefficients of the powers ``lo..hi`` as one ``(hi - lo + 1,
        dim, dim)`` array, zero where no term is stored."""
        out = np.zeros((max(hi - lo + 1, 0), self.dim, self.dim), dtype=complex)
        start = self._powers.searchsorted(lo)
        stop = self._powers.searchsorted(hi, side="right")
        out[self._powers[start:stop] - lo] = self._coeffs[start:stop]
        return out

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

    @property
    def terms(self):
        """Read-only mapping ``power -> coefficient`` of the nonzero
        coefficients, powers ascending."""
        return MappingProxyType(dict(zip(self._powers.tolist(), self._coeffs)))

    def powers(self):
        return self._powers.tolist()

    def term(self, k):
        i = int(self._powers.searchsorted(int(k)))
        if i < len(self._powers) and self._powers[i] == k:
            return self._coeffs[i].copy()
        return np.zeros((self.dim, self.dim), dtype=complex)

    @property
    def min_power(self):
        return int(self._powers[0]) if len(self._powers) else 0

    @property
    def max_power(self):
        return int(self._powers[-1]) if len(self._powers) else 0

    def is_constant(self):
        return not self._powers.any()

    def is_zero(self):
        return not len(self._powers)

    def norm(self, hi=None):
        """Largest coefficient Frobenius norm, among the powers up to ``hi``
        when it is given."""
        stop = None if hi is None else self._powers.searchsorted(hi, side="right")
        return float(self._power_norms()[:stop].max(initial=0.0))

    def copy(self):
        return self._slab(self._powers, self._coeffs, self._norms)

    def __repr__(self):
        return "PolyMat(dim=%d, powers=%s)" % (self.dim, self.powers())

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other):
        if self.dim != other.dim:
            raise ValidationFailure("dimension mismatch: %d vs %d"
                                    % (self.dim, other.dim))
        if not same_context((self.tau, other.tau), (self.q, other.q)):
            raise ValidationFailure("parameter (tau, q) mismatch")

    def __add__(self, other):
        return self._derive(*_summed(self, other))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._derive(self._powers, -self._coeffs)

    def __mul__(self, other):
        if not isinstance(other, PolyMat):
            return self.scale(other)
        return self._product(other)

    def _product(self, other, lo=None, hi=None):
        """``self * other``; given ``lo`` and ``hi``, only its powers k with
        ``lo <= k <= hi``, and only the products that land there are formed.

        Block Toeplitz: the landing powers are taken in chunks, and a chunk
        is one GEMM.  Its slab spans the contiguous run ``j0:j1`` of right
        coefficients the chunk reads; row ``r`` holds, in the column of
        right power ``m``, the left coefficient of power ``k_r - m`` (zero
        where there is none), so that ``slab[r] @ right[j0:j1]`` is the
        coefficient of ``k_r``.  A slab stays within ``_SLAB_BYTES`` unless
        one landing power alone needs more."""
        self._check_compatible(other)
        _check_landing(self.min_power + other.min_power, self.max_power + other.max_power)
        n, width = self.dim, len(other._powers)
        sums = (self._powers[:, None] + other._powers).ravel()
        pairs = np.arange(len(sums))
        if lo is not None:
            inside = (lo <= sums) & (sums <= hi)
            sums, pairs = sums[inside], pairs[inside]
        if not len(sums):
            return self._derive(sums, np.zeros((0, n, n), dtype=complex))
        # pairs by landing power; within one, left powers ascend, so the
        # right indices descend: a power's first pair reads its highest one
        order = np.argsort(sums, kind="stable")
        sums, (left, right) = sums[order], np.divmod(pairs[order], width)
        opens = np.flatnonzero(np.concatenate(([True], sums[1:] != sums[:-1])))
        closes = np.append(opens[1:], len(sums))
        landing, slot = sums[opens], np.repeat(np.arange(len(opens)), closes - opens)
        low, high = right[closes - 1], right[opens]
        out = np.empty((len(landing), n, n), dtype=complex)
        budget = max(1, _SLAB_BYTES // (out.itemsize * n * n))
        c0 = 0
        while c0 < len(landing):
            j0 = np.minimum.accumulate(low[c0:])
            j1 = np.maximum.accumulate(high[c0:]) + 1
            cost = np.arange(1, len(j0) + 1) * (j1 - j0)
            kc = max(1, int(np.searchsorted(cost, budget, side="right")))
            j0, j1, c1 = j0[kc - 1], j1[kc - 1], c0 + kc
            take = slice(opens[c0], closes[c1 - 1])
            slab = _scratch(0, (kc, n, j1 - j0, n))
            slab.fill(0)
            slab[slot[take] - c0, :, right[take] - j0, :] = self._coeffs[left[take]]
            np.matmul(slab.reshape(kc * n, -1), other._coeffs[j0:j1].reshape(-1, n),
                      out=out[c0:c1].reshape(kc * n, n))
            c0 = c1
        return self._derive(landing, out)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar):
        return self._derive(self._powers, complex(scalar) * self._coeffs)

    def distance(self, other):
        return (self - other).norm()

    # -- calculus --------------------------------------------------------------

    def _by_power(self, factors):
        return self._derive(self._powers,
                            np.asarray(factors, dtype=complex)[:, None, None] * self._coeffs)

    def delta(self):
        """Apply the derivation tau * z * d/dz (power k scales by tau*k)."""
        return self._by_power(self.tau * self._powers)

    def dilate(self):
        """Substitute z -> q z (power k scales by q**k)."""
        return self._by_power([self.q ** k for k in self._powers.tolist()])

    def truncate(self, hi, lo=None):
        """Keep powers k with lo <= k <= hi (lo unbounded when omitted)."""
        start = 0 if lo is None else self._powers.searchsorted(lo)
        stop = self._powers.searchsorted(hi, side="right")
        norms = None if self._norms is None else self._norms[start:stop]
        return self._slab(self._powers[start:stop], self._coeffs[start:stop], norms)


def _nonzero(powers, stack):
    """The slab ``(powers, stack)`` without its exact-zero slices, found
    with one ``np.any``; the arrays themselves when none is zero."""
    kept = stack.any(axis=(1, 2))
    if not kept.all():
        powers, stack = powers[kept], stack[kept]
    return powers, stack


def _summed(x, y):
    """``(powers, stack)`` of ``x + y`` before its exact-zero slices are
    dropped: y's coefficients added into x's on the union of their
    powers."""
    x._check_compatible(y)
    found, slot = np.unique(np.concatenate([x._powers, y._powers]), return_inverse=True)
    out = np.zeros((len(found), x.dim, x.dim), dtype=complex)
    out[slot[:len(x._powers)]] = x._coeffs
    out[slot[len(x._powers):]] += y._coeffs
    return found, out


def _sum_norm(x, y):
    """``(x + y).norm()``, to the bit, without forming the sum: the largest
    Frobenius norm over the union of their powers (an exact-zero slice the
    sum would drop has norm 0)."""
    return float(np.linalg.norm(_summed(x, y)[1], axis=(1, 2)).max(initial=0.0))


def _residual_norms(p, radius):
    """``(r, r_unit)``: the largest coefficient norm of ``p`` off power 0,
    what ``(p - p.truncate(0, lo=0)).norm()`` gives, and the same of
    ``p(z / radius)``, read off ``p``'s norm vector with the norm of power
    k times ``radius**-k``.  ``radius`` is a power of two, so scaling a
    coefficient scales its norm exactly: ``r_unit`` is, to the bit, the
    norm of the rescaled slab unless a square of an entry underflows or
    overflows in one frame and not the other."""
    off = p._powers != 0
    norms = p._power_norms()[off]
    r = float(norms.max(initial=0.0))
    if radius == 1.0:
        return r, r
    return r, float((norms * _radius_factors(p._powers[off], 1.0 / radius)).max(initial=0.0))


@functools.lru_cache(maxsize=1024)
def _fast_length(m):
    """The smallest ``2**i 3**j 5**k`` of at least ``m``: a length that
    ``np.fft`` transforms by small radices."""
    best, p5 = 1 << (m - 1).bit_length(), 1
    while p5 < best:
        p = p5
        while p < best:
            q = p
            while q < m:
                q *= 2
            best, p = min(best, q), p * 3
        p5 *= 5
    return best


def _circle_length(span, counts):
    """The transform length ``_fast_length(span)`` of a product spanning
    ``span`` powers when it is below the number of coefficient products
    the block-Toeplitz kernel would form, else None.  ``counts`` yields
    that number in parts and is read only until their sum tops the
    length."""
    total, m = 0, None
    for count in counts:
        total += count
        if span < total:
            m = m or _fast_length(span)
            if m < total:
                return m
    return None


def _transforms(placed, m):
    """``np.fft.fft`` along the power axis, at length ``m``, of each value
    of ``placed = [(x, base), ...]`` with its coefficients at ``power -
    base`` and zero elsewhere: one ``(len(placed), m, dim, dim)`` stack in
    workspace slot 0, transformed by one call, each lane to the bits of its
    own transform of the dense window padded to ``m``."""
    x = placed[0][0]
    out = _scratch(0, (len(placed), m, x.dim, x.dim))
    out.fill(0)
    for lanes, (x, base) in zip(out, placed):
        lanes[x._powers - base] = x._coeffs
    return np.fft.fft(out, axis=1, out=out)


def _commutator(a, b, lo, hi):
    """``a * b - b * a``, its powers ``lo..hi`` only: on the circle
    (``_commutator_circle``) or, for gapped powers or a narrow window, by
    the two windowed ``_product`` calls, with their error per coefficient."""
    a._check_compatible(b)
    circle = _commutator_circle(a, b, lo, hi)
    if circle is None:
        return a._product(b, lo, hi) - b._product(a, lo, hi)
    start, window = circle
    return a._derive(np.arange(start, start + len(window)), window.copy())


def _equivariance_norm(a, b, lo, hi):
    """``(b.delta() + _commutator(a, b, lo, hi)).norm()``, to the bit: on
    the circle no value is formed, ``tau k B_k`` is added into the window
    at each power k it shares (the sums of ``_summed``, terms swapped), and
    the norms are taken there and at the other powers of ``delta(B)``."""
    a._check_compatible(b)
    circle = _commutator_circle(a, b, lo, hi)
    if circle is None:
        return _sum_norm(b.delta(), a._product(b, lo, hi) - b._product(a, lo, hi))
    start, window = circle
    powers = b._powers
    drift = (b.tau * powers)[:, None, None] * b._coeffs
    inside = (start <= powers) & (powers < start + len(window))
    window[powers[inside] - start] += drift[inside]
    return float(max(_norms(window).max(initial=0.0), _norms(drift[~inside]).max(initial=0.0)))


def _commutator_circle(a, b, lo, hi):
    """``(start, window)``: ``a * b - b * a`` evaluated on the circle,
    ``window[i]`` its coefficient of power ``start + i`` over the powers in
    ``lo..hi`` the full product reaches, a view of this thread's workspace;
    None where the circle forms more products than the block products.

    By evaluation on the circle (Cooley & Tukey, Math. Comp. 1965): each
    dense slab is transformed once along the power axis, at a length M no
    shorter than the span of the full product, so that nothing wraps
    around; then one pointwise ``FA @ FB - FB @ FA``, one inverse transform,
    and the cut to the window.  Its error is normwise, a small multiple of
    the unit roundoff times the largest coefficient product, not per
    coefficient (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 24).  The circle is taken only when M is below the number of
    coefficient products the two windowed block-Toeplitz products would
    form, one per pair of powers landing in the window for each."""
    base = a.min_power + b.min_power
    _check_landing(base, a.max_power + b.max_power)
    span = a.max_power + b.max_power - base + 1
    sums = a._powers[:, None] + b._powers
    m = _circle_length(span, [2 * np.count_nonzero((lo <= sums) & (sums <= hi))])
    if m is None:
        return None
    shape = (m, a.dim, a.dim)
    fa, fb = _transforms([(a, a.min_power), (b, b.min_power)], m)
    full = np.matmul(fa, fb, out=_scratch(1, shape))
    full -= np.matmul(fb, fa, out=_scratch(2, shape))
    np.fft.ifft(full, axis=0, out=full)
    start, stop = max(lo, base), min(hi, base + span - 1)
    return start, full[start - base:stop - base + 1]


def _series(f, order, first, solve, basis=None, levels=None):
    """The series ``g_0 + g_1 z + ... + g_order z**order`` with ``g_0 =
    first`` and ``g_k = solve(k, -(f_1 g_(k-1) + ... + f_k g_0))``, the
    right-hand side one GEMM: ``-f_1 .. -f_order``, negated once, side by
    side as one ``(n, order n)`` row against the solved ``g`` stacked
    highest order first, whose last k are ``g_(k-1) .. g_0``.  The
    recurrence of a series inverse and of the series gauge of formal
    reduction (Barkatou, AAECC 1997).  A ``solve`` of None keeps each
    right-hand side as it is: the inverse of a series whose lead term is
    the identity.

    Given a ``basis`` ``(s, s_inv)``, a similarity and its inverse, the
    recurrence runs on ``s_inv f_k s``, the powers it reads conjugated once,
    ``solve`` answers in that basis, and ``g_1 .. g_order`` are mapped back
    by ``s g_k s_inv`` once; ``first`` is kept as given, so it must commute
    with s (the gauge's identity).

    Given integer ``levels`` l, one per basis vector, entry (i, j) of order
    ``k = l_j - l_i`` is kept, not solved: ``solve`` sees a zero there, and
    ``R_k``, the right-hand side there negated, stays in power k of the
    gauged connection matrix, so each later order's right-hand side adds
    ``g_(k-j) R_j`` over the orders j whose ``R_j`` is nonzero, one product
    and one sum each, in the order of j.  These are the entries a shear by
    ``z**-l`` moves to power 0; ``solve`` must leave ``g_k`` zero there, as
    a Sylvester solve on an ``f_0`` block diagonal over equal levels does."""
    n = f.dim
    lead = f._dense(1, order)
    if basis is not None:
        s, s_inv = basis
        lead = s_inv @ lead @ s
    lead = np.negative(lead, out=lead).transpose(1, 0, 2).reshape(n, -1)
    masks = {}
    if levels is not None:
        steps = levels[None, :] - levels[:, None]
        masks = {k: steps == k for k in set(steps[steps > 0].tolist())}
    solved = np.empty((order + 1, n, n), dtype=complex)
    solved[order] = first
    rows, kept = solved.reshape(-1, n), []
    for k in range(1, order + 1):
        # the right-hand side is formed in the slot of g_k
        rhs = np.matmul(lead[:, :k * n], rows[(order - k + 1) * n:], solved[order - k])
        for j, r in kept:
            rhs += np.dot(solved[order - k + j], r)
        mask = masks.get(k)
        if mask is not None and rhs[mask].any():
            kept.append((k, np.where(mask, -rhs, 0.0)))
            rhs[mask] = 0.0
        if solve is not None:
            solved[order - k] = solve(k, rhs)
    if basis is not None:
        solved[:order] = s @ solved[:order] @ s_inv
    return f._derive(np.arange(order + 1), solved[::-1].copy())


def truncated_inverse(f, order):
    """Series inverse of ``f`` through power ``order``.

    Requires the lowest-order term to sit at power 0 and be invertible;
    the result g satisfies ``f * g = I`` up to and including power ``order``:
    ``g_k = -f_0^-1 (f_1 g_(k-1) + ... + f_k g_0)``.  A negative ``order``
    is refused with ``ValidationFailure``.  A lead term equal to I, as in
    every recorded gauge, is not inverted and no order is multiplied by it,
    which changes no bit but the sign of a zero entry.
    """
    if order < 0:
        raise ValidationFailure("series inverse needs an order of at least 0, got %d" % order)
    if f.is_zero() or f.min_power < 0:
        raise ValidationFailure("series inverse needs lowest power at 0")
    eye = np.eye(f.dim, dtype=complex)
    if f.min_power == 0 and (f._coeffs[0] == eye).all():
        return _series(f, order, eye, None)
    c0_inv = _checked_inverse(f.term(0), "constant term of the series")
    return _series(f, order, c0_inv, lambda k, rhs: c0_inv @ rhs)


# ---------------------------------------------------------------------------
# gauge transformations
# ---------------------------------------------------------------------------

def _gauge_step(p):
    """``p`` as a recorded step when it is not a series: ``ShearStep(C,
    zeros)`` for a constant gauge C, ``ShearStep(diag(v), e)`` for a
    diagonal monomial ``diag(v_i z**e_i)``, else None, at once for a gauge
    ``I + P_1 z + ...``: no monomial has a full diagonal beside a power."""
    if p.is_constant():
        return ShearStep(p.term(0), (0,) * p.dim)
    stack = p._coeffs
    if p._powers[0] == 0 and np.diagonal(stack[0]).all():
        return None
    diags = np.diagonal(stack, axis1=1, axis2=2)
    hits = diags != 0
    if np.any(stack - diags[:, :, None] * np.eye(p.dim)) or np.any(hits.sum(axis=0) != 1):
        return None
    slot = hits.argmax(axis=0)
    return ShearStep(np.diag(diags[slot, np.arange(p.dim)]),
                     tuple(p._powers[slot].tolist()))


def _levels(exps):
    """What ``_shift`` reads of a step's exponents e, built once per step:
    ``(diffs, index, spread)``, the differences of the G distinct
    exponents, ``diffs[g G + h] = level_h - level_g``, the one
    ``index[i, j]`` that entry (i, j) moves by, ``e_j - e_i``, and the
    spread of the levels."""
    levels = np.unique(exps)
    group = levels.searchsorted(exps)
    return ((levels - levels[:, None]).ravel(), group[:, None] * len(levels) + group,
            int(levels[-1]) - int(levels[0]))


def _shift(powers, stack, levels, drift=None):
    """The slab through ``X_ij(z) -> X_ij(z) z**(e_j - e_i)``, for the
    ``_levels`` of the exponents e, plus ``diag(drift)`` added at power 0
    when given: one scatter of the stack into the powers it lands on, each
    the sum of a power and a difference of the G distinct exponents, so one
    sort of K G**2 sums finds them and no power in between is held.
    Exact-zero slices are kept; a landing power with no int64 value raises
    ``NumericFailure``."""
    diffs, index, spread = levels
    n = stack.shape[1]
    lo, hi = (int(powers[0]), int(powers[-1])) if len(powers) else (0, 0)
    _check_landing(lo - spread, hi + spread)
    sums = (powers[:, None] + diffs).ravel()
    found = np.unique(sums if drift is None else np.concatenate((sums, [0])))
    slot = found.searchsorted(sums).reshape(len(powers), len(diffs))
    out = np.zeros((len(found), n, n), dtype=complex)
    entries = np.arange(n)
    out[slot[:, index], entries[:, None], entries] = stack
    if drift is not None:
        zero = found.searchsorted(0)
        if not out[zero].any():
            # a slice of signed zeros is dropped before a sum: start from +0
            out[zero] = 0.0
        out[zero] += np.diag(drift)
    return found, out


def _transport(p, pairs, order, fold=None, tol=None):
    """``P^-1 X P``, plus ``P^-1 delta(P)`` where ``drift`` is set, for each
    ``(X, drift)`` of ``pairs``, then the recorded ``fold`` if given (see
    ``_finished``, ``tol`` its regularity check): every gauge transport.
    A constant or diagonal monomial gauge (``_gauge_step``) takes each X
    through ``_sheared``.  A series gauge needs an ``order``, and all X
    share one truncated inverse and one decision: evaluation on
    the circle, as ``_commutator``, of each X on their common powers
    ``min(lowest, 0)`` to ``order + 1``, of P, its inverse and
    ``delta(P)``, all transformed by one call (``_transforms``), at a
    length M no shorter than the triple product's span;
    then ``F(P^-1) (F(X) F(P) + F(delta P))`` pointwise, the drift only
    where it is set, and one inverse transform, with an error about the
    unit roundoff times ``||P^-1|| ||X|| ||P||``.  The circle is taken only
    when M is below the number of coefficient products the windowed
    block-Toeplitz products would form, and P and its inverse are balanced
    (``_balancing_radius`` 1), so that no product outgrows the data;
    otherwise (a near-resonant gauge whose inverse grows, gapped powers)
    each X goes through ``_block_transport``, with its error per
    coefficient.  Either way ``_finished`` gets each window of powers up to
    ``order`` and the norm of power ``order + 1``."""
    for x, _ in pairs:
        x._check_compatible(p)
    step = _gauge_step(p)
    if step is not None:
        out = _sheared(pairs, step)
        return out if fold is None else _sheared(
            [(x, drift) for x, (_, drift) in zip(out, pairs)], fold, tol)
    if order is None:
        raise ValidationFailure("series gauge needs an explicit truncation order")
    p_inv, hi = truncated_inverse(p, order), order + 1
    xs, drifts = [x.truncate(hi) for x, _ in pairs], [drift for _, drift in pairs]
    lows = [min(x.min_power, 0) for x in xs]
    base, delta = min(lows), p.delta()

    def window(left, right, lo):
        # the powers in lo..hi that products of the powers left, right land on
        sums = (left[:, None] + right).ravel()
        return sums[(lo <= sums) & (sums <= hi)]

    def counts():
        # X P first: those products alone mostly top the length
        landed = [window(x._powers, p._powers, lo) for x, lo in zip(xs, lows)]
        yield sum(map(len, landed))
        for drift, lo in zip(drifts, lows):
            if drift:
                yield len(window(p_inv._powers, delta._powers, lo))
        for sums, lo in zip(landed, lows):
            yield len(window(p_inv._powers, np.unique(sums), lo))

    m = _circle_length(p_inv.max_power + hi + p.max_power - base + 1, counts())
    if m is None or _balancing_radius(p) != 1.0 or _balancing_radius(p_inv) != 1.0:
        cuts = [_block_transport(x, p, p_inv, order, drift) for x, drift in zip(xs, drifts)]
    else:
        count = len(xs)
        placed = [(x, base) for x in xs] + [(p, 0), (p_inv, 0)]
        # the drift's transform, where one is set, comes last
        f = _transforms(placed + [(delta, base)] if any(drifts) else placed, m)
        f_x, f_p, f_inv = f[:count], f[count], f[count + 1]
        inner = np.matmul(f_x, f_p, out=_scratch(1, f_x.shape))
        for lanes, drift in zip(inner, drifts):
            if drift:
                lanes += f[-1]
        # f_x is spent: its lanes take the product and its inverse transform
        full = np.matmul(f_inv, inner, out=f_x)
        np.fft.ifft(full, axis=1, out=full)
        cuts = [(np.arange(lo, hi), piece[lo - base:hi - base],
                 float(np.linalg.norm(piece[hi - base])))
                for piece, lo in zip(full, lows)]
    return _finished([(x, powers, stack, drift, tail)
                      for x, drift, (powers, stack, tail) in zip(xs, drifts, cuts)], fold, tol)


def _block_transport(x, p, p_inv, order, drift):
    """``(powers, stack, tail)``: ``x`` through a series gauge ``p`` with
    its truncated inverse ``p_inv`` by windowed block-Toeplitz products,
    cut at ``order``, and the norm of power ``order + 1``.  P and its
    inverse hold no negative powers, so powers above order + 1 of X reach
    no power kept.  The drift ``P^-1 delta(P)`` starts at power 1, which
    may lie below X's lowest power."""
    lo, hi = min(x.min_power, 0), order + 1
    full = p_inv._product(x.truncate(hi)._product(p, lo, hi), lo, hi)
    if drift:
        full = full + p_inv._product(p.delta(), lo, hi)
    stop = np.searchsorted(full._powers, order, side="right")
    return full._powers[:stop], full._coeffs[:stop], float(np.linalg.norm(full.term(hi)))


def _finished(parts, step=None, tol=None):
    """One value per ``(x, powers, stack, drift, tail)`` of ``parts``: the
    slab with the parameters of ``x``, through the recorded ``step`` if
    given.  A stack may hold exact-zero slices, dropped on the way in and at
    the end, or be a view of the workspace, which no result aliases.

    A ``tail`` marks a series transport's window cut at its order and is
    the norm of the first power cut off: window and tail must be finite,
    and without a step the tail is ``truncation_residual``.  A step is
    ``S^-1 X_k S`` at each power, S inverted once for all parts, then the
    monomial ``diag(z**k_i)`` of its exponents (``_shift``, on their
    ``_levels``, built once for all parts), its drift
    ``diag(tau k_i)`` at power 0 where ``drift`` is set; a result that is
    not finite or an exponent with no int64 value raises ``NumericFailure``.
    Given ``tol``, the first part is a connection matrix whose negative
    powers after the step must be rounding: only its powers below ``max k -
    min k`` can land there, and a coefficient there whose norm exceeds
    ``eps_res`` times one plus their largest norm is a pole (the norm of the
    whole series would let one through beside large high powers), which
    raises ``RegularityViolation``."""
    for _, _, stack, _, tail in parts:
        if tail is not None and not (math.isfinite(tail) and np.isfinite(stack).all()):
            raise NumericFailure("the gauge transport overflows")
    if step is None:
        out = [x._derive(powers, stack.copy()) for x, powers, stack, _, _ in parts]
        for value, (_, _, _, _, tail) in zip(out, parts):
            if tail is not None:
                value.diagnostics["truncation_residual"] = tail
        return out
    s = step.similarity
    s_inv = _checked_inverse(s, "constant gauge")
    try:
        exps = np.array(step.exponents, dtype=np.int64)
    except OverflowError:
        raise NumericFailure("a shear exponent has no int64 value")
    reach = max(step.exponents, default=0) - min(step.exponents, default=0)
    levels = _levels(exps) if exps.any() else None
    out = []
    for x, powers, stack, drift, _ in parts:
        powers, stack = _nonzero(powers, stack)
        if tol is not None and not out:
            below = _norms(stack[:powers.searchsorted(reach - 1, side="right")])
            threshold = tol.eps_res * (float(below.max(initial=0.0)) + 1.0)
        stack = s_inv @ stack @ s
        if levels is not None:
            powers, stack = _shift(powers, stack, levels, x.tau * exps if drift else None)
        if not np.isfinite(stack).all():
            raise NumericFailure("the gauge transport overflows")
        out.append(x._derive(powers, stack))
    if tol is not None:
        a = out[0]
        sizes = a._power_norms()[a._powers < 0]
        poles = np.flatnonzero(sizes > threshold)
        if poles.size:
            raise RegularityViolation(
                "shear would create a pole: coefficient of z**%d has norm %.3e"
                % (a._powers[poles[0]], sizes[poles[0]]))
        out[0] = a.truncate(a.max_power, lo=0)
    return out


def _norms(stack):
    """The Frobenius norm of each slice of ``stack``, formed as
    ``np.linalg.norm(stack, axis=(1, 2))`` forms it; one whose squares
    overflow is inf, without numpy's overflow warning."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.add.reduce((stack.conj() * stack).real, axis=(1, 2)))


def gauge_transform(a, p, order=None):
    """Connection-matrix transport ``P^-1 A P + P^-1 delta(P)``; a series
    gauge needs a truncation ``order`` and the result is cut there."""
    return _transport(p, [(a, True)], order)[0]


def dilation_transform(b, p, order=None):
    """Dilation-matrix transport ``P^-1 B P``: no derivation drift, so monomial
    shears leave the dilation data of one-dimensional objects untouched and
    strip-shifted presentations of one object carry literally equal labels."""
    return _transport(p, [(b, False)], order)[0]


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
    """The full gauge produced by normalization: a unit-constant-term series
    gauge truncated at ``truncation``, then the ``fold`` into the strip, a
    ``ShearStep`` or None, both on the object balanced by ``z -> radius z``
    (power k scaled by ``radius**k``, exactly: the radius is a power of two,
    1 for none)."""

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
    return apply_shear(a, step, tol=tol), step


def _sheared(pairs, step, tol=None):
    """Each ``(X, drift)`` of ``pairs`` through a recorded step, the first
    X checked for regularity at ``tol`` if given (``_finished``)."""
    return _finished([(x, x._powers, x._coeffs, drift, None) for x, drift in pairs], step, tol)


def apply_shear(a, step, tol=None):
    """Apply a recorded shear to a connection matrix, checked for
    regularity: a coefficient the step moves below power 0 is a pole when
    its norm exceeds ``eps_res`` times one plus the largest norm among the
    powers it can move there (``_finished``)."""
    return _sheared([(a, True)], step, tol or DEFAULT_TOL)[0]


def apply_shear_dilation(b, step, tol=None):
    """Apply a recorded shear to a dilation matrix (no regularity demanded)."""
    return _sheared([(b, False)], step)[0]


def _balancing_radius(a):
    """The radius ``rho`` of ``z -> rho z`` that balances a connection
    matrix: the largest power of two at most ``min(1, min_k (max(1, ||A_0||)
    / ||A_k||)^(1/k))`` over the powers ``k >= 1`` (Frobenius norms), so
    that no power of ``A(rho z)`` outgrows ``max(1, ||A_0||)`` and scaling
    power k by ``rho**k`` is exact, as LAPACK's gebal balances by powers of
    two before an eigensolver (Parlett & Reinsch, Numer. Math. 1969).  A
    kept norm that overflows, while its coefficient is finite, is taken
    here in units of the coefficient's largest real or imaginary part, and
    each quotient ``top / ||A_k||`` as the quotient of the units times that
    of the norms in them, so that neither a norm nor a quotient overflows
    and the radius follows the norms and not the overflow of their squares.
    No norm above ``max(1, ||A_0||)`` is radius 1 without the roots."""
    norms = a._power_norms()
    top = max(1.0, norms[a._powers == 0].max(initial=0.0))
    if norms.max(initial=0.0) <= top < math.inf:
        return 1.0
    up = a._powers > 0
    wide = np.flatnonzero(~np.isfinite(norms))
    if wide.size:
        units, norms = np.ones_like(norms), norms.copy()
        for i in wide.tolist():
            c = a._coeffs[i]
            units[i] = max(np.abs(c.real).max(), np.abs(c.imag).max())
            norms[i] = np.linalg.norm(c / units[i])
        zero = a._powers == 0
        top_unit = units[zero].max(initial=1.0)
        top = max(1.0 / top_unit, norms[zero].max(initial=0.0))
        ratios = top_unit / units[up] * top / norms[up]
    else:
        ratios = top / norms[up]
    rho = float(np.min(ratios ** (1.0 / a._powers[up]), initial=1.0))
    return 1.0 if rho >= 1.0 else math.ldexp(0.5, math.frexp(rho)[1])


def _rescaled(p, radius):
    """``p(radius z)``: power k scaled by ``radius**k``, each part of each
    coefficient as a real, which is exact for a power of two; ``p`` itself
    when the radius is 1."""
    if radius == 1.0:
        return p
    parts = p._coeffs.view(float) * _radius_factors(p._powers, radius)[:, None, None]
    return p._derive(p._powers, parts.view(complex))


def _radius_factors(powers, radius):
    """``radius**k`` for each power k, as reals, Python's ``radius ** k`` to
    the bit: for a radius 2**e, ``np.ldexp(1.0, e k)``, k clipped first so
    that ``e k`` cannot wrap; for inf, the reciprocal of a radius below
    2**-1023, inf, 1 or 0.  A finite radius with a power that has no float
    value raises ``NumericFailure``, as a gauge that overflows."""
    if radius == math.inf:
        return np.float_power(radius, np.sign(powers))
    exps = np.minimum(np.maximum(powers, -_POWER_CLIP), _POWER_CLIP)
    exps *= math.frexp(radius)[1] - 1
    if exps.size and exps.max() >= _MAX_EXP:
        raise NumericFailure("the gauge overflows at unit radius: a power of %g "
                             "has no float value" % radius)
    return np.ldexp(1.0, exps)


def _unscaled(p, radius):
    """``p(z / radius)``, a radius 2**e: each part of power k by ``np.ldexp``
    with exponent -e k, k clipped as ``_radius_factors`` clips it, so no
    factor ``radius**-k`` is formed; a coefficient past the float range
    raises ``NumericFailure``."""
    exps = np.clip(p._powers, -_POWER_CLIP, _POWER_CLIP) * (1 - math.frexp(radius)[1])
    with np.errstate(over="ignore"):
        parts = np.ldexp(p._coeffs.view(float), exps[:, None, None])
    if not np.isfinite(parts).all():
        raise NumericFailure("a replayed coefficient has no float value at unit radius")
    return p._derive(p._powers, parts.view(complex))


def apply_gauge_record(a, b, record, tol=None):
    """Replay a normalization gauge on a connection/dilation pair: the pair
    is balanced by ``z -> radius z``, goes through the record there as
    ``normalize`` takes it through (``_gauged_pair``), and is mapped back by
    ``z -> z / radius`` (``_unscaled``), so a power k of the result is
    ``radius**-k`` times the balanced one.  A radius that is not a power of
    two raises ``ValidationFailure``."""
    if math.frexp(record.radius)[0] != 0.5:
        raise ValidationFailure("a gauge record's radius must be a power of two, got %r"
                                % (record.radius,))
    a, b = _gauged_pair(_rescaled(a, record.radius), _rescaled(b, record.radius),
                        record, tol or DEFAULT_TOL)
    return _unscaled(a, record.radius), _unscaled(b, record.radius)


def _gauged_pair(a, b, record, tol):
    """A balanced connection/dilation pair through a ``GaugeRecord`` in one
    pass: the series gauge, unless it is constant, and the fold, if any,
    are one ``_transport`` call, A checked for regularity as
    ``apply_shear`` checks it."""
    pairs = [(a, True), (b, False)]
    if record.series is not None and not record.series.is_constant():
        return _transport(record.series, pairs, record.truncation, record.fold, tol)
    if record.fold is not None:
        return _sheared(pairs, record.fold, tol)
    return [a, b]
