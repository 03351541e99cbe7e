"""The kernels ``tests/util.py`` generates its inputs with, frozen.

``reference_fold`` is the cluster-by-cluster fold of a spectrum into a
strip, on ``_clustered_schur``, a complex Schur form sorted by eigenvalue
cluster through adjacent Givens swaps, and ``_parlett``, the block Parlett
recurrence on it with one ``reference_sylvester`` (``scipy.linalg``'s
Bartels-Stewart solver) per pair of blocks.  ``reference_spectral`` is
``eqconn.numkit.spectral`` as it stood, one block per ``eps_spec`` cluster
on the same Schur form.  ``frozen_position``, ``frozen_reduce`` and
``frozen_boundary_distance`` are ``Transversal``'s position, reduction and
boundary distance as the library once took them, one value at a time.

``frozen_shear`` and ``frozen_transport`` are bit-exact copies of what
``tests/util.py`` once called in ``eqconn.laurent`` (``shear`` with its
regularity cut, ``apply_shear_dilation``, and ``gauge_transform`` and
``dilation_transform`` by constant, monomial and series gauges: the slab
product with its GEMM shapes, the exact-zero drops, the series-inverse
recurrence and the windowed transport with its ``truncation_residual``),
on ``(powers, stack)`` slabs, building a ``PolyMat`` only through its
public constructor.

The generators, and so the benchmark's inputs, take these kernels rather
than the library's, so that a change to the library's fold, spectral code,
gauge calculus or strip arithmetic does not move the inputs it is measured
on; they stay as they are.  They live apart from ``tests/reference.py``,
whose oracles only the tests import: every benchmark process imports
``tests/util.py`` and so compiles this module alone.  ``reference.py``
re-exports them and uses them as oracles too.
"""

import math

import numpy as np
import scipy.linalg

from eqconn.exceptions import RegularityViolation, ValidationFailure
from eqconn.laurent import PolyMat
from eqconn.numkit import DEFAULT_TOL, SpectralCluster, SpectralData


def _cluster_indices(values, radius):
    """Connected components of |v_i - v_j| <= radius, labelled in order of
    first appearance."""
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


def reference_sylvester(a, b, c):
    """Solve ``A X - X B = C`` with scipy's Bartels-Stewart solver."""
    return scipy.linalg.solve_sylvester(a, -b, c)


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


def _clustered_schur(m, eps_spec):
    """Schur form ``q t q^H = m`` with clusters contiguous; blocks are
    ``(start, stop, mean eigenvalue)``."""
    t, q = scipy.linalg.schur(m, output="complex")
    n = m.shape[0]
    labels = _cluster_indices(list(np.diag(t)), eps_spec)
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


def _parlett(t, blocks, diagonal):
    """Block Parlett recurrence, one Sylvester solve per pair of blocks."""
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
            f[i0:i1, j0:j1] = reference_sylvester(t[i0:i1, i0:i1], t[j0:j1, j0:j1], rhs)
    return f


def reference_fold(a, transversal, eps_spec=1e-8):
    """Shift each eigenvalue cluster of ``a`` by the integer multiple of tau
    that brings its mean eigenvalue into the strip.

    Returns ``(a_tilde, [(cluster eigenvalue, shift), ...])`` like
    ``eqconn.numkit.reduce_to_transversal``, without its warnings.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    t, q, blocks = _clustered_schur(a, eps_spec)
    pairs = [(lam, frozen_reduce(transversal, lam)[1]) for _, _, lam in blocks]
    if all(s == 0 for _, s in pairs):
        return a.copy(), pairs
    diagonal = [t[s0:s1, s0:s1] - (shift * transversal.tau) * np.eye(s1 - s0)
                for (s0, s1, _), (_, shift) in zip(blocks, pairs)]
    f = _parlett(t, blocks, diagonal)
    return q @ f @ q.conj().T, pairs


def reference_spectral(m, eps_spec=1e-8):
    """Clustered block diagonalization of ``m``: the Schur form above, then
    one Sylvester solve per pair of clusters.  Returns ``SpectralData``
    without diagnostics."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    t, q, blocks = _clustered_schur(m, eps_spec)
    n = m.shape[0]
    r_total = np.eye(n, dtype=complex)
    t = t.copy()
    for jb in range(1, len(blocks)):
        j0, j1, _ = blocks[jb]
        for ib in range(jb - 1, -1, -1):
            i0, i1, _ = blocks[ib]
            x = reference_sylvester(t[i0:i1, i0:i1], t[j0:j1, j0:j1], -t[i0:i1, j0:j1])
            r = np.eye(n, dtype=complex)
            r[i0:i1, j0:j1] = x
            rinv = np.eye(n, dtype=complex)
            rinv[i0:i1, j0:j1] = -x
            t = rinv @ t @ r
            t[i0:i1, j0:j1] = 0.0
            r_total = r_total @ r
    similarity = q @ r_total
    clusters = tuple(SpectralCluster(lam, stop - start, similarity[:, start:stop])
                     for start, stop, lam in blocks)
    return SpectralData(clusters, similarity, t)


def frozen_position(transversal, z):
    """``Transversal.position``: Re(z/tau) - offset, by Python's complex
    division for a Python number and numpy's for a numpy scalar."""
    return (z / transversal.tau).real - transversal.offset


def frozen_reduce(transversal, lam):
    """``Transversal.reduce``: ``(lam - shift*tau, shift)``, the position
    snapped to an integer within 1e-12 relative of it, else floored."""
    pos = frozen_position(transversal, lam)
    nearest = round(pos)
    if abs(pos - nearest) < 1e-12 * max(1.0, abs(pos)):
        shift = int(nearest)
    else:
        shift = math.floor(pos)
    return lam - shift * transversal.tau, shift


def frozen_boundary_distance(transversal, z):
    """``Transversal.boundary_distance``: the strip coordinate's distance
    to the nearest boundary."""
    t = frozen_position(transversal, z) % 1.0
    return min(t, 1.0 - t)


def _stacked(a):
    """``(powers, stack)`` of ``a``, read through its ``terms`` view."""
    return (np.array(a.powers(), dtype=int),
            np.array(list(a.terms.values()), dtype=complex).reshape(-1, a.dim, a.dim))


# ---------------------------------------------------------------------------
# frozen generator kernels
# ---------------------------------------------------------------------------
# Not oracles: bit-exact copies of the library's gauge calculus as it stood
# when the benchmark's inputs were fixed, for ``tests/util.py`` (see the
# module docstring).  They work on ``(powers, stack)`` slabs, ascending
# powers and their ``(K, n, n)`` coefficients, and build a ``PolyMat`` only
# through its public constructor.  Do not change them to follow the library.

_FROZEN_SLAB_BYTES = 512 * 1024

def _frozen_kept(powers, stack):
    """The slab without its exact-zero slices, as every library result
    dropped them."""
    kept = np.any(stack, axis=(1, 2))
    if not kept.all():
        powers, stack = powers[kept], stack[kept]
    return powers, stack


def _frozen_value(like, slab, diagnostics=None):
    """The ``PolyMat`` of ``slab`` over the parameters of ``like``."""
    powers, stack = slab
    return PolyMat(like.dim, dict(zip(powers.tolist(), stack)), like.tau, like.q,
                   diagnostics)


def _frozen_inverse(c, what):
    """Inverse of ``c``, refused below a 1-norm reciprocal condition number
    of machine epsilon."""
    try:
        c_inv = np.linalg.inv(c)
    except np.linalg.LinAlgError:
        c_inv = None
    rcond = (0.0 if c_inv is None
             else 1.0 / (np.linalg.norm(c, 1) * np.linalg.norm(c_inv, 1)))
    if not rcond >= np.finfo(float).eps:
        raise ValidationFailure("%s is singular to working precision "
                                "(reciprocal condition number %.1e)" % (what, rcond))
    return c_inv


def _frozen_term(slab, k):
    powers, stack = slab
    i = int(np.searchsorted(powers, k))
    if i < len(powers) and powers[i] == k:
        return stack[i].copy()
    return np.zeros(stack.shape[1:], dtype=complex)


def _frozen_dense(slab, lo, hi):
    powers, stack = slab
    out = np.zeros((max(hi - lo + 1, 0),) + stack.shape[1:], dtype=complex)
    inside = (lo <= powers) & (powers <= hi)
    out[powers[inside] - lo] = stack[inside]
    return out


def _frozen_sum(x, y):
    """``x + y``: one np.unique over both supports."""
    (xp, xc), (yp, yc) = x, y
    found, slot = np.unique(np.concatenate([xp, yp]), return_inverse=True)
    out = np.zeros((len(found),) + xc.shape[1:], dtype=complex)
    out[slot[:len(xp)]] = xc
    out[slot[len(xp):]] += yc
    return _frozen_kept(found, out)


def _frozen_product(x, y, lo, hi):
    """The powers ``lo..hi`` of ``x * y``, block Toeplitz: the landing
    powers in chunks of at most ``_FROZEN_SLAB_BYTES`` of left
    coefficients, one GEMM per chunk."""
    (xp, xc), (yp, yc) = x, y
    n, width = xc.shape[1], len(yp)
    sums = (xp[:, None] + yp).ravel()
    pairs = np.arange(len(sums))
    inside = (lo <= sums) & (sums <= hi)
    sums, pairs = sums[inside], pairs[inside]
    if not len(sums):
        return sums, np.zeros((0, n, n), dtype=complex)
    order = np.argsort(sums, kind="stable")
    sums, (left, right) = sums[order], np.divmod(pairs[order], width)
    opens = np.flatnonzero(np.diff(sums, prepend=sums[0] - 1))
    closes = np.append(opens[1:], len(sums))
    landing, slot = sums[opens], np.repeat(np.arange(len(opens)), closes - opens)
    low, high = right[closes - 1], right[opens]
    out = np.empty((len(landing), n, n), dtype=complex)
    budget = max(1, _FROZEN_SLAB_BYTES // (out.itemsize * n * n))
    c0 = 0
    while c0 < len(landing):
        j0 = np.minimum.accumulate(low[c0:])
        j1 = np.maximum.accumulate(high[c0:]) + 1
        cost = np.arange(1, len(j0) + 1) * (j1 - j0)
        kc = max(1, int(np.searchsorted(cost, budget, side="right")))
        j0, j1, c1 = j0[kc - 1], j1[kc - 1], c0 + kc
        take = slice(opens[c0], closes[c1 - 1])
        slab = np.zeros((kc, n, j1 - j0, n), dtype=complex)
        slab[slot[take] - c0, :, right[take] - j0, :] = xc[left[take]]
        np.matmul(slab.reshape(kc * n, -1), yc[j0:j1].reshape(-1, n),
                  out=out[c0:c1].reshape(kc * n, n))
        c0 = c1
    return _frozen_kept(landing, out)


def _frozen_sheared(x, similarity, exponents, tau, drift):
    """``S^-1 X_k S`` at each power, then ``X_ij(z) -> X_ij(z) z**(e_j -
    e_i)`` as one scatter, plus ``diag(tau e)`` at power 0 with ``drift``."""
    powers, stack = x
    s = similarity
    out = _frozen_kept(powers, _frozen_inverse(s, "constant gauge") @ stack @ s)
    exps = np.array(exponents, dtype=int)
    if not np.any(exps):
        return out
    powers, stack = out
    n = stack.shape[1]
    landing = powers[:, None, None] + (exps[None, :] - exps[:, None])
    found, slot = np.unique(landing, return_inverse=True)
    shifted = np.zeros((len(found), n, n), dtype=complex)
    rows, cols = np.indices((n, n))
    shifted[slot.reshape(landing.shape), rows, cols] = stack
    out = _frozen_kept(found, shifted)
    if drift:
        out = _frozen_sum(out, _frozen_kept(np.zeros(1, dtype=int),
                                            np.diag(tau * exps)[None]))
    return out


def _frozen_step(p):
    """``(similarity, exponents)`` of a constant gauge C, ``(C, zeros)``, or
    of a diagonal monomial ``diag(v_i z**e_i)``, ``(diag(v), e)``; else
    None."""
    powers, stack = p
    n = stack.shape[1]
    if not powers.any():
        return _frozen_term(p, 0), (0,) * n
    diags = np.diagonal(stack, axis1=1, axis2=2)
    hits = diags != 0
    if np.any(stack - diags[:, :, None] * np.eye(n)) or np.any(hits.sum(axis=0) != 1):
        return None
    slot = hits.argmax(axis=0)
    return np.diag(diags[slot, np.arange(n)]), tuple(powers[slot].tolist())


def _frozen_inverse_series(p, order):
    """The series inverse of ``p`` through power ``order``: ``g_k = -p_0^-1
    (p_1 g_(k-1) + ... + p_k g_0)``, the sum one GEMM per order."""
    powers, stack = p
    if order < 0:
        raise ValidationFailure("series inverse needs an order of at least 0, got %d" % order)
    if not len(powers) or powers[0] < 0:
        raise ValidationFailure("series inverse needs lowest power at 0")
    c0_inv = _frozen_inverse(_frozen_term(p, 0), "constant term of the series")
    n = stack.shape[1]
    lead = _frozen_dense(p, 1, order).transpose(1, 0, 2).reshape(n, -1)
    solved = np.empty((order + 1, n, n), dtype=complex)
    solved[order] = c0_inv
    for k in range(1, order + 1):
        rhs = -(lead[:, :k * n] @ solved[order - k + 1:].reshape(k * n, n))
        solved[order - k] = c0_inv @ rhs
    return _frozen_kept(np.arange(order + 1), solved[::-1].copy())


def frozen_transport(x, p, order, drift):
    """``gauge_transform(x, p, order)`` with ``drift`` set, else
    ``dilation_transform``, as the library formed them when the benchmark's
    inputs were fixed: a constant or diagonal monomial gauge as a recorded
    shear, a series gauge through its truncated inverse by windowed
    block-Toeplitz products over the powers ``min(lowest, 0)`` to ``order +
    1``, cut at ``order`` with its ``truncation_residual``."""
    if x.dim != p.dim:
        raise ValidationFailure("gauge dimension mismatch")
    xs, ps = _stacked(x), _stacked(p)
    step = _frozen_step(ps)
    if step is not None:
        return _frozen_value(x, _frozen_sheared(xs, *step, x.tau, drift))
    if order is None:
        raise ValidationFailure("series gauge needs an explicit truncation order")
    p_inv = _frozen_inverse_series(ps, order)
    lo, hi = min(x.min_power, 0), order + 1
    stop = np.searchsorted(xs[0], hi, side="right")
    full = _frozen_product(p_inv, _frozen_product((xs[0][:stop], xs[1][:stop]), ps, lo, hi),
                           lo, hi)
    if drift:
        delta = _frozen_kept(ps[0], np.asarray(p.tau * ps[0], dtype=complex)[:, None, None]
                             * ps[1])
        full = _frozen_sum(full, _frozen_product(p_inv, delta, lo, hi))
    stop = np.searchsorted(full[0], order, side="right")
    return _frozen_value(x, (full[0][:stop], full[1][:stop]), {
        "truncation_residual": float(np.linalg.norm(_frozen_term(full, order + 1)))})


def frozen_shear(a, b, sdata, cluster_shifts, tol=DEFAULT_TOL):
    """``(a, b)`` through the recorded shear that moves cluster j of
    ``sdata``, the clustered spectral data of ``a.term(0)``, by
    ``cluster_shifts[j]`` tau: ``laurent.shear`` of ``a``, with its
    regularity cut, then ``apply_shear_dilation`` of ``b``, as the library
    formed them when the benchmark's inputs were fixed."""
    exponents = []
    for c, shift in zip(sdata.clusters, cluster_shifts):
        exponents.extend([int(shift)] * c.multiplicity)
    if all(e == 0 for e in exponents):
        eye = np.eye(a.dim, dtype=complex)
        return a.copy(), _frozen_value(b, _frozen_sheared(_stacked(b), eye, exponents,
                                                          b.tau, False))
    s = sdata.similarity.copy()
    powers, stack = _stacked(a)
    reach = max(exponents) - min(exponents)
    scale = float(np.linalg.norm(stack[:np.searchsorted(powers, reach - 1, side="right")],
                                 axis=(1, 2)).max(initial=0.0))
    powers, stack = _frozen_sheared((powers, stack), s, exponents, a.tau, True)
    sizes = np.linalg.norm(stack[powers < 0], axis=(1, 2))
    poles = np.flatnonzero(sizes > tol.eps_res * (scale + 1.0))
    if poles.size:
        raise RegularityViolation(
            "shear would create a pole: coefficient of z**%d has norm %.3e"
            % (powers[powers < 0][poles[0]], sizes[poles[0]]))
    start = np.searchsorted(powers, 0)
    return (_frozen_value(a, (powers[start:], stack[start:])),
            _frozen_value(b, _frozen_sheared(_stacked(b), s, exponents, b.tau, False)))
