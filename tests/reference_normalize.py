"""Frozen copies of normalization's series and fold steps, the oracle of
their fast path.

``frozen_series``, ``frozen_truncated_inverse``, ``frozen_series_gauge``,
``frozen_finished`` and ``frozen_shift`` are ``laurent._series``,
``laurent.truncated_inverse``, ``category._series_gauge``,
``laurent._finished`` and ``laurent._shift`` as they stood before their
per-order and per-operand numpy overhead was cut: each order's right-hand
side negated after its GEMM, each kept coupling's product formed and added
alone, the gaps and refusals of the series gauge read as numpy scalars,
and the fold's level structure, its conjugation and its norms built once
per operand, each norm through ``np.linalg.norm``.  ``frozen_checked_inverse``
and ``frozen_norms`` are the helpers they called.  Patched into
``normalize``, they must give the library's outputs to the bit
(``tests/test_exits.py``).

They live apart from ``reference.py`` and from the generator kernels
``tests/util.py`` imports, so that no benchmark process compiles them.
"""

import math

import numpy as np

from eqconn import numkit
from eqconn.exceptions import (
    NumericFailure,
    RegularityViolation,
    SpectrumCollision,
    ValidationFailure,
)

_MACHINE_EPS = np.finfo(float).eps
_INT64 = np.iinfo(np.int64)


def _frozen_check_landing(lo, hi):
    if not (_INT64.min <= lo and hi <= _INT64.max):
        raise NumericFailure("a power in %d..%d has no int64 value" % (lo, hi))


def _frozen_nonzero(powers, stack):
    kept = np.any(stack, axis=(1, 2))
    if not kept.all():
        powers, stack = powers[kept], stack[kept]
    return powers, stack


def frozen_checked_inverse(c, what):
    """``laurent._checked_inverse`` as it stood."""
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


def frozen_norms(stack):
    """``laurent._norms`` as it stood."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(stack, axis=(1, 2))


def frozen_series(f, order, first, solve, basis=None, levels=None):
    """``laurent._series`` as it stood."""
    n = f.dim
    lead = f._dense(1, order)
    if basis is not None:
        s, s_inv = basis
        lead = s_inv @ lead @ s
    lead = lead.transpose(1, 0, 2).reshape(n, -1)
    steps = 0 if levels is None else levels[None, :] - levels[:, None]
    kept_orders = set(np.ravel(steps).tolist())
    solved = np.empty((order + 1, n, n), dtype=complex)
    solved[order] = first
    rows, kept = solved.reshape(-1, n), []
    for k in range(1, order + 1):
        rhs = np.matmul(lead[:, :k * n], rows[(order - k + 1) * n:], out=solved[order - k])
        np.negative(rhs, out=rhs)
        for j, r in kept:
            rhs += solved[order - k + j] @ r
        if k in kept_orders:
            mask = steps == k
            if np.any(rhs[mask]):
                kept.append((k, np.where(mask, -rhs, 0.0)))
                rhs[mask] = 0.0
        if solve is not None:
            solved[order - k] = solve(k, rhs)
    if basis is not None:
        solved[:order] = s @ solved[:order] @ s_inv
    return f._derive(np.arange(order + 1), solved[::-1].copy())


def frozen_truncated_inverse(f, order):
    """``laurent.truncated_inverse`` as it stood."""
    if order < 0:
        raise ValidationFailure("series inverse needs an order of at least 0, got %d" % order)
    if f.is_zero() or f.min_power < 0:
        raise ValidationFailure("series inverse needs lowest power at 0")
    eye = np.eye(f.dim, dtype=complex)
    if f.min_power == 0 and (f._coeffs[0] == eye).all():
        return frozen_series(f, order, eye, None)
    c0_inv = frozen_checked_inverse(f.term(0), "constant term of the series")
    return frozen_series(f, order, c0_inv, lambda k, rhs: c0_inv @ rhs)


def frozen_series_gauge(a, form, fold, tau, order, tol):
    """``category._series_gauge`` as it stood, solving through
    ``numkit._triangular_sylvester``."""
    t, q, groups, _, w, _ = form
    d, levels, basis = np.diag(t), None, (q, q.conj().T)
    if fold is not None:
        levels = -np.array(fold.exponents)
        owner = np.repeat(np.arange(len(groups)), [g1 - g0 for g0, g1, _ in groups])
        t = np.where(owner[:, None] == owner, t, 0.0)
        basis = (fold.similarity, w @ q.conj().T)
    ks = np.arange(1, order + 1)[:, None, None]
    gaps = np.abs(d[:, None] - d[None, :] + tau * ks)
    if levels is not None:
        gaps[levels[None, :] - levels[:, None] == ks] = np.inf
    smallest = gaps.min(axis=(1, 2))
    with np.errstate(over="ignore"):
        rounding = np.finfo(float).eps / 2 * max(1.0, np.linalg.norm(a.term(0)))
    watched = smallest <= max(tol.eps_spec, rounding)
    t = np.asfortranarray(t)
    shifted = np.repeat(t.T[None], order, axis=0).transpose(0, 2, 1)
    diagonal = np.arange(len(d))
    shifts = np.array([tau * k for k in range(1, order + 1)])
    shifted[:, diagonal, diagonal] = d + shifts[:, None]

    def solve(k, rhs):
        if watched[k - 1]:
            if not np.any(rhs):
                return 0.0
            if smallest[k - 1] <= tol.eps_spec:
                i, j = np.unravel_index(np.argmin(gaps[k - 1]), t.shape)
                raise SpectrumCollision(d[i] + k * tau, d[j], float(smallest[k - 1]))
        return numkit._triangular_sylvester(shifted[k - 1], t, rhs,
                                            close_ok=smallest[k - 1] > rounding)

    series = frozen_series(a, order, np.eye(a.dim), solve, basis=basis, levels=levels)
    return series, float(smallest.min())


def frozen_shift(powers, stack, exps, drift=None):
    """``laurent._shift`` as it stood."""
    n = stack.shape[1]
    levels = np.unique(exps)
    spread = int(levels[-1]) - int(levels[0])
    lo, hi = (int(powers[0]), int(powers[-1])) if len(powers) else (0, 0)
    _frozen_check_landing(lo - spread, hi + spread)
    group = np.searchsorted(levels, exps)
    sums = (powers[:, None] + (levels - levels[:, None]).ravel()).ravel()
    found = np.unique(sums if drift is None else np.append(sums, 0))
    slot = np.searchsorted(found, sums).reshape(len(powers), len(levels) ** 2)
    out = np.zeros((len(found), n, n), dtype=complex)
    entries = np.arange(n)
    out[slot[:, group[:, None] * len(levels) + group], entries[:, None], entries] = stack
    if drift is not None:
        zero = np.searchsorted(found, 0)
        if not out[zero].any():
            out[zero] = 0.0
        out[zero] += np.diag(drift)
    return found, out


def frozen_finished(parts, step=None, tol=None):
    """``laurent._finished`` as it stood."""
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
    s_inv = frozen_checked_inverse(s, "constant gauge")
    try:
        exps = np.array(step.exponents, dtype=np.int64)
    except OverflowError:
        raise NumericFailure("a shear exponent has no int64 value")
    reach = max(step.exponents, default=0) - min(step.exponents, default=0)
    out = []
    for x, powers, stack, drift, _ in parts:
        powers, stack = _frozen_nonzero(powers, stack)
        if tol is not None and not out:
            below = frozen_norms(stack[:np.searchsorted(powers, reach - 1, side="right")])
            threshold = tol.eps_res * (float(below.max(initial=0.0)) + 1.0)
        stack = s_inv @ stack @ s
        if np.any(exps):
            powers, stack = frozen_shift(powers, stack, exps, x.tau * exps if drift else None)
        if not np.isfinite(stack).all():
            raise NumericFailure("the gauge transport overflows")
        out.append(x._derive(powers, stack))
    if tol is not None:
        a = out[0]
        sizes = frozen_norms(a._coeffs)[a._powers < 0]
        poles = np.flatnonzero(sizes > threshold)
        if poles.size:
            raise RegularityViolation(
                "shear would create a pole: coefficient of z**%d has norm %.3e"
                % (a._powers[poles[0]], sizes[poles[0]]))
        out[0] = a.truncate(a.max_power, lo=0)
    return out
