"""Frozen copies of the round trip's steps, the oracle of its fast path.

``frozen_log_schur`` (with ``frozen_block_function``),
``frozen_validated_monodromy``, ``frozen_commutator_residual`` and
``frozen_validate_normal_form`` are ``numkit._log_schur``,
``numkit._block_function``, ``category._validated_monodromy``,
``category._commutator_residual`` and ``category.validate_normal_form`` as
they stood before their fixed costs were cut: each group mean's logarithm
taken twice, the block function's diagonals through
``np.diag_indices_from``, one SVD call per matrix, every division by 1.0
made, and the strip tested one ``Transversal.contains`` per eigenvalue and
per group mean.  Patched into ``from_monodromy``, they must give the
library's outputs to the bit (``tests/test_exits.py``).

They live apart from ``reference.py``, which the benchmark's set-up
imports, and so compiles, on every cold start: these 90 lines there raised
its peak RSS by about 1 MB.
"""

import cmath
import math

import numpy as np

from eqconn import numkit
from eqconn.exceptions import ValidationFailure
from eqconn.numkit import DEFAULT_TOL
from eqconn.torus import TWO_PI_I


def frozen_block_function(v, w, d):
    """``numkit._block_function`` as it stood."""
    mean = np.trace(d) / len(d)
    d[np.diag_indices_from(d)] -= mean
    f = v @ d @ w
    f[np.diag_indices_from(f)] += mean
    return f


def frozen_log_schur(m, transversal, tol, svals=None):
    """``numkit._log_schur`` as it stood."""
    if not m.size:
        svals = np.zeros(1)
    elif svals is None:
        svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] <= tol.eps_res * svals[0]:
        raise ValidationFailure("matrix logarithm requested for a singular matrix")
    _, t, q, groups, v, w, _ = numkit._bounded_groups(*numkit._clustered_schur(m, tol), tol)
    scale = transversal.tau / TWO_PI_I
    shifts = numkit._cluster_shifts(t, groups, transversal, lambda values: np.array(
        [scale * cmath.log(z) for z in values.tolist()], dtype=complex))
    logs = [cmath.log(lam) - TWO_PI_I * shift for (_, _, lam), shift in zip(groups, shifts)]
    if len(groups) == len(t):
        return frozen_block_function(v, w, np.diag(scale * (np.array(logs) + 0.0))), q
    d = np.zeros(t.shape, dtype=complex)
    for (s0, s1, lam), z in zip(groups, logs):
        d[s0:s1, s0:s1] = scale * (z * np.eye(s1 - s0)
                                   + numkit._atomic_log_series(t[s0:s1, s0:s1], lam))
    return frozen_block_function(v, w, d), q


def frozen_commutator_residual(a, b, tol, error, message):
    """``category._commutator_residual`` as it stood."""
    unit, factor = [], 1.0
    for m in (a, b):
        m = np.ascontiguousarray(m, dtype=complex)
        part = max(1.0, np.abs(m.view(float)).max(initial=0.0))
        m = m / part
        size = max(1.0, math.sqrt(np.vdot(m, m).real))
        unit.append(m / size)
        factor *= float(part) * size
    comm = float(np.linalg.norm(unit[0] @ unit[1] - unit[1] @ unit[0]))
    if not comm <= tol.eps_res:
        raise error("%s: residual %.3e" % (message, comm * factor))
    return comm * factor if comm else 0.0


def frozen_validated_monodromy(rep, tol):
    """``category._validated_monodromy`` as it stood."""
    shape = np.shape(rep.M1)
    if len(shape) != 2 or shape[0] != shape[1] or np.shape(rep.M2) != shape:
        raise ValidationFailure("M1 and M2 must be square matrices of one size")
    diag, svals_of = {}, []
    for name, m in (("M1", rep.M1), ("M2", rep.M2)):
        svals = np.linalg.svd(m, compute_uv=False) if rep.n else np.array([1.0])
        svals_of.append(svals)
        diag[name + "_smallest_singular_value"] = float(svals[-1]) if svals.size else 0.0
        if numkit._is_singular(svals, tol):
            raise ValidationFailure("%s is singular" % name)
    diag["commutator_residual"] = frozen_commutator_residual(
        rep.M1, rep.M2, tol, ValidationFailure, "matrices do not commute")
    return diag, svals_of


def frozen_validate_normal_form(nf, tol=DEFAULT_TOL):
    """``category.validate_normal_form`` as it stood, for a normal form of
    the strip's own tau with square A0 and B0 of one size."""
    def contains(z):
        return -tol.eps_spec <= nf.transversal.position(z) < 1.0 + tol.eps_spec

    diag = {}
    if nf.n:
        t, q, blocks = nf.schur_form(tol)
        if not all(contains(lam) for lam in np.diag(t)):
            outside = sum(s1 - s0 for s0, s1, lam
                          in numkit._bounded_groups(t, q, blocks, tol)[3] if not contains(lam))
            if outside:
                raise ValidationFailure("normal form has %d eigenvalue(s) outside the strip"
                                        % outside)
        diag["commutator_residual"] = frozen_commutator_residual(
            nf.A0, nf.B0, tol, ValidationFailure, "constant pair does not commute")
        svals = nf._memo.get("b_singular_values")
        if svals is None:
            svals = np.linalg.svd(nf.B0, compute_uv=False)
        diag["b_smallest_singular_value"] = float(svals[-1])
        if numkit._is_singular(svals, tol):
            raise ValidationFailure("dilation matrix of the normal form is singular")
    return diag
