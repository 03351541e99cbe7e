"""Slow, self-contained references for the fast paths of eqconn.

``_clustered_schur`` is a complex Schur form sorted by eigenvalue cluster
through adjacent Givens swaps, a selection sort; the library's, made
contiguous by LAPACK's ztrsen, must give the same blocks.  ``_parlett`` is
the block Parlett recurrence on it, one Sylvester solve per pair of
blocks, where the library block diagonalizes the Schur form instead.

``reference_fold`` is the cluster-by-cluster fold of a spectrum into a strip
on these two.  The test generators fold with it, so their inputs do not
move when the library's fold does, and the fold tests use it as the oracle.
``frozen_fold`` is the library's fold as it once finished, the block
function ``v diag(t_gg - k_g tau I) w`` over the shift groups; the fold's
projector update ``t - tau v K w`` must match it to rounding.
``frozen_projector_groups`` is ``category._projector_groups`` as it stood
when Hom alone grouped clusters by the norms of their spectral projectors,
with frozen copies of the ztrsyl split, the ztrsen reorder and the
Cholesky factors it called; on the Hom tests' inputs
``numkit._bounded_groups`` must give the same groups and, orthonormalized
by the same Cholesky factors, the same projector factors, to the bit.
``reference_log_transversal`` is the branch-chosen logarithm on them, with
``scipy.linalg.logm`` on each cluster's block.  ``reference_tensor`` and
``reference_dual`` fold the dense Kronecker sum of two normal forms, and
``-A0^T`` of one, with ``reference_fold``: the library builds their Schur
forms from the factors' instead.

``frozen_tensor`` is ``eqconn.category.tensor`` as it stood before it
built a product from its factors' spectral projectors: the factors' Schur
forms ordered along the strip by their cluster means, the permuted
Kronecker sum folded by ``numkit._fold`` (a ztrsyl split over the
product's shift groups and an N x m x N projector update), and ``A0 = Q f
Q^H``.  The factor route must match its A0 and its shifts to rounding.

``frozen_group_blocks``, ``frozen_cluster_triangular``,
``frozen_hom_components``, ``frozen_hom_basis`` and ``frozen_label_array`` are
the library's paths as they stood before each took an exit on a property
of its input: the ``np.unique`` read-off of the groups after a ztrsen
reorder, the eps_spec graph over every pair of diagonal entries, the
component graph over every pair of Hom groups, ``np.linalg.qr`` for the
Hom basis, and ``eigvals`` for the labels of every cluster, one entry
included.  ``frozen_merge_keys`` is ``numkit._merge_keys`` as it stood
with the m x m box test over every pair of keys.  The library finds the
near pairs by one sort instead (``numkit._near_pairs``), keeps ``eigvals``
as the fallback where the diagonal's exit fails, and must give these bits
on every input.

``reference_decompose`` peels joint eigenvectors off a commuting pair one at
a time; the ``decompose`` tests match the library's labels to it.

``reference_k0_entries`` and ``reference_divisor_points`` are the
pairwise loops ``K0Class`` and ``Divisor`` once merged their keys with: each
key, in order, compared with every representative kept so far, each label
reduced and each result ordered by the frozen scalar kernels below.  The
library's one merge over a proximity matrix must give the same entries,
element for element.  ``reference_divisor_equivalent`` is
``divisor_equivalent`` as it stood when negating a divisor reduced and
merged its points again, so that the difference took two merges.

``reference_spectral`` is ``eqconn.numkit.spectral`` as it stood, one block
per ``eps_spec`` cluster, on the Givens-sorted Schur form above: ``scramble``
takes its shears from it, so the scrambled inputs do not move when the
library's spectral code does.
``reference_spectral_diagnostics`` computes the residuals ``spectral`` once
computed eagerly.

``reference_sylvester`` is ``scipy.linalg.solve_sylvester`` for
``A X - X B = C``; the folds, ``reference_spectral`` and
``reference_series_gauge`` solve with it, the library's
``eqconn.numkit.solve_sylvester`` must match it to the bit, and the series
gauge's solves on one Schur form must match it to rounding.
The library's ``spectral`` block diagonalizes the same Schur form with one
ztrsyl per projector-bounded group instead, and matches ``reference_spectral``
to rounding wherever no clusters join.

``reference_hom_basis`` and ``reference_hom_mode_dims`` take the kernel of
the whole stacked Kronecker system of the intertwining equations, one SVD
per Hom or mode; the library's Hom by eigenvalue component must match their
dimensions and spaces.

``reference_is_nori_finite`` is ``eqconn.torus.is_nori_finite`` on the
block diagonal form of ``eqconn.numkit.spectral``, whose blocks are the
groups of ``numkit._bounded_groups``; the library tests each cluster of
the clustered Schur form first and groups only when all of them pass.

``reference_normalize`` is ``eqconn.category.normalize`` as it stood when it
sheared every cluster into the strip and formed every power: B sheared
inside the shear loop at all its powers, each shear two gauge transforms
(``reference_shear``: a constant and a monomial ``PolyMat``, the monomial
detected one coefficient at a time by ``reference_monomial``), a pole
checked against the norm of the whole series, the series gauge one
``reference_sylvester`` per order (``reference_series_gauge``), and full
products in the series transport (``reference_transport``).  The
library, which shears only resonant input and folds the rest once, must
find a normal form isomorphic to it, with the same K0 class and conjugate
monodromy.  It takes its input as given:
the library balances by ``z -> rho z`` first, and is compared with it on
``reference_balance`` of its input, which scales each part of each
coefficient of power k by ``rho**k`` one at a time.

``reference_residuals`` and ``reference_equivariance_norm`` are the
residuals of ``normalize`` and ``validate`` by the PolyMat arithmetic they
were once taken with: the part of a value off power 0 as ``p -
p.truncate(0, lo=0)``, rescaled by ``reference_rescaled``, and the
residual ``equivariance_residual(a, b)`` formed as a PolyMat; each norm is
``reference_largest_norm``, one ``np.linalg.norm`` over a fresh stack of
the ``terms``.  The library reads them off each slab's cached norm vector
and must give the same floats, to the bit.

``reference_product``, ``reference_conjugate`` and ``reference_clean_terms``
are the Laurent arithmetic one coefficient at a time: a matmul per pair of
powers, a conjugation per coefficient, and a check per coefficient.  The
stacked arithmetic of ``eqconn.laurent`` must give the same powers, in
ascending order, with values within rounding of theirs.

The frozen generator kernels at the end, ``frozen_shear`` and
``frozen_transport``, are not oracles: they are bit-exact copies of what
``tests/util.py`` once called in ``eqconn.laurent`` (``shear`` with its
regularity cut, ``apply_shear_dilation``, and ``gauge_transform`` and
``dilation_transform`` by constant, monomial and series gauges: the slab
product with its GEMM shapes, the exact-zero drops, the series-inverse
recurrence and the windowed transport with its ``truncation_residual``),
on ``(powers, stack)`` slabs, building a ``PolyMat`` only through its
public constructor.  The benchmark's inputs come from them, so the
library's gauge calculus can change without moving those inputs; they stay
as they are.  ``reference_transport`` remains the oracle of the transports.

``frozen_gauged_pair`` is, in the same way, ``laurent._gauged_pair`` as it
stood when normalization's gauge pass was three passes over values: the
series transport (on the circle or by block products, through the series
inverse of the checked lead term and ``frozen_balancing_radius``, the
balancing radius by its full formula), each result cut and checked, then
the fold and its array shift (one ``np.unique`` over every entry's landing
power), then the regularity check.  The one pass must give the same
values, to the bit, and the same exceptions.

The frozen label kernels, ``frozen_position``, ``frozen_reduce``,
``frozen_boundary_distance``, ``frozen_cluster_shifts``, ``frozen_canon``,
``frozen_reduce_mod_lattice`` and ``frozen_lex_key``, are the scalar code
the library once reduced, keyed and ordered labels with, one value at a
time: ``Transversal``'s position, reduction and boundary distance,
``numkit._cluster_shifts`` with its warnings, ``K0Class._canon``,
``torus.reduce_mod_lattice`` and ``category._lex_key``.  The library does
each on arrays and must give the same shifts, warnings, entries, points
and order, to the bit.  ``reference_fold``, ``reference_log_transversal``,
``reference_normalize``, the K0 and divisor oracles and ``tests/util.py``'s
strip margin take them, so neither the generators' inputs nor the oracles
move with the library's label code.

``ReferenceFreeBundle`` keeps a bundle's connection as an n x n list of
``TorusPoly`` and checks it one entry at a time; ``reference_psi_star``,
``reference_extension_morphism_residuals`` (products through
``_mat_mul_torus``, a triple loop of algebra products) and
``reference_build_extension`` work on it, and
``reference_encode_free_bundle``/``reference_decode_free_bundle`` are the
serializer on it.  The library's coefficient stacks must match them to the
bit, entry by entry and support by support, and encode to the same bytes.
"""

import cmath
import math
import warnings

import numpy as np
import scipy.linalg

from eqconn import serialize
from eqconn.category import (
    EquivariantConnection,
    equivariance_residual,
    MonodromyPair,
    NormalForm,
    _blocks,
    _component_bases,
    _hom_side,
    _kron,
    _nullspace_scaled,
    _side_keys,
    validate,
    validate_normal_form,
)
from eqconn.exceptions import (
    NonConstantB,
    NumericFailure,
    RegularityViolation,
    ValidationFailure,
)
from eqconn.laurent import (
    PolyMat,
    ShearStep,
    _checked_inverse,
    truncated_inverse,
)
from eqconn.numkit import (
    DEFAULT_TOL,
    SpectralCluster,
    SpectralData,
    TransversalBranchWarning,
    _block_arrays,
    _cluster_triangular,
    _fold,
    _group_blocks,
    _lex_order,
    mat_norm,
    nullspace,
    spectral,
)
from eqconn.torus import TWO_PI_I, Divisor, TorusPoly


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


def frozen_fold(t, v, w, groups, tau):
    """``eqconn.numkit._fold`` as it stood before its projector update: the
    block function ``v diag(t_gg - k_g tau I) w`` of the grouped triangular
    ``t`` and ``(v, w)`` of ``numkit._decouple`` over ``groups = [(start,
    stop, k_g), ...]``, with the mean of the diagonal taken out before the
    products and added back after them (``numkit._block_function``)."""
    d = np.zeros(v.shape, dtype=complex)
    for g0, g1, shift in groups:
        d[g0:g1, g0:g1] = t[g0:g1, g0:g1] - (shift * tau) * np.eye(g1 - g0)
    mean = np.trace(d) / len(d)
    d[np.diag_indices_from(d)] -= mean
    f = v @ d @ w
    f[np.diag_indices_from(f)] += mean
    return f


def frozen_projector_groups(t, q, blocks):
    """``eqconn.category._projector_groups`` as it stood when Hom alone
    grouped clusters: clusters are grouped until the spectral projector of
    each group has Frobenius norm at most 1e4, a group whose projector
    exceeds it joined to the nearest cluster outside it and the groups made
    contiguous by ztrsen (``_frozen_group_blocks``) and split by ztrsyl
    (``_frozen_decouple``) again.  Returns ``(group, t, q, runs, u, lh)``:
    the group of each cluster, the grouped Schur form with the block
    ``(start, stop)`` of each group, and ``u = v rho^-1``, ``lh = rho w`` for
    the ``(v, w)`` of the last split and the Cholesky factor ``rho`` of each
    group's Gram matrix of ``v``.  Every LAPACK step is a frozen copy of the
    library's as it stood then, so no change to the library moves it."""
    n = t.shape[0]
    if len(blocks) < 2:
        eye = np.eye(n, dtype=complex)
        return [0] * len(blocks), t, q, [(0, n)] * len(blocks), eye, eye
    form = t, q
    runs = [(start, stop) for start, stop, _ in blocks]
    group = list(range(len(blocks)))
    near = None
    while True:
        v, w = _frozen_decouple(t, runs)
        starts = [start for start, _ in runs]
        within = (np.add.reduceat(np.einsum("ij,ij->j", v.conj(), v).real, starts)
                  * np.add.reduceat(np.einsum("ij,ij->i", w.conj(), w).real, starts)
                  <= 1e4 ** 2)
        if within.all() or len(runs) == 1:
            owner = np.repeat(np.arange(len(runs)), np.diff(starts + [n]))
            gram = (v.conj().T @ v) * (owner[:, None] == owner)
            rho, info = scipy.linalg.lapack.zpotrf(gram)
            assert info == 0
            rho_inv = scipy.linalg.lapack.ztrtri(rho)[0]
            return group, t, q, runs, v @ rho_inv, rho @ w
        if near is None:
            values = np.array([lam for _, _, lam in blocks], dtype=complex)
            near = np.eye(len(blocks), dtype=bool)
        ill = np.flatnonzero(~within)
        group = np.array(group)
        for g in ill:
            inside, outside = np.flatnonzero(group == g), np.flatnonzero(group != g)
            gaps = np.abs(values[inside, None] - values[outside])
            i, j = np.unravel_index(gaps.argmin(), gaps.shape)
            near[inside[i], outside[j]] = near[outside[j], inside[i]] = True
        group = _frozen_components(near)
        t, q, runs = _frozen_group_blocks(*form, blocks, group)


def _frozen_decouple(t, runs):
    """``(v, w)``, ``w = v^-1`` block diagonalizing the triangular ``t`` on
    the contiguous ``runs = [(start, stop), ...]``: row block i of ``w`` is
    ``[0, I, -r_i]``, r_i one ztrsyl splitting block i from the blocks after
    it, and ``v`` is ``[[I, -w_01], [0, I]]`` for two blocks, else ztrtri's
    inverse of ``w``."""
    n = t.shape[0]
    w = np.eye(n, dtype=complex)
    if len(runs) < 2:
        return np.eye(n, dtype=complex), w
    for start, stop in runs[:-1]:
        y, scale, info = scipy.linalg.lapack.ztrsyl(
            t[start:stop, start:stop], t[stop:, stop:], t[start:stop, stop:], isgn=-1)
        assert info >= 0
        w[start:stop, stop:] = y if scale == 1.0 else y / scale
    if len(runs) == 2:
        v = np.eye(n, dtype=complex)
        stop = runs[0][1]
        np.negative(w[:stop, stop:], out=v[:stop, stop:])
        return v, w
    v, info = scipy.linalg.lapack.ztrtri(w, unitdiag=1)
    assert info == 0
    return v, w


def _frozen_components(near):
    """Connected components of the graph with adjacency matrix ``near``,
    labelled in order of first appearance."""
    label, count = [-1] * len(near), 0
    for first in range(len(near)):
        if label[first] < 0:
            label[first], stack = count, [first]
            while stack:
                for k in np.flatnonzero(near[stack.pop()]).tolist():
                    if label[k] < 0:
                        label[k] = count
                        stack.append(k)
            count += 1
    return label


def _frozen_group_blocks(t, q, blocks, keys):
    """``frozen_group_blocks`` with runs ``(start, stop)``."""
    t, q, runs = frozen_group_blocks(t, q, blocks, keys)
    return t, q, [run[:2] for run in runs]


def frozen_group_blocks(t, q, blocks, keys):
    """``numkit._group_blocks`` as it stood when it read its groups off with
    ``np.unique``: the Schur form ``q t q^H`` reordered so that the clusters
    ``blocks`` sharing a key sit in one contiguous run, runs in increasing
    key: keys already increasing need no reordering; otherwise one ztrsen
    per key boundary selects every cluster up to it, skipped where the
    selection already sits on top.  Returns ``(t, q, runs)``, runs
    ``(start, stop, key)``."""
    if all(a <= b for a, b in zip(keys, keys[1:])):
        runs = []
        for (start, stop, _), key in zip(blocks, keys):
            if runs and runs[-1][2] == key:
                runs[-1] = (runs[-1][0], stop, key)
            else:
                runs.append((start, stop, key))
        return t, q, runs
    member = np.repeat(keys, [s1 - s0 for s0, s1, _ in blocks])
    own = False
    for level in sorted(set(keys))[:-1]:
        select = member <= level
        if select[:np.count_nonzero(select)].all():
            continue
        t, q, _, _, _, _, info = scipy.linalg.lapack.ztrsen(
            select, t, q, job="N", overwrite_t=own, overwrite_q=own)
        assert info == 0
        own = True
        member = np.concatenate([member[select], member[~select]])
    levels, counts = np.unique(member, return_counts=True)
    stops = np.cumsum(counts)
    return t, q, list(zip((stops - counts).tolist(), stops.tolist(), levels.tolist()))


def frozen_cluster_triangular(t, q, tol=DEFAULT_TOL):
    """``numkit._cluster_triangular`` as it stood with the graph alone:
    each eigenvalue its own cluster when the real parts of the diagonal are
    more than eps_spec apart, else the connected components of the graph
    ``|t_ii - t_jj| <= eps_spec`` (``_frozen_components``) made contiguous
    by ``frozen_group_blocks``, their means one ``np.add.reduceat``."""
    diagonal = np.diag(t)
    reals = np.sort(diagonal.real)
    if (reals[1:] - reals[:-1] > tol.eps_spec).all():
        n = len(diagonal)
        return t, q, list(zip(range(n), range(1, n + 1), (diagonal / 1).tolist()))
    labels = _frozen_components(np.abs(diagonal[:, None] - diagonal) <= tol.eps_spec)
    t, q, groups = frozen_group_blocks(t, q, [(i, i + 1, 0) for i in range(len(t))], labels)
    starts, stops = np.array([(start, stop) for start, stop, _ in groups]).T
    sizes = stops - starts
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.add.reduceat(np.diag(t), starts) / sizes
        wide = ~np.isfinite(means)
        if wide.any():
            means[wide] = np.add.reduceat(np.diag(t) / np.repeat(sizes, sizes), starts)[wide]
    return t, q, list(zip(starts.tolist(), stops.tolist(), means.tolist()))


def frozen_hom_components(x, side_x, y, side_y, k, tol=DEFAULT_TOL):
    """``category._hom_components`` as it stood with the graph alone: the
    components are the connected parts of the graph over both sides' groups
    whose edges join means within ``1e-4 (a_scale + |k tau|)``, the scales
    read off ``x`` and ``y`` per call; returns its stacks ``(y_basis,
    kernel, x_left)``."""
    shift, step = x.tau * k, abs(x.tau) * abs(k)
    a_scale = max(1.0, np.linalg.norm(x.A0), np.linalg.norm(y.A0))
    scale = max(a_scale, np.linalg.norm(x.B0), np.linalg.norm(y.B0))
    means = np.concatenate([side_x.means, side_y.means + shift])
    component = _frozen_components(np.abs(means[:, None] - means) <= 1e-4 * (a_scale + step))
    split = len(side_x.means)
    live = set(component[:split]) & set(component[split:])
    if not live:
        return []
    keys_x, index_x = _side_keys(component[:split], live)
    keys_y, index_y = _side_keys(component[split:], live)
    _, lhx, abx, x_at, x_size = _component_bases(side_x, keys_x)
    uy, _, aby, y_at, y_size = _component_bases(side_y, keys_y)
    classes = {}
    for c in sorted(live):
        i, j = index_x[c], index_y[c]
        classes.setdefault((x_size[i], y_size[j]), []).append((x_at[i], y_at[j]))
    out = []
    for (mx, my), starts in sorted(classes.items()):
        starts = np.array(starts)
        ix = starts[:, :1] + np.arange(mx)
        iy = starts[:, 1:] + np.arange(my)
        diag_y = _blocks(aby, iy)
        if k:
            diag_y[:, 0] += shift * np.eye(my)
            diag_y[:, 1] *= x.q ** k
        system = (_kron(_blocks(abx, ix).transpose(0, 1, 3, 2), np.eye(my))
                  - _kron(np.eye(mx), diag_y))
        which, kernel = _nullspace_scaled(system.reshape(len(starts), -1, mx * my),
                                          scale + step, tol)
        if len(kernel):
            kernel = kernel.reshape(-1, mx, my).transpose(0, 2, 1)
            out.append((uy[:, iy[which]].transpose(1, 0, 2), kernel, lhx[ix[which]]))
    return out


def frozen_hom_basis(x, y, tol=DEFAULT_TOL):
    """The ``phi`` of ``category.hom_basis(x, y)`` as it stood: the
    morphisms of ``frozen_hom_components`` on both objects' Hom sides,
    orthonormalized by ``np.linalg.qr``."""
    side_x, side_y = _hom_side(x, tol), _hom_side(y, tol)
    phis = [y_basis @ kernel @ x_left for y_basis, kernel, x_left
            in frozen_hom_components(x, side_x, y, side_y, 0, tol)]
    if not phis:
        return []
    phis = np.concatenate(phis)
    basis = np.linalg.qr(phis.reshape(phis.shape[0], -1).T)[0]
    return list(basis.T.reshape(-1, y.n, x.n))


def frozen_label_array(nf, tol=DEFAULT_TOL):
    """``category._labels`` as it stood: the b-labels of every cluster of
    the Schur form from batched ``np.linalg.eigvals`` of its diagonal
    blocks of the dilation ``q^H B0 q`` in the Schur basis, blocks of one
    size in one call, one-entry blocks included."""
    t, q, blocks = nf.schur_form(tol)
    b = q.conj().T @ nf.B0 @ q
    starts, sizes, means = _block_arrays(blocks)
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    below = float(np.linalg.norm(b[cluster[:, None] > cluster[None, :]]))
    if below > tol.eps_key * max(1.0, float(np.linalg.norm(nf.B0))):
        raise NumericFailure("dilation is not block triangular")
    labels = np.empty((len(cluster), 2), dtype=complex)
    labels[:, 0] = np.repeat(means, sizes)
    for size in np.unique(sizes).tolist():
        rows = starts[sizes == size][:, None] + np.arange(size)
        labels[rows, 1] = np.linalg.eigvals(b[rows[:, :, None], rows[:, None, :]])
    return labels[_lex_order(labels)]


def _frozen_apart(reals, radius):
    """Whether each gap between neighbours of ``reals`` in sorted order is
    above ``radius``."""
    reals = np.sort(reals)
    gaps = reals[1:] - reals[:-1]
    return np.count_nonzero(gaps > radius) == gaps.size


def frozen_merge_keys(keys, mults, radius):
    """``numkit._merge_keys`` as it stood with the m x m box test: keys
    whose first coordinates have real parts more than the largest radius
    of that coordinate apart are returned as they are; otherwise the pairs
    within the radius are a box test on the real and imaginary parts of
    every gap, then ``abs`` on the pairs in the box, and each key joins the
    first representative before it within that representative's radius."""
    m = len(keys)
    if m < 2 or _frozen_apart(keys[:, 0].real,
                              radius[:, 0].max() if isinstance(radius, np.ndarray) else radius):
        return keys, np.array(mults, dtype=np.int64)
    radius = np.broadcast_to(radius, keys.shape)
    box = np.ones((m, m), dtype=bool)
    for c in range(keys.shape[1]):
        gap = keys[:, c, None] - keys[:, c]
        box &= (np.abs(gap.real) <= radius[:, c]) & (np.abs(gap.imag) <= radius[:, c])
    i, j = np.nonzero(box)
    pair = i > j
    i, j = i[pair], j[pair]
    pair = (np.abs(keys[i] - keys[j]) <= radius[j]).all(axis=1)
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
        before = j[i == row]
        before = before[owner[before] == before]
        owner[row] = before[0] if before.size else row
    total = np.zeros(m, dtype=np.int64)
    np.add.at(total, owner, mults)
    kept = owner == np.arange(m)
    return keys[kept], total[kept]


def reference_log_transversal(m, transversal, eps_spec=1e-8):
    """Matrix A with ``exp(2*pi*i*A/tau) = m`` and spectrum inside the strip:
    on the Schur form above, one branch per cluster, chosen by the cluster's
    mean eigenvalue, the principal logarithm of each diagonal block from
    ``scipy.linalg.logm``, and the off-diagonal blocks from the block Parlett
    recurrence.  Like ``eqconn.numkit.log_transversal``, without its checks
    and warnings."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    t, q, blocks = _clustered_schur(m, eps_spec)
    scale = transversal.tau / (2j * np.pi)
    diagonal = []
    for s0, s1, lam in blocks:
        shift = frozen_reduce(transversal, scale * cmath.log(lam))[1]
        block = scipy.linalg.logm(t[s0:s1, s0:s1]) - 2j * np.pi * shift * np.eye(s1 - s0)
        diagonal.append(scale * block)
    return q @ _parlett(t, blocks, diagonal) @ q.conj().T


def reference_tensor(x, y, eps_spec=1e-8):
    """``(A0, shifts)`` of the tensor product of two normal forms: the dense
    Kronecker sum ``A_x (x) I + I (x) A_y`` through ``reference_fold``."""
    raw = np.kron(x.A0, np.eye(y.n)) + np.kron(np.eye(x.n), y.A0)
    return reference_fold(raw, x.transversal, eps_spec)


def frozen_tensor(x, y, tol=DEFAULT_TOL):
    """``(A0, (t, q, blocks), shifts)``: the A0, clustered Schur form and
    ``fold_shifts`` of ``x (x) y`` by the dense product fold."""
    tx, qx, kx = _frozen_strip_form(x, tol)
    ty, qy, ky = _frozen_strip_form(y, tol)
    order = np.argsort((kx[:, None] + ky[None, :]).ravel(), kind="stable")
    t = np.kron(tx, np.eye(y.n)) + np.kron(np.eye(x.n), ty)
    f, q, shifts = _fold(*_cluster_triangular(t[order[:, None], order],
                                              np.kron(qx, qy)[:, order], tol),
                         x.transversal, tol)
    t, q, blocks = _cluster_triangular(f, q, tol)
    return q @ t @ q.conj().T, (t, q, blocks), shifts


def _frozen_strip_form(nf, tol):
    """``(t, q, key)``: the clustered Schur form of ``nf.A0`` with its
    clusters ordered by the strip position of their means, ``key`` that
    position per diagonal entry."""
    t, q, blocks = nf.schur_form(tol)
    position = np.array([nf.transversal.position(lam) for _, _, lam in blocks])
    order = np.argsort(position, kind="stable")
    t, q, _ = _group_blocks(t, q, blocks, np.argsort(order).tolist())
    sizes = np.array([stop - start for start, stop, _ in blocks], dtype=int)
    return t, q, np.repeat(position[order], sizes[order])


def reference_dual(x, eps_spec=1e-8):
    """``(A0, shifts)`` of the dual of a normal form: ``-A0^T`` through
    ``reference_fold``."""
    return reference_fold(-x.A0.T, x.transversal, eps_spec)


def reference_is_nori_finite(rep_or_matrix, d_max=64, tol=None):
    """``eqconn.torus.is_nori_finite`` with each cluster's block read off
    the block diagonal form of ``eqconn.numkit.spectral``."""
    tol = tol or DEFAULT_TOL
    if isinstance(rep_or_matrix, MonodromyPair):
        mats = [rep_or_matrix.M1, rep_or_matrix.M2]
    else:
        mats = [rep_or_matrix]
    for m in mats:
        m = np.atleast_2d(np.asarray(m, dtype=complex))
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


def reference_decompose(a, b, tol):
    """Joint spectrum ``[(lam, b), ...]`` of a commuting pair, peeled off one
    joint eigenvector at a time (smallest label first)."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    out = []
    while a.shape[0] > 0:
        n = a.shape[0]
        if n == 1:
            out.append((complex(a[0, 0]), complex(b[0, 0])))
            break
        lam = min(np.linalg.eigvals(a), key=frozen_lex_key)
        shifted = a - lam * np.eye(n)
        space = nullspace(shifted, tol)
        if space.shape[1] == 0:
            _, _, vh = np.linalg.svd(shifted)
            space = vh[-1:].conj().T
        bvals, bvecs = np.linalg.eig(space.conj().T @ b @ space)
        pick = min(range(len(bvals)), key=lambda i: frozen_lex_key(bvals[i]))
        w = space @ bvecs[:, pick]
        w = w / np.linalg.norm(w)
        out.append((complex(w.conj() @ a @ w), complex(w.conj() @ b @ w)))
        comp = nullspace(w[None, :].conj(), tol)
        assert comp.shape[1] == n - 1, "failed to split off a joint eigenvector"
        a = comp.conj().T @ a @ comp
        b = comp.conj().T @ b @ comp
    return out


def reference_k0_entries(transversal, entries, tol=DEFAULT_TOL):
    """``K0Class(transversal, entries, tol).entries`` from the pairwise loop:
    each label ``(b, z')``, z' taken into the strip by ``frozen_canon``,
    adds its multiplicity to the first kept label within ``eps_key`` of it
    in both parts, the radius scaled by the size of the kept label's part
    above 1, or is kept itself."""
    eps = tol.eps_key
    merged = []
    for b, zp, mult in entries:
        b, zp = complex(b), frozen_canon(transversal, complex(zp), tol)
        for i, (b0, zp0, m0) in enumerate(merged):
            if (abs(b - b0) <= eps * max(1.0, abs(b0))
                    and abs(zp - zp0) <= eps * max(1.0, abs(zp0))):
                merged[i] = (b0, zp0, m0 + int(mult))
                break
        else:
            merged.append((b, zp, int(mult)))
    return tuple(sorted(((b, zp, m) for b, zp, m in merged if m != 0),
                        key=lambda e: (frozen_lex_key(e[1]), frozen_lex_key(e[0]))))


def reference_divisor_points(tau, points, tol=DEFAULT_TOL, reduced=False):
    """``Divisor(tau, points, tol).points`` from the pairwise loop: each
    point reduced into the fundamental parallelogram by
    ``frozen_reduce_mod_lattice``, folded off its far edges, and added to
    the first kept point within ``eps_key``, or kept.  With ``reduced``
    the points are taken as they are, as a sum of divisors takes its
    terms' points."""
    tau = complex(tau)
    edge = tol.eps_key / max(1.0, abs(tau))
    merged = []
    for point, mult in points:
        if reduced:
            reduced_point = point
        else:
            reduced_point, (s, t) = frozen_reduce_mod_lattice(point, tau)
            if s > 1.0 - edge:
                reduced_point -= 1.0
            if t > 1.0 - edge:
                reduced_point -= tau
        for i, (p0, m0) in enumerate(merged):
            if abs(reduced_point - p0) <= tol.eps_key:
                merged[i] = (p0, m0 + int(mult))
                break
        else:
            merged.append((reduced_point, int(mult)))
    return tuple(sorted(((p, m) for p, m in merged if m != 0),
                        key=lambda pm: frozen_lex_key(pm[0])))


def reference_divisor_equivalent(d1, d2, tol=DEFAULT_TOL):
    """``divisor_equivalent(d1, d2, tol)`` on a difference built from two
    new Divisors: the negation of d2 from its points, then the sum."""
    if d1.degree() != d2.degree():
        return False
    neg = Divisor(d2.tau, [(p, -m) for p, m in d2.points], d2.tol)
    w = Divisor(d1.tau, d1.points + neg.points, d1.tol).weighted_sum()
    t = w.imag / d1.tau.imag
    s = w.real - t * d1.tau.real
    return abs(w - (round(s) + round(t) * d1.tau)) <= tol.eps_key


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


def reference_spectral_diagnostics(m, sd):
    """The residuals of ``SpectralData.diagnostics`` for ``sd = spectral(m)``,
    computed as ``spectral`` once computed them before returning."""
    t, similarity = sd.block_form, sd.similarity
    norm_m = mat_norm(m)
    residuals, start = [], 0
    for c in sd.clusters:
        stop = start + c.multiplicity
        basis = similarity[:, start:stop]
        block = t[start:stop, start:stop]
        res = mat_norm(m @ basis - basis @ block)
        residuals.append(res / norm_m if norm_m else res)
        start = stop
    rebuilt = similarity @ t @ np.linalg.inv(similarity)
    res = mat_norm(rebuilt - m)
    return {"subspace_residuals": residuals,
            "reassembly_residual": res / norm_m if norm_m else res}


def reference_clean_terms(dim, terms):
    """``{power: coefficient}`` with each coefficient made a complex array,
    its shape checked, and exact zeros dropped, one at a time."""
    out = {}
    for k, coeff in terms.items():
        arr = np.asarray(coeff, dtype=complex)
        assert arr.shape == (dim, dim)
        if np.any(arr):
            out[int(k)] = arr
    return out


def reference_product(x, y):
    """Terms of the product of two ``PolyMat``: a matmul per pair of powers,
    each output power summed in the order of ``x.terms``, the first product
    kept as it is."""
    terms = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            k = k1 + k2
            prod = c1 @ c2
            terms[k] = terms[k] + prod if k in terms else prod
    return reference_clean_terms(x.dim, terms)


def _reference_times(x, y):
    return PolyMat(x.dim, reference_product(x, y), x.tau, x.q)


def reference_conjugate(a, c):
    """Terms of ``c^-1 a c`` for a constant invertible ``c``, one
    coefficient at a time."""
    c_inv = np.linalg.inv(c)
    return reference_clean_terms(a.dim, {k: c_inv @ coeff @ c
                                         for k, coeff in a.terms.items()})


def _kronecker_kernel(x, y, shift, factor, scale, eps_res):
    """Kernel of ``phi A_x - (A_y + shift) phi`` and ``phi B_x - factor B_y
    phi`` as one stacked Kronecker system, ranked by ``eps_res * scale``."""
    eye_x, eye_y = np.eye(x.n), np.eye(y.n)
    top = np.kron(x.A0.T, eye_y) - np.kron(eye_x, y.A0 + shift * eye_y)
    bot = np.kron(x.B0.T, eye_y) - factor * np.kron(eye_x, y.B0)
    _, s, vh = np.linalg.svd(np.vstack([top, bot]))
    rank = int(np.sum(s > eps_res * scale))
    return vh[rank:].conj().T


def _data_scale(x, y):
    return max(1.0, np.linalg.norm(x.A0), np.linalg.norm(y.A0),
               np.linalg.norm(x.B0), np.linalg.norm(y.B0))


def reference_hom_basis(x, y, eps_res=1e-9):
    """Orthonormal basis of the intertwiners ``x -> y``, as ``y.n x x.n``
    matrices, from the SVD of the whole Kronecker system."""
    if x.n == 0 or y.n == 0:
        return []
    basis = _kronecker_kernel(x, y, 0.0, 1.0, _data_scale(x, y), eps_res)
    return [basis[:, i].reshape((y.n, x.n), order="F") for i in range(basis.shape[1])]


def reference_hom_mode_dims(x, y, k_range=8, eps_res=1e-9):
    """``{k: dim}`` of the intertwiners of mode k, ``phi A_x = (A_y + k tau)
    phi`` and ``phi B_x = q^k B_y phi``, one SVD per mode."""
    return {k: _kronecker_kernel(x, y, x.tau * k, x.q ** k,
                                 _data_scale(x, y) + abs(x.tau) * abs(k),
                                 eps_res).shape[1]
            for k in range(-k_range, k_range + 1) if k != 0}


class ReferenceFreeBundle:
    """A free module of rank n with connection ``delta_tau + conn``, ``conn``
    an n x n list of ``TorusPoly``, upper triangular with scalar diagonal
    entries, checked one entry at a time in row-major order."""

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
        return [self.conn[i][i].coeffs.get((0, 0), 0.0) for i in range(self.n)]


def reference_psi_star(nf):
    """``eqconn.torus.psi_star`` one ``TorusPoly`` per entry of ``2 pi i t``,
    t the normal form's shared Schur form."""
    theta, tau = nf.theta, nf.tau
    if nf.n == 0:
        return ReferenceFreeBundle(theta, tau, [])
    t, _, _ = nf.schur_form()
    conn = [[TorusPoly(theta, {(0, 0): TWO_PI_I * t[i, j]}) if j >= i
             else TorusPoly(theta)
             for j in range(nf.n)] for i in range(nf.n)]
    return ReferenceFreeBundle(theta, tau, conn)


def _mat_mul_torus(a, b, theta):
    """Matrix product of lists of algebra elements, each sum in order of k; a
    product with a zero factor adds nothing and is skipped."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[TorusPoly(theta) for _ in range(cols)] for _ in range(rows)]
    nonzero_b = [{k for k in range(inner) if not b[k][j].is_zero()} for j in range(cols)]
    for i in range(rows):
        nonzero_a = {k for k in range(inner) if not a[i][k].is_zero()}
        for j in range(cols):
            acc = TorusPoly(theta)
            for k in sorted(nonzero_a & nonzero_b[j]):
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def reference_extension_morphism_residuals(total, sub, zprime):
    """Holomorphy defects of the inclusion of the first line and the
    projection onto the quotient, by algebra products of the 0/1 maps."""
    theta = total.theta
    n = total.n
    iota = [[TorusPoly.unit(theta) if i == 0 else TorusPoly(theta)]
            for i in range(n)]
    lhs = _mat_mul_torus(total.conn, iota, theta)
    res_iota = 0.0
    for i in range(n):
        expect = TorusPoly(theta, {(0, 0): zprime}) if i == 0 else TorusPoly(theta)
        res_iota = max(res_iota, lhs[i][0].distance(expect))
    pi = [[TorusPoly.unit(theta) if j == i + 1 else TorusPoly(theta)
           for j in range(n)] for i in range(n - 1)]
    res_pi = 0.0
    lhs = _mat_mul_torus(pi, total.conn, theta)
    rhs = _mat_mul_torus(sub.conn, pi, theta)
    for i in range(n - 1):
        for j in range(n):
            res_pi = max(res_pi, lhs[i][j].distance(rhs[i][j]))
    return res_iota, res_pi


def reference_build_extension(zprime, row, sub):
    """``eqconn.torus.build_extension`` on ``ReferenceFreeBundle``."""
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
    total = ReferenceFreeBundle(theta, tau, conn)
    res_iota, res_pi = reference_extension_morphism_residuals(total, sub, zprime)
    if max(res_iota, res_pi) > 1e-12:
        raise ValidationFailure("extension morphisms fail to commute with the "
                                "connections")
    return total


def reference_encode_free_bundle(fb):
    return {
        "theta": fb.theta,
        "tau": serialize.encode_complex(fb.tau),
        "dim": fb.n,
        "conn": [[{"theta": entry.theta,
                   "coeffs": [{"n1": n1, "n2": n2,
                               "c": serialize.encode_complex(entry.coeffs[(n1, n2)])}
                              for n1, n2 in entry.support()]}
                  for entry in row] for row in fb.conn],
    }


def reference_decode_free_bundle(data):
    conn = [[serialize.decode_torus_poly(entry) for entry in row] for row in data["conn"]]
    return ReferenceFreeBundle(data["theta"], serialize.decode_complex(data["tau"]), conn)


def reference_monomial(p):
    """``(exponents, values)`` as arrays when ``p`` is diagonal with one
    monomial per diagonal slot, else None, one coefficient at a time."""
    exps, vals = [None] * p.dim, [0.0j] * p.dim
    for k, coeff in p.terms.items():
        if np.any(coeff - np.diag(np.diag(coeff))):
            return None
        for i in range(p.dim):
            if coeff[i, i] != 0.0:
                if exps[i] is not None:
                    return None
                exps[i], vals[i] = k, coeff[i, i]
    if any(e is None for e in exps):
        return None
    return np.array(exps), np.array(vals)


def _stacked(a):
    """``(powers, stack)`` of ``a``, read through its ``terms`` view."""
    return (np.array(a.powers(), dtype=int),
            np.array(list(a.terms.values()), dtype=complex).reshape(-1, a.dim, a.dim))


def _reference_shift(a, exps, vals):
    """``A_ij(z) -> (A_ij(z) v_j / v_i) z**(e_j - e_i)``: one np.unique over
    the output powers of every nonzero entry."""
    powers, stack = _stacked(a)
    ks, rows, cols = np.nonzero(stack)
    landing = powers[ks] + exps[cols] - exps[rows]
    found, slot = np.unique(landing, return_inverse=True)
    out = np.zeros((len(found), a.dim, a.dim), dtype=complex)
    out[slot, rows, cols] = stack[ks, rows, cols] * vals[cols] / vals[rows]
    return PolyMat(a.dim, dict(zip(found.tolist(), out)), a.tau, a.q)


def reference_transport(a, p, order, drift):
    """``P^-1 A P``, plus ``P^-1 delta(P)`` when ``drift`` is set, with the
    series products formed at every power, a matmul per pair of powers
    (``reference_product``), and cut afterwards."""
    if p.is_constant():
        c = p.term(0)
        powers, stack = _stacked(a)
        return PolyMat(a.dim, dict(zip(powers.tolist(),
                                       _checked_inverse(c, "constant gauge") @ stack @ c)),
                       a.tau, a.q)
    mono = reference_monomial(p)
    if mono is not None:
        exps, vals = mono
        out = _reference_shift(a, exps, vals)
        if drift:
            out = out + PolyMat.constant(np.diag([a.tau * e for e in exps.tolist()]),
                                         a.tau, a.q)
        return out
    p_inv = truncated_inverse(p, order)
    full = _reference_times(p_inv, _reference_times(a, p))
    if drift:
        full = full + _reference_times(p_inv, p.delta())
    result = full.truncate(order)
    tail = full.terms.get(order + 1)
    result.diagnostics["truncation_residual"] = (
        float(np.linalg.norm(tail)) if tail is not None else 0.0)
    return result


def reference_shear(a, step, drift, tol=DEFAULT_TOL):
    """A recorded shear as two gauge transforms, the similarity and then
    ``PolyMat.monomial_diag`` of the exponents; with ``drift`` (a connection
    matrix) a negative power is a pole above ``eps_res (||A|| + 1)``, the
    norm of the whole input series, and is cut off below that."""
    conj = reference_transport(a, PolyMat.constant(step.similarity, a.tau, a.q), None, drift)
    out = reference_transport(conj, PolyMat.monomial_diag(step.exponents, a.tau, a.q),
                              None, drift)
    if not drift:
        return out
    threshold = tol.eps_res * (a.norm() + 1.0)
    for k, coeff in out.terms.items():
        if k < 0 and float(np.linalg.norm(coeff)) > threshold:
            raise RegularityViolation("shear would create a pole at z**%d" % k)
    return out.truncate(out.max_power, lo=0)


def reference_balance(obj):
    """``(obj(rho z), rho)``, power k of A and B scaled by ``rho**k``, for
    ``rho`` the largest power of two at most ``min(1, min_k (max(1,
    ||A_0||) / ||A_k||)^(1/k))`` over the powers ``k >= 1``."""
    top = max(1.0, float(np.linalg.norm(obj.A.term(0))))
    bound = min([1.0] + [(top / float(np.linalg.norm(c))) ** (1.0 / k)
                         for k, c in obj.A.terms.items() if k >= 1])
    rho = 1.0 if bound >= 1.0 else 2.0 ** math.floor(math.log2(bound))

    def scaled(p):
        terms = {}
        for k, c in p.terms.items():
            terms[k] = np.empty_like(c)
            terms[k].real = c.real * rho ** k
            terms[k].imag = c.imag * rho ** k
        return PolyMat(p.dim, terms, p.tau, p.q)

    return EquivariantConnection(scaled(obj.A), scaled(obj.B), obj.theta, obj.tau,
                                 obj.transversal), rho


def reference_largest_norm(p, hi=None):
    """The largest Frobenius norm among the coefficients of ``p``, of the
    powers up to ``hi`` when it is given: one ``np.linalg.norm`` over a
    fresh stack of those ``terms``."""
    powers, stack = _stacked(p)
    stop = None if hi is None else np.searchsorted(powers, hi, side="right")
    return float(np.linalg.norm(stack[:stop], axis=(1, 2)).max(initial=0.0))


def reference_rescaled(p, radius):
    """``p(radius z)``: each part of the coefficient of power k times
    ``radius**k``."""
    terms = {}
    for k, c in p.terms.items():
        terms[k] = np.empty_like(c)
        terms[k].real = c.real * radius ** k
        terms[k].imag = c.imag * radius ** k
    return PolyMat(p.dim, terms, p.tau, p.q)


def reference_residuals(gauged, b_final, radius):
    """``gauge_residual``, ``b_residual`` and their ``*_unit`` values of
    ``normalize`` for the gauged pair ``(gauged, b_final)`` in the frame
    balanced by ``radius``: the largest coefficient norm of each part off
    power 0, ``p - p.truncate(0, lo=0)``, and of that part rescaled by ``z
    -> z / radius``."""
    out = {}
    for name, p in (("gauge_residual", gauged), ("b_residual", b_final)):
        left = p - p.truncate(0, lo=0)
        out[name] = reference_largest_norm(left)
        out[name + "_unit"] = reference_largest_norm(
            left if radius == 1.0 else reference_rescaled(left, 1.0 / radius))
    return out


def reference_equivariance_norm(a, b):
    """The largest coefficient norm of the PolyMat
    ``equivariance_residual(a, b)``, ``delta(B) + [A, B]``."""
    return reference_largest_norm(equivariance_residual(a, b))


def reference_series_gauge(a, a0, tau, order):
    """The series gauge ``I + P_1 z + ...`` that keeps A0 and kills the
    powers 1 to ``order`` of ``a``, each order one ``reference_sylvester``
    solve of ``(A0 + k tau) P_k - P_k A0 = -sum_j A_j P_(k-j)``."""
    n = a.dim
    coeffs = {0: np.eye(n, dtype=complex)}
    for k in range(1, order + 1):
        rhs = np.zeros((n, n), dtype=complex)
        for j in range(1, k + 1):
            if j in a.terms:
                rhs -= a.terms[j] @ coeffs[k - j]
        coeffs[k] = reference_sylvester(a0 + tau * k * np.eye(n), a0, rhs)
    return PolyMat(n, coeffs, a.tau, a.q)


def reference_normalize(obj, transversal, order=16, tol=DEFAULT_TOL):
    """``normalize`` with B sheared inside the loop at all its powers and
    full products in the series transport."""
    validate(obj, tol)
    a, b = obj.A, obj.B
    steps = []
    sd = spectral(a.term(0), tol)
    needed = sum(abs(frozen_reduce(transversal, c.eigenvalue)[1]) for c in sd.clusters)
    # a unit step below the rounding of A(0) cannot be told from the next
    rounding = np.finfo(float).eps / 2 * max(1.0, np.linalg.norm(a.term(0)))
    if needed and rounding > tol.eps_res * abs(transversal.tau):
        raise NumericFailure("shearing into the strip: a unit step of norm %.3e lies "
                             "below the rounding %.3e of A(0)"
                             % (abs(transversal.tau), rounding))
    budget = 8 + 4 * needed
    while True:
        shifts = [frozen_reduce(transversal, c.eigenvalue)[1] for c in sd.clusters]
        if all(s == 0 for s in shifts):
            break
        if len(steps) >= budget:
            raise NumericFailure("shearing did not settle within %d passes" % budget)
        target = next(i for i, s in enumerate(shifts) if s != 0)
        exponents = []
        for i, c in enumerate(sd.clusters):
            move = (-1 if shifts[i] > 0 else 1) if i == target else 0
            exponents += [move] * c.multiplicity
        step = ShearStep(sd.similarity.copy(), tuple(exponents))
        a = reference_shear(a, step, drift=True, tol=tol)
        b = reference_shear(b, step, drift=False)
        steps.append(step)
        sd = spectral(a.term(0), tol)

    a0 = a.term(0)
    series = reference_series_gauge(a, a0, transversal.tau, order)
    gauged = reference_transport(a, series, order, True) if not series.is_constant() else a
    gauge_residual = (gauged - PolyMat.constant(a0, a.tau, a.q)).norm()
    b_final = reference_transport(b, series, order, False) if not series.is_constant() else b
    b0 = b_final.term(0)
    b_residual = (b_final - PolyMat.constant(b0, b.tau, b.q)).norm()
    if b_residual > tol.eps_res * max(1.0, b_final.norm()):
        raise NonConstantB(
            "dilation matrix retains non-constant terms of norm %.3e at "
            "truncation order %d" % (b_residual, order))
    nf = NormalForm(a0, b0, transversal, obj.theta, obj.tau, None, {
        "gauge_residual": gauge_residual,
        "b_residual": b_residual,
        "shear_passes": len(steps),
        "strip_margin": min([transversal.boundary_distance(lam)
                             for lam in np.linalg.eigvals(a0)], default=1.0),
    })
    validate_normal_form(nf, tol)
    return nf


# ---------------------------------------------------------------------------
# frozen generator kernels
# ---------------------------------------------------------------------------
# Not oracles: bit-exact copies of the library's gauge calculus as it stood
# when the benchmark's inputs were fixed, for ``tests/util.py`` alone (see
# the module docstring).  They work on ``(powers, stack)`` slabs, ascending
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


# ---------------------------------------------------------------------------
# the frozen gauge pass of normalization
# ---------------------------------------------------------------------------
# Not oracles either: bit-exact copies of ``laurent._gauged_pair`` as it
# stood when the series transport, the fold and the regularity check were
# three passes over PolyMat values, each cut, checked, conjugated and
# shifted apart (``_transport``, ``_cut``, ``_finite``, ``_sheared``,
# ``_shift``, ``_checked_regular``), with the balancing radius and the
# series inverse taken by their full formulas.  On slabs, as the generator
# kernels above; the one pass must give the same values, to the bit.

def _frozen_norms(stack):
    """The Frobenius norm of each slice, inf without a warning where its
    squares overflow."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(stack, axis=(1, 2))


def frozen_balancing_radius(slab):
    """``laurent._balancing_radius`` of the slab by its full formula: the
    largest power of two at most ``min(1, min_k (max(1, ||A_0||) /
    ||A_k||)^(1/k))`` over the powers ``k >= 1``, a norm that overflows
    taken through the coefficient's largest entry."""
    powers, stack = slab
    norms = _frozen_norms(stack)
    wide = np.flatnonzero(~np.isfinite(norms))
    if wide.size:
        norms = norms.copy()
        for i in wide.tolist():
            big = np.abs(stack[i]).max()
            norms[i] = big * np.linalg.norm(stack[i] / big)
    top = max(1.0, norms[powers == 0].max(initial=0.0))
    up = powers > 0
    with np.errstate(divide="ignore"):
        rho = float(np.min((top / norms[up]) ** (1.0 / powers[up]), initial=1.0))
    return 1.0 if rho >= 1.0 else math.ldexp(0.5, math.frexp(rho)[1])


def _frozen_fast_length(m):
    """The smallest ``2**i 3**j 5**k`` of at least ``m``."""
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


def _frozen_circle_length(span, counts):
    """The transform length of a product spanning ``span`` powers when it
    is below the coefficient products ``counts`` yields in parts, else
    None."""
    total, m = 0, None
    for count in counts:
        total += count
        if span < total:
            m = m or _frozen_fast_length(span)
            if m < total:
                return m
    return None


def _frozen_cut(full, order):
    """``(powers, stack, tail)``: the slab cut at ``order`` and the norm of
    its power ``order + 1``, refused unless all finite."""
    stop = np.searchsorted(full[0], order, side="right")
    cut = (full[0][:stop], full[1][:stop], float(np.linalg.norm(_frozen_term(full, order + 1))))
    if not (np.isfinite(cut[1]).all() and np.isfinite(cut[2])):
        raise NumericFailure("the gauge transport overflows")
    return cut


def _frozen_series_pair(slabs, drifts, p, order):
    """Each slab through the series gauge ``p`` cut at ``order``, as
    ``(powers, stack, tail)``: evaluation on the circle when that forms
    fewer products and P and its inverse are balanced, else windowed
    block-Toeplitz products."""
    ps, hi = _stacked(p), order + 1
    p_inv = _frozen_inverse_series(ps, order)
    xs = [(powers[:np.searchsorted(powers, hi, side="right")],
           stack[:np.searchsorted(powers, hi, side="right")]) for powers, stack in slabs]
    lows = [min(int(powers[0]) if len(powers) else 0, 0) for powers, _ in xs]
    base = min(lows)
    delta = _frozen_kept(ps[0], np.asarray(p.tau * ps[0], dtype=complex)[:, None, None]
                         * ps[1])
    top, inv_top = int(ps[0][-1]), int(p_inv[0][-1])

    def window(left, right, lo):
        sums = (left[:, None] + right).ravel()
        return sums[(lo <= sums) & (sums <= hi)]

    def counts():
        landed = [window(x[0], ps[0], lo) for x, lo in zip(xs, lows)]
        yield sum(map(len, landed))
        for drift, lo in zip(drifts, lows):
            if drift:
                yield len(window(p_inv[0], delta[0], lo))
        for sums, lo in zip(landed, lows):
            yield len(window(p_inv[0], np.unique(sums), lo))

    m = _frozen_circle_length(inv_top + hi + top - base + 1, counts())
    if m is None or frozen_balancing_radius(ps) != 1.0 or frozen_balancing_radius(p_inv) != 1.0:
        out = []
        for x, lo, drift in zip(xs, lows, drifts):
            full = _frozen_product(p_inv, _frozen_product(x, ps, lo, hi), lo, hi)
            if drift:
                full = _frozen_sum(full, _frozen_product(p_inv, delta, lo, hi))
            out.append(_frozen_cut(full, order))
        return out
    f_x = np.fft.fft(np.stack([_frozen_dense(x, base, hi) for x in xs]), n=m, axis=1)
    f_p = np.fft.fft(_frozen_dense(ps, 0, top), n=m, axis=0)
    f_inv = np.fft.fft(_frozen_dense(p_inv, 0, inv_top), n=m, axis=0)
    inner = np.matmul(f_x, f_p)
    if any(drifts):
        f_delta = np.fft.fft(_frozen_dense(delta, base, top), n=m, axis=0)
        for i in np.flatnonzero(drifts):
            inner[i] += f_delta
    full = np.fft.ifft(np.matmul(f_inv, inner), axis=1)
    return [_frozen_cut(_frozen_kept(np.arange(lo, hi + 1),
                                     piece[lo - base:hi - base + 1].copy()), order)
            for piece, lo in zip(full, lows)]


def _frozen_shift(slab, exps, tau, drift):
    """``X_ij(z) -> X_ij(z) z**(e_j - e_i)`` as one scatter into the
    distinct powers landed on, one ``np.unique`` over every entry's landing
    power, plus ``diag(tau e)`` added into the slice of power 0 with
    ``drift``, which starts from +0 when it holds only signed zeros."""
    powers, stack = slab
    n = stack.shape[1]
    landing = (powers[:, None, None] + (exps[None, :] - exps[:, None])).ravel()
    found, slot = np.unique(np.append(landing, 0) if drift else landing, return_inverse=True)
    out = np.zeros((len(found), n, n), dtype=complex)
    rows, cols = np.indices((n, n))
    out[slot[:len(landing)].reshape(stack.shape), rows, cols] = stack
    if drift:
        zero = slot[-1]
        if not out[zero].any():
            out[zero] = 0.0
        out[zero] += np.diag(tau * exps)
    return _frozen_kept(found, out)


def frozen_gauged_pair(a, b, record, tol=DEFAULT_TOL):
    """``(A, B)`` through a ``GaugeRecord`` as ``laurent._gauged_pair`` took
    them in three passes: the series gauge unless it is constant, each
    result cut at the truncation with its ``truncation_residual`` and
    checked finite; then the fold, if any, ``S^-1 X_k S`` at each power and
    the shift; then A's regularity check, a coefficient the fold moves
    below power 0 a pole above ``eps_res`` times one plus the largest norm
    among the powers up to ``max k - min k - 1`` of A before the fold."""
    slabs, drifts = [_stacked(a), _stacked(b)], [True, False]
    tails = [None, None]
    if record.series is not None and not record.series.is_constant():
        cuts = _frozen_series_pair(slabs, drifts, record.series, record.truncation)
        slabs, tails = [cut[:2] for cut in cuts], [cut[2] for cut in cuts]
    if record.fold is None:
        return [_frozen_value(x, slab, None if tail is None else {"truncation_residual": tail})
                for x, slab, tail in zip((a, b), slabs, tails)]
    s = record.fold.similarity
    s_inv = _frozen_inverse(s, "constant gauge")
    exps = np.array(record.fold.exponents, dtype=np.int64)
    folded = [_frozen_kept(powers, s_inv @ stack @ s) for powers, stack in slabs]
    if np.any(exps):
        folded = [_frozen_shift(slab, exps, a.tau, drift) for slab, drift in zip(folded, drifts)]
    reach = max(record.fold.exponents, default=0) - min(record.fold.exponents, default=0)
    powers, stack = slabs[0]
    below = _frozen_norms(stack[:np.searchsorted(powers, reach - 1, side="right")])
    threshold = tol.eps_res * (float(below.max(initial=0.0)) + 1.0)
    powers, stack = folded[0]
    sizes = _frozen_norms(stack)[powers < 0]
    poles = np.flatnonzero(sizes > threshold)
    if poles.size:
        raise RegularityViolation(
            "shear would create a pole: coefficient of z**%d has norm %.3e"
            % (powers[poles[0]], sizes[poles[0]]))
    start = np.searchsorted(powers, 0)
    return [_frozen_value(a, (powers[start:], stack[start:])), _frozen_value(b, folded[1])]

# ---------------------------------------------------------------------------
# frozen label kernels: the scalar code labels were once reduced, keyed and
# ordered with, one value at a time
# ---------------------------------------------------------------------------

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


def frozen_cluster_shifts(t, blocks, transversal, to_strip):
    """``numkit._cluster_shifts`` with ``to_strip`` a map of one value: one
    ``frozen_reduce`` per cluster mean and per member of a cluster of two or
    more, a ``TransversalBranchWarning`` per straddling cluster."""
    diag, shifts = np.diag(t), []
    for (s0, s1, lam) in blocks:
        _, shift = frozen_reduce(transversal, to_strip(lam))
        shifts.append(shift)
        if s1 - s0 > 1 and any(frozen_reduce(transversal, to_strip(member))[1] != shift
                               for member in diag[s0:s1]):
            warnings.warn(
                "cluster at %s straddles a strip boundary; shift forced to %d "
                "(boundary distance %.3e)"
                % (lam, shift, frozen_boundary_distance(transversal, to_strip(lam))),
                TransversalBranchWarning,
            )
    return shifts


def frozen_canon(transversal, zp, tol=DEFAULT_TOL):
    """``K0Class._canon`` of one z': reduced into the strip, a value within
    ``eps_key / |tau|`` of the right edge folded to the left edge."""
    rep, _ = frozen_reduce(transversal, zp)
    edge = tol.eps_key / abs(transversal.tau)
    if frozen_position(transversal, rep) > 1.0 - edge:
        rep -= transversal.tau
    return rep


def frozen_reduce_mod_lattice(z, tau):
    """``torus.reduce_mod_lattice`` of one number: ``(s + t*tau, (s, t))``
    in the fundamental parallelogram."""
    tau = complex(tau)
    if tau.imag == 0.0:
        raise ValidationFailure("lattice reduction needs a non-real tau")
    z = complex(z)
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    s, t = _frozen_unit_mod(s), _frozen_unit_mod(t)
    return s + t * tau, (s, t)


def _frozen_unit_mod(x):
    nearest = round(x)
    if abs(x - nearest) < 1e-12 * max(1.0, abs(x)):
        x = float(nearest)
    return x - math.floor(x)


def frozen_lex_key(z):
    """``category._lex_key``: (Re, Im) rounded to 9 decimals by Python's
    ``round``."""
    return (round(z.real, 9), round(z.imag, 9))
