"""Each exit that skips a workspace query or an eigenvalue solve, and each
near-value sweep that stands in for an N x N proximity graph, gives the bits
of the path it replaced.

- ``category._hom_components`` finds the Hom components over the near
  pairs of the group means (``numkit._near_pairs``, one sort), reads those
  of one group per side straight off the pairs (``_graph_components``)
  and decides a one-column system's kernel by its norm
  (``_nullspace_scaled``); it must give the stacks of
  ``frozen_hom_components``, the graph over every pair and an SVD of
  every system (``frozen_nullspace_scaled``).
- ``K0Class._of_labels`` keeps the order of labels that ``_canon`` does
  not move; its entries must be the pairwise loop's
  (``reference_k0_entries``).
- ``hom_basis`` orthonormalizes by LAPACK's zgeqrf and zungqr; the basis
  must be ``np.linalg.qr``'s (``frozen_hom_basis``).
- ``_labels`` reads the b-labels off the diagonal when every cluster is one
  entry; they must be ``eigvals``' (``frozen_label_array``), and a
  product's must be the pairwise rows of its factors' frozen labels and
  match, within rounding, the frozen labels of its own Schur form.
- ``numkit._group_blocks`` reads its groups off in one pass; they must be
  ``np.unique``'s (``frozen_group_blocks``).
- ``numkit._cluster_triangular`` clusters the diagonal over its near pairs;
  the clusters must be the graph's (``frozen_cluster_triangular``).
- ``numkit._merge_keys`` merges keys over the near pairs of their first
  coordinates; the result must be the box test's (``frozen_merge_keys``).

- The round trip (``from_monodromy``, ``monodromy``, ``is_nori_finite``)
  cuts fixed costs in ``numkit._log_schur``, ``_block_function``,
  ``category._validated_monodromy`` (one stacked SVD call),
  ``_commutator_residual`` and ``validate_normal_form``; with their frozen
  copies patched in (``frozen_log_schur`` and the rest) it must give the
  same bits.
- ``normalize`` cuts the per-order and per-operand numpy overhead of
  ``laurent._series`` (the series gauge and the truncated inverse),
  ``category._series_gauge`` and ``laurent._finished`` with its
  ``_shift``; with their frozen copies patched in (``frozen_series`` and
  the rest, ``tests/reference_normalize.py``) it must give the same bits.

The last three tests run the benchmark's inputs.  On tensor-decompose's,
one pins how often each exit is taken, so that a change that loses one
shows, and checks the three sweeps against their frozen paths on every call
those inputs make, and the next checks every round trip against its frozen
steps; the last checks every normalize-scrambled job against its frozen
steps.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import eqconn.category
import eqconn.laurent
import eqconn.numkit
import eqconn.torus
from eqconn.category import (
    K0Class,
    NormalForm,
    decompose,
    hom_basis,
    hom_mode_dims,
    k0_class,
    tensor,
)
from eqconn.exceptions import NumericFailure
from eqconn.numkit import DEFAULT_TOL, _cluster_triangular, _group_blocks, _schur
from reference import (
    frozen_cluster_triangular,
    frozen_group_blocks,
    frozen_hom_basis,
    frozen_hom_components,
    frozen_label_array,
    frozen_lex_key,
    frozen_merge_keys,
    frozen_nullspace_scaled,
    reference_k0_entries,
)
from reference_normalize import (
    frozen_finished,
    frozen_series,
    frozen_series_gauge,
    frozen_truncated_inverse,
)
from reference_roundtrip import (
    frozen_commutator_residual,
    frozen_log_schur,
    frozen_validate_normal_form,
    frozen_validated_monodromy,
)
from util import STRIP, TAU, THETA, conjugate, random_defective_normal_form, \
    random_normal_form, well_conditioned

_hom_side = eqconn.category._hom_side


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_hom_is_frozen(x, y):
    got = [m.phi for m in hom_basis(x, y)]
    want = frozen_hom_basis(x, y)
    assert len(got) == len(want)
    assert all(same_bits(g, w) for g, w in zip(got, want))


def assert_components_are_frozen(x, y, k):
    side_x, side_y = _hom_side(x, DEFAULT_TOL), _hom_side(y, DEFAULT_TOL)
    got = eqconn.category._hom_components(x, side_x, y, side_y, k, DEFAULT_TOL)
    want = frozen_hom_components(x, side_x, y, side_y, k)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert all(same_bits(a, b) for a, b in zip(g, w))


def assert_labels_are_frozen(nf):
    assert same_bits(eqconn.category._labels(nf, DEFAULT_TOL), frozen_label_array(nf))


def assert_product_labels_are_frozen(xy, x, y):
    """The labels of ``xy = tensor(x, y)`` are ``(lam_i + mu_j, b_i c_j)``
    over the rows of the factors' frozen labels, each sum reduced into the
    strip and each product Python's complex product, in ``decompose``'s
    order."""
    lx, ly = frozen_label_array(x), frozen_label_array(y)
    lam = (lx[:, :1] + ly[:, 0]).ravel()
    b = np.array([bx * by for bx in lx[:, 1].tolist() for by in ly[:, 1].tolist()])
    want = np.stack([lam - STRIP.shift(lam) * TAU, b], axis=1)
    order = sorted(range(len(want)), key=lambda i: tuple(map(frozen_lex_key, want[i])))
    assert same_bits(eqconn.category._labels(xy, DEFAULT_TOL), want[order])


def assert_labels_are_the_products_own(nf):
    """The labels of a product match, as a multiset within 1e-12 of their
    scale, those read off its own Schur form and dilation
    (``frozen_label_array``), and its class is their class."""
    got, want = eqconn.category._labels(nf, DEFAULT_TOL), frozen_label_array(nf)
    cost = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12 * max(1.0, np.abs(want).max())
    assert k0_class(nf) == K0Class._of_labels(STRIP, want, DEFAULT_TOL)


def bench_workloads():
    """``bench/workloads.py``, loaded read-only as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def diagonal_form(lams, bs):
    return NormalForm(np.diag(np.array(lams, dtype=complex)),
                      np.diag(np.array(bs, dtype=complex)), STRIP, THETA, TAU)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tensor_hom_and_labels_are_the_frozen_paths(n):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, y = random_normal_form(rng, n), random_normal_form(rng, n)
        xy, yx, xx = tensor(x, y), tensor(y, x), tensor(x, x)
        assert_hom_is_frozen(xy, yx)
        assert_hom_is_frozen(xy, xy)
        assert_hom_is_frozen(xx, xx)
        for nf, factors in ((xy, (x, y)), (yx, (y, x)), (xx, (x, x))):
            assert_product_labels_are_frozen(nf, *factors)
            assert_labels_are_the_products_own(nf)


def test_defective_forms_take_the_frozen_paths():
    rng = np.random.default_rng(33)
    for groups in (1, 2, 3):
        for _ in range(4):
            x = random_defective_normal_form(rng, groups)
            y = conjugate(x, well_conditioned(rng, x.n))
            for a, b in ((x, x), (x, y), (y, x)):
                assert_hom_is_frozen(a, b)
            assert_labels_are_frozen(x)
            assert_labels_are_frozen(y)


@pytest.mark.parametrize("apart", [2.9, 3.1])
@pytest.mark.parametrize("side", ["x", "y"])
def test_groups_either_side_of_three_radii_match_the_graph(apart, side):
    # the norms of A0 stay below 1, so the component radius is 1e-4; the
    # two groups of one side lie ``apart`` radii from each other, the other
    # side's group on the first of them
    lam, radius = 0.3 * TAU, 1e-4
    pair = diagonal_form([lam, lam + apart * radius], [2.0, 2.0])
    one = diagonal_form([lam + 0.5 * radius], [2.0])
    x, y = (pair, one) if side == "x" else (one, pair)
    assert_components_are_frozen(x, y, 0)
    # and the same with the lone group on the pair's eigenvalue, where
    # there is a morphism
    one = diagonal_form([lam], [2.0])
    x, y = (pair, one) if side == "x" else (one, pair)
    assert len(hom_basis(x, y)) == 1
    assert_hom_is_frozen(x, y)


def test_a_group_near_two_groups_apart_is_one_component_of_three():
    """x's one group lies within the component radius, 1e-4 at scale 1, of
    both groups of y, which lie 1e-4 (1 + 4e-6) apart: every near pair
    joins x to y, but x is in two, so the pairs are no components of one
    group per side; the graph's component of three groups holds the one
    morphism (x matches y's first group to 5e-10)."""
    lam = 0.3 * TAU
    x = diagonal_form([lam], [1.5])
    y = diagonal_form([lam + 5e-10, lam - 0.9999999e-4], [1.5, 2.0])
    assert eqconn.category._data_scale(_hom_side(x, DEFAULT_TOL),
                                       _hom_side(y, DEFAULT_TOL))[0] == 1.0
    assert_components_are_frozen(x, y, 0)
    assert len(hom_basis(x, y)) == 1


def test_hom_mode_dims_at_nonzero_modes_are_the_frozen_components():
    # y's eigenvalues one and two strip widths off x's, so that modes
    # -1 and -2 have components on both sides; the dims are those of the
    # frozen components
    x = diagonal_form([0.3 * TAU, 0.6 * TAU], [2.0, 3.0])
    y = diagonal_form([1.3 * TAU, 2.6 * TAU], [2.0 * x.q, 3.0 * x.q ** 2])
    dims = hom_mode_dims(x, y, k_range=3)
    assert dims[-1] == dims[-2] == 1
    side_x, side_y = _hom_side(x, DEFAULT_TOL), _hom_side(y, DEFAULT_TOL)
    for k, dim in dims.items():
        want = frozen_hom_components(x, side_x, y, side_y, k)
        assert dim == sum(len(kernel) for _, kernel, _ in want)
        assert_components_are_frozen(x, y, k)
    rng = np.random.default_rng(34)
    for n in (2, 3, 4):
        a, b = random_normal_form(rng, n), random_defective_normal_form(rng, 2)
        for k in (-2, -1, 1, 2):
            assert_components_are_frozen(a, b, k)
            assert_components_are_frozen(b, a, k)


def test_group_blocks_reads_off_the_frozen_groups():
    rng = np.random.default_rng(35)
    reorders = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        t, q = _schur(m)
        cuts = np.flatnonzero(rng.random(n - 1) < 0.7) + 1
        starts, stops = [0] + cuts.tolist(), cuts.tolist() + [n]
        blocks = [(a, b, 0) for a, b in zip(starts, stops)]
        keys = rng.integers(-1, 3, size=len(blocks)).tolist()
        got = _group_blocks(t, q, blocks, keys)
        want = frozen_group_blocks(t, q, blocks, keys)
        assert got[2] == want[2]
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        reorders += keys != sorted(keys)
    assert reorders > 100


def test_cluster_triangular_exits_match_the_frozen_graph(monkeypatch):
    eps = DEFAULT_TOL.eps_spec
    rng = np.random.default_rng(36)
    a, b = 0.2 + 0.1j, 0.25 - 0.3j
    for diagonal in ([a, b, a, b, a],   # equal classes
                     [a, b, a + 0.5 * eps, b],   # near but unequal
                     [a, a + 0.5j * eps, b],   # equal real parts
                     [a, a + 1.5j * eps, b]):   # equal real parts, apart
        n = len(diagonal)
        t = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
        t += np.diag(diagonal)
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        got = _cluster_triangular(t, q, DEFAULT_TOL)
        want = frozen_cluster_triangular(t, q)
        assert got[2] == want[2]
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    # the Schur forms of tensor squares, whose (g, h) and (h, g) entries are
    # equal, cluster as the graph does
    seen = []
    form = eqconn.category._cluster_triangular
    monkeypatch.setattr(eqconn.category, "_cluster_triangular",
                        lambda t, q, tol: seen.append((t.copy(), q.copy())) or form(t, q, tol))
    for seed in range(10):
        x = random_normal_form(np.random.default_rng(seed), (4, 8, 12)[seed % 3])
        tensor(x, x)
    for t, q in seen:
        got, want = _cluster_triangular(t, q, DEFAULT_TOL), frozen_cluster_triangular(t, q)
        assert got[2] == want[2]
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_labels_refuse_a_dilation_that_is_not_finite(bad):
    # clusters of one entry, read off the diagonal, and one cluster of two,
    # read by eigvals
    with np.errstate(invalid="ignore", over="ignore"):
        for a0 in ([0.2 * TAU, 0.5 * TAU], [0.2 * TAU, 0.2 * TAU]):
            nf = diagonal_form(a0, [bad, 1.0])
            with pytest.raises(NumericFailure, match="no labels"):
                decompose(nf)
            with pytest.raises(NumericFailure, match="no labels"):
                k0_class(nf)
        # a large finite dilation keeps its labels, read off exactly
        nf = diagonal_form([0.2 * TAU, 0.5 * TAU], [1e200, 1e200 * (2 + 1j)])
        assert decompose(nf) == [(0.2 * TAU, 1e200), (0.5 * TAU, 1e200 * (2 + 1j))]
        # its square's labels, the products of its own, overflow
        square = tensor(nf, nf)
        with pytest.raises(NumericFailure, match="no labels"):
            decompose(square)
        with pytest.raises(NumericFailure, match="no labels"):
            k0_class(square)


def test_exits_taken_on_the_tensor_benchmark(monkeypatch):
    """Over the tensor-decompose benchmark's seeds 1-3, rounds 0-5, drawn by
    ``bench/workloads.py`` and run as its jobs: the 684 label reads, one per
    factor, as a product's class is the product of its factors' kept ones,
    take the diagonal; 444 of the 828 ``_group_blocks`` calls reorder;
    every one of the 504 component searches finds components of one group
    per side only, read off the near pairs, and every one of their 504
    systems is one column, whose kernel its norm decides; and 684 of the
    684 factor classes keep their labels' order, with no second sort.  On
    every call of those jobs, the 504 Hom component searches, the 504
    kernels, the 684 factor classes, the 2322 clusterings of Schur forms and
    the 2268 key merges of K0 and the divisors give the bits of their
    frozen paths on the same inputs."""
    workloads = bench_workloads()
    calls, counts = Counter(), Counter()

    def counting(name, f):
        return lambda *args, **kwargs: calls.update([name]) or f(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(scipy.linalg.lapack, "ztrsen",
                        counting("ztrsen", scipy.linalg.lapack.ztrsen))
    monkeypatch.setattr(eqconn.category, "_components",
                        counting("_components", eqconn.category._components))
    # a class's own sort runs in numkit's formal-sum core, the labels' in category
    for module in (eqconn.numkit, eqconn.category):
        monkeypatch.setattr(module, "_lex_order", counting("_lex_order", eqconn.numkit._lex_order))

    def spy(modules, name, route):
        inner = getattr(modules[0], name)

        def call(*args):
            before = calls.copy()
            out = inner(*args)
            counts[route(args, out, calls - before)] += 1
            return out
        for module in modules:
            monkeypatch.setattr(module, name, call)

    def frozen(name, oracle, bits):
        return lambda args, out, made: name if bits(out, oracle(*args)) else name + " differs"

    def same_stacks(got, want):
        return len(got) == len(want) and all(
            same_bits(a, b) for g, w in zip(got, want) for a, b in zip(g, w))

    def same_form(got, want):
        return got[2] == want[2] and same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    def same_merge(got, want):
        return same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    def kernel_route(args, out, made):
        route = "one_column" if args[0].shape[-1] == 1 else "svd"
        return route if same_merge(out, frozen_nullspace_scaled(*args)) else route + " differs"

    def class_route(args, out, made):
        route = "sorted" if made["_lex_order"] else "kept_order"
        transversal, labels, tol = args
        want = reference_k0_entries(transversal, [(b, zp, 1) for zp, b in labels.tolist()], tol)
        return route if repr(out.entries) == repr(want) else route + " differs"

    spy([eqconn.category], "_labels",
        lambda args, out, made: "eigvals" if made["eigvals"] else "diagonal")
    spy([eqconn.numkit, eqconn.category], "_group_blocks",
        lambda args, out, made: "reorders" if made["ztrsen"] else "in_order")
    spy([eqconn.category], "_hom_components",
        frozen("hom", frozen_hom_components, same_stacks))
    spy([eqconn.category], "_graph_components",
        lambda args, out, made: "graph" if made["_components"] else "one_group")
    spy([eqconn.category], "_nullspace_scaled", kernel_route)
    spy([K0Class], "_of_labels", class_route)
    spy([eqconn.numkit, eqconn.category], "_cluster_triangular",
        frozen("cluster", frozen_cluster_triangular, same_form))
    spy([eqconn.numkit], "_merge_keys",
        frozen("merge", frozen_merge_keys, same_merge))
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            for job in workloads.tensor_round(rng):
                job.run()
    assert counts == {"diagonal": 684, "reorders": 444, "in_order": 384,
                      "hom": 504, "one_group": 504, "one_column": 504, "kept_order": 684,
                      "cluster": 2322, "merge": 2268}


def test_round_trips_on_the_tensor_benchmark_keep_the_frozen_bits(monkeypatch):
    """Each of the 486 round trips of the tensor-decompose benchmark's seeds
    1-3, rounds 0-5 (``bench/workloads.py``'s rt jobs): ``from_monodromy``
    with the frozen steps patched in gives the same A0, B0, kept Schur form,
    diagnostics and residuals of ``validate_monodromy`` and
    ``validate_normal_form`` as the library, to the bit, and ``monodromy``
    and ``is_nori_finite`` then give the same pair and answer."""
    workloads, category = bench_workloads(), eqconn.category

    def round_trip(m1, m2):
        rep = category.MonodromyPair(m1, m2)
        nf = category.from_monodromy(rep, STRIP, THETA)
        back = category.monodromy(nf)
        t, q, blocks = nf.schur_form(DEFAULT_TOL)
        return ([nf.A0, nf.B0, t, q, back.M1, back.M2],
                repr((blocks, nf.diagnostics, category.validate_monodromy(rep),
                      category.validate_normal_form(nf), eqconn.torus.is_nori_finite(back))))

    jobs = [job.inputs for seed in (1, 2, 3) for rng in [np.random.default_rng(seed)]
            for _ in range(6) for job in workloads.tensor_round(rng) if job.kind.startswith("rt")]
    got = [round_trip(*inputs) for inputs in jobs]
    monkeypatch.setattr(category, "_log_schur", frozen_log_schur)
    monkeypatch.setattr(category, "_validated_monodromy", frozen_validated_monodromy)
    monkeypatch.setattr(category, "_commutator_residual", frozen_commutator_residual)
    monkeypatch.setattr(category, "validate_normal_form", frozen_validate_normal_form)
    want = [round_trip(*inputs) for inputs in jobs]
    assert len(jobs) == 486
    for (arrays, text), (frozen_arrays, frozen_text) in zip(got, want):
        assert text == frozen_text
        assert all(same_bits(a, b) for a, b in zip(arrays, frozen_arrays))


def test_normalize_on_its_benchmark_keeps_the_frozen_bits(monkeypatch):
    """Each of the 360 objects of the normalize-scrambled benchmark's seeds
    1-3, rounds 0-5 (``bench/workloads.py``'s normalize jobs): ``normalize``
    with the frozen series and fold steps patched in gives the same A0, B0,
    diagnostics and gauge record, its series and its fold, as the library,
    to the bit, or the same exception."""
    workloads, category, laurent = bench_workloads(), eqconn.category, eqconn.laurent

    def normalized(obj):
        try:
            nf = category.normalize(obj, workloads.STRIP, workloads.TRUNCATION)
        except Exception as exc:  # an exception must be the frozen path's too
            return [], repr(exc)
        record = nf.gauge
        series, fold = record.series, record.fold
        arrays = [nf.A0, nf.B0, series._powers, series._coeffs]
        if fold is not None:
            arrays.append(fold.similarity)
        return arrays, repr((nf.diagnostics, series.diagnostics, record.truncation,
                             record.radius, fold and fold.exponents))

    objs = [job.inputs[1] for seed in (1, 2, 3) for rng in [np.random.default_rng(seed)]
            for _ in range(6) for job in workloads.normalize_round(rng)]
    got = [normalized(obj) for obj in objs]
    monkeypatch.setattr(laurent, "_series", frozen_series)
    monkeypatch.setattr(category, "_series", frozen_series)
    monkeypatch.setattr(laurent, "truncated_inverse", frozen_truncated_inverse)
    monkeypatch.setattr(category, "_series_gauge", frozen_series_gauge)
    monkeypatch.setattr(laurent, "_finished", frozen_finished)
    want = [normalized(obj) for obj in objs]
    # most take the fold (a fifth array, its similarity), the path the cuts are in
    assert len(objs) == 360 and sum(len(arrays) == 5 for arrays, _ in got) > 200
    for (arrays, text), (frozen_arrays, frozen_text) in zip(got, want):
        assert text == frozen_text
        assert len(arrays) == len(frozen_arrays)
        assert all(same_bits(a, b) for a, b in zip(arrays, frozen_arrays))
