"""Spans and counts around eqconn's public functions, from outside ``src/``.

``Tracer.install()`` replaces each listed function with a wrapper that
records a span (name, start, end, parent span, job id) and restores the
originals on ``uninstall()``.  A function is patched in its defining module
and in every module that imported it by name (``category`` imports
``spectral``, ``reduce_to_transversal`` and ``gauge_transform`` that way),
and so is the benchmark's own client module.  Two operators are wrapped on
their classes, and five LAPACK drivers are counted where eqconn calls them
through ``scipy.linalg`` and ``numpy.linalg``.

Spans stay in memory; ``write()`` dumps them as JSON lines at the end.  A
span's self time is its duration minus the time its child spans cover.
"""

import contextlib
import functools
import json
import sys
import threading
import time
from collections import Counter

import numpy.linalg
import scipy.linalg

from eqconn import category, cli, laurent, numkit, serialize, torus
from workloads import RESIDUAL_LIMIT

# (span name, module, attribute); serialize's encoders and decoders are
# grouped under two names, all but the per-scalar ones
SCALAR_CODECS = ("encode_complex", "decode_complex")
FUNCTIONS = [
    ("numkit." + f, numkit, f) for f in (
        "reduce_to_transversal", "log_transversal", "spectral", "solve_sylvester",
        "mat_exp", "nullspace")
] + [
    ("laurent." + f, laurent, f) for f in (
        "gauge_transform", "dilation_transform", "truncated_inverse", "shear",
        "apply_shear_dilation")
] + [
    ("category." + f, category, f) for f in (
        "normalize", "tensor", "dual", "decompose", "k0_class", "hom_basis",
        "from_monodromy", "monodromy", "kernel", "cokernel", "validate",
        "validate_normal_form")
] + [
    ("torus." + f, torus, f) for f in (
        "psi_star", "k0_to_divisor", "divisor_equivalent", "is_nori_finite",
        "build_extension")
] + [
    ("serialize." + f.split("_")[0], serialize, f) for f in sorted(vars(serialize))
    if f.startswith(("encode_", "decode_")) and f not in SCALAR_CODECS
] + [
    ("cli.execute", cli, "execute"),
    ("cli.emit", cli, "_emit"),
    ("cli.run_batch", cli, "_run_batch"),
]
METHODS = [
    ("laurent.polymat_mul", laurent.PolyMat, "__mul__"),
    ("torus.torus_poly_mul", torus.TorusPoly, "__mul__"),
]
LAPACK = [
    ("lapack.schur", scipy.linalg, "schur"),
    ("lapack.sylvester", scipy.linalg, "solve_sylvester"),
    ("lapack.svd", numpy.linalg, "svd"),
    ("lapack.eig", numpy.linalg, "eig"),
    ("lapack.eigvals", numpy.linalg, "eigvals"),
]
CLIENT_MODULES = ("workloads",)


def _importers(fn):
    """Modules holding ``fn`` under some name: eqconn's and the client's."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "eqconn" or name.startswith("eqconn.")
                                  or name in CLIENT_MODULES):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                yield module, attr


class Tracer:
    def __init__(self):
        self.spans = []               # [name, start, end, parent, job]
        self.counts = Counter()
        self.job = None
        self._paused = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    # -- recording -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                    tracer.job]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                with tracer._lock:      # --batch runs jobs on a thread pool
                    tracer.counts[name + ".raised"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counts, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Let calls through unrecorded, e.g. while an oracle runs."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- patching --------------------------------------------------------------

    def install(self):
        for name, module, attr in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for holder, held_as in _importers(original):
                self._patch(holder, held_as, wrapper)
        for name, owner, attr in METHODS + LAPACK:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "job": job}) + "\n")

    def summary(self):
        """Per span name: calls, outermost total ms, self ms."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child[i]) * 1e3
            if not self._nested_in_same(i):
                entry["ms"] += (end - start) * 1e3
        return out

    def _nested_in_same(self, i):
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def calls_under(self, name, ancestor):
        """Spans called ``name`` with an ancestor called ``ancestor``."""
        total = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            total += parent is not None
        return total


def _fold_hook(counts, result):
    _, shifts = result
    groups = len({s for _, s in shifts})
    counts["fold_clusters"] += len(shifts)
    counts["fold_shift_groups"] += groups
    if any(s for _, s in shifts):
        counts["fold_needed_solves"] += groups * (groups - 1) // 2


def _normalize_hook(counts, result):
    """Shear passes, and results whose own residuals miss the accuracy
    asked for: normalize returns those without raising."""
    diagnostics = result.diagnostics
    counts["shear_passes"] += diagnostics["shear_passes"]
    counts["normalize_residual_failed"] += not (
        diagnostics["gauge_residual"] < RESIDUAL_LIMIT
        and diagnostics["b_residual"] < RESIDUAL_LIMIT)


HOOKS = {"numkit.reduce_to_transversal": _fold_hook,
         "category.normalize": _normalize_hook}


def layer_metrics(tracer):
    """The per-layer metrics named in BENCHMARK.json (timings in ms)."""
    s = tracer.summary()
    c = tracer.counts

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def layer_self(layer):
        return sum(v["self_ms"] for k, v in s.items() if k.startswith(layer + "."))

    made = tracer.calls_under("lapack.sylvester", "numkit.reduce_to_transversal")
    normalize_calls = get("category.normalize", "calls")
    m = {}
    for name in ("numkit.reduce_to_transversal", "numkit.spectral",
                 "numkit.solve_sylvester", "lapack.sylvester",
                 "laurent.gauge_transform", "laurent.dilation_transform",
                 "laurent.polymat_mul", "category.decompose", "category.normalize"):
        m[name + ".ms"] = get(name, "ms")
        m[name + ".calls"] = get(name, "calls")
    for name in ("numkit.log_transversal", "laurent.truncated_inverse",
                 "laurent.shear", "category.hom_basis", "category.from_monodromy",
                 "category.monodromy", "torus.psi_star", "torus.k0_to_divisor",
                 "torus.divisor_equivalent", "torus.is_nori_finite",
                 "serialize.decode", "serialize.encode", "cli.emit"):
        m[name + ".ms"] = get(name, "ms")
    for name in ("category.normalize", "category.tensor", "cli.execute"):
        m[name + ".self_ms"] = get(name, "self_ms")
    for layer in ("numkit", "laurent", "category", "torus"):
        m[layer + ".self_ms"] = layer_self(layer)
    for name in ("lapack.schur", "lapack.svd", "lapack.eig", "lapack.eigvals",
                 "torus.torus_poly_mul"):
        m[name + ".calls"] = get(name, "calls")
    m["numkit.fold_clusters"] = c["fold_clusters"]
    m["numkit.fold_shift_groups"] = c["fold_shift_groups"]
    m["numkit.fold_sylvester_solves"] = made
    m["numkit.sylvester_needed_share"] = c["fold_needed_solves"] / made if made else 0.0
    m["category.normalize.shear_passes"] = c["shear_passes"]
    failed = c["category.normalize.raised"] + c["normalize_residual_failed"]
    m["category.normalize.fail_share"] = failed / normalize_calls if normalize_calls else 0.0
    return m
