"""The benchmark's traced run installs on the library as it is.

``bench/tracing.py`` wraps each name of its ``FUNCTIONS`` list with
``getattr(module, attr)`` and no default, so a name that leaves ``src/``
before the benchmark drops it makes ``Tracer.install()`` raise
``AttributeError`` before any job runs.  The benchmark's own tests live
under ``bench/tests``; this one guards the install from the library's side.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import eqconn.category

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(monkeypatch, name):
    """``bench/<name>.py``, loaded read-only and registered under its name
    for this test only, as the benchmark's modules import each other."""
    spec = importlib.util.spec_from_file_location(name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, span", [("normalize-scrambled", "category.normalize"),
                                            ("tensor-decompose", "category.tensor")])
def test_the_traced_benchmark_runs_a_job_of_each_workload(monkeypatch, workload, span):
    """Round 0's first job of each workload runs under ``Tracer().install()``,
    its spans read by ``layer_metrics``, and ``uninstall()`` puts every
    wrapped function back."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = load(monkeypatch, "workloads")
    tracing = load(monkeypatch, "tracing")
    make = (workloads.normalize_round if workload == "normalize-scrambled"
            else workloads.tensor_round)
    job = make(np.random.default_rng(1))[0]
    original = eqconn.category.normalize, eqconn.category.tensor
    tracer = tracing.Tracer()
    try:
        tracer.install()
        job.check(job.run())
        metrics = tracing.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert tracer.summary()[span]["calls"] >= 1
    assert metrics[span + ".self_ms"] > 0.0
    assert (eqconn.category.normalize, eqconn.category.tensor) == original
