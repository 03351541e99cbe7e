"""Self-tests of the benchmark: seeded inputs, oracles, tracing and the
contract of ``run.py``.

    python3 -m pytest -q bench/tests

They run the program for real and take about a minute.
"""

import dataclasses
import glob
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.locate_sources()

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from eqconn import serialize  # noqa: E402
from eqconn.category import EquivariantConnection, NormalForm  # noqa: E402
from util import random_normal_form  # noqa: E402


def spec():
    return run.bench_spec()


def plan(workload, seed, tmp_path, name="a"):
    workdir = tmp_path / name
    workdir.mkdir()
    return wl.Plan(workload, seed, str(workdir))


def encoded(value):
    if isinstance(value, NormalForm):
        return serialize.encode_normal_form(value)
    if isinstance(value, EquivariantConnection):
        return serialize.encode_object(value)
    return serialize.encode_matrix(value)


def fingerprint(p):
    """Every input of the first three rounds, serialized, plus the files
    written."""
    rounds = [[[encoded(v) for v in job.inputs] for job in p.round(r)] for r in range(3)]
    files = {}
    for path in sorted(glob.glob(os.path.join(p.workdir, "*"))):
        with open(path, "rb") as handle:
            files[os.path.basename(path)] = handle.read().decode()
    argv = [[os.path.basename(a) for a in job.cli_argv or []] for job in p.rounds[0]]
    return json.dumps([rounds, files, argv])


def traced_metrics(p):
    tally = run.Tally()
    metrics, _ = run.traced(wl, tracing, p, tally)
    assert tally.correct and tally.attempted
    return metrics


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", [w["name"] for w in spec()["workloads"]])
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = fingerprint(plan(workload, 5, tmp_path, "a"))
    assert first == fingerprint(plan(workload, 5, tmp_path, "b"))
    assert first != fingerprint(plan(workload, 6, tmp_path, "c"))
    # a round does not depend on how many rounds were generated before it
    late = plan(workload, 5, tmp_path, "d")
    assert [encoded(v) for job in late.round(2) for v in job.inputs] == \
        [encoded(v) for job in plan(workload, 5, tmp_path, "e").round(2)
         for v in job.inputs]


# ---------------------------------------------------------------------------
# oracles reject corrupted outputs
# ---------------------------------------------------------------------------

def perturbed(nf, entry=1e-3):
    a0 = nf.A0.copy()
    a0[0, -1] += entry
    return dataclasses.replace(nf, A0=a0)


def test_normalize_oracle_rejects_perturbed_a0(tmp_path):
    job = plan("normalize-scrambled", 3, tmp_path).rounds[0][3]
    out = job.run()
    job.check(out)
    with pytest.raises(wl.OracleError):
        job.check(perturbed(out))


def test_tensor_oracle_rejects_perturbed_a0(tmp_path):
    job = next(j for j in plan("tensor-decompose", 3, tmp_path).rounds[0]
               if j.kind == "xy/16")
    out = job.run()
    job.check(out)
    with pytest.raises(wl.OracleError):
        job.check(dict(out, t=perturbed(out["t"])))
    with pytest.raises(wl.OracleError):
        job.check(dict(out, hom=out["hom"] + 1))


@pytest.mark.parametrize("seed, round_, index", [(4, 7, 5), (10, 4, 19)])
def test_k0_oracle_tells_unmerged_keys_from_wrong_labels(seed, round_, index, tmp_path):
    """Two tensors whose dilations have labels of size 1e4 to 1e8.  Every
    label eqconn returns is right to rounding, but K0Class's absolute merge
    radius leaves a label off by 4e-7 (seed 4) or one label split in two
    (seed 10): a failure of the program, counted; a label off by one part
    in a million is a wrong output."""
    job = plan("tensor-decompose", seed, tmp_path).round(round_)[index]
    out = job.run()
    with pytest.raises(wl.JobFailed):
        job.check(out)
    k0 = out["k0"]
    bad = wl.K0Class(k0.transversal, [(b * (1 + 1e-6), zp, m) for b, zp, m in k0.entries])
    with pytest.raises(wl.OracleError):
        job.check(dict(out, k0=bad))


def test_roundtrip_oracle_rejects_perturbed_monodromy(tmp_path):
    job = next(j for j in plan("tensor-decompose", 3, tmp_path).rounds[0]
               if j.kind.startswith("rt/"))
    nf, back, finite = job.run()
    job.check((nf, back, finite))
    bad = dataclasses.replace(back, M1=back.M1 * (1 + 1e-6))
    with pytest.raises(wl.OracleError):
        job.check((nf, bad, finite))
    with pytest.raises(wl.OracleError):
        job.check((nf, back, not finite))


def test_cli_oracle_rejects_nan_wrong_exit_codes_and_wrong_results(tmp_path):
    job = plan("normalize-scrambled", 3, tmp_path).rounds[0][1]
    out = job.run()
    code, text, _ = run.in_process_cli(job.cli_argv + ["--json"])
    report = wl.check_cli_report(code, text, job, out)
    assert code == 0 and job.in_batch
    with pytest.raises(wl.OracleError):
        wl.check_cli_report(0, text.replace(repr(report["params"]["theta"]), "NaN"),
                            job, out)
    with pytest.raises(wl.OracleError):
        wl.check_cli_report(2, text, job, out)
    failure = json.dumps(dict(report, error={"kind": "NonConstantB", "message": "x"}))
    with pytest.raises(wl.OracleError):
        wl.check_cli_report(0, failure, job, out)
    with pytest.raises(wl.JobFailed):
        wl.check_cli_report(2, failure, job, out)
    with pytest.raises(wl.OracleError):
        wl.check_job_report(0, report, job, perturbed(out))
    with pytest.raises(wl.OracleError):
        wl.check_cli_report(0, json.dumps(dict(report, result={})), job, out)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tensor_traces(tmp_path_factory):
    """Two traced runs of one tensor-decompose seed."""
    return [traced_metrics(wl.Plan("tensor-decompose", 2,
                                   str(tmp_path_factory.mktemp("trace"))))
            for _ in range(2)]


def test_tensor_decompose_never_calls_laurent(tensor_traces):
    metrics = tensor_traces[0]
    laurent = {k: v for k, v in metrics.items() if k.startswith("laurent.")}
    assert laurent and not any(laurent.values()), laurent
    assert metrics["numkit.reduce_to_transversal.calls"] > 0
    names = [m["name"] for m in spec()["per_layer"]]
    assert sorted(metrics) == sorted(names)


def test_traced_counts_repeat_on_the_same_seed(tensor_traces):
    first, second = tensor_traces
    counts = [m["name"] for m in spec()["per_layer"]
              if m["unit"] in ("count", "bytes")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for name in ("torus.torus_poly_mul.calls", "serialize.bytes_in",
                 "cli.execute.self_ms", "torus.psi_star.ms"):
        assert first[name] > 0, name


def test_tensor_square_at_dim_144_makes_3003_sylvester_solves():
    x = random_normal_form(np.random.default_rng(1), 12)
    job = wl.tensor_job(x, x, "xx", None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        job.run()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["numkit.fold_clusters"] == 78            # 12 * 13 / 2
    assert metrics["lapack.sylvester.calls"] == 3003        # 78 * 77 / 2
    assert metrics["numkit.fold_sylvester_solves"] == 3003


def test_normalize_fail_share_counts_residual_failures():
    """normalize returns a residual above the limit without raising; the
    traced run counts that as a failure as well as a raised error."""
    tracer = tracing.Tracer()
    result = types.SimpleNamespace(diagnostics={
        "shear_passes": 2, "gauge_residual": 3e-8, "b_residual": 1e-12})
    wrapped = tracer.wrap("category.normalize", lambda: result)
    wrapped()
    wrapped()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["category.normalize.shear_passes"] == 4
    assert metrics["category.normalize.fail_share"] == 1.0


def test_uninstall_restores_every_function():
    from eqconn import category, laurent, numkit

    before = (category.spectral, numkit.spectral, laurent.PolyMat.__mul__,
              np.linalg.svd, wl.normalize)
    tracer = tracing.Tracer()
    tracer.install()
    assert category.spectral is not before[0] and wl.normalize is not before[4]
    tracer.uninstall()
    assert (category.spectral, numkit.spectral, laurent.PolyMat.__mul__,
            np.linalg.svd, wl.normalize) == before


# ---------------------------------------------------------------------------
# the command-line contract
# ---------------------------------------------------------------------------

def test_run_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    proc = subprocess.run(spec()["command"] + ["--workload", "tensor-decompose", "--seed", "1",
                                               "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""



def test_timed_run_attempts_a_number_of_jobs_fixed_by_the_seed():
    proc = subprocess.run(spec()["command"] + ["--workload", "normalize-scrambled",
                                               "--seed", "1", "--seconds", "1",
                                               "--trace", "0"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    info = json.loads(proc.stdout.splitlines()[-2])["info"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert info["rounds"] == wl.timed_rounds("normalize-scrambled", 1) == 1
    assert result["attempted"] == info["round_jobs"] + run.BATCH_REPEATS * info["batch_jobs"]
