"""End-to-end tests of the command-line tool."""

import functools
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from eqconn import cli
from eqconn.category import MonodromyPair, NormalForm, tensor
from eqconn.cli import main, parse_complex
from eqconn.numkit import TransversalBranchWarning, mat_exp
from eqconn.serialize import (
    decode_normal_form,
    encode_divisor,
    encode_k0,
    encode_matrix,
    encode_monodromy,
    encode_normal_form,
    encode_object,
    encode_free_bundle,
    encode_torus_poly,
)
from eqconn.category import K0Class
from eqconn.torus import Divisor, TorusPoly, psi_star
from reference import (
    reference_build_extension,
    reference_decode_free_bundle,
    reference_encode_free_bundle,
    reference_hom_basis,
    reference_psi_star,
)
from util import (
    STRIP,
    TAU,
    THETA,
    plant_non_equivariant_term,
    plant_pole,
    random_commuting_pair,
    random_normal_form,
    scramble,
    straddling_jordan_form,
    strip_edge_jordan_object,
)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, ["--json"] + argv)
    return code, (json.loads(out) if out.strip() else None)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_complex():
    assert parse_complex("1,-1") == 1.0 - 1.0j
    assert parse_complex("2.5") == 2.5 + 0.0j
    with pytest.raises(Exception):
        parse_complex("a,b")


def test_wd_report(capsys):
    code, report = run_json(capsys, ["wd", "--tau", "1,-1"])
    assert code == 0
    res = report["result"]
    assert res["wd"] == 2.0
    assert res["g"]["N"] == 1
    assert abs(res["wd_g"] - 0.5) < 1e-12
    gtau = complex(*res["gtau"])
    assert abs(gtau - (-1.0 / (2.0 - 1.0j))) < 1e-12


def test_reduce_tau(capsys):
    code, report = run_json(capsys, ["reduce-tau", "--value", "1.3,-1.3",
                                     "--tau", "1,-1"])
    assert code == 0
    assert report["result"]["shift"] == 1
    rep = complex(*report["result"]["representative"])
    assert abs(rep - 0.3 * TAU) < 1e-12


def test_reduce_tau_of_a_value_past_the_float_range_exits_1(capsys):
    """1e308 - 1e308j has no strip position in the float range: a
    NumericFailure report, not an OverflowError traceback."""
    code = main(["--json", "reduce-tau", "--value", "1e308,-1e308"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    report = json.loads(out, parse_constant=pytest.fail)
    assert report["error"]["kind"] == "NumericFailure"
    assert "no strip shift" in report["error"]["message"]


def test_determinism_byte_identical(capsys, tmp_path):
    rng = np.random.default_rng(0)
    obj = scramble(random_normal_form(rng, 2), rng, shears=1)
    path = write(tmp_path, "obj.json", encode_object(obj))
    _, out1 = run(capsys, ["--json", "normalize", path])
    _, out2 = run(capsys, ["--json", "normalize", path])
    assert out1 == out2


def test_normalize_pipeline(capsys, tmp_path):
    rng = np.random.default_rng(1)
    seed_nf = random_normal_form(rng, 2)
    obj = scramble(seed_nf, rng, shears=2)
    path = write(tmp_path, "obj.json", encode_object(obj))
    code, report = run_json(capsys, ["normalize", path, "--transversal-offset",
                                     "0", "--truncation", "16"])
    assert code == 0
    res = report["result"]
    assert res["dim"] == 2
    assert all(0.0 <= p < 1.0 for p in res["strip_positions"])
    assert res["diagnostics"]["gauge_residual"] < 1e-8


def test_a_report_reads_the_schur_form_taken_at_the_commands_tolerance(
        capsys, tmp_path, monkeypatch):
    """``normalize`` takes one Schur form of A(0) and its check one of A0,
    at the tolerance the command runs at; the report's eigenvalues read the
    latter, so a non-default tolerance makes two ``numkit._schur`` calls,
    as the default does.  At the default the report is, byte for byte, the
    one the encoder gives when it takes the default-tolerance form itself."""
    from eqconn import numkit, serialize

    rng = np.random.default_rng(4)
    obj = scramble(random_normal_form(rng, 4), rng, shears=1)
    path = write(tmp_path, "obj.json", encode_object(obj))
    schur, calls = numkit._schur, []
    monkeypatch.setattr(numkit, "_schur", lambda m: calls.append(1) or schur(m))
    for options in ([], ["--tol-spec", "1e-9"]):
        calls.clear()
        code, report = run_json(capsys, options + ["normalize", path])
        assert code == 0 and len(calls) == 2
    code, got = run(capsys, ["--json", "normalize", path])
    encode = serialize.encode_normal_form
    monkeypatch.setattr(serialize, "encode_normal_form", lambda nf, tol=None: encode(nf))
    assert code == 0 and run(capsys, ["--json", "normalize", path]) == (code, got)


def test_rh_roundtrip_shell_level(capsys, tmp_path):
    rng = np.random.default_rng(2)
    m1, m2 = random_commuting_pair(rng, 3)
    rep_path = write(tmp_path, "rep.json",
                     encode_monodromy(MonodromyPair(m1, m2)))
    code, report = run_json(capsys, ["rh-from-rep", rep_path, "--tau", "1,-1"])
    assert code == 0
    nf_path = write(tmp_path, "nf.json", report["result"])
    code, report = run_json(capsys, ["rh-to-rep", nf_path])
    assert code == 0
    back1 = np.array([[complex(re, im) for re, im in row]
                      for row in report["result"]["M1"]])
    assert np.linalg.norm(back1 - m1) < 1e-8 * max(1.0, np.linalg.norm(m1))


def test_rh_from_rep_refuses_matrices_of_different_sizes_exits_2(capsys, tmp_path):
    """M1 2 x 2 and M2 1 x 1 used to end in a ``ValueError`` traceback from
    the commutator, exit 1; the pair is refused before it, a report with
    exit 2."""
    rep_path = write(tmp_path, "rep.json", {"dim": 2, "M1": encode_matrix(np.eye(2)),
                                            "M2": encode_matrix(np.eye(1))})
    code = main(["--json", "rh-from-rep", rep_path])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    report = json.loads(out, parse_constant=pytest.fail)
    assert report["error"]["kind"] == "ValidationFailure"
    assert "of one size" in report["error"]["message"]


def test_rh_from_rep_of_a_double_eigenvalue_at_the_float_limit_exits_0(capsys, tmp_path):
    """M1 = diag(1.7e308, 1.7e308): the cluster's sum leaves the float
    range, so its mean is summed from the members divided by the size, and
    the squares of ``exp(2 pi i A0/tau) - M1`` overflow, so its norm is
    taken through its largest part.  Exit 0 with A0 = tau log(1.7e308) /
    (2 pi i) I and a finite ``log_residual``, where the pair used to end in
    ``NumericFailure``, exit 1; no warning is raised on the way."""
    rep_path = write(tmp_path, "rep.json", encode_monodromy(
        MonodromyPair(np.diag([1.7e308, 1.7e308]).astype(complex), np.eye(2))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run_json(capsys, ["rh-from-rep", rep_path])
    assert code == 0
    a0 = np.array([[complex(re, im) for re, im in row] for row in report["result"]["A0"]])
    want = TAU * math.log(1.7e308) / (2j * math.pi)
    assert np.allclose(a0, want * np.eye(2), rtol=1e-12, atol=0.0)
    assert 0.0 < report["result"]["diagnostics"]["log_residual"] < math.inf


def test_hom_and_tensor_commands(capsys, tmp_path):
    rng = np.random.default_rng(3)
    x = random_normal_form(rng, 2)
    from eqconn.serialize import encode_normal_form
    xp = write(tmp_path, "x.json", encode_normal_form(x))
    code, report = run_json(capsys, ["hom", xp, xp])
    assert code == 0
    assert report["result"]["dim"] >= 1
    code, report = run_json(capsys, ["tensor", xp, xp])
    assert code == 0
    assert report["result"]["dim"] == 4
    code, report = run_json(capsys, ["dual", xp])
    assert code == 0
    code, report = run_json(capsys, ["decompose", xp])
    assert len(report["result"]["factors"]) == 2
    code, report = run_json(capsys, ["k0", xp])
    assert sum(t["mult"] for t in report["result"]["terms"]) == 2


def test_hom_report_is_strict_json_spanning_the_dense_oracle(capsys, tmp_path):
    rng = np.random.default_rng(64)
    x, y = random_normal_form(rng, 2), random_normal_form(rng, 2)
    xy, yx = tensor(x, y), tensor(y, x)
    paths = [write(tmp_path, "%s.json" % name, encode_normal_form(nf))
             for name, nf in (("xy", xy), ("yx", yx))]
    code, out = run(capsys, ["--json", "hom"] + paths)
    assert code == 0
    result = json.loads(out, parse_constant=pytest.fail)["result"]
    want = reference_hom_basis(xy, yx)
    assert result["dim"] == len(want) == len(result["basis"]) == 4
    got = np.array([[complex(re, im) for row in m for re, im in row]
                    for m in result["basis"]]).T
    ref = np.array([m.ravel() for m in want]).T
    assert np.allclose(got.conj().T @ got, np.eye(4), atol=1e-12)
    assert np.linalg.norm(got @ got.conj().T - ref @ ref.conj().T, 2) < 1e-10
    code, again = run(capsys, ["--json", "hom"] + paths)
    assert again == out


def test_kernel_cokernel_commands(capsys, tmp_path):
    rng = np.random.default_rng(4)
    x = random_normal_form(rng, 2)
    from eqconn.category import Morphism
    from eqconn.serialize import encode_morphism
    m = Morphism(x, x, np.zeros((2, 2), dtype=complex))
    mp = write(tmp_path, "m.json", encode_morphism(m))
    code, report = run_json(capsys, ["kernel", mp])
    assert code == 0 and report["result"]["object"]["dim"] == 2
    code, report = run_json(capsys, ["cokernel", mp])
    assert code == 0 and report["result"]["object"]["dim"] == 2


def test_kernel_reports_its_rank_split_in_strict_json(capsys, tmp_path):
    x = random_normal_form(np.random.default_rng(5), 3)
    from eqconn.category import Morphism
    from eqconn.serialize import encode_morphism
    # a morphism of rank 2 with a singular value near 1e-13: x's eigenvectors,
    # on which an endomorphism of x is diagonal
    v = np.linalg.eig(x.A0)[1]
    near_rank_one = v @ np.diag([1.0, 1e-13, 0.0]) @ np.linalg.inv(v)
    for phi in (np.zeros((3, 3)), np.eye(3), near_rank_one):
        mp = write(tmp_path, "m.json", encode_morphism(Morphism(x, x, phi.astype(complex))))
        for command in ("kernel", "cokernel"):
            code, out = run(capsys, ["--json", command, mp])
            assert code == 0
            report = json.loads(out, parse_constant=_refuse)
            diagnostics = report["result"]["object"]["diagnostics"]
            assert sorted(diagnostics) == ["dropped_singular_ratio", "invariance_residual",
                                           "kept_singular_ratio", "phi_rank"]


def test_kernel_of_a_phi_that_does_not_intertwine_exits_2(capsys, tmp_path):
    """Source A0 = diag(0.25, 0.3), target A0 = 0.25, B0 = 2 on both and
    phi = [1, 1]: both endpoints are valid normal forms, but phi A0 - A0 phi
    has norm 0.05, so ``kernel`` and ``cokernel`` refuse it with one
    strict-JSON report naming both residuals, and nothing on stderr."""
    def normal_form(a0):
        n = len(a0)
        return {"tau": [1.0, -1.0], "theta": 0.5, "A0": [[[a, 0.0] for a in row] for row in a0],
                "B0": [[[2.0 if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]}
    payload = {"source": normal_form([[0.25, 0.0], [0.0, 0.3]]),
               "target": normal_form([[0.25]]), "phi": [[[1.0, 0.0], [1.0, 0.0]]]}
    mp = write(tmp_path, "m.json", payload)
    for command in ("kernel", "cokernel"):
        code = main(["--json", command, mp])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        report = json.loads(out, parse_constant=_refuse)
        assert report["error"]["kind"] == "ValidationFailure"
        assert report["error"]["message"] == (
            "phi does not intertwine source and target: A residual 5.000e-02, "
            "B residual 0.000e+00")


def _refuse(token):
    raise AssertionError("non-standard JSON constant %s" % token)


def test_kmap_and_divisor_eq(capsys, tmp_path):
    cls = K0Class(STRIP, [(2.0, 0.25 * TAU + 0.1, 1)])
    kp = write(tmp_path, "k.json", encode_k0(cls))
    code, report = run_json(capsys, ["kmap", kp])
    assert code == 0
    assert len(report["result"]["points"]) == 1
    a, b = 0.2 + 0.1 * TAU, 0.4 + 0.3 * TAU
    d1 = write(tmp_path, "d1.json",
               encode_divisor(Divisor(TAU, [(a, 1), (b, 1)])))
    d2 = write(tmp_path, "d2.json",
               encode_divisor(Divisor(TAU, [(0.0, 1), (a + b, 1)])))
    code, report = run_json(capsys, ["divisor-eq", d1, d2])
    assert code == 0 and report["result"]["equivalent"] is True


def test_psi_star_and_extension(capsys, tmp_path):
    rng = np.random.default_rng(5)
    x = random_normal_form(rng, 2)
    from eqconn.serialize import encode_normal_form
    xp = write(tmp_path, "x.json", encode_normal_form(x))
    code, report = run_json(capsys, ["psi-star", xp])
    assert code == 0 and report["result"]["dim"] == 2
    fb_path = write(tmp_path, "fb.json", report["result"])
    code, report = run_json(capsys, ["extension", fb_path, "--zprime", "0.5,0"])
    assert code == 0 and report["result"]["dim"] == 3


def test_scalar_commands(capsys):
    code, report = run_json(capsys, ["std-bundle", "--m", "0", "--n", "1"])
    assert code == 0 and report["result"] == {"deg": 0, "rk": 1.0, "slope": 0.0}
    code, report = run_json(capsys, ["phase", "--m", "0", "--n", "3"])
    assert code == 0 and report["result"]["phase"] == 0.5
    code, report = run_json(capsys, ["atheta-check", "--bound", "2"])
    assert code == 0
    assert report["result"]["intertwining_residual"] < 1e-12


def test_nori_command(capsys, tmp_path):
    mp = write(tmp_path, "m.json", {"M": encode_matrix(np.diag([1.0j, -1.0]))})
    code, report = run_json(capsys, ["nori", mp])
    assert code == 0 and report["result"]["nori_finite"] is True
    rng = np.random.default_rng(6)
    jp = write(tmp_path, "j.json", {"M": encode_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))})
    code, report = run_json(capsys, ["nori", jp])
    assert report["result"]["nori_finite"] is False


def test_exit_code_2_on_malformed_and_invalid(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run_json(capsys, ["validate", str(bad)])
    assert code == 2
    assert "line" in report["error"]["message"]
    # invariant violation: a pole in the connection matrix
    payload = {
        "tau": [1.0, -1.0], "theta": 0.5, "dim": 1,
        "A": [{"pow": -1, "coef": encode_matrix(np.eye(1))}],
        "B": [{"pow": 0, "coef": encode_matrix(np.eye(1))}],
        "transversal_offset": 0.0,
    }
    path = write(tmp_path, "invalid.json", payload)
    code, report = run_json(capsys, ["validate", path])
    assert code == 2
    assert report["error"]["kind"] == "RegularityViolation"


def test_validate_reports_an_equivariance_violation_at_a_high_power(capsys, tmp_path):
    """A non-equivariant term planted at z**40 of a scrambled n = 12 object
    exits 2 with the violation named, in strict JSON."""
    rng = np.random.default_rng(520)
    obj = scramble(random_normal_form(rng, 12), rng, shears=1, degree=3)
    path = write(tmp_path, "planted.json",
                 encode_object(plant_non_equivariant_term(obj, rng)))
    code, out = run(capsys, ["--json", "validate", path])
    assert code == 2

    def refuse(token):
        raise AssertionError("non-standard JSON token %s" % token)

    report = json.loads(out, parse_constant=refuse)
    assert report["error"]["kind"] == "EquivarianceViolation"


def test_validate_of_a_pole_hidden_by_growing_powers_exits_2(capsys, tmp_path):
    """``1e3 I`` at z**-1 of a scrambled n = 12 input, a pole of the
    balanced connection matrix: validate and normalize exit 2 naming it, in
    strict JSON."""
    rng = np.random.default_rng(1)
    obj = plant_pole(scramble(random_normal_form(rng, 12), rng, shears=2))
    path = write(tmp_path, "pole.json", encode_object(obj))
    for command in ("validate", "normalize"):
        code, out = run(capsys, ["--json", command, path])
        assert code == 2
        report = json.loads(out, parse_constant=pytest.fail)
        assert report["error"]["kind"] == "RegularityViolation"
        assert "at radius 0.25" in report["error"]["message"]


def test_validate_of_gapped_powers_exits_2_with_the_residual(capsys):
    """A = diag(0.3 tau, 0.6 tau) + 1e-3 z**(10**12), B = I + z**(10**12):
    the residual delta(B) of norm 2e12 is reported at once as an
    equivariance violation, in strict JSON, with no circle of 2e12 points
    allocated."""
    zero, eye = [0.0, 0.0], [1.0, 0.0]
    obj = {"tau": [1.0, -1.0], "theta": 0.5, "dim": 2,
           "A": [{"pow": 0, "coef": [[[0.3, -0.3], zero], [zero, [0.6, -0.6]]]},
                 {"pow": 10 ** 12, "coef": [[[1e-3, 0.0], zero], [zero, [1e-3, 0.0]]]}],
           "B": [{"pow": 0, "coef": [[eye, zero], [zero, eye]]},
                 {"pow": 10 ** 12, "coef": [[eye, zero], [zero, eye]]}]}
    code, out = run(capsys, ["--json", "validate", json.dumps(obj)])
    assert code == 2
    report = json.loads(out, parse_constant=pytest.fail)
    assert report["error"]["kind"] == "EquivarianceViolation"
    assert "residual 2.000e+12 at radius 1" in report["error"]["message"]


def test_missing_command_fails(capsys):
    code = main([])
    assert code == 2


def test_text_output_mode(capsys):
    code, out = run(capsys, ["std-bundle", "--m", "1", "--n", "1"])
    assert code == 0
    assert "deg" in out and "slope" in out


def test_batch_mode(capsys, tmp_path):
    manifest = {"jobs": [
        {"argv": ["wd", "--tau", "1,-1"]},
        {"argv": ["std-bundle", "--m", "0", "--n", "1"]},
        {"argv": ["phase", "--m", "0", "--n", "2"]},
    ]}
    path = write(tmp_path, "manifest.json", manifest)
    code, out = run(capsys, ["--json", "--batch", path])
    assert code == 0
    report = json.loads(out)
    assert len(report["batch"]) == 3
    assert report["batch"][0]["result"]["wd"] == 2.0
    assert report["batch"][2]["result"]["phase"] == 0.5


def scalar_object(pow_a=0, theta=0.5):
    return {"tau": [1.0, -1.0], "theta": theta, "dim": 1,
            "A": [{"pow": pow_a, "coef": [[[0.1, 0.0]]]}],
            "B": [{"pow": 0, "coef": [[[1.0, 0.0]]]}]}


def test_non_integer_power_exits_2(capsys):
    code, report = run_json(capsys, ["normalize", json.dumps(scalar_object(pow_a="x"))])
    assert code == 2
    assert report["error"]["kind"] == "ValidationFailure"
    assert "pow" in report["error"]["message"]


def test_non_finite_theta_in_object_exits_2(capsys):
    code, report = run_json(capsys, ["normalize", json.dumps(scalar_object(theta="nan"))])
    assert code == 2 and report["error"]["kind"] == "ValidationFailure"
    # the bare token is not JSON either
    text = json.dumps(scalar_object()).replace('"theta": 0.5', '"theta": NaN')
    code, report = run_json(capsys, ["normalize", text])
    assert code == 2 and "NaN" in report["error"]["message"]


def test_non_finite_theta_option_exits_2(capsys):
    """A non-finite option is refused by the argument parser, with exit
    code 2 and a strict JSON report naming the option, stderr empty."""
    for argv, option in ((["--theta", "nan", "wd"], "--theta"),
                         (["wd", "--theta", "inf"], "--theta"),
                         (["--tau", "nan,1", "wd"], "--tau")):
        code = main(["--json"] + argv)
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        report = json.loads(out, parse_constant=pytest.fail)
        assert report["error"]["kind"] == "ValidationFailure"
        assert "argument %s:" % option in report["error"]["message"]


def test_command_line_faults_exit_2_with_one_report_naming_them(capsys, tmp_path):
    """A malformed option, in a single command or in a batch job, a help
    flag in a batch job, and a tolerance that is not positive are each one
    strict JSON report with exit code 2 and stderr empty; the report of a
    command line that parsed carries its params and inputs digest."""
    code = main(["--json", "--tau", "nan,0", "wd"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert json.loads(out, parse_constant=pytest.fail) == {
        "command": None, "error": {"kind": "ValidationFailure",
                                   "message": "argument --tau: expected 're,im', got 'nan,0'"}}
    path = write(tmp_path, "manifest.json", [["wd", "--tau", "nan,0"], ["wd", "--help"], ["wd"]])
    code = main(["--json", "--batch", path])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    bad_tau, help_flag, ok = json.loads(out, parse_constant=pytest.fail)["batch"]
    assert bad_tau["command"] == help_flag["command"] == "wd"
    assert "argument --tau" in bad_tau["error"]["message"]
    assert help_flag["error"] == {"kind": "ValidationFailure",
                                  "message": "-h/--help is not allowed in a batch job"}
    assert ok["result"]["wd"] == 2.0
    code = main(["--json", "--tol-spec", "0", "wd"])
    out, err = capsys.readouterr()
    report = json.loads(out, parse_constant=pytest.fail)
    assert (code, err) == (2, "") and set(report) == {"command", "params", "inputs_digest",
                                                      "error"}
    assert report["params"]["tolerances"]["eps_spec"] == 0.0


def test_help_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: eqconn")


def test_kmap_digests_the_input_it_read(capsys):
    """kmap's ``inputs_digest`` is the digest of the payload as read, for a
    K-class and for a normal form alike."""
    k_class = {"tau": [1.0, -1.0], "terms": [{"zprime": [0.1, 0.0], "b": [1.0, 0.0],
                                               "mult": 2}]}
    for payload, digest in ((k_class, "b8e13528160d9f95"), (ONE_DIM, "a865235800823f4b")):
        code, report = run_json(capsys, ["kmap", json.dumps(payload)])
        assert code == 0 and report["inputs_digest"] == digest


def test_non_finite_result_is_a_numeric_failure(capsys, monkeypatch):
    monkeypatch.setitem(cli.COMMANDS, "wd", lambda ctx: {"wd": float("nan")})
    code, out = run(capsys, ["--json", "wd"])
    assert code == 1
    report = json.loads(out, parse_constant=pytest.fail)
    assert report["error"]["kind"] == "NumericFailure"


def test_tensor_of_a_jordan_block_split_across_the_strip_edge_exits_0(capsys, tmp_path):
    # the fold joins the pieces of the square's split Jordan cluster and
    # moves them whole, with a branch warning (test_category); seeds 1 and 2
    # split it in the Schur form tensor builds, seed 0 does not
    for seed in (0, 1, 2):
        x = straddling_jordan_form(np.random.default_rng(seed))
        path = write(tmp_path, "x.json", encode_normal_form(x))
        with pytest.warns(TransversalBranchWarning):
            code, out = run(capsys, ["--json", "tensor", path, path])
        assert code == 0
        xx = decode_normal_form(json.loads(out, parse_constant=pytest.fail)["result"])
        m1 = mat_exp(2j * np.pi * x.A0 / x.tau)
        assert (np.linalg.norm(mat_exp(2j * np.pi * xx.A0 / xx.tau) - np.kron(m1, m1))
                < 1e-12 * np.linalg.norm(np.kron(m1, m1)))


def test_a_non_commuting_pair_near_the_float_range_exits_2(capsys, tmp_path):
    """The commutator of M1 = 1e300 [[1, 1], [0, 2]] and M2 = [[1, 0], [1,
    1]], and its bound, overflow to inf, and ``inf > inf`` accepted the
    pair; the test on the pair divided by max(1, ||M||) refuses it."""
    pair = MonodromyPair(1e300 * np.array([[1.0, 1.0], [0.0, 2.0]]),
                         np.array([[1.0, 0.0], [1.0, 1.0]]))
    path = write(tmp_path, "pair.json", encode_monodromy(pair))
    for command in ("rh-from-rep", "nori"):
        code, out = run(capsys, ["--json", command, path])
        assert code == 2
        report = json.loads(out, parse_constant=pytest.fail)
        assert report["error"]["kind"] == "ValidationFailure"
        assert "do not commute" in report["error"]["message"]


def test_a_non_commuting_normal_form_with_a_nan_commutator_exits_2(capsys, tmp_path):
    """A0 = [[0.3 - 0.3i, 1e300], [0, 0.5 - 0.5i]] and B0 = 1e20 diag(1, 2)
    do not commute, but A0 B0 - B0 A0 is inf - inf = nan, and ``nan >
    bound`` accepted the form; scaled first, the commutator is finite."""
    a0 = np.array([[0.3 - 0.3j, 1e300], [0.0, 0.5 - 0.5j]])
    nf = NormalForm(a0, 1e20 * np.diag([1.0, 2.0]).astype(complex), STRIP, THETA, STRIP.tau)
    path = write(tmp_path, "nf.json", encode_normal_form(nf))
    code, out = run(capsys, ["--json", "tensor", path, path])
    assert code == 2
    report = json.loads(out, parse_constant=pytest.fail)
    assert report["error"]["kind"] == "EquivarianceViolation"


def test_normalize_refuses_a_truncation_below_1_exits_2(capsys):
    a0 = [[[0.3, -0.3], [0.0, 0.0]], [[0.0, 0.0], [0.6, -0.6]]]
    swap = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    obj = {"tau": [1.0, -1.0], "theta": 0.5, "dim": 2,
           "A": [{"pow": 0, "coef": a0}, {"pow": 1, "coef": swap}],
           "B": [{"pow": 0, "coef": eye}]}
    for order in ("0", "-3"):
        code, out = run(capsys, ["--json", "--truncation", order, "normalize",
                                 json.dumps(obj)])
        assert code == 2
        report = json.loads(out, parse_constant=pytest.fail)
        assert report["error"]["kind"] == "ValidationFailure"
        assert "truncation order" in report["error"]["message"]


def test_normalize_of_a_jordan_block_on_the_strip_edge_exits_0(capsys, tmp_path):
    # rounding spreads the block over the edge; the fold moves it whole,
    # with a branch warning, onto the strip's left edge
    for seed in (0, 1):
        obj = strip_edge_jordan_object(np.random.default_rng(seed))
        path = write(tmp_path, "edge.json", encode_object(obj))
        with pytest.warns(TransversalBranchWarning):
            code, out = run(capsys, ["--json", "normalize", path])
        assert code == 0
        result = json.loads(out, parse_constant=pytest.fail)["result"]
        assert result["diagnostics"]["gauge_residual"] <= 1e-12
        positions = sorted(result["strip_positions"])
        assert np.allclose(positions, [0.0, 0.0, 0.0, 0.4], atol=1e-4)


def run_cli_normalize(obj, options=(), address_space=None):
    """``eqconn.cli --json [options] normalize`` of an inline object in a
    subprocess, with a 60 s limit and, if given, a limit in bytes on its
    address space, under which it runs one BLAS thread (a BLAS reserves
    address space per thread): ``(exit code, parsed strict JSON report)``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    limit = None
    if address_space is not None:
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS"), "1"))
        limit = functools.partial(resource.setrlimit, resource.RLIMIT_AS,
                                  (address_space, address_space))
    done = subprocess.run([sys.executable, "-m", "eqconn.cli", "--json", *options,
                           "normalize", json.dumps(obj)], capture_output=True, text=True,
                          env=env, timeout=60, check=False, preexec_fn=limit)
    assert done.stderr == ""
    return done.returncode, json.loads(done.stdout, parse_constant=pytest.fail)


def test_normalize_of_a_resonant_input_far_from_the_strip_exits_0_in_bounded_time():
    """A = diag(3e8 tau, 6e8 tau), B = I, whose unit step tau lies below the
    rounding of A(0), would take 9e8 shearing steps; the command used to run
    on without end, then to refuse it, and now folds it to diag(0, 0)."""
    a0 = [[[3e8, -3e8], [0.0, 0.0]], [[0.0, 0.0], [6e8, -6e8]]]
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    obj = {"tau": [1.0, -1.0], "theta": 0.5, "dim": 2,
           "A": [{"pow": 0, "coef": a0}], "B": [{"pow": 0, "coef": eye}]}
    code, report = run_cli_normalize(obj)
    assert code == 0, report
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    assert report["result"]["A0"] == zero and report["result"]["B0"] == eye


def test_normalize_refuses_a_truncation_whose_gauge_would_not_fit_exits_2():
    """``--truncation 100000000`` at n = 2 used to ask for 6 GiB for the
    series gauge's gaps, and under a 3 GB address space end in a
    ``MemoryError``: exit 1, a traceback, and a report without ``params``.
    It is refused before the gauge allocates, in a report with them."""
    a0 = [[[0.3, -0.3], [0.0, 0.0]], [[0.0, 0.0], [0.6, -0.6]]]
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    obj = {"tau": [1.0, -1.0], "theta": 0.5, "dim": 2,
           "A": [{"pow": 0, "coef": a0}], "B": [{"pow": 0, "coef": eye}]}
    code, report = run_cli_normalize(obj, ["--truncation", "100000000"],
                                     address_space=3 * 10**9)
    assert code == 2, report
    assert report["error"]["kind"] == "ValidationFailure"
    assert "truncation order 100000000 is too large" in report["error"]["message"]
    assert report["params"]["truncation"] == 100000000


def test_normalize_of_a_collision_across_the_strip_edge_exits_1():
    """diag(1e-10 tau, (1 - 1e-10) tau) + [[0, 1], [0, 0]] z, B = I: the
    series gauge would solve across a gap of 2e-10 |tau|, and the command
    reports the ``SpectrumCollision`` as a numerical failure in strict
    JSON."""
    tau = complex(1.0, -1.0)
    lo, hi = 1e-10 * tau, (1 - 1e-10) * tau
    a0 = [[[lo.real, lo.imag], [0.0, 0.0]], [[0.0, 0.0], [hi.real, hi.imag]]]
    nil = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    obj = {"tau": [1.0, -1.0], "theta": 0.5, "dim": 2,
           "A": [{"pow": 0, "coef": a0}, {"pow": 1, "coef": nil}],
           "B": [{"pow": 0, "coef": eye}]}
    code, report = run_cli_normalize(obj)
    assert code == 1
    assert report["error"]["kind"] == "SpectrumCollision"
    assert "spectra collide" in report["error"]["message"]


def test_batch_reports_each_failing_job(capsys, tmp_path):
    bad = json.dumps(scalar_object(pow_a="x"))
    path = write(tmp_path, "manifest.json",
                 [["wd", "--tau", "1,-1"], ["normalize", bad], ["wd", "--tau", "1,-1"]])
    code, out = run(capsys, ["--json", "--batch", path])
    assert code == 2
    first, failed, last = json.loads(out)["batch"]
    assert first["result"]["wd"] == last["result"]["wd"] == 2.0
    assert failed["error"]["kind"] == "ValidationFailure"


def test_batch_survives_an_unexpected_exception(capsys, tmp_path, monkeypatch):
    def boom(ctx):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "phase", boom)
    path = write(tmp_path, "manifest.json",
                 [["phase", "--m", "0", "--n", "2"], ["wd", "--tau", "1,-1"]])
    code = main(["--json", "--batch", path])
    captured = capsys.readouterr()
    assert code == 1
    assert "RuntimeError: boom" in captured.err
    failed, ok = json.loads(captured.out)["batch"]
    assert failed["command"] == "phase"
    assert failed["error"] == {"kind": "RuntimeError", "message": "boom"}
    assert ok["result"]["wd"] == 2.0


def test_single_command_survives_an_unexpected_exception(capsys, monkeypatch):
    def boom(ctx):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "phase", boom)
    code = main(["--json", "phase", "--m", "0", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "RuntimeError: boom" in captured.err
    report = json.loads(captured.out, parse_constant=pytest.fail)
    assert report["command"] == "phase" and report["params"]["theta"] == cli.DEFAULT_THETA
    assert report["error"] == {"kind": "RuntimeError", "message": "boom"}
    assert set(report) == {"command", "params", "inputs_digest", "error"}


def scalar_a(*coefficients):
    """A one-dimensional object with ``A = sum_k coefficients[k] z**k`` and
    ``B = 1``."""
    return dict(scalar_object(), A=[{"pow": k, "coef": [[[c, 0.0]]]}
                                    for k, c in enumerate(coefficients)])


@pytest.mark.parametrize("options, obj, message", [
    ([], scalar_a(1e308), "int64"),
    (["--transversal-offset", "1e300"], scalar_a(0.1), "int64"),
    ([], scalar_a(0.1, 1e300), "overflows"),
], ids=["fold-of-a0-1e308", "fold-to-a-far-strip", "series-gauge-overflows"])
def test_normalize_whose_gauge_overflows_exits_1(capsys, options, obj, message):
    """A fold whose shift has no int64 value, and a gauge that overflows,
    are numerical failures in strict JSON, not a traceback.  For ``A = 0.1
    + 1e300 z`` the balancing radius is 2**-997, read off the norm of A_1
    though its squares overflow; the gauge balanced there is finite, and
    overflows on the way back to unit radius, power k times 2**(997 k)."""
    with np.errstate(all="ignore"):
        code = main(["--json"] + options + ["normalize", json.dumps(obj)])
    out, err = capsys.readouterr()
    assert code == 1 and "Traceback" not in err
    report = json.loads(out, parse_constant=pytest.fail)
    assert report["error"]["kind"] == "NumericFailure"
    assert message in report["error"]["message"]


def test_normalize_whose_norms_overflow_writes_nothing_to_stderr():
    """``A = 0.1 + 1e300 z``: the Frobenius norm of A_1 squares past the
    float range.  The command ends in its exit-1 NumericFailure report
    with stderr empty, numpy's overflow warning included, run as a user
    runs it, with no warning filter set."""
    code, report = run_cli_normalize(scalar_a(0.1, 1e300))
    assert code == 1
    assert report["error"]["kind"] == "NumericFailure"
    assert "overflows" in report["error"]["message"]


def test_normalize_of_a0_past_the_float_range_writes_nothing_to_stderr():
    """``A = 1e308``: the series gauge's norm of A(0) squares past the
    float range; the fold refuses the shift, exit 1, with stderr empty."""
    code, report = run_cli_normalize(scalar_a(1e308))
    assert code == 1
    assert report["error"]["kind"] == "NumericFailure"
    assert "int64" in report["error"]["message"]


def test_normalize_whose_unit_residuals_have_no_float_value_exits_1():
    """``A = 0.1 + 1.5e308 z`` balances at radius 2**-1024, where its form
    is fine, but the residuals weighted back to unit radius have no float
    value: exit 1 with a NumericFailure report naming the first, in strict
    JSON with stderr empty, as for ``A = 0.1 + 1e300 z``."""
    code, report = run_cli_normalize(scalar_a(0.1, 1.5e308))
    assert code == 1
    assert report["error"]["kind"] == "NumericFailure"
    assert "gauge_residual_unit has no float value" in report["error"]["message"]


def test_kmap_of_a_label_past_the_float_range_writes_nothing_to_stderr():
    """A K-class term with z' = [1e308, -1e308], whose strip position and
    lattice coordinates overflow: exit 1 with the NumericFailure report,
    stderr empty, in a subprocess with no warning filter set."""
    payload = {"tau": [1.0, -1.0],
               "terms": [{"zprime": [1e308, -1e308], "b": [1.0, 0.0], "mult": 1}]}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "eqconn.cli", "--json", "kmap",
                           json.dumps(payload)], capture_output=True, text=True, env=env,
                          timeout=60, check=False)
    assert (done.returncode, done.stderr) == (1, "")
    report = json.loads(done.stdout, parse_constant=pytest.fail)
    assert report["error"]["kind"] == "NumericFailure"


def test_k0_term_without_b_exits_2(capsys):
    payload = {"tau": [1.0, -1.0], "terms": [{"zprime": [0.1, 0.0], "mult": 1}]}
    code, out = run(capsys, ["--json", "kmap", json.dumps(payload)])
    report = json.loads(out, parse_constant=pytest.fail)
    assert code == 2
    assert report["error"]["kind"] == "ValidationFailure"
    assert "'b'" in report["error"]["message"]


def test_divisor_point_without_p_exits_2(capsys, tmp_path):
    good = write(tmp_path, "good.json", {"tau": [1.0, -1.0],
                                         "points": [{"p": [0.1, 0.0], "mult": 1}]})
    bad = write(tmp_path, "bad.json", {"tau": [1.0, -1.0], "points": [{"mult": 1}]})
    code, out = run(capsys, ["--json", "divisor-eq", bad, good])
    report = json.loads(out, parse_constant=pytest.fail)
    assert code == 2
    assert report["error"]["kind"] == "ValidationFailure"
    assert "'p'" in report["error"]["message"]


ONE_DIM = {"tau": [1.0, -1.0], "theta": 0.3, "A0": [[[0.25, 0.0]]], "B0": [[[2.0, 0.0]]]}
# A0 = diag(0.25, 0.5), inside the strip, and a B0 that does not commute with it
NON_COMMUTING = {"tau": [1.0, -1.0], "theta": 0.3,
                 "A0": [[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                 "B0": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]]}


@pytest.mark.parametrize("command, payloads, kind, message", [
    ("tensor", [dict(ONE_DIM, B0=[[[0.0, 0.0]]]), ONE_DIM], "SingularB", "singular"),
    ("decompose", [NON_COMMUTING], "EquivarianceViolation", "does not commute"),
    ("kernel", [{"source": dict(NON_COMMUTING, B0=[[[1.0, 0.0], [0.0, 0.0]],
                                                   [[0.0, 0.0], [1.0, 0.0]]]),
                 "target": ONE_DIM, "phi": [[[1.0, 0.0]]]}],
     "ValidationFailure", "phi must be 1 x 2"),
    ("kernel", [{"source": NON_COMMUTING, "target": ONE_DIM, "phi": []}],
     "EquivarianceViolation", "does not commute"),
    ("decompose", [dict(ONE_DIM, A0=[[[0.25, 0.0], [0.0, 0.0]]])],
     "ValidationFailure", "square A0 and B0"),
    ("wd", ["--tol-spec", "0"], "ValidationFailure", "eps_spec"),
    ("wd", ["--tol-spec", "-1"], "ValidationFailure", "eps_spec"),
    ("kmap", [{"tau": [1.0, -1.0],
               "terms": [{"zprime": [0.1, 0.0], "b": [1.0, 0.0], "mult": 10 ** 30}]}],
     "ValidationFailure", "mult must be an int64 integer"),
    ("kmap", ['{"tau": [1.0, -1.0], "terms": [{"zprime": [0.1, 0.0], "b": [1.0, 0.0], '
              '"mult": %s}]}' % ("9" * 5000)], "ValidationFailure", "digits"),
    ("normalize", [scalar_object(pow_a=2 ** 63)], "ValidationFailure", "pow"),
    ("std-bundle", ["--m", str(10 ** 400), "--n", "1"], "ValidationFailure",
     "--m must be an int64 integer"),
    ("phase", ["--m", "1", "--n", str(-10 ** 400)], "ValidationFailure",
     "--n must be an int64 integer"),
], ids=["tensor-singular-b0", "decompose-non-commuting", "kernel-phi-shape",
        "kernel-non-commuting-source", "decompose-non-square-a0", "tol-spec-zero",
        "tol-spec-negative", "kmap-mult-beyond-int64", "kmap-mult-of-5000-digits",
        "power-beyond-int64",
        "std-bundle-m-beyond-int64", "phase-n-beyond-int64"])
def test_normal_form_and_morphism_inputs_breaking_an_invariant_exit_2(
        capsys, command, payloads, kind, message):
    """Payloads (a dict is passed as JSON) and options breaking an invariant
    exit 2 with a strict JSON report, also where the command line holds
    them, before any input is read."""
    code, out = run(capsys, ["--json", command]
                    + [p if isinstance(p, str) else json.dumps(p) for p in payloads])
    report = json.loads(out, parse_constant=pytest.fail)
    assert code == 2
    assert report["error"]["kind"] == kind
    assert message in report["error"]["message"]


@pytest.mark.parametrize("argv, option, cap", [
    (["atheta-check", "--bound", "33"], "--bound", 32),
    (["atheta-check", "--pairs", "2001"], "--pairs", 2000),
    (["--d-max", "1000001", "nori", '{"M": [[[0.6, 0.8]]]}'], "--d-max", 10 ** 6),
    (["nori", '{"M": [[[0.6, 0.8]]]}', "--d-max", "1000001"], "--d-max", 10 ** 6),
], ids=["bound", "pairs", "d-max", "d-max-after-the-command"])
def test_options_above_their_work_cap_exit_2_before_any_work(capsys, monkeypatch, argv, option,
                                                              cap):
    """``--bound``, ``--pairs`` and ``--d-max`` one above their cap are
    malformed input: exit 2 with a report naming the option and its cap,
    and the command never runs (inside int64 they once ran until stopped)."""
    monkeypatch.setitem(cli.COMMANDS, argv[0] if argv[0] != "--d-max" else argv[2],
                        lambda ctx: pytest.fail("the command ran"))
    code, report = run_json(capsys, argv)
    assert code == 2
    assert report["error"]["kind"] == "ValidationFailure"
    assert report["error"]["message"] == "%s is capped at %d, got %d" % (option, cap, cap + 1)
    assert "params" in report and "inputs_digest" in report


def test_d_max_at_its_cap_runs(capsys):
    code, report = run_json(capsys, ["nori", '{"M": [[[0.6, 0.8]]]}', "--d-max", str(10 ** 6)])
    assert code == 0 and report["result"] == {"nori_finite": False, "d_max": 10 ** 6}


@pytest.mark.parametrize("text", [None, "{not json", '{"jobs": 5}', '[{"args": ["wd"]}]'],
                         ids=["missing-file", "not-json", "jobs-not-array", "job-without-argv"])
def test_malformed_batch_manifest_exits_2(capsys, tmp_path, text):
    path = tmp_path / "manifest.json"
    if text is not None:
        path.write_text(text)
    code, out = run(capsys, ["--json", "--batch", str(path)])
    report = json.loads(out, parse_constant=pytest.fail)
    assert code == 2
    assert report["command"] == "batch"
    assert report["error"]["kind"] == "ValidationFailure"


def test_batch_builds_the_parser_once(capsys, tmp_path, monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    path = write(tmp_path, "manifest.json", [["wd", "--tau", "1,-1"],
                                             ["std-bundle", "--m", "0", "--n", "1"],
                                             ["phase", "--m", "0", "--n", "2"]])
    code, out = run(capsys, ["--json", "--batch", path])
    assert code == 0 and len(json.loads(out)["batch"]) == 3
    assert calls == [1]


def test_batch_jobs_do_not_share_options(capsys, tmp_path):
    jobs = [["phase", "--m", "1", "--n", "1"],
            ["phase", "--m", "1", "--n", "1", "--theta", "0.25", "--tol-spec", "1e-6",
             "--tol-key", "1e-5"],
            ["--theta", "0.75", "--tol-res", "1e-7", "phase", "--m", "1", "--n", "1"],
            ["phase", "--m", "1", "--n", "1"]]
    path = write(tmp_path, "manifest.json", jobs)
    code, out = run(capsys, ["--json", "--batch", path])
    batch = json.loads(out)["batch"]
    assert code == 0 and len(batch) == len(jobs)
    for job, report in zip(jobs, batch):
        code, alone = run_json(capsys, job)
        assert code == 0 and report == alone
    assert [r["params"]["theta"] for r in batch][1:3] == [0.25, 0.75]
    assert batch[0]["params"] == batch[3]["params"]


def _entry(key=None, theta=0.5):
    """An encoded algebra element: zero, or the monomial at ``key``."""
    return {"theta": theta,
            "coeffs": [] if key is None else [{"n1": key[0], "n2": key[1], "c": [1.0, 0.0]}]}


@pytest.mark.parametrize("conn, dim, message", [
    ([[_entry((0, 0))]], 5, "dim 5"),
    ([[_entry(), _entry()], [_entry((0, 0)), _entry()]], 2, "entry (1, 0) is nonzero"),
    ([[_entry((1, 0))]], 1, "scalar multiples"),
    ([[_entry(), _entry((0, 1), theta=0.75)], [_entry(), _entry()]], 2, "twist parameter"),
    ([[_entry(), _entry()], [_entry()]], 2, "square"),
], ids=["dim-mismatch", "lower-entry", "nonscalar-diagonal", "other-theta", "not-square"])
def test_malformed_bundle_exits_2(capsys, tmp_path, conn, dim, message):
    path = write(tmp_path, "fb.json", {"theta": 0.5, "tau": [1.0, -1.0], "dim": dim,
                                       "conn": conn})
    code, out = run(capsys, ["--json", "extension", path, "--zprime", "0.5,0"])
    report = json.loads(out, parse_constant=pytest.fail)
    assert code == 2
    assert report["error"]["kind"] == "ValidationFailure"
    assert message in report["error"]["message"]


def _with_result(out, result):
    """The report ``out`` with its result replaced, as the CLI prints it."""
    report = dict(json.loads(out), result=result)
    return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


@pytest.mark.parametrize("factors", [(1, 1), (2, 2), (12, 12)])
def test_bundle_reports_match_the_reference_bytes(capsys, tmp_path, factors):
    rng = np.random.default_rng(40 + factors[0])
    x, y = (random_normal_form(rng, k) for k in factors)
    nf_path = write(tmp_path, "t.json", encode_normal_form(tensor(x, y)))
    code, out = run(capsys, ["--json", "psi-star", nf_path])
    with open(nf_path) as handle:
        ref = reference_psi_star(decode_normal_form(json.load(handle)))
    assert code == 0 and out == _with_result(out, reference_encode_free_bundle(ref))
    fb_path = write(tmp_path, "fb.json", json.loads(out)["result"])
    theta = ref.theta
    cycle = [TorusPoly.u1(theta), TorusPoly.u2(theta, -1),
             TorusPoly.monomial(theta, 2, 1, 0.5 - 1.25j)]
    row = [cycle[j % 3] for j in range(ref.n)]
    code, out = run(capsys, ["--json", "extension", fb_path, "--zprime", "0.25,-0.5",
                             "--row", json.dumps([encode_torus_poly(e) for e in row])])
    with open(fb_path) as handle:
        want = reference_build_extension(0.25 - 0.5j, row,
                                         reference_decode_free_bundle(json.load(handle)))
    assert code == 0 and out == _with_result(out, reference_encode_free_bundle(want))
