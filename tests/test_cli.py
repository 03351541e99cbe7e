"""End-to-end tests of the command-line tool."""

import json

import numpy as np
import pytest

from eqconn import cli
from eqconn.category import MonodromyPair
from eqconn.cli import main, parse_complex
from eqconn.serialize import (
    encode_divisor,
    encode_k0,
    encode_matrix,
    encode_monodromy,
    encode_object,
    encode_free_bundle,
)
from eqconn.category import K0Class
from eqconn.torus import Divisor, psi_star
from util import STRIP, TAU, random_commuting_pair, random_normal_form, scramble


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
    for argv in (["--theta", "nan", "wd"], ["wd", "--theta", "inf"],
                 ["--tau", "nan,1", "wd"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


def test_non_finite_result_is_a_numeric_failure(capsys, monkeypatch):
    monkeypatch.setitem(cli.COMMANDS, "wd", lambda ctx: {"wd": float("nan")})
    code, out = run(capsys, ["--json", "wd"])
    assert code == 1
    report = json.loads(out, parse_constant=pytest.fail)
    assert report["error"]["kind"] == "NumericFailure"


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
