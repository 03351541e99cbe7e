"""The command line's failure contract, over seeded random command lines.

Every invocation ends with an exit code in {0, 1, 2}, exactly one strict
JSON report on stdout that names the fault when there is one, nothing on
stderr, and the same bytes when it is repeated.  The command lines are drawn
with ``hypothesis`` (``derandomize=True``, bounded ``max_examples``): each
subcommand with valid inputs, then at most one fault: a non-finite,
non-numeric or out-of-int64 option value, an unknown command or option, a
missing positional or required option, or a malformed input; a batch adds
``-h`` inside a job and unreadable or ill-shaped manifests.  They run in
process, and three of them in a subprocess as a user runs them.  The
matrix payloads of ``rh-from-rep`` and ``nori`` are fuzzed the same way:
wrong types, ragged and empty matrices, M1 and M2 of different sizes,
singular and defective matrices and entries near 1e300, in process and two
of them in a subprocess.  So are the object payloads of ``normalize`` and
``validate``: powers near +-2**62 and at the ends of int64, coefficients
of 1e+-308, tau of 1e+-300 (1 - i), theta of +-1e300, a transversal offset
of +-1e308, ragged, empty and wrong-shape coefficients, dim 0, and a power
listed twice, which is refused with exit code 2, as is an algebra
element's monomial listed twice.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqconn.cli import main

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

ONE_DIM = {"tau": [1.0, -1.0], "theta": 0.3, "A0": [[[0.25, 0.0]]], "B0": [[[2.0, 0.0]]]}
OBJECT = {"tau": [1.0, -1.0], "theta": 0.5, "dim": 1,
          "A": [{"pow": 0, "coef": [[[0.1, 0.0]]]}], "B": [{"pow": 0, "coef": [[[1.0, 0.0]]]}]}
K_CLASS = {"tau": [1.0, -1.0], "terms": [{"zprime": [0.1, 0.0], "b": [1.0, 0.0], "mult": 1}]}
DIVISOR = {"tau": [1.0, -1.0], "points": [{"p": [0.1, 0.0], "mult": 1}]}
BUNDLE = {"theta": 0.3, "tau": [1.0, -1.0], "dim": 1,
          "conn": [[{"theta": 0.3, "coeffs": [{"n1": 0, "n2": 0, "c": [0.0, 1.5]}]}]]}
MORPHISM = {"source": ONE_DIM, "target": ONE_DIM, "phi": [[[1.0, 0.0]]]}

# each command's valid positionals and options; the options named here are
# its own, and must follow it
COMMANDS = {
    "validate": ([OBJECT], []),
    "normalize": ([OBJECT], []),
    "rh-to-rep": ([ONE_DIM], []),
    "rh-from-rep": ([{"M1": [[[1.0, 0.0]]], "M2": [[[2.0, 0.0]]]}], []),
    "tensor": ([ONE_DIM, ONE_DIM], []),
    "dual": ([ONE_DIM], []),
    "hom": ([ONE_DIM, ONE_DIM], []),
    "kernel": ([MORPHISM], []),
    "cokernel": ([MORPHISM], []),
    "decompose": ([ONE_DIM], []),
    "k0": ([ONE_DIM], []),
    "kmap": ([K_CLASS], []),
    "divisor-eq": ([DIVISOR, DIVISOR], []),
    "psi-star": ([ONE_DIM], []),
    "extension": ([BUNDLE], [("--zprime", "0.5,0")]),
    "std-bundle": ([], [("--m", "1"), ("--n", "2")]),
    "phase": ([], [("--m", "1"), ("--n", "2")]),
    "nori": ([{"M": [[[1.0, 0.0]]]}], []),
    "atheta-check": ([], [("--bound", "1"), ("--pairs", "2")]),
    "wd": ([], []),
    "reduce-tau": ([], [("--value", "0.3,-0.3")]),
}
REQUIRED = {"--zprime", "--m", "--n", "--value"}
REAL_OPTIONS = ("--tau", "--theta", "--transversal-offset", "--tol-spec", "--tol-res",
                "--tol-key")
INT_OPTIONS = ("--truncation", "--seed", "--d-max")
OWN_INT_OPTIONS = ("--m", "--n", "--bound", "--pairs")
# not a finite real number; the pairs, not a finite complex one
NOT_REAL = ("nan", "inf", "-inf", "1e999", "x", "", "1+2j", "0x10")
NOT_COMPLEX_PAIR = ("nan,1", "1,inf", "1,2,3", "1,x")
BEYOND_INT64 = (str(2 ** 63), str(-2 ** 63 - 1), "1" + "0" * 30, "9" * 400)
MISSING_FILE = str(Path(__file__).resolve().parent / "no-such-input.json")
BAD_PAYLOADS = ("{not json", "[]", "{}", '{"tau": NaN}', '{"M": [[[%s, 0]]]}' % ("9" * 5000),
                '{"tau": [1.0, -1.0], "terms": [{"zprime": [1e999, 0], "b": [1, 0]}]}',
                MISSING_FILE)


@st.composite
def command_lines(draw, in_batch=False):
    """``(argv, fault)``: a command line without ``--json``, and the text
    its error must hold, "" where any error will do, or None if it must
    succeed."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    payloads, own = COMMANDS[name]
    positionals = [json.dumps(p) for p in payloads]
    own = [list(option) for option in own]
    shared = [[option, value] for option, value in (("--tau", "1,-1"), ("--theta", "0.4"),
                                                    ("--seed", "3"), ("--d-max", "8"))
              if draw(st.booleans())]
    faults = ["none", "real", "int", "command", "option"]
    faults += ["positional", "payload"] if positionals else []
    faults += ["required"] if any(o in REQUIRED for o, _ in own) else []
    faults += ["own-int"] if any(o in OWN_INT_OPTIONS for o, _ in own) else []
    faults += ["help"] if in_batch else []
    fault = draw(st.sampled_from(faults))
    expect = None
    if fault == "real":
        option = draw(st.sampled_from(REAL_OPTIONS))
        pool = NOT_REAL + (NOT_COMPLEX_PAIR if option == "--tau" else ())
        shared.append([option, draw(st.sampled_from(pool))])
        expect = "argument " + option
    elif fault in ("int", "own-int"):
        pool = INT_OPTIONS if fault == "int" else [o for o, _ in own if o in OWN_INT_OPTIONS]
        option = draw(st.sampled_from(sorted(pool)))
        value = draw(st.sampled_from(BEYOND_INT64 + ("x", "1.5")))
        target = shared if fault == "int" else own
        target[:] = [o for o in target if o[0] != option] + [[option, value]]
        expect = option
    elif fault == "command":
        name = draw(st.sampled_from(("frob", "Wd", "k1", "-")))
        expect = "invalid choice"
    elif fault == "option":
        own.append([draw(st.sampled_from(("--frob", "--tau-x", "-q"))), "1"])
        expect = "unrecognized arguments"
    elif fault == "positional":
        positionals.pop()
        expect = "the following arguments are required"
    elif fault == "payload":
        positionals[-1] = draw(st.sampled_from(BAD_PAYLOADS))
        expect = ""
    elif fault == "required":
        own = [o for o in own if o[0] not in REQUIRED]
        expect = "the following arguments are required: --"
    elif fault == "help":
        own.append([draw(st.sampled_from(("-h", "--help")))])
        expect = "-h/--help"
    before = draw(st.integers(0, len(shared)))
    argv = sum(shared[:before], []) + [name] + positionals + sum(shared[before:] + own, [])
    return argv, expect


def invoke(argv):
    """``(exit code, stdout, stderr, warnings)`` of ``main(argv)`` in this
    process."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), caught


def one_report(argv):
    """The single strict JSON report ``argv`` prints, after checking the
    exit code, the empty stderr, and that a repeat prints the same bytes."""
    code, out, err, caught = invoke(argv)
    assert (err, [str(w.message) for w in caught]) == ("", [])
    assert code in (0, 1, 2)
    assert out.endswith("\n") and out.count("\n") == 1, out
    report = json.loads(out, parse_constant=pytest.fail)
    assert "batch" in report or ("error" in report) == (code != 0)
    assert invoke(argv)[:2] == (code, out)
    return code, report


def assert_names_fault(code, report, expect):
    if expect is None:
        assert code == 0, report
        return
    assert code in (1, 2)
    assert code == 2 or expect == "", report
    error = report["error"]
    assert error["kind"] and error["message"]
    assert expect in error["message"], error


@SETTINGS
@given(command_lines(), st.booleans())
def test_every_command_line_ends_in_one_report(line, json_first):
    argv, expect = line
    argv = ["--json"] + argv if json_first else argv + ["--json"]
    code, report = one_report(argv)
    assert_names_fault(code, report, expect)
    # one shape: the command, then the parameters and the digest of the
    # inputs when the command line parsed, then the result or the error
    parsed = {"command", "params", "inputs_digest"}
    assert set(report) in ({"command", "error"}, parsed | {"error"}, parsed | {"result"})
    assert report["command"] in COMMANDS or (report["command"] is None and "params" not in report)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(command_lines(in_batch=True), min_size=1, max_size=3))
def test_every_batch_ends_in_one_report(tmp_path_factory, jobs):
    path = tmp_path_factory.mktemp("batch") / "manifest.json"
    path.write_text(json.dumps({"jobs": [{"argv": argv} for argv, _ in jobs]}))
    code, report = one_report(["--json", "--batch", str(path)])
    assert len(report["batch"]) == len(jobs)
    codes = []
    for (argv, expect), job in zip(jobs, report["batch"]):
        if expect == "-h/--help":
            codes.append(2)
        else:   # a job reports as the same command line does alone
            alone_code, alone = one_report(["--json"] + argv)
            assert job == alone
            codes.append(alone_code)
        assert_names_fault(codes[-1], job, expect)
    assert code == max(codes)


@pytest.mark.parametrize("text", [
    None, "{not json", "[NaN]", "5", '{"jobs": 5}', "[5]", '[{"args": ["wd"]}]',
    '[{"argv": "wd"}]', b"\xff\xfe[",
], ids=["missing", "not-json", "nan", "number", "jobs-not-array", "job-not-array",
        "job-without-argv", "argv-not-array", "not-utf8"])
def test_an_unreadable_or_ill_shaped_manifest_is_one_report(tmp_path, text):
    path = tmp_path / "manifest.json"
    if text is not None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    for manifest in (path, tmp_path):     # the second is a directory
        code, report = one_report(["--json", "--batch", str(manifest)])
        assert code == 2 and report["command"] == "batch"
        assert report["error"]["kind"] == "ValidationFailure"
        assert "batch" in report["error"]["message"]


def run_subprocess(argv):
    """``(exit code, report)`` of ``python -m eqconn.cli argv``, stderr empty."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "eqconn.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60, check=False)
    assert done.stderr == ""
    assert done.stdout.count("\n") == 1
    return done.returncode, json.loads(done.stdout, parse_constant=pytest.fail)


@pytest.mark.parametrize("argv, expect", [
    (["--json", "--tau", "nan,0", "wd"], "argument --tau"),
    (["--json", "--tol-spec", "0", "wd"], "eps_spec"),
    (["--json"], "a command or --batch is required"),
], ids=["non-finite-tau", "tolerance-zero", "no-command"])
def test_a_faulty_command_line_is_one_report_in_a_subprocess(argv, expect):
    code, report = run_subprocess(argv)
    assert code == 2 and expect in report["error"]["message"]


# matrix entries: plain values, and values near the top of the float range
VALUES = (0.0, 1.0, -2.5, 0.3, 1e-3)
HUGE = (1e300, -1e300, 1.7e308)
NOT_AN_ENTRY = ("x", None, True, [1.0], [1.0, 2.0, 3.0], {"re": 1.0}, 5)


def encode(m):
    return [[[v.real, v.imag] for v in row] for row in np.asarray(m, dtype=complex)]


@st.composite
def monodromy_payloads(draw):
    """``(argv, expect)``: a ``rh-from-rep`` or ``nori`` command line with
    a drawn payload, and the exit code it must end with, or None where any
    of 0, 1 and 2 may do (entries near 1e300)."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("generic", "defective", "singular", "huge", "entry",
                                 "row", "ragged", "empty", "mismatch", "not-a-pair")))
    entries = draw(st.lists(st.sampled_from(VALUES), min_size=n * n, max_size=n * n))
    m1 = np.array(entries, dtype=complex).reshape(n, n) + 3.0 * np.eye(n)
    if kind == "defective":
        m1 = draw(st.sampled_from((1.0, -1.0, 1j, 1.3))) * np.eye(n) + np.eye(n, k=1)
    elif kind == "singular":
        m1[draw(st.integers(0, n - 1))] = 0.0
    elif kind == "huge":
        m1 = draw(st.sampled_from((m1, np.eye(n) + np.eye(n, k=1))))
        m1 = m1 / np.abs(m1).max() * draw(st.sampled_from(HUGE))
    m2 = draw(st.sampled_from(("identity", "same")))
    m2 = m1.copy() if m2 == "same" else np.eye(n)
    a, b = encode(m1), encode(m2)
    if kind == "entry":
        a[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = \
            draw(st.sampled_from(NOT_AN_ENTRY))
    elif kind == "row":
        a[draw(st.integers(0, n - 1))] = draw(st.sampled_from(("row", 3.0, None, {})))
    elif kind == "ragged":
        a[draw(st.integers(0, n - 1))].append([1.0, 0.0])
    elif kind == "empty":
        a = draw(st.sampled_from(([], [[]], [[]] * n)))
    elif kind == "mismatch":
        b = encode(np.eye(n + draw(st.sampled_from((-1, 1))) or 2))
    elif kind == "not-a-pair":
        a = draw(st.sampled_from(("M", 1.0, None, {"rows": a})))
    command = draw(st.sampled_from(("rh-from-rep", "nori", "nori-one")))
    # a lone M has no M2 to mismatch
    expect = {"generic": 0, "defective": 0, "singular": 2, "huge": None}.get(
        kind, 0 if (command, kind) == ("nori-one", "mismatch") else 2)
    payload = {"M": a} if command == "nori-one" else {"M1": a, "M2": b}
    return ["--json", command.replace("-one", ""), json.dumps(payload)], expect


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(monodromy_payloads())
def test_every_monodromy_payload_ends_in_one_report(case):
    argv, expect = case
    code, report = one_report(argv)
    assert expect is None or code == expect, report
    if code == 0:
        assert set(report["result"]) >= ({"nori_finite"} if argv[1] == "nori" else {"A0"})


@pytest.mark.parametrize("payload, expect", [
    ({"M1": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]], "M2": [[[1.0, 0.0]]]}, 2),
    # a double eigenvalue whose cluster sum is past the float range: its mean
    # is taken from the members divided by the size, and the form is found
    ({"M1": encode(np.diag([1.7e308, 1.7e308])), "M2": encode(np.eye(2))}, 0),
], ids=["ragged-pair", "cluster-near-1e308"])
def test_a_monodromy_payload_is_one_report_in_a_subprocess(payload, expect):
    code, report = run_subprocess(["--json", "rh-from-rep", json.dumps(payload)])
    assert code == expect
    assert report["result"]["A0"] if code == 0 else report["error"]["message"]


# object payloads: the values of a commuting diagonal A0, A1 and B0, and
# the extremes drawn into them
OBJECT_VALUES = (0.0, 0.1, -0.25, 0.3)
B_VALUES = (1.0, -2.5, 0.3)
BIG_POWERS = (2 ** 62, -2 ** 62, 2 ** 62 + 7, -2 ** 62 - 7, 2 ** 63 - 1, -2 ** 63)
EXTREME_COEFFICIENTS = (1e308, -1e308, 1.7e308, 1e-308)
# the text each malformed payload's error names
MALFORMED = {"ragged": "inconsistent lengths", "empty": "", "shape": "shape",
             "dim": "dimension must be positive", "repeat": "twice"}


@st.composite
def object_payloads(draw):
    """``(argv, expect, fault)``: a ``normalize`` or ``validate`` command
    line with a drawn object, the exit code it must end with, or None where
    any of 0, 1 and 2 may do (the extremes), and the text its error must
    hold.  The object is diagonal, A = A0 + A1 z and B = B0, so that it is
    valid until a fault is drawn into it."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("generic", "power", "coefficient", "tau", "theta", "offset")
                                + tuple(MALFORMED)))
    a0, a1, b0 = (np.diag(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
                  for pool in (OBJECT_VALUES, OBJECT_VALUES, B_VALUES))
    payload = {"tau": [1.0, -1.0], "theta": 0.5, "dim": n,
               "A": [{"pow": 0, "coef": encode(a0)}, {"pow": 1, "coef": encode(a1)}],
               "B": [{"pow": 0, "coef": encode(b0)}]}
    terms = payload[draw(st.sampled_from(("A", "B")))]
    term = terms[draw(st.integers(0, len(terms) - 1))]
    if kind == "power":
        terms.append({"pow": draw(st.sampled_from(BIG_POWERS)),
                      "coef": encode(draw(st.sampled_from((1e-3, 1.0))) * np.eye(n))})
    elif kind == "coefficient":
        term["coef"] = encode(draw(st.sampled_from(EXTREME_COEFFICIENTS)) * np.eye(n))
    elif kind == "tau":
        payload["tau"] = [draw(st.sampled_from((1e300, 1e-300))) * s for s in (1.0, -1.0)]
    elif kind == "theta":
        payload["theta"] = draw(st.sampled_from((1e300, -1e300)))
    elif kind == "offset":
        payload["transversal_offset"] = draw(st.sampled_from((1e308, -1e308)))
    elif kind == "ragged":
        term["coef"].insert(draw(st.integers(0, n)), [[1.0, 0.0]] * (n + 1))
    elif kind == "empty":
        term["coef"] = draw(st.sampled_from(([], [[]], [[]] * n)))
    elif kind == "shape":
        term["coef"] = encode(np.eye(n + 1))
    elif kind == "dim":
        payload["dim"] = 0
    elif kind == "repeat":
        terms.insert(draw(st.integers(0, len(terms))),
                     {"pow": term["pow"], "coef": encode(draw(st.sampled_from((0.2, 1.5)))
                                                         * np.eye(n))})
    expect = 0 if kind == "generic" else 2 if kind in MALFORMED else None
    command = draw(st.sampled_from(("normalize", "validate")))
    return ["--json", command, json.dumps(payload)], expect, MALFORMED.get(kind, "")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(object_payloads())
def test_every_object_payload_ends_in_one_report(case):
    argv, expect, fault = case
    code, report = one_report(argv)
    assert expect is None or code == expect, report
    assert_names_fault(code, report, None if code == 0 else fault)
    if code == 0:
        assert set(report["result"]) >= ({"A0", "B0"} if argv[1] == "normalize" else
                                         {"valid", "residuals"})


@pytest.mark.parametrize("argv, expect", [
    (["normalize", json.dumps(dict(OBJECT, A=OBJECT["A"] * 2))], "A lists power 0 twice"),
    (["extension", json.dumps(dict(BUNDLE, conn=[[{"theta": 0.3, "coeffs": [
        {"n1": 0, "n2": 0, "c": [0.0, 1.5]}, {"n1": 0, "n2": 0, "c": [0.0, 2.5]}]}]])),
      "--zprime", "0.5,0"], "(n1, n2) = (0, 0) twice"),
], ids=["power", "monomial"])
def test_a_repeated_key_is_one_report_in_a_subprocess(argv, expect):
    code, report = run_subprocess(["--json"] + argv)
    assert code == 2 and expect in report["error"]["message"]
