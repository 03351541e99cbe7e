"""Thresholds: the one context check at its tolerance, and a guard that no
bare threshold is left in ``src/eqconn``.

Every context decision -- do two values live over one modulus tau, one
twist theta (or q = exp(2 pi i theta)) and one strip -- is
``numkit.same_context`` at ``numkit._CONTEXT_TOL``.  Each site below
accepts a gap of half that tolerance and refuses twice it, with its own
error class and message.  Every other threshold is a ``Tolerances`` field,
a named module constant, or a named factor of a field."""

import ast
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from eqconn.category import (
    EquivariantConnection,
    K0Class,
    Morphism,
    NormalForm,
    cokernel,
    decompose,
    direct_sum,
    image,
    kernel,
    normalize,
    theta_to_q,
    validate_normal_form,
)
from eqconn.cli import main
from eqconn.exceptions import NumericFailure, TransversalMismatch, ValidationFailure
from eqconn.laurent import PolyMat
from eqconn.numkit import _CONTEXT_TOL, Transversal, _frobenius
from eqconn.serialize import encode_normal_form
from eqconn.torus import (
    Divisor,
    FreeBundle,
    TorusPoly,
    build_extension,
    divisor_equivalent,
    extension_morphism_residuals,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "eqconn"
TAU = 1.0 - 1.0j
THETA = 0.3
Q = theta_to_q(THETA)


# --- the AST guard -------------------------------------------------------------------

_EPS_FIELDS = {"eps_spec", "eps_res", "eps_key"}


def _is_number(node):
    return (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float, complex)))


def _small_float(node):
    return (_is_number(node) and isinstance(node.value, (float, complex))
            and 0.0 < abs(node.value) < 1e-3)


def bare_thresholds(tree):
    """``(line, what)`` of each bare threshold in a module: a float literal
    of magnitude below 1e-3 outside a module-level ``NAME = literal`` and
    a ``Tolerances`` field default, and an ``eps_spec``, ``eps_res`` or
    ``eps_key`` attribute multiplied by a numeric literal."""
    allowed = set()
    for node in tree.body:
        if (isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(node.value, (ast.UnaryOp, ast.Constant))):
            allowed.update(id(n) for n in ast.walk(node.value))
        if isinstance(node, ast.ClassDef) and node.name == "Tolerances":
            for field in node.body:
                if isinstance(field, ast.AnnAssign) and field.value is not None:
                    allowed.update(id(n) for n in ast.walk(field.value))
    found = []
    for node in ast.walk(tree):
        if _small_float(node) and id(node) not in allowed:
            found.append((node.lineno, "literal %r" % node.value))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for side, other in ((node.left, node.right), (node.right, node.left)):
                if (isinstance(side, ast.Attribute) and side.attr in _EPS_FIELDS
                        and _is_number(other)):
                    found.append((node.lineno, "%r * %s" % (other.value, side.attr)))
    return sorted(found)


def test_no_bare_threshold_in_src():
    found = {path.name: bare_thresholds(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_guard_sees_each_kind():
    tree = ast.parse("X = 1e-12\nY = -1e-9\n"
                     "def f(tol, y):\n"
                     "    return (abs(y) > 1e-12 or y < 100 * tol.eps_res\n"
                     "            or y < tol.eps_spec * 10 or y < 1e-2 or y == 0.0)\n")
    assert bare_thresholds(tree) == [(4, "100 * eps_res"), (4, "literal 1e-12"),
                                     (5, "10 * eps_spec")]


# --- the context check at its tolerance -------------------------------------------------

def form(tau=TAU, theta=THETA, strip=None):
    """The one-dimensional normal form A0 = 0.25, B0 = 2 over (tau, theta),
    in ``strip``, by default the strip of modulus tau."""
    return NormalForm(np.array([[0.25]], dtype=complex), np.array([[2.0]], dtype=complex),
                      strip or Transversal(tau), theta, tau)


def extension_residuals_across(gap):
    sub = FreeBundle(THETA, TAU, [[TorusPoly(THETA, {(0, 0): 2.0})]])
    total = build_extension(1.0, [TorusPoly(THETA)], sub)
    other = FreeBundle(THETA + gap, TAU, [[TorusPoly(THETA + gap, {(0, 0): 2.0})]])
    return extension_morphism_residuals(total, other, 1.0)


# each site: the call at a parameter gap, and the error it raises past the tolerance
RAISING = {
    "PolyMat q unimodular": (
        lambda g: PolyMat.identity(1, TAU, Q * (1 + g)),
        ValidationFailure, "dilation parameter q must be unimodular"),
    "PolyMat tau": (
        lambda g: PolyMat.identity(1, TAU, Q) + PolyMat.identity(1, TAU + g, Q),
        ValidationFailure, "parameter (tau, q) mismatch"),
    "PolyMat q": (
        lambda g: PolyMat.identity(1, TAU, Q) + PolyMat.identity(1, TAU, Q * np.exp(1j * g)),
        ValidationFailure, "parameter (tau, q) mismatch"),
    "EquivariantConnection tau": (
        lambda g: EquivariantConnection(PolyMat.identity(1, TAU + g, Q),
                                        PolyMat.identity(1, TAU, Q), THETA, TAU),
        ValidationFailure, "A carries parameters inconsistent with (tau, theta)"),
    "EquivariantConnection q": (
        lambda g: EquivariantConnection(PolyMat.identity(1, TAU, Q),
                                        PolyMat.identity(1, TAU, Q * np.exp(1j * g)),
                                        THETA, TAU),
        ValidationFailure, "B carries parameters inconsistent with (tau, theta)"),
    "normalize strip modulus": (
        lambda g: normalize(EquivariantConnection.from_constant([[0.25]], [[2.0]], THETA, TAU),
                            Transversal(TAU + g)),
        TransversalMismatch, "transversal modulus differs from the object's tau"),
    "same context tau": (
        lambda g: direct_sum(form(), form(tau=TAU + g)),
        ValidationFailure, "objects live over different (tau, theta)"),
    "same context theta": (
        lambda g: direct_sum(form(), form(theta=THETA + g)),
        ValidationFailure, "objects live over different (tau, theta)"),
    "same context strip modulus": (
        lambda g: direct_sum(form(), form(strip=Transversal(TAU + g))),
        TransversalMismatch, "objects are normalized to different strips"),
    "same context strip offset": (
        lambda g: direct_sum(form(), form(strip=Transversal(TAU, g))),
        TransversalMismatch, "objects are normalized to different strips"),
    "K0Class strip": (
        lambda g: K0Class(Transversal(TAU)) + K0Class(Transversal(TAU, g)),
        TransversalMismatch, "K-classes live over different strips"),
    "TorusPoly theta": (
        lambda g: TorusPoly(THETA) + TorusPoly(THETA + g),
        ValidationFailure, "twist parameters theta differ"),
    "FreeBundle entry theta": (
        lambda g: FreeBundle(THETA, TAU, [[TorusPoly(THETA + g)]]),
        ValidationFailure, "entry twist parameter differs"),
    "extension residuals theta": (
        extension_residuals_across,
        ValidationFailure, "twist parameters theta differ"),
    "Divisor tau": (
        lambda g: Divisor(TAU, [(0.1, 1)]) + Divisor(TAU + g, [(0.2, 1)]),
        ValidationFailure, "divisors live on different curves"),
    "divisor_equivalent tau": (
        lambda g: divisor_equivalent(Divisor(TAU, [(0.1, 1)]), Divisor(TAU + g, [(0.1, 1)])),
        ValidationFailure, "divisors live on different curves"),
    # the checks that ran nowhere before
    "kernel context": (
        lambda g: kernel(Morphism(form(), form(tau=TAU + g), np.eye(1, dtype=complex))),
        ValidationFailure, "objects live over different (tau, theta)"),
    "cokernel context": (
        lambda g: cokernel(Morphism(form(), form(theta=THETA + g), np.eye(1, dtype=complex))),
        ValidationFailure, "objects live over different (tau, theta)"),
    "image context": (
        lambda g: image(Morphism(form(), form(strip=Transversal(TAU, g)),
                                 np.eye(1, dtype=complex))),
        TransversalMismatch, "objects are normalized to different strips"),
    "validate_normal_form strip modulus": (
        lambda g: validate_normal_form(form(strip=Transversal(TAU + g))),
        TransversalMismatch, "transversal modulus differs from the normal form's tau"),
}

# each site that answers: its answer at a parameter gap
EQUAL = {
    "Divisor ==": lambda g: Divisor(TAU, [(0.1, 1)]) == Divisor(TAU + g, [(0.1, 1)]),
    "K0Class ==": lambda g: (K0Class(Transversal(TAU), [(2.0, 0.25, 1)])
                             == K0Class(Transversal(TAU, g), [(2.0, 0.25, 1)])),
}


@pytest.mark.parametrize("site", list(RAISING))
def test_a_context_site_accepts_half_the_tolerance_and_refuses_twice_it(site):
    call, error, message = RAISING[site]
    call(0.5 * _CONTEXT_TOL)
    with pytest.raises(error) as err:
        call(2 * _CONTEXT_TOL)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("site", list(EQUAL))
def test_an_equality_is_true_within_the_tolerance_and_false_past_it(site):
    assert EQUAL[site](0.5 * _CONTEXT_TOL) is True
    assert EQUAL[site](2 * _CONTEXT_TOL) is False


@pytest.mark.parametrize("site", ["EquivariantConnection tau", "EquivariantConnection q",
                                  "normalize strip modulus"])
def test_the_former_loose_sites_refuse_a_gap_of_1e_10(site):
    call, error, message = RAISING[site]
    with pytest.raises(error, match=r"^%s$" % re.escape(message)):
        call(1e-10)


def test_k0_classes_over_two_strips_differ_but_do_not_mix():
    x, y = K0Class(Transversal(TAU), [(2.0, 0.25, 1)]), K0Class(Transversal(TAU, 0.5))
    assert x != y and not x == y
    for op in (lambda: x + y, lambda: x - y, lambda: x * y):
        with pytest.raises(TransversalMismatch):
            op()


# --- the context check and the tolerances on the command line ------------------------

def cli_report(capsys, argv):
    """``(exit code, strict-JSON report, stderr)`` of one ``--json`` command."""
    code = main(["--json", *argv])
    out, err = capsys.readouterr()
    return code, json.loads(out, parse_constant=pytest.fail), err


def test_kernel_and_cokernel_across_contexts_exit_2(capsys):
    """Source over tau = 1 - i, theta = 0.3 and target over tau = 2,
    theta = 0.7, phi = [[1]]: phi intertwines the matrices, but the two
    objects live over different contexts."""
    def normal_form(tau, theta):
        return {"tau": [tau.real, tau.imag], "theta": theta, "A0": [[[0.25, 0.0]]],
                "B0": [[[2.0, 0.0]]]}
    payload = json.dumps({"source": normal_form(TAU, 0.3), "target": normal_form(2.0 + 0j, 0.7),
                          "phi": [[[1.0, 0.0]]]})
    for command in ("kernel", "cokernel"):
        code, report, err = cli_report(capsys, [command, payload])
        assert code == 2 and err == ""
        assert report["error"] == {"kind": "ValidationFailure",
                                   "message": "objects live over different (tau, theta)"}


def diagonal_payload(lams, bs):
    return json.dumps(encode_normal_form(NormalForm(
        np.diag(np.array(lams, dtype=complex)), np.diag(np.array(bs, dtype=complex)),
        Transversal(TAU), THETA, TAU)))


def cluster_count(report):
    return len({tuple(f["lambda"]) for f in report["result"]["factors"]})


def term_count(report):
    return len(report["result"]["terms"])


# each flag: a command and payload whose decision sits between a loose and a
# tight value of the flag, and what the decision reads at each
FLAG_DECISIONS = {
    # eigenvalues 1e-9 apart: one cluster within eps_spec, two past it
    "--tol-spec": ("decompose", diagonal_payload([0.2 * TAU, 0.2 * TAU + 1e-9], [2.0, 3.0]),
                   ("2e-9", lambda code, report: code == 0 and cluster_count(report) == 1),
                   ("5e-10", lambda code, report: code == 0 and cluster_count(report) == 2)),
    # sigma_min(B0) = 5e-9: singular within eps_res, invertible past it
    "--tol-res": ("decompose", diagonal_payload([0.2 * TAU, 0.5 * TAU], [1.0, 5e-9]),
                  ("1e-8", lambda code, report: code == 2
                   and report["error"]["kind"] == "SingularB"),
                  ("2.5e-9", lambda code, report: code == 0 and cluster_count(report) == 2)),
    # K0 keys 5e-8 apart: merged within eps_key, apart past it
    "--tol-key": ("k0", diagonal_payload([0.2 * TAU, 0.2 * TAU + 5e-8], [2.0, 2.0]),
                  ("1e-7", lambda code, report: code == 0 and term_count(report) == 1),
                  ("2.5e-8", lambda code, report: code == 0 and term_count(report) == 2)),
}


@pytest.mark.parametrize("flag", list(FLAG_DECISIONS))
def test_each_tolerance_flag_moves_its_decision(capsys, flag):
    command, payload, *sides = FLAG_DECISIONS[flag]
    for value, decided in sides:
        code, report, err = cli_report(capsys, [flag, value, command, payload])
        assert decided(code, report) and err == ""


# --- norms past the float square -------------------------------------------------------

def test_frobenius_norm_past_the_float_square():
    assert _frobenius(np.zeros((0, 2))) == 0.0
    m = np.array([[3.0, 4j]])
    assert _frobenius(m) == 5.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _frobenius(1e200 * m) == pytest.approx(5e200, rel=1e-15)
        assert _frobenius(np.array([1e308, 1e308])) == pytest.approx(math.sqrt(2) * 1e308)
        assert _frobenius(np.array([1.5e308, 1.5e308])) == math.inf
        assert _frobenius(np.array([np.inf, 1.0])) == math.inf


def test_labels_refuse_a_large_dilation_that_is_not_block_triangular():
    """B0 = s [[1, 0], [1, 2]] below A0 = diag(0.2 tau, 0.5 tau): the entry
    below the blocks is as large as B0 at every scale s, also where its
    square passes the float range; a large B0 that is triangular keeps its
    labels.  Neither raises numpy's overflow warning."""
    a0 = np.diag([0.2 * TAU, 0.5 * TAU])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1.0, 1e200):
            nf = NormalForm(a0, scale * np.array([[1.0, 0.0], [1.0, 2.0]], dtype=complex),
                            Transversal(TAU), THETA, TAU)
            with pytest.raises(NumericFailure, match="not block triangular"):
                decompose(nf)
        nf = NormalForm(a0, np.diag([1e200, 1e200 * (2 + 1j)]), Transversal(TAU), THETA, TAU)
        assert decompose(nf) == [(0.2 * TAU, 1e200), (0.5 * TAU, 1e200 * (2 + 1j))]
