"""JSON encodings of every value that crosses the tool boundary.

Conventions: complex numbers are two-element arrays ``[re, im]``; matrices
are row-major nested arrays of those.  Laurent matrices list their terms as
``{"pow": k, "coef": <matrix>}``; algebra elements list monomials as
``{"n1": ., "n2": ., "c": [re, im]}``; divisors list ``{"p": [re, im],
"mult": k}``.  Decoders validate shape and raise ``ValidationFailure`` with
a description of the offending field; numbers must be finite, integer fields
take integers only, and booleans are not numbers.
"""

import cmath
import math
import sys

import numpy as np

from .category import K0Class, MonodromyPair, Morphism, NormalForm
from .exceptions import ValidationFailure
from .laurent import PolyMat
from .numkit import Transversal
from .torus import Divisor, FreeBundle, TorusPoly


def encode_complex(z):
    z = complex(z)
    return [z.real, z.imag]


def _number(value, field, integer=False):
    """A JSON number read as an int when ``integer`` is set, else as a finite
    float; anything else, booleans included, raises ValidationFailure."""
    if not isinstance(value, bool):
        if isinstance(value, int) and (integer or abs(value) <= sys.float_info.max):
            return value if integer else float(value)
        if isinstance(value, float) and not integer and math.isfinite(value):
            return value
    raise ValidationFailure("%s must be %s, got %r" % (
        field, "an integer" if integer else "a finite number", value))


def decode_complex(data, field="complex value"):
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValidationFailure("%s must be a [re, im] pair, got %r" % (field, data))
    return complex(_number(data[0], field), _number(data[1], field))


def encode_matrix(m):
    arr = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[encode_complex(v) for v in row] for row in arr]


def decode_matrix(data, field="matrix"):
    if not isinstance(data, list) or not data:
        raise ValidationFailure("%s must be a non-empty nested array" % field)
    rows = []
    width = None
    for row in data:
        if not isinstance(row, list):
            raise ValidationFailure("%s rows must be arrays" % field)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationFailure("%s rows have inconsistent lengths" % field)
        rows.append([decode_complex(v, field + " entry") for v in row])
    return np.array(rows, dtype=complex)


# -- Laurent matrices ----------------------------------------------------------

def encode_polymat_terms(p):
    return [{"pow": k, "coef": encode_matrix(p.terms[k])} for k in p.powers()]


def encode_polymat(p):
    return {"dim": p.dim, "terms": encode_polymat_terms(p)}


def decode_polymat_terms(data, dim, tau, q, field="terms"):
    if not isinstance(data, list):
        raise ValidationFailure("%s must be an array of {pow, coef} entries" % field)
    terms = {}
    for entry in data:
        if not isinstance(entry, dict) or "pow" not in entry or "coef" not in entry:
            raise ValidationFailure("%s entries need 'pow' and 'coef'" % field)
        terms[_number(entry["pow"], field + " pow", integer=True)] = decode_matrix(
            entry["coef"], field + " coef")
    return PolyMat(dim, terms, tau, q)


def decode_polymat(data, tau, q):
    if not isinstance(data, dict) or "dim" not in data or "terms" not in data:
        raise ValidationFailure("Laurent matrix needs 'dim' and 'terms'")
    return decode_polymat_terms(data["terms"], _number(data["dim"], "dim", integer=True),
                                tau, q)


# -- objects and normal forms -----------------------------------------------------

def encode_object(obj):
    return {
        "tau": encode_complex(obj.tau),
        "theta": obj.theta,
        "dim": obj.n,
        "A": encode_polymat_terms(obj.A),
        "B": encode_polymat_terms(obj.B),
        "transversal_offset": (obj.transversal.offset if obj.transversal else 0.0),
    }


def decode_object(data):
    from .category import EquivariantConnection, theta_to_q

    for key in ("tau", "theta", "dim", "A", "B"):
        if key not in data:
            raise ValidationFailure("object is missing field %r" % key)
    tau = decode_complex(data["tau"], "tau")
    theta = _number(data["theta"], "theta")
    dim = _number(data["dim"], "dim", integer=True)
    q = theta_to_q(theta)
    a = decode_polymat_terms(data["A"], dim, tau, q, "A")
    b = decode_polymat_terms(data["B"], dim, tau, q, "B")
    offset = _number(data.get("transversal_offset", 0.0), "transversal_offset")
    return EquivariantConnection(a, b, theta, tau, Transversal(tau, offset))


def encode_normal_form(nf):
    return {
        "tau": encode_complex(nf.tau),
        "theta": nf.theta,
        "dim": nf.n,
        "A0": encode_matrix(nf.A0),
        "B0": encode_matrix(nf.B0),
        "transversal_offset": nf.transversal.offset,
        "eigenvalues": [encode_complex(v) for v in np.linalg.eigvals(nf.A0)]
        if nf.n else [],
        "diagnostics": encode_diagnostics(nf.diagnostics),
    }


def encode_diagnostics(diag):
    """JSON-ready rendering of a residual/diagnostics mapping."""
    out = {}
    for key, value in diag.items():
        if isinstance(value, complex):
            out[key] = encode_complex(value)
        elif isinstance(value, (list, tuple)):
            out[key] = [_encode_diag_value(v) for v in value]
        else:
            out[key] = _encode_diag_value(value)
    return out


def _encode_diag_value(value):
    if isinstance(value, complex):
        return encode_complex(value)
    if isinstance(value, tuple):
        return [_encode_diag_value(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def decode_normal_form(data):
    for key in ("tau", "theta", "A0", "B0"):
        if key not in data:
            raise ValidationFailure("normal form is missing field %r" % key)
    tau = decode_complex(data["tau"], "tau")
    return NormalForm(
        decode_matrix(data["A0"], "A0"),
        decode_matrix(data["B0"], "B0"),
        Transversal(tau, _number(data.get("transversal_offset", 0.0),
                                 "transversal_offset")),
        _number(data["theta"], "theta"),
        tau,
    )


def is_normal_form_payload(data):
    return isinstance(data, dict) and "A0" in data


def is_object_payload(data):
    return isinstance(data, dict) and "A" in data and "A0" not in data


# -- commuting pairs and morphisms ----------------------------------------------------

def encode_monodromy(rep):
    return {"dim": rep.n, "M1": encode_matrix(rep.M1), "M2": encode_matrix(rep.M2)}


def decode_monodromy(data):
    for key in ("M1", "M2"):
        if key not in data:
            raise ValidationFailure("representation is missing field %r" % key)
    return MonodromyPair(decode_matrix(data["M1"], "M1"),
                         decode_matrix(data["M2"], "M2"))


def encode_morphism(m):
    return {
        "source": encode_normal_form(m.source),
        "target": encode_normal_form(m.target),
        "phi": encode_matrix(m.phi) if m.phi.size else [],
    }


def decode_morphism(data):
    for key in ("source", "target", "phi"):
        if key not in data:
            raise ValidationFailure("morphism is missing field %r" % key)
    source = decode_normal_form(data["source"])
    target = decode_normal_form(data["target"])
    phi = (decode_matrix(data["phi"], "phi") if data["phi"]
           else np.zeros((target.n, source.n), dtype=complex))
    return Morphism(source, target, phi)


# -- K classes and divisors -------------------------------------------------------------

def encode_k0(cls):
    return {
        "tau": encode_complex(cls.transversal.tau),
        "transversal_offset": cls.transversal.offset,
        "terms": [{"b": encode_complex(b), "zprime": encode_complex(zp), "mult": m}
                  for b, zp, m in cls.entries],
    }


def decode_k0(data, tol=None):
    for key in ("tau", "terms"):
        if key not in data:
            raise ValidationFailure("K-class is missing field %r" % key)
    tau = decode_complex(data["tau"], "tau")
    strip = Transversal(tau, _number(data.get("transversal_offset", 0.0),
                                     "transversal_offset"))
    entries = []
    for term in data["terms"]:
        entries.append((decode_complex(term["b"], "b"),
                        decode_complex(term["zprime"], "zprime"),
                        _number(term["mult"], "mult", integer=True)))
    return K0Class(strip, entries, tol)


def encode_divisor(div):
    return {
        "tau": encode_complex(div.tau),
        "points": [{"p": encode_complex(p), "mult": m} for p, m in div.points],
    }


def decode_divisor(data, tol=None):
    for key in ("tau", "points"):
        if key not in data:
            raise ValidationFailure("divisor is missing field %r" % key)
    tau = decode_complex(data["tau"], "tau")
    points = [(decode_complex(entry["p"], "p"), _number(entry["mult"], "mult", integer=True))
              for entry in data["points"]]
    return Divisor(tau, points, tol)


# -- algebra elements and bundles ----------------------------------------------------------

def encode_torus_poly(x):
    return {
        "theta": x.theta,
        "coeffs": [{"n1": n1, "n2": n2, "c": encode_complex(x.coeffs[(n1, n2)])}
                   for n1, n2 in x.support()],
    }


def decode_torus_poly(data):
    if not isinstance(data, dict) or "theta" not in data or "coeffs" not in data:
        raise ValidationFailure("algebra element needs 'theta' and 'coeffs'")
    coeffs = {}
    for entry in data["coeffs"]:
        key = (_number(entry["n1"], "n1", integer=True),
               _number(entry["n2"], "n2", integer=True))
        coeffs[key] = decode_complex(entry["c"], "c")
    return TorusPoly(_number(data["theta"], "theta"), coeffs)


def encode_free_bundle(fb):
    return {
        "theta": fb.theta,
        "tau": encode_complex(fb.tau),
        "dim": fb.n,
        "conn": [[encode_torus_poly(entry) for entry in row] for row in fb.conn],
    }


def decode_free_bundle(data):
    for key in ("theta", "tau", "conn"):
        if key not in data:
            raise ValidationFailure("bundle is missing field %r" % key)
    conn = [[decode_torus_poly(entry) for entry in row] for row in data["conn"]]
    return FreeBundle(_number(data["theta"], "theta"), decode_complex(data["tau"], "tau"),
                      conn)
