"""JSON encodings of every value that crosses the tool boundary.

Conventions: complex numbers are two-element arrays ``[re, im]``; matrices
are row-major nested arrays of those.  Laurent matrices list their terms as
``{"pow": k, "coef": <matrix>}``; algebra elements list monomials as
``{"n1": ., "n2": ., "c": [re, im]}``; divisors list ``{"p": [re, im],
"mult": k}``.  Decoders validate shape and raise ``ValidationFailure`` with
a description of the offending field; every field an entry needs is read
through ``required_fields``, numbers must be finite, integer fields take
integers only, and booleans are not numbers.
"""

import cmath
import math
import sys

import numpy as np

from .category import K0Class, MonodromyPair, Morphism, NormalForm
from .exceptions import ValidationFailure
from .laurent import PolyMat
from .numkit import Transversal
from .torus import Divisor, FreeBundle, TorusPoly, _stack


def encode_complex(z):
    z = complex(z)
    return [z.real, z.imag]


def required_fields(data, keys, what):
    """The values of ``keys`` in the JSON object ``data``, in order; ``data``
    that is not an object, or lacks one of the keys, raises ValidationFailure
    naming ``what``."""
    if not isinstance(data, dict):
        raise ValidationFailure("%s must be an object, got %s"
                                % (what, type(data).__name__))
    for key in keys:
        if key not in data:
            raise ValidationFailure("%s is missing field %r" % (what, key))
    return [data[key] for key in keys]


def _array(data, what):
    if not isinstance(data, list):
        raise ValidationFailure("%s must be an array, got %s" % (what, type(data).__name__))
    return data


def _number(value, field, integer=False):
    """A JSON number read as an int64 when ``integer`` is set, else as a
    finite float; anything else, booleans included, raises
    ValidationFailure."""
    if not isinstance(value, bool):
        if isinstance(value, int) and (-2 ** 63 <= value < 2 ** 63 if integer
                                       else abs(value) <= sys.float_info.max):
            return value if integer else float(value)
        if isinstance(value, float) and not integer and math.isfinite(value):
            return value
    raise ValidationFailure("%s must be %s, got %r" % (
        field, "an int64 integer" if integer else "a finite number", value))


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
    return [{"pow": k, "coef": encode_matrix(c)} for k, c in p.terms.items()]


def encode_polymat(p):
    return {"dim": p.dim, "terms": encode_polymat_terms(p)}


def decode_polymat_terms(data, dim, tau, q, field="terms"):
    terms = {}
    for entry in _array(data, field):
        power, coef = required_fields(entry, ("pow", "coef"), field + " entry")
        power = _number(power, field + " pow", integer=True)
        if power in terms:
            raise ValidationFailure("%s lists power %d twice" % (field, power))
        terms[power] = decode_matrix(coef, field + " coef")
    return PolyMat(dim, terms, tau, q)


def decode_polymat(data, tau, q):
    dim, terms = required_fields(data, ("dim", "terms"), "Laurent matrix")
    return decode_polymat_terms(terms, _number(dim, "dim", integer=True), tau, q)


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

    tau, theta, dim, a, b = required_fields(data, ("tau", "theta", "dim", "A", "B"),
                                            "object")
    tau = decode_complex(tau, "tau")
    theta = _number(theta, "theta")
    dim = _number(dim, "dim", integer=True)
    q = theta_to_q(theta)
    a = decode_polymat_terms(a, dim, tau, q, "A")
    b = decode_polymat_terms(b, dim, tau, q, "B")
    offset = _number(data.get("transversal_offset", 0.0), "transversal_offset")
    return EquivariantConnection(a, b, theta, tau, Transversal(tau, offset))


def encode_normal_form(nf, tol=None):
    """The normal form's fields, and the eigenvalues of A0 in the order of
    the diagonal of its ``schur_form(tol)``: the form the computation at
    ``tol`` kept, so that encoding takes no Schur form of its own."""
    return {
        "tau": encode_complex(nf.tau),
        "theta": nf.theta,
        "dim": nf.n,
        "A0": encode_matrix(nf.A0),
        "B0": encode_matrix(nf.B0),
        "transversal_offset": nf.transversal.offset,
        "eigenvalues": [encode_complex(v) for v in np.diag(nf.schur_form(tol)[0])],
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
    tau, theta, a0, b0 = required_fields(data, ("tau", "theta", "A0", "B0"),
                                         "normal form")
    tau = decode_complex(tau, "tau")
    return NormalForm(
        decode_matrix(a0, "A0"),
        decode_matrix(b0, "B0"),
        Transversal(tau, _number(data.get("transversal_offset", 0.0),
                                 "transversal_offset")),
        _number(theta, "theta"),
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
    m1, m2 = required_fields(data, ("M1", "M2"), "representation")
    return MonodromyPair(decode_matrix(m1, "M1"), decode_matrix(m2, "M2"))


def encode_morphism(m, tol=None):
    return {
        "source": encode_normal_form(m.source, tol),
        "target": encode_normal_form(m.target, tol),
        "phi": encode_matrix(m.phi) if m.phi.size else [],
    }


def decode_morphism(data):
    source, target, phi = required_fields(data, ("source", "target", "phi"), "morphism")
    source = decode_normal_form(source)
    target = decode_normal_form(target)
    phi = (decode_matrix(phi, "phi") if phi
           else np.zeros((target.n, source.n), dtype=complex))
    if phi.shape != (target.n, source.n):
        raise ValidationFailure("phi must be %d x %d (target by source), got %d x %d"
                                % (target.n, source.n, *phi.shape))
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
    tau, terms = required_fields(data, ("tau", "terms"), "K-class")
    tau = decode_complex(tau, "tau")
    strip = Transversal(tau, _number(data.get("transversal_offset", 0.0),
                                     "transversal_offset"))
    entries = []
    for term in _array(terms, "K-class terms"):
        b, zprime, mult = required_fields(term, ("b", "zprime", "mult"), "K-class term")
        entries.append((decode_complex(b, "b"), decode_complex(zprime, "zprime"),
                        _number(mult, "mult", integer=True)))
    return K0Class(strip, entries, tol)


def encode_divisor(div):
    return {
        "tau": encode_complex(div.tau),
        "points": [{"p": encode_complex(p), "mult": m} for p, m in div.points],
    }


def decode_divisor(data, tol=None):
    tau, entries = required_fields(data, ("tau", "points"), "divisor")
    tau = decode_complex(tau, "tau")
    points = []
    for entry in _array(entries, "divisor points"):
        p, mult = required_fields(entry, ("p", "mult"), "divisor point")
        points.append((decode_complex(p, "p"), _number(mult, "mult", integer=True)))
    return Divisor(tau, points, tol)


# -- algebra elements and bundles ----------------------------------------------------------

def encode_torus_poly(x):
    return {
        "theta": x.theta,
        "coeffs": [{"n1": n1, "n2": n2, "c": encode_complex(x.coeffs[(n1, n2)])}
                   for n1, n2 in x.support()],
    }


def _torus_terms(data):
    """``(theta, {(n1, n2): c})`` of an encoded algebra element."""
    theta, entries = required_fields(data, ("theta", "coeffs"), "algebra element")
    coeffs = {}
    for entry in _array(entries, "algebra element coeffs"):
        n1, n2, c = required_fields(entry, ("n1", "n2", "c"), "algebra coefficient")
        key = (_number(n1, "n1", integer=True), _number(n2, "n2", integer=True))
        if key in coeffs:
            raise ValidationFailure("algebra element coeffs list monomial (n1, n2) = "
                                    "(%d, %d) twice" % key)
        coeffs[key] = decode_complex(c, "c")
    return _number(theta, "theta"), coeffs


def decode_torus_poly(data):
    return TorusPoly(*_torus_terms(data))


def encode_free_bundle(fb):
    """Each entry of the stack as an algebra element, its nonzero
    coefficients in the order of ``fb.supports``."""
    values = fb.coeffs.transpose(1, 2, 0).tolist()
    return {
        "theta": fb.theta,
        "tau": encode_complex(fb.tau),
        "dim": fb.n,
        "conn": [[{"theta": fb.theta,
                   "coeffs": [{"n1": n1, "n2": n2, "c": encode_complex(c)}
                              for (n1, n2), c in zip(fb.supports, entry) if c != 0]}
                  for entry in row] for row in values],
    }


def decode_free_bundle(data):
    theta, tau, dim, conn = required_fields(data, ("theta", "tau", "dim", "conn"),
                                            "bundle")
    theta = _number(theta, "theta")
    rows = [[_torus_terms(entry) for entry in _array(row, "bundle row")]
            for row in _array(conn, "bundle connection")]
    if _number(dim, "dim", integer=True) != len(rows):
        raise ValidationFailure("bundle dim %d does not match its %d connection rows"
                                % (dim, len(rows)))
    return FreeBundle._from_stack(theta, decode_complex(tau, "tau"),
                                  *_stack(theta, rows, len(rows)))
