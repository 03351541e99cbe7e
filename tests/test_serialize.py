"""Round-trip tests for all JSON encodings."""

import numpy as np
import pytest

from eqconn.category import K0Class, MonodromyPair, Morphism, k0_class
from eqconn.exceptions import ValidationFailure
from eqconn.serialize import (
    decode_complex,
    decode_divisor,
    decode_free_bundle,
    decode_k0,
    decode_matrix,
    decode_monodromy,
    decode_morphism,
    decode_normal_form,
    decode_object,
    decode_polymat,
    decode_torus_poly,
    encode_complex,
    encode_divisor,
    encode_free_bundle,
    encode_k0,
    encode_matrix,
    encode_monodromy,
    encode_morphism,
    encode_normal_form,
    encode_object,
    encode_polymat,
    encode_torus_poly,
)
from eqconn.torus import Divisor, TorusPoly, psi_star
from util import Q, STRIP, TAU, THETA, random_normal_form, scramble


def test_complex_and_matrix_roundtrip():
    z = 1.25 - 3.5j
    assert decode_complex(encode_complex(z)) == z
    m = np.array([[1.0 + 2.0j, 0.0], [-1.5j, 4.0]])
    assert np.array_equal(decode_matrix(encode_matrix(m)), m)
    with pytest.raises(ValidationFailure):
        decode_complex([1.0])
    with pytest.raises(ValidationFailure):
        decode_matrix([[encode_complex(1.0)], [encode_complex(1.0), encode_complex(2.0)]])


def test_polymat_roundtrip():
    rng = np.random.default_rng(0)
    from eqconn.laurent import PolyMat
    p = PolyMat(2, {-1: rng.normal(size=(2, 2)), 2: rng.normal(size=(2, 2))},
                TAU, Q)
    back = decode_polymat(encode_polymat(p), TAU, Q)
    assert back.distance(p) == 0.0


def test_object_roundtrip():
    rng = np.random.default_rng(1)
    nf = random_normal_form(rng, 2)
    obj = scramble(nf, rng, shears=1)
    data = encode_object(obj)
    back = decode_object(data)
    assert back.A.distance(obj.A) == 0.0
    assert back.B.distance(obj.B) == 0.0
    assert back.theta == obj.theta and back.tau == obj.tau


def test_normal_form_and_morphism_roundtrip():
    rng = np.random.default_rng(2)
    nf = random_normal_form(rng, 3)
    back = decode_normal_form(encode_normal_form(nf))
    assert np.array_equal(back.A0, nf.A0) and np.array_equal(back.B0, nf.B0)
    assert back.transversal.offset == nf.transversal.offset
    m = Morphism(nf, nf, np.eye(3, dtype=complex))
    back_m = decode_morphism(encode_morphism(m))
    assert np.array_equal(back_m.phi, m.phi)


def test_monodromy_roundtrip():
    rep = MonodromyPair(np.diag([1.0j, 2.0]), np.diag([3.0, 4.0]))
    back = decode_monodromy(encode_monodromy(rep))
    assert np.array_equal(back.M1, rep.M1) and np.array_equal(back.M2, rep.M2)


def test_k0_and_divisor_roundtrip():
    cls = K0Class(STRIP, [(2.0, 0.3 * TAU, 1), (1.0j, 0.1, -2)])
    back = decode_k0(encode_k0(cls))
    assert back == cls
    div = Divisor(TAU, [(0.25 + 0.5 * TAU, 3), (0.1, -1)])
    back_d = decode_divisor(encode_divisor(div))
    assert back_d == div


def test_torus_poly_and_bundle_roundtrip():
    x = TorusPoly(THETA, {(1, -2): 1.5 + 0.5j, (0, 0): -1.0})
    back = decode_torus_poly(encode_torus_poly(x))
    assert back.distance(x) == 0.0
    rng = np.random.default_rng(3)
    fb = psi_star(random_normal_form(rng, 2))
    back_fb = decode_free_bundle(encode_free_bundle(fb))
    assert back_fb.n == fb.n
    for i in range(fb.n):
        for j in range(fb.n):
            assert back_fb.entry(i, j).distance(fb.entry(i, j)) == 0.0


def test_missing_fields_rejected():
    with pytest.raises(ValidationFailure):
        decode_object({"tau": [1.0, -1.0]})
    with pytest.raises(ValidationFailure):
        decode_monodromy({"M1": encode_matrix(np.eye(1))})
    with pytest.raises(ValidationFailure):
        decode_divisor({"points": []})


def test_a_repeated_power_is_refused():
    """A Laurent matrix that lists one power twice is refused, naming the
    field and the power, rather than keeping the last coefficient."""
    one = [[encode_complex(0.1)]]
    for field in ("A", "B"):
        data = {"tau": [1.0, -1.0], "theta": 0.5, "dim": 1,
                "A": [{"pow": 0, "coef": one}], "B": [{"pow": 0, "coef": one}]}
        data[field] = [{"pow": 3, "coef": one}, {"pow": 0, "coef": one},
                       {"pow": 3, "coef": [[encode_complex(0.2)]]}]
        with pytest.raises(ValidationFailure, match="%s lists power 3 twice" % field):
            decode_object(data)
    with pytest.raises(ValidationFailure, match="terms lists power -2 twice"):
        decode_polymat({"dim": 1, "terms": [{"pow": -2, "coef": one}] * 2}, TAU, Q)


def test_a_repeated_monomial_is_refused():
    """An algebra element that lists one monomial twice is refused, naming
    the monomial, in a lone element and in a bundle's connection."""
    coeffs = [{"n1": 1, "n2": -2, "c": encode_complex(1.5)},
              {"n1": 0, "n2": 0, "c": encode_complex(1.0)},
              {"n1": 1, "n2": -2, "c": encode_complex(0.5)}]
    with pytest.raises(ValidationFailure, match=r"\(n1, n2\) = \(1, -2\) twice"):
        decode_torus_poly({"theta": THETA, "coeffs": coeffs})
    bundle = {"theta": THETA, "tau": [1.0, -1.0], "dim": 1,
              "conn": [[{"theta": THETA, "coeffs": coeffs}]]}
    with pytest.raises(ValidationFailure, match=r"\(n1, n2\) = \(1, -2\) twice"):
        decode_free_bundle(bundle)
