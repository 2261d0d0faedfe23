"""JSON round-trips for fields, polynomials, matrices, codes, certificates."""

import json
import random

import pytest

from intertwine import (
    BadModulusError,
    FiniteField,
    Matrix,
    Poly,
    construct_code,
    construct_extremal,
    factor,
    intertwiner_basis,
    verify_certificate,
)
from intertwine import serialize
from support import get_field, rand_matrix

F2 = FiniteField(2)
F5 = FiniteField(5)


def roundtrip(to_json, from_json, value):
    # through an actual JSON string, so types survive serialization for real
    return from_json(json.loads(json.dumps(to_json(value))))


def test_field_roundtrip():
    assert roundtrip(serialize.field_to_json, serialize.field_from_json, F5) == F5
    f9 = get_field(9)
    assert roundtrip(serialize.field_to_json, serialize.field_from_json, f9) == f9
    assert "modulus" not in serialize.field_to_json(F5)


def test_poly_roundtrip():
    poly = Poly(F5, (2, 0, 1))
    assert roundtrip(serialize.poly_to_json, serialize.poly_from_json, poly) == poly


def test_matrix_roundtrip():
    rng = random.Random(1)
    m = rand_matrix(rng, get_field(9), 3, 4)
    assert roundtrip(serialize.matrix_to_json, serialize.matrix_from_json, m) == m
    assert serialize.matrix_to_json(m)["entries"] == [list(m.row(i)) for i in range(3)]


def test_code_roundtrip_with_distance_metadata():
    code = intertwiner_basis([Matrix.zero(F2, 2, 2)], [Matrix.zero(F2, 2, 2)])
    blob = serialize.code_to_json(code)
    assert list(blob) == ["field", "r", "s", "k", "basis"]
    assert roundtrip(serialize.code_to_json, serialize.code_from_json, code) == code
    # files written by older versions carry the distance; it is ignored
    for d, d_budget in ((1, 1 << 24), (None, None), ("x", True)):
        old = dict(blob, d=d, d_budget=d_budget)
        assert serialize.code_from_json(json.loads(json.dumps(old))) == code
    # "k" may be left out, but a stated one must match the basis
    assert serialize.code_from_json({key: blob[key] for key in blob if key != "k"}) == code
    for k in (code.k + 1, code.k - 1, 0):
        with pytest.raises(ValueError, match="'k'"):
            serialize.code_from_json(dict(blob, k=k))


def test_factorization_json_shape():
    fact = factor(Poly(F2, (0, 1, 0, 0, 1)))
    blob = serialize.factorization_to_json(fact)
    assert blob["unit"] == 1
    assert [f["coeffs"] for f in blob["factors"]] == [[0, 1], [1, 1], [1, 1, 1]]


@pytest.mark.parametrize("cert_args", [("code", (3, 2, 2, 5)), ("extremal", (4, 2, 5))])
def test_certificate_roundtrip(cert_args):
    kind, args = cert_args
    field = get_field(args[-1])
    if kind == "code":
        cert = construct_code(*args[:-1], field)
    else:
        cert = construct_extremal(*args[:-1], field)
    back = roundtrip(serialize.certificate_to_json, serialize.certificate_from_json, cert)
    assert back == cert
    assert verify_certificate(back).passed


def test_certificate_parse_shares_field_arithmetic():
    cert = construct_code(3, 2, 2, get_field(256))
    back = serialize.certificate_from_json(json.loads(json.dumps(
        serialize.certificate_to_json(cert))))
    for m in (back.A0, back.B0, back.R, back.S, back.A, back.B, *back.X):
        assert m.field == back.field
        assert m.field.mul is back.field.mul


def test_certificate_transposed_key():
    blob = serialize.certificate_to_json(construct_code(2, 2, 1, F5))
    del blob["transposed"]
    assert serialize.certificate_from_json(blob).transposed is False
    for bad in ("false", 0, None):
        blob["transposed"] = bad
        with pytest.raises(ValueError, match="transposed"):
            serialize.certificate_from_json(blob)


def test_certificate_scalars_reject_booleans():
    blob = serialize.certificate_to_json(construct_code(3, 2, 1, F5))
    assert serialize.certificate_from_json(blob).alpha == 1
    for key in ("alpha", "beta"):
        with pytest.raises(ValueError, match=key):
            serialize.certificate_from_json(dict(blob, **{key: True}))


def test_reducible_modulus_fails_every_time():
    bad = {"p": 2, "e": 2, "modulus": [1, 0, 1]}  # t^2 + 1 = (t + 1)^2
    for _ in range(2):
        with pytest.raises(BadModulusError, match="reducible"):
            serialize.field_from_json(bad)
    for _ in range(2):
        with pytest.raises(BadModulusError, match="reducible"):
            FiniteField(2, 2, [1, 0, 1])
    good = {"p": 2, "e": 2, "modulus": [1, 1, 1]}
    assert serialize.field_from_json(good) == FiniteField(2, 2)


def test_certificate_key_order_is_stable():
    cert = construct_code(2, 2, 1, F5)
    keys = list(serialize.certificate_to_json(cert))
    assert keys == ["field", "r", "s", "k", "A0", "B0", "zetas", "alpha", "beta",
                    "gamma", "R", "S", "A", "B", "X", "row_blocks", "claimed_d",
                    "transposed"]


def test_report_json_shape():
    cert = construct_code(2, 2, 1, F5)
    blob = serialize.report_to_json(verify_certificate(cert))
    assert blob["passed"] is True
    assert blob["distance_skipped"] is False
    assert all(set(c) == {"name", "passed", "detail"} for c in blob["checks"])


@pytest.mark.parametrize("blob", [
    {"p": 2},                                  # missing e
    {"p": "2", "e": 1},                        # wrong type
    {"field": {"p": 2, "e": 1}},               # poly without coeffs
    {"field": {"p": 2, "e": 1}, "coeffs": [0, "x"]},
])
def test_malformed_input_raises_value_error(blob):
    with pytest.raises(ValueError):
        if "coeffs" in blob or "field" in blob:
            serialize.poly_from_json(blob)
        else:
            serialize.field_from_json(blob)


def test_malformed_matrix_rejected():
    blob = {"field": {"p": 2, "e": 1}, "rows": 2, "cols": 2, "entries": [[1, 0]]}
    with pytest.raises(ValueError):
        serialize.matrix_from_json(blob)
    blob = {"field": {"p": 2, "e": 1}, "rows": 1, "cols": 2, "entries": [[1, 0, 0]]}
    with pytest.raises(ValueError):
        serialize.matrix_from_json(blob)
