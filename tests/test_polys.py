"""Polynomial arithmetic, gcd, squarefree splitting, and factorization."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwine import (
    BothZeroError,
    ConstantPolynomialError,
    FiniteField,
    NotMonicError,
    Poly,
    ZeroPolynomialError,
    factor,
    gcd,
    is_irreducible,
    squarefree_decomposition,
)
from intertwine import serialize
from intertwine.cli import main
from intertwine.polys import encoding
from support import get_field

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


def P(field, *coeffs):
    return Poly(field, coeffs)


def test_trailing_zeros_are_trimmed():
    assert P(F5, 1, 2, 0, 0).coeffs == (1, 2)
    assert P(F5).is_zero
    assert P(F5).degree == -1


def test_coefficients_must_be_element_encodings():
    for coeffs in ([True, 1], [1, False, 1], [5], [-1], [1.0]):
        with pytest.raises(ValueError):
            Poly(F5, coeffs)


def test_gcd_examples():
    assert gcd(P(F5, 4, 0, 1), P(F5, 4, 1)) == P(F5, 4, 1)  # t^2-1 and t-1
    assert gcd(P(F3, 1, 0, 1), P(F3, 0, 1)) == Poly.one(F3)
    f = P(F5, 2, 4)
    assert gcd(f, Poly.zero(F5)) == f.monic()
    with pytest.raises(BothZeroError):
        gcd(Poly.zero(F5), Poly.zero(F5))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gcd_divides_both_and_lcm_identity(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 9]))
    f = get_field(q)
    mk = lambda: Poly(f, [data.draw(st.integers(0, q - 1)) for _ in range(data.draw(st.integers(1, 8)))])
    a, b = mk(), mk()
    if a.is_zero and b.is_zero:
        return
    g = gcd(a, b)
    assert (a % g).is_zero if not a.is_zero else True
    assert (b % g).is_zero if not b.is_zero else True
    if not a.is_zero and not b.is_zero:
        lcm = (a * b) // g
        assert (lcm % a).is_zero and (lcm % b).is_zero
        assert (g * lcm).monic() == (a * b).monic()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_divmod_identity(data):
    q = data.draw(st.sampled_from([2, 3, 5, 9]))
    f = get_field(q)
    a = Poly(f, [data.draw(st.integers(0, q - 1)) for _ in range(data.draw(st.integers(0, 9)))])
    b = Poly(f, [data.draw(st.integers(0, q - 1)) for _ in range(data.draw(st.integers(1, 6)))])
    if b.is_zero:
        return
    quot, rem = divmod(a, b)
    assert quot * b + rem == a
    assert rem.degree < b.degree


def test_squarefree_examples():
    assert squarefree_decomposition(P(F2, 1, 0, 1)) == [(P(F2, 1, 1), 2)]  # (t+1)^2
    assert squarefree_decomposition(P(F5, 0, 0, 0, 1)) == [(P(F5, 0, 1), 3)]  # t^3
    f = P(F2, 1, 1, 1) * P(F2, 0, 0, 1)  # (t^2+t+1) * t^2
    parts = squarefree_decomposition(f)
    assert sorted(((g.coeffs, m) for g, m in parts)) == [((0, 1), 2), ((1, 1, 1), 1)]
    # re-expansion oracle
    prod = Poly.one(F2)
    for g, m in parts:
        prod = prod * g**m
    assert prod == f


def test_squarefree_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        squarefree_decomposition(Poly.zero(F2))


def test_factor_examples():
    fact = factor(P(F2, 0, 1, 0, 0, 1))  # t^4 + t
    assert [(g.coeffs, m) for g, m in fact.factors] == [
        ((0, 1), 1), ((1, 1), 1), ((1, 1, 1), 1)]
    assert fact.expand() == P(F2, 0, 1, 0, 0, 1)

    fact = factor(P(F3, 1, 0, 1))  # t^2 + 1, irreducible over GF(3)
    assert len(fact.factors) == 1 and fact.factors[0][1] == 1
    assert fact.factors[0][0] == P(F3, 1, 0, 1)
    # oracle: no root among 0, 1, 2 suffices for a quadratic
    assert all(P(F3, 1, 0, 1).evaluate(x) for x in range(3))

    fact = factor((P(F5, 4, 1)) ** 3)  # (t - 1)^3
    assert fact.factors == ((P(F5, 4, 1), 3),)

    # non-monic input: the unit is the leading coefficient
    fact = factor(P(F5, 0, 2))
    assert fact.unit == 2 and fact.factors == ((P(F5, 0, 1), 1),)
    assert fact.expand() == P(F5, 0, 2)


def test_factor_rejects_degenerate_inputs():
    with pytest.raises(ZeroPolynomialError):
        factor(Poly.zero(F2))
    with pytest.raises(ConstantPolynomialError):
        factor(Poly.one(F2))


def test_factor_is_deterministic(tmp_path, capsys):
    # Products of several distinct factors of one degree go through
    # equal-degree splitting, the only randomized step, in odd
    # characteristic and in characteristic 2.
    polys = []
    for q in (8, 9, 25):
        f = get_field(q)
        rng = random.Random(q)
        linear = Poly.one(f)
        for a in range(6):
            linear = linear * Poly(f, (a, 1))
        polys.append(linear)
        polys.append(Poly(f, [rng.randrange(q) for _ in range(12)] + [1]))

    def text(fact):
        return json.dumps(serialize.factorization_to_json(fact), separators=(",", ":")) + "\n"

    for i, poly in enumerate(polys):
        first = text(factor(poly))
        assert text(factor(poly)) == first
        path = tmp_path / f"poly{i}.json"
        path.write_text(json.dumps(serialize.poly_to_json(poly)), encoding="utf-8")
        outs = []
        for _ in range(2):
            assert main(["factor", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == first


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27])
def test_factor_random_roundtrip(q):
    f = get_field(q)
    rng = random.Random(100 + q)
    for _ in range(12):
        deg = rng.randint(1, 20)
        coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
        poly = Poly(f, coeffs)
        fact = factor(poly)
        assert fact.expand() == poly
        for g, m in fact.factors:
            assert m >= 1
            assert g.is_monic
            assert is_irreducible(g)
        # factors are pairwise distinct and sorted by (degree, encoding)
        keys = [(g.degree, encoding(g)) for g, _ in fact.factors]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)


@pytest.mark.parametrize("p", [2, 3, 7, 131])
def test_factor_and_is_irreducible_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = get_field(p)
    rng = random.Random(p)

    def rand_poly(deg):
        return Poly(f, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])

    for _ in range(16):
        if rng.random() < 0.5:  # a product with repeated factors
            poly = Poly.one(f)
            for _ in range(rng.randint(1, 3)):
                poly = poly * rand_poly(rng.randint(1, 4)) ** rng.randint(1, 3)
        else:
            poly = rand_poly(rng.randint(1, 12))
        ref = sympy.Poly(list(reversed(poly.coeffs)), x, modulus=p)
        unit, ref_factors = ref.factor_list()
        fact = factor(poly)
        assert fact.unit == int(unit) % p
        assert sorted((g.coeffs, m) for g, m in fact.factors) == sorted(
            (tuple(int(c) % p for c in reversed(g.all_coeffs())), m) for g, m in ref_factors)
        assert is_irreducible(poly.monic()) == ref.monic().is_irreducible


def test_is_irreducible_examples():
    assert is_irreducible(P(F2, 1, 1, 1))
    assert not is_irreducible(P(F2, 1, 0, 1))  # root at t = 1
    cubic = P(F2, 1, 1, 0, 1)
    # oracle: a cubic with no root in GF(2) is irreducible
    assert all(cubic.evaluate(x) for x in (0, 1))
    assert is_irreducible(cubic)


def test_is_irreducible_input_contract():
    with pytest.raises(ConstantPolynomialError):
        is_irreducible(Poly.one(F2))
    with pytest.raises(NotMonicError):
        is_irreducible(P(F5, 1, 2))


def test_irreducible_quartics_over_gf2_count():
    # Filtering all 16 monic quartics must find (2^4 - 2^2) / 4 = 3 of them.
    found = [
        cs for cs in itertools.product((0, 1), repeat=4)
        if is_irreducible(Poly(F2, list(cs) + [1]))
    ]
    assert len(found) == (2**4 - 2**2) // 4 == 3


def test_evaluate_matches_naive_sum():
    f = get_field(9)
    rng = random.Random(3)
    poly = Poly(f, [rng.randrange(9) for _ in range(6)])
    for x in f.elements():
        acc = 0
        for i, c in enumerate(poly.coeffs):
            acc = f.add(acc, f.mul(c, f.pow(x, i)))
        assert poly.evaluate(x) == acc


def test_derivative_in_characteristic_p():
    # d/dt of t^3 + t over GF(3) is 1; the cube term dies.
    assert P(F3, 0, 1, 0, 1).derivative() == Poly.one(F3)
