"""Finite field construction, canonical encodings, and exact arithmetic."""

import itertools
import random

import pytest

from intertwine import (
    BadModulusError,
    DivisionByZeroError,
    FiniteField,
    NotPrimeError,
)
from intertwine import fields, polys
from intertwine.fields import _vector_ops
from support import get_field, reference_is_irreducible

SMALL_ORDERS = [2, 3, 4, 5, 8, 9]


def test_prime_field_construction():
    f = FiniteField(2)
    assert (f.p, f.e, f.q) == (2, 1, 2)
    assert f.modulus is None


def test_default_gf4_modulus_is_the_unique_irreducible_quadratic():
    # Exhaustive oracle: check all 4 monic quadratics over GF(2) for roots.
    rootless = []
    for c1, c0 in itertools.product((0, 1), repeat=2):
        if all((x * x + c1 * x + c0) % 2 for x in (0, 1)):
            rootless.append((c0, c1, 1))
    assert rootless == [(1, 1, 1)]
    assert FiniteField(2, 2).modulus == (1, 1, 1)


# The modulus fixes every element encoding, and so every output byte.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
}


@pytest.mark.parametrize("p, e", sorted(DEFAULT_MODULI))
def test_default_moduli_are_pinned(p, e):
    assert FiniteField(p, e).modulus == DEFAULT_MODULI[p, e]
    assert FiniteField.of_order(p**e) == FiniteField(p, e)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_modulus_validation_matches_brute_force(p):
    # every monic polynomial of degree 2..4 over GF(p)
    for e in range(2, 5):
        for low in itertools.product(range(p), repeat=e):
            f = list(low) + [1]
            try:
                FiniteField(p, e, f)
                accepted = True
            except BadModulusError:
                accepted = False
            assert accepted == reference_is_irreducible(p, f), f


def test_of_order():
    assert FiniteField.of_order(2) == FiniteField(2)
    assert FiniteField.of_order(2**31) == FiniteField(2, 31)
    for q in (-4, 0, 1, 6, 12, 2**31 - 2):
        with pytest.raises(NotPrimeError):
            FiniteField.of_order(q)
    # 2^61 - 1 is prime: trial division up to its square root takes hours
    with pytest.raises(ValueError, match="exceeds the supported bound"):
        FiniteField.of_order(2**61 - 1)


@pytest.mark.parametrize("q", [4.0, 5.0, True, "4", None])
def test_order_that_is_not_an_int_rejected(q):
    with pytest.raises(NotPrimeError):
        FiniteField.of_order(q)
    with pytest.raises(NotPrimeError):
        FiniteField(q)


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrimeError) as exc:
        FiniteField(4)
    assert exc.value.p == 4


def test_bad_modulus_rejected():
    with pytest.raises(BadModulusError):
        FiniteField(2, 2, [1, 1])  # wrong degree
    with pytest.raises(BadModulusError):
        FiniteField(2, 2, [1, 1, 0])  # not monic
    with pytest.raises(BadModulusError):
        FiniteField(2, 2, [0, 0, 1])  # t^2 is reducible
    with pytest.raises(BadModulusError):
        FiniteField(3, 2, [3, 0, 1])  # coefficient out of range
    # True == 1, but a bool is no coefficient, as anywhere else
    for modulus in ((1, 1, True), (True, 1, 1), (1, False, 1)):
        with pytest.raises(BadModulusError, match="must be integers"):
            FiniteField(2, 2, modulus)


def test_field_arithmetic_is_built_once(monkeypatch):
    # the modulus proof and the tables run on the first build only, and the
    # default modulus written out names the same field
    fields._arithmetic.cache_clear()
    calls = {"is_irreducible": 0, "_vector_ops": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)

    counting(polys, "is_irreducible")
    counting(fields, "_vector_ops")
    first = FiniteField(2, 8)
    assert calls["is_irreducible"] > 0 and calls["_vector_ops"] == 1
    calls.update(dict.fromkeys(calls, 0))
    for again in (FiniteField(2, 8), FiniteField(2, 8, first.modulus)):
        assert again == first
        assert again._log is first._log
        assert again.mul is first.mul
    assert calls == {"is_irreducible": 0, "_vector_ops": 0}


def test_each_prime_is_proved_once(monkeypatch):
    # trial division of 2^31 - 1 takes milliseconds; a rebuilt field, by
    # either constructor, repeats none of it
    calls = []
    original = fields.prime_divisors
    monkeypatch.setattr(fields, "prime_divisors", lambda n: calls.append(n) or original(n))
    fields._prime_power.cache_clear()
    first = FiniteField.of_order(2**31 - 1)
    # one division finds the prime power, and the prime check reuses it
    assert calls == [2**31 - 1]
    for again in (FiniteField(2**31 - 1), FiniteField(2**31 - 1), FiniteField.of_order(2**31 - 1)):
        assert again == first
    assert calls == [2**31 - 1]


def test_pow_examples_and_negative_exponents():
    # a prime field, Zech and XOR tables, and vector arithmetic past them
    for q in (5, 9, 16, 1 << 17):
        f = get_field(q)
        for a in (1, 2, f.q - 1):
            assert f.pow(a, 0) == 1
            assert f.pow(a, 1) == a
            assert f.pow(a, 3) == f.mul(a, f.mul(a, a))
            assert f.pow(a, -1) == f.inv(a)
            assert f.mul(f.pow(a, -3), f.pow(a, 3)) == 1
        assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0
    with pytest.raises(DivisionByZeroError):
        FiniteField(5).pow(0, -1)


def test_bad_extension_degree_rejected():
    for e in (0, True, 2.0):
        with pytest.raises(ValueError):
            FiniteField(2, e)


def test_explicit_modulus_is_used():
    f = FiniteField(2, 3, [1, 1, 0, 1])
    assert f.modulus == (1, 1, 0, 1)
    assert f.q == 8


def test_arithmetic_examples():
    assert FiniteField(2).add(1, 1) == 0
    assert FiniteField(5).inv(2) == 3
    # In GF(4) with modulus t^2+t+1 the generator (encoding 2) squares to t+1.
    assert FiniteField(2, 2).mul(2, 2) == 3


def test_division_by_zero():
    f = FiniteField(5)
    with pytest.raises(DivisionByZeroError):
        f.inv(0)
    with pytest.raises(DivisionByZeroError):
        f.div(3, 0)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustively(q):
    f = get_field(q)
    elems = list(f.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.sub(a, b) == f.add(a, f.neg(b))
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_frobenius_fixes_every_element(q):
    f = get_field(q)
    assert all(f.pow(a, q) == a for a in f.elements())


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_pth_root_inverts_frobenius(q):
    f = get_field(q)
    for a in f.elements():
        assert f.pow(f.pth_root(a), f.p) == a


def test_enumerate_elements():
    assert list(FiniteField(3).elements()) == [0, 1, 2]
    assert list(FiniteField(2).elements()) == [0, 1]
    gf4 = list(FiniteField(2, 2).elements())
    assert gf4 == [0, 1, 2, 3]
    assert len(set(gf4)) == 4


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_encoding_roundtrip(q):
    f = get_field(q)
    for a in f.elements():
        cs = f.coeffs(a)
        assert len(cs) == f.e
        assert all(0 <= c < f.p for c in cs)
        assert f.from_coeffs(cs) == a


@pytest.mark.parametrize("bad", [True, False, -1, 9])
def test_coefficient_vectors_reject_non_encodings(bad):
    # booleans are ints to isinstance, but not element or coefficient encodings
    f = get_field(9)
    with pytest.raises(ValueError):
        f.coeffs(bad)
    with pytest.raises(ValueError):
        f.from_coeffs([bad, 0])


def test_from_int_embeds_prime_subfield():
    f = FiniteField(3, 2)
    assert f.from_int(5) == 2
    assert f.from_int(-1) == 2
    assert f.add(f.from_int(1), f.from_int(2)) == 0


def test_field_equality_and_hash():
    assert FiniteField(5) == FiniteField(5)
    assert FiniteField(2, 2) == FiniteField(2, 2, [1, 1, 1])
    assert FiniteField(2) != FiniteField(3)
    assert hash(FiniteField(3, 2)) == hash(FiniteField(3, 2))


def test_supported_size_limits():
    with pytest.raises(ValueError):
        FiniteField(2, 40)
    # checked before the trial division, which would take hours on 2^61 - 1
    for p, e in ((2**61 - 1, 1), (3, 10**12)):
        with pytest.raises(ValueError, match="exceeds the supported bound"):
            FiniteField(p, e)


@pytest.mark.parametrize("q", [3**11, 2**17])
def test_arithmetic_beyond_the_table_limit(q):
    # orders above 2^16 compute on coefficient vectors instead of log tables
    f = get_field(q)
    assert f._log is None
    rng = random.Random(q)
    samples = [rng.randrange(q) for _ in range(25)]
    for a in samples:
        assert f.pow(a, q) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a, b, c in zip(samples, samples[1:], samples[2:]):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.sub(a, b) == f.add(a, f.neg(b))


def _samples(f, rng, count):
    minus_one = f.neg(1)
    return sorted({0, 1, f.p, minus_one, f.q - 1} | {rng.randrange(f.q) for _ in range(count)})


@pytest.mark.parametrize("q", [4, 9, 256, 1024, 3**5, 2**16, 2**17])
def test_field_ops_match_coefficient_vectors(q):
    # log/antilog (and Zech) tables up to 2^16, coefficient vectors above
    f = get_field(q)
    assert (f._log is None) == (q > 2**16)
    add, sub, neg, mul = _vector_ops(f.p, f.e, f.modulus)
    rng = random.Random(q)
    elems = list(f.elements()) if q <= 9 else _samples(f, rng, 80)
    for a in elems:
        assert f.neg(a) == neg(a)
        if a:
            assert mul(f.inv(a), a) == 1
        for b in elems:
            assert f.add(a, b) == add(a, b)
            assert f.sub(a, b) == sub(a, b)
            assert f.mul(a, b) == mul(a, b)
            if b:
                assert mul(f.div(a, b), b) == a
