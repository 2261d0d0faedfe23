"""The result types are named tuples: attribute access, keyword
construction, defaults, ``_replace``, repr text, immutability, and equality
and hashing within a type; a partition is the tuple of its parts; and no
command imports ``dataclasses``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from intertwine import (
    Certificate,
    CertificateCheck,
    DimensionBreakdown,
    FactorTerm,
    Factorization,
    FiniteField,
    Matrix,
    Partition,
    Poly,
    PrimaryComponent,
    VerificationReport,
    construct_code,
    dimension_formula,
    factor,
    generalized_jordan_matrix,
    primary_decomposition,
    verify_certificate,
)

F2 = FiniteField(2)
F5 = FiniteField(5)
SRC = Path(__file__).resolve().parents[1] / "src"


def examples():
    """Two computations of one value per result type, built independently."""
    cubic = Poly(F2, (1, 1, 0, 1))
    a = generalized_jordan_matrix(cubic, Partition([2, 1]))
    b = generalized_jordan_matrix(cubic, Partition([2]))
    return [
        (lambda: factor(Poly(F5, (4, 0, 3))), 3),
        (lambda: primary_decomposition(a)[0], 3),
        (lambda: dimension_formula(a, b).terms[0], 4),
        (lambda: dimension_formula(a, b), 2),
        (lambda: construct_code(3, 2, 2, F5), 18),
        (lambda: verify_certificate(construct_code(3, 2, 2, F5)).checks[0], 3),
        (lambda: verify_certificate(construct_code(3, 2, 2, F5)), 2),
    ]


@pytest.mark.parametrize("make, width", examples())
def test_equal_hash_and_frozen(make, width):
    one, two = make(), make()
    assert one is not two
    assert one == two and hash(one) == hash(two)
    assert len(one) == width
    # a value compares equal to the plain tuple of its fields
    assert one == tuple(one)
    changed = one._replace(**{one._fields[-1]: None})
    assert type(changed) is type(one) and changed != one
    assert changed[:-1] == one[:-1]
    with pytest.raises(AttributeError):
        setattr(one, one._fields[0], None)
    with pytest.raises(AttributeError):
        one.extra = 1


def test_repr_text():
    assert repr(CertificateCheck("x", True)) == "CertificateCheck(name='x', passed=True, detail='')"
    assert repr(VerificationReport(())) == "VerificationReport(checks=(), distance_skipped=False)"
    assert repr(DimensionBreakdown(0, ())) == "DimensionBreakdown(total=0, terms=())"
    t = Poly.t(F2)
    term = FactorTerm(t, Partition([1]), Partition([2]), 1)
    assert repr(term) == (f"FactorTerm(irr={t!r}, lam=Partition([1]), "
                          f"mu=Partition([2]), contribution=1)")
    comp = PrimaryComponent(t, 3, Partition([2, 1]))
    assert repr(comp) == f"PrimaryComponent(irr={t!r}, mult=3, partition=Partition([2, 1]))"
    fact = Factorization(F2, 1, ((t, 2),))
    assert repr(fact) == f"Factorization(field={F2!r}, unit=1, factors={((t, 2),)!r})"


def test_fields_defaults_and_methods():
    check = CertificateCheck(name="x", passed=False, detail="why")
    assert (check.name, check.passed, check.detail) == ("x", False, "why")
    assert CertificateCheck("x", True).detail == ""
    assert VerificationReport((check,)).distance_skipped is False
    assert not VerificationReport((check,)).passed
    assert VerificationReport((CertificateCheck("x", True),), True).passed
    comp = PrimaryComponent(Poly(F2, (1, 1, 1)), 3, Partition([2, 1]))
    assert (comp.degree, comp.dimension) == (2, 6)
    f = Poly(F5, (4, 0, 3))
    assert factor(f).expand() == f
    cert = construct_code(3, 2, 2, F5)
    assert cert.transposed is False
    assert Certificate(*cert[:-1]) == cert
    assert Certificate(*cert[:-1], True).transposed is True
    zero = cert._replace(R=Matrix.zero(F5, 3, 3))
    assert zero.R.is_zero and zero.A == cert.A and zero != cert


def test_partition_is_the_tuple_of_its_parts():
    lam = Partition([3, 1, 1])
    assert lam == (3, 1, 1) and (3, 1, 1) == lam
    assert hash(lam) == hash((3, 1, 1))
    assert {lam: 1}[(3, 1, 1)] == 1
    assert lam != (3, 1) and lam != [3, 1, 1]
    assert Partition() == () and not Partition()
    assert type(lam.parts) is tuple and lam.parts == (3, 1, 1)
    assert (len(lam), lam[0], list(lam)) == (3, 3, [3, 1, 1])
    assert repr(lam) == "Partition([3, 1, 1])" and repr(Partition()) == "Partition([])"
    assert type(lam.conjugate()) is Partition and lam.conjugate() == (3, 1, 1)
    assert (lam.weight, lam.first, Partition().first) == (5, 3, 0)
    with pytest.raises(AttributeError):
        lam.extra = 1
    with pytest.raises(ValueError):
        Partition((1, 3))


def test_cli_import_loads_no_dataclasses():
    # -S keeps site (and whatever it imports) out; PYTHONPATH still applies
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = (f"import sys, intertwine.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
