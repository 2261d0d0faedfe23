"""Primary decomposition and the Jordan-type model matrices."""

import random

import pytest

from intertwine import (
    FiniteField,
    Matrix,
    NotIrreducibleError,
    Partition,
    Poly,
    companion_matrix,
    direct_sum,
    factor,
    generalized_jordan_matrix,
    is_irreducible,
    nilpotent_matrix,
    primary_decomposition,
    spectral_bounds,
)
from intertwine.polys import encoding
from support import get_field, rand_matrix, rand_partition

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


def test_nilpotent_matrix_examples():
    assert nilpotent_matrix(F2, Partition([2])) == Matrix(F2, 2, 2, [0, 1, 0, 0])
    assert nilpotent_matrix(F3, Partition([1, 1])) == Matrix.zero(F3, 2, 2)
    n21 = nilpotent_matrix(F2, Partition([2, 1]))
    assert n21 == Matrix(F2, 3, 3, [0, 1, 0, 0, 0, 0, 0, 0, 0])
    # (N_lam)^(first part) = 0
    assert (n21 * n21).is_zero


def test_generalized_jordan_examples():
    # companion of t is the 1x1 zero, so the construction degenerates to N_lam
    t = Poly.t(F2)
    assert generalized_jordan_matrix(t, Partition([2, 1])) == nilpotent_matrix(F2, Partition([2, 1]))

    # classical Jordan block for the eigenvalue 1 over GF(3)
    block = generalized_jordan_matrix(Poly(F3, (2, 1)), Partition([2]))
    assert block == Matrix(F3, 2, 2, [1, 1, 0, 1])

    with pytest.raises(NotIrreducibleError):
        generalized_jordan_matrix(Poly(F2, (0, 0, 1)), Partition([1]))


def test_generalized_jordan_nine_by_nine_layout():
    p = Poly(F2, (1, 1, 0, 1))
    a = generalized_jordan_matrix(p, Partition([3]))
    assert (a.nrows, a.ncols) == (9, 9)
    comp = companion_matrix(p)
    eye = Matrix.identity(F2, 3)
    zero = Matrix.zero(F2, 3, 3)
    expected_blocks = [
        [comp, eye, zero],
        [zero, comp, eye],
        [zero, zero, comp],
    ]
    for bi in range(3):
        for bj in range(3):
            got = Matrix(F2, 3, 3,
                         [a[bi * 3 + i, bj * 3 + j] for i in range(3) for j in range(3)])
            assert got == expected_blocks[bi][bj]
    assert a.charpoly() == p**3


def test_generalized_jordan_charpoly_is_power():
    rng = random.Random(17)
    for q in (2, 3, 5):
        field = get_field(q)
        irreducibles = [
            Poly(field, list(cs) + [1])
            for d in (1, 2)
            for cs in _all_tuples(q, d)
            if is_irreducible(Poly(field, list(cs) + [1]))
        ]
        for _ in range(6):
            p = rng.choice(irreducibles)
            lam = rand_partition(rng, 4)
            if not lam:
                continue
            a = generalized_jordan_matrix(p, lam)
            assert a.charpoly() == p**lam.weight


def _all_tuples(q, d):
    if d == 0:
        return [()]
    return [t + (c,) for t in _all_tuples(q, d - 1) for c in range(q)]


def test_primary_decomposition_examples():
    [comp] = primary_decomposition(nilpotent_matrix(F2, Partition([2, 1])))
    assert comp.irr == Poly.t(F2)
    assert (comp.degree, comp.mult) == (1, 3)
    assert comp.partition == Partition([2, 1])

    dec = primary_decomposition(Matrix.diagonal(F5, [1, 2]))
    assert [(c.irr.coeffs, c.mult, c.partition.parts) for c in dec] == [
        ((3, 1), 1, (1,)),  # t - 2
        ((4, 1), 1, (1,)),  # t - 1
    ]

    p = Poly(F2, (1, 1, 0, 1))
    [comp] = primary_decomposition(generalized_jordan_matrix(p, Partition([3])))
    assert comp.irr == p and comp.degree == 3 and comp.mult == 3
    assert comp.partition == Partition([3])


def test_extraction_consistency():
    rng = random.Random(19)
    for q in (2, 3):
        field = get_field(q)
        irreducibles = [
            Poly(field, list(cs) + [1])
            for d in (1, 2)
            for cs in _all_tuples(q, d)
            if is_irreducible(Poly(field, list(cs) + [1]))
        ]
        for _ in range(8):
            p = rng.choice(irreducibles)
            lam = rand_partition(rng, 3)
            if not lam:
                continue
            [comp] = primary_decomposition(generalized_jordan_matrix(p, lam))
            assert comp.irr == p
            assert comp.partition == lam
            assert comp.mult == lam.weight


def test_reconstruction_roundtrip():
    rng = random.Random(43)
    for q in (2, 3, 4, 5):
        field = get_field(q)
        for _ in range(8):
            n = rng.randint(1, 6)
            a = rand_matrix(rng, field, n, n)
            dec = primary_decomposition(a)
            assert sum(c.dimension for c in dec) == n
            model = direct_sum(
                [generalized_jordan_matrix(c.irr, c.partition) for c in dec],
                field=field,
            )
            assert model.charpoly() == a.charpoly()
            assert primary_decomposition(model) == dec


def test_components_are_canonically_sorted():
    rng = random.Random(47)
    field = get_field(3)
    for _ in range(10):
        a = rand_matrix(rng, field, 6, 6)
        comps = primary_decomposition(a)
        keys = [(c.degree, encoding(c.irr)) for c in comps]
        assert keys == sorted(keys)
        # matches the factorization of the characteristic polynomial
        assert [(c.irr, c.mult) for c in comps] == list(factor(a.charpoly()).factors)


def test_spectral_bounds_examples():
    # Against a 1x1 partner with the same single eigenvalue, lo counts the
    # eigenspace dimension and hi the multiplicity, each times deg p.
    nil = nilpotent_matrix(F2, Partition([2]))
    assert spectral_bounds(nil, Matrix.zero(F2, 1, 1)) == (1, 2)
    assert spectral_bounds(nil, nil) == (1, 4)
    eye = Matrix.identity(F3, 2)
    assert spectral_bounds(eye, Matrix.identity(F3, 1)) == (2, 2)
    assert spectral_bounds(eye, Matrix.zero(F3, 1, 1)) == (0, 0)
    comp = companion_matrix(Poly(F3, (1, 0, 1)))
    assert spectral_bounds(comp, comp) == (2, 2)
    assert spectral_bounds(comp, eye) == (0, 0)
