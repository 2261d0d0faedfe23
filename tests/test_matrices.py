"""Exact linear algebra: elimination, characteristic polynomials, completion."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwine import _packed
from intertwine import (
    DependentPrefixError,
    FiniteField,
    Matrix,
    NotSquareError,
    Poly,
    SingularError,
    SizeMismatchError,
    companion_matrix,
    complete_invertible,
    direct_sum,
    poly_eval,
)
from support import get_field, rand_matrix

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


def naive_charpoly(m):
    """det(tI - M) by cofactor expansion over the polynomial ring."""
    f = m.field
    n = m.nrows
    grid = [
        [
            Poly(f, (f.neg(m[i, j]),) if i != j else (f.neg(m[i, j]), 1))
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows, cols):
        if not rows:
            return Poly.one(f)
        i = rows[0]
        total = Poly.zero(f)
        for pos, j in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = grid[i][j] * minor
            total = total + (term if pos % 2 == 0 else -term)
        return total

    return det(list(range(n)), list(range(n)))


def test_rref_examples():
    eye = Matrix.identity(F5, 3)
    reduced, rank, pivots = eye.rref()
    assert (reduced, rank, pivots) == (eye, 3, (0, 1, 2))

    zero = Matrix.zero(F5, 2, 3)
    assert zero.rref() == (zero, 0, ())

    ones = Matrix(F2, 2, 2, [1, 1, 1, 1])
    reduced, rank, pivots = ones.rref()
    assert reduced == Matrix(F2, 2, 2, [1, 1, 0, 0])
    assert rank == 1 and pivots == (0,)


def test_nullspace_examples():
    shift = Matrix(F3, 2, 2, [0, 1, 0, 0])
    assert [v.entries for v in shift.nullspace()] == [(1, 0)]
    assert Matrix.identity(F3, 2).nullspace() == []
    assert [v.entries for v in Matrix.zero(F3, 2, 2).nullspace()] == [(1, 0), (0, 1)]


def test_rank_nullity_on_random_matrices():
    rng = random.Random(11)
    for q in (2, 3, 4, 5, 9):
        f = get_field(q)
        for _ in range(10):
            m = rand_matrix(rng, f, rng.randint(1, 5), rng.randint(1, 5))
            basis = m.nullspace()
            assert m.rank() + len(basis) == m.ncols
            for v in basis:
                assert (m * v).is_zero


def test_charpoly_examples():
    comp = companion_matrix(Poly(F3, (1, 0, 1)))
    assert comp.charpoly() == Poly(F3, (1, 0, 1))
    assert Matrix.zero(F2, 3, 3).charpoly() == Poly(F2, (0, 0, 0, 1))
    # (t-1)(t-2) over GF(5), expanded with polynomial arithmetic as the oracle
    expected = Poly(F5, (4, 1)) * Poly(F5, (3, 1))
    assert Matrix.diagonal(F5, [1, 2]).charpoly() == expected == Poly(F5, (2, 2, 1))


def test_charpoly_matches_cofactor_expansion():
    rng = random.Random(23)
    for q in (2, 3):
        f = get_field(q)
        for _ in range(12):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, f, n, n)
            assert m.charpoly() == naive_charpoly(m)


def test_cayley_hamilton_on_random_matrices():
    rng = random.Random(29)
    for q in (2, 3, 4, 5, 9):
        f = get_field(q)
        for _ in range(6):
            n = rng.randint(1, 6)
            m = rand_matrix(rng, f, n, n)
            assert poly_eval(m.charpoly(), m).is_zero


def test_charpoly_requires_square():
    with pytest.raises(NotSquareError):
        Matrix.zero(F2, 2, 3).charpoly()


def test_poly_eval_examples():
    m = rand_matrix(random.Random(1), F5, 3, 3)
    assert poly_eval(Poly.t(F5), m) == m
    shift = Matrix(F2, 2, 2, [0, 1, 0, 0])
    assert poly_eval(Poly(F2, (0, 0, 1)), shift).is_zero


def test_poly_eval_is_multiplicative():
    rng = random.Random(31)
    f = get_field(4)
    m = rand_matrix(rng, f, 4, 4)
    a = Poly(f, [rng.randrange(4) for _ in range(4)])
    b = Poly(f, [rng.randrange(4) for _ in range(3)])
    assert poly_eval(a * b, m) == poly_eval(a, m) * poly_eval(b, m)


def test_inverse_examples():
    eye = Matrix.identity(F5, 4)
    assert eye.inverse() == eye
    swap = Matrix(F2, 2, 2, [0, 1, 1, 0])
    assert swap.inverse() == swap
    m = Matrix(F5, 2, 2, [2, 1, 1, 2])
    assert m * m.inverse() == Matrix.identity(F5, 2)
    with pytest.raises(SingularError):
        Matrix(F2, 2, 2, [1, 1, 1, 1]).inverse()


def test_direct_sum():
    a = Matrix.diagonal(F3, [1])
    b = Matrix.diagonal(F3, [2])
    assert direct_sum([a, b]) == Matrix.diagonal(F3, [1, 2])

    shift2 = Matrix(F2, 2, 2, [0, 1, 0, 0])
    shift1 = Matrix.zero(F2, 1, 1)
    total = direct_sum([shift2, shift1])
    assert total == Matrix(F2, 3, 3, [0, 1, 0, 0, 0, 0, 0, 0, 0])

    empty = direct_sum([], field=F2)
    assert (empty.nrows, empty.ncols) == (0, 0)
    assert empty.charpoly() == Poly.one(F2)


def test_direct_sum_charpoly_multiplies():
    rng = random.Random(37)
    for q in (2, 5):
        f = get_field(q)
        a = rand_matrix(rng, f, 3, 3)
        b = rand_matrix(rng, f, 2, 2)
        assert direct_sum([a, b]).charpoly() == a.charpoly() * b.charpoly()


def test_complete_invertible():
    m = complete_invertible(F2, [(1, 0)], 2, mode="columns")
    assert m.col(0) == (1, 0)
    assert m.rank() == 2

    basis = [(1, 0), (0, 1)]
    assert complete_invertible(F2, basis, 2, mode="rows") == Matrix.identity(F2, 2)

    with pytest.raises(DependentPrefixError):
        complete_invertible(F2, [(1, 1), (1, 1)], 2, mode="columns")
    with pytest.raises(DependentPrefixError):
        complete_invertible(F2, [(1, 0), (0, 1), (1, 1)], 2, mode="rows")


def test_complete_invertible_preserves_prefix_on_random_input():
    rng = random.Random(41)
    for q in (2, 3, 5):
        f = get_field(q)
        for _ in range(10):
            n = rng.randint(1, 6)
            k = rng.randint(1, n)
            vecs = []
            while len(vecs) < k:
                v = tuple(rng.randrange(q) for _ in range(n))
                probe = vecs + [v]
                if Matrix(f, len(probe), n, [x for w in probe for x in w]).rank() == len(probe):
                    vecs.append(v)
            for mode in ("rows", "columns"):
                m = complete_invertible(f, vecs, n, mode=mode)
                assert m.rank() == n
                for i, v in enumerate(vecs):
                    assert (m.row(i) if mode == "rows" else m.col(i)) == v


def test_companion_matrix_shape():
    p = Poly(F5, (3, 2, 1))
    comp = companion_matrix(p)
    assert comp.rows() == [(0, 1), (2, 3)]
    assert comp.charpoly() == p


def test_matrix_shape_validation():
    with pytest.raises(SizeMismatchError):
        Matrix(F2, 2, 2, [1, 0, 0])
    with pytest.raises(SizeMismatchError):
        Matrix.identity(F2, 2) * Matrix.zero(F2, 3, 3)
    with pytest.raises(ValueError):
        Matrix(F2, 1, 1, [7])


def test_transpose_and_weight():
    m = Matrix(F5, 2, 3, [1, 0, 2, 0, 0, 3])
    assert m.transpose() == Matrix(F5, 3, 2, [1, 0, 0, 0, 2, 3])
    assert m.weight() == 3
    assert m.transpose().weight() == 3


# Fields that take the byte-packed elimination, then fields that keep the
# list loop: odd-characteristic extension, p >= 128, q > 256.
PACKED_ORDERS = (2, 4, 16, 256, 5, 127)
LIST_ORDERS = (9, 131, 1024)
SHAPES = ("no rows", "no columns", "all zero", "tall", "wide", "square", "rank deficient")


@st.composite
def kernel_matrices(draw):
    f = get_field(draw(st.sampled_from(PACKED_ORDERS + LIST_ORDERS)))
    shape = draw(st.sampled_from(SHAPES))
    short, long = draw(st.integers(1, 4)), draw(st.integers(5, 8))
    nrows, ncols = {"no rows": (0, short), "no columns": (short, 0), "tall": (long, short),
                    "wide": (short, long)}.get(shape, (long, long))

    def entries(count):
        entry = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
        return draw(st.lists(entry, min_size=count, max_size=count))

    if shape == "all zero":
        return Matrix.zero(f, nrows, ncols)
    if shape == "rank deficient":
        inner = draw(st.integers(0, nrows - 1))
        return (Matrix(f, nrows, inner, entries(nrows * inner))
                * Matrix(f, inner, ncols, entries(inner * ncols)))
    return Matrix(f, nrows, ncols, entries(nrows * ncols))


def kernel_results(m):
    inverse = None
    if m.is_square:
        try:
            inverse = m.inverse()
        except SingularError:
            pass
    return m.rref(), m.rank(), m.nullspace(), inverse


def test_packed_elimination_covers_exactly_the_small_fields():
    for q in PACKED_ORDERS:
        assert _packed._rref(get_field(q), 1, 1, (1,)) is not None
    for q in LIST_ORDERS:
        assert _packed._rref(get_field(q), 1, 1, (1,)) is None


@settings(max_examples=60, deadline=None)
@given(kernel_matrices())
def test_kernel_matches_list_loop(m):
    # the list loop in Matrix.rref is the reference for every field
    results = kernel_results(m)
    with mock.patch.object(_packed, "_rref", lambda *args: None):
        reference = kernel_results(m)
    assert results == reference
