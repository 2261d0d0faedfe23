"""Exact linear algebra: elimination, characteristic polynomials, completion."""

import random

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
from intertwine.matrices import _hessenberg
from support import get_field, list_loops, rand_matrix, reference_charpoly

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
    m = complete_invertible(F2, [(1, 0)], 2).transpose()
    assert m.col(0) == (1, 0)
    assert m.rank() == 2

    basis = [(1, 0), (0, 1)]
    assert complete_invertible(F2, basis, 2) == Matrix.identity(F2, 2)

    with pytest.raises(DependentPrefixError):
        complete_invertible(F2, [(1, 1), (1, 1)], 2)
    with pytest.raises(DependentPrefixError):
        complete_invertible(F2, [(1, 0), (0, 1), (1, 1)], 2)


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
            m = complete_invertible(f, vecs, n)
            assert m.rank() == n
            for i, v in enumerate(vecs):
                assert m.row(i) == v


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
    # a bool is an int, but not an element encoding
    for entry in (True, False, 1.0):
        with pytest.raises(ValueError):
            Matrix(F2, 1, 1, [entry])
    # a bool or float size would otherwise pass the entry count check
    for nrows, ncols, entries in ((True, True, [0]), (1, True, [0]), (2.0, 1, [0, 0])):
        with pytest.raises(SizeMismatchError):
            Matrix(F2, nrows, ncols, entries)


@pytest.mark.parametrize("build, size", [
    (lambda: Matrix.identity(F2, -1), "-1"),
    (lambda: Matrix.scalar(F5, -1, 2), "-1"),
    (lambda: Matrix.identity(F2, True), "True"),
    (lambda: Matrix.identity(F2, 2.0), "2.0"),
    (lambda: Matrix.zero(F2, 2.0, 2.0), "2.0"),
    (lambda: Matrix.zero(F2, -1, -1), "-1"),
    (lambda: Matrix(F2, -1, -1, [0]), "-1"),
])
def test_bad_sizes_are_named(build, size):
    with pytest.raises(SizeMismatchError, match=f"matrix sizes must be .*, got {size}$"):
        build()


def test_indices_stay_inside_the_matrix():
    m = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    assert [m[i, j] for i in range(2) for j in range(2)] == [1, 2, 3, 4]
    assert Matrix.unit(F5, 2, 3, 1, 2).entries == (0, 0, 0, 0, 0, 1)
    # no negative index wraps, no column index spills into the next row
    for i, j in ((0, 2), (0, -1), (-1, 0), (2, 0), (5, 5)):
        with pytest.raises(IndexError):
            m[i, j]
        with pytest.raises(IndexError):
            Matrix.unit(F5, 2, 2, i, j)
    with pytest.raises(IndexError):
        Matrix.unit(F5, 0, 0, 0, 0)


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
    # byte loops return bytes and list loops lists: elimination, the product,
    # the Hessenberg reduction and ``_row`` take byte rows over the same fields
    for q in PACKED_ORDERS + LIST_ORDERS:
        field = get_field(q)
        byte_rows = q in PACKED_ORDERS
        row = _packed._row(field, (1,))
        assert isinstance(row, bytes) == byte_rows
        assert isinstance(row, list) != byte_rows
        assert isinstance(_packed._rref(field, 1, 1, (1,))[0], bytes) == byte_rows
        assert isinstance(_packed._matmul(field, 1, 1, 1, (1,), [row]), bytes) == byte_rows
        assert isinstance(_packed._hessenberg(field, 1, (1,), True)[1], bytes) == byte_rows


@pytest.mark.parametrize("q", PACKED_ORDERS + LIST_ORDERS + (25, 49, 512))
def test_format_alone_decides_byte_rows(q):
    # LIST_ORDERS are also the fields whose polynomials keep the list loops
    field = get_field(q)
    assert (_packed._format(field) is None) == (q not in PACKED_ORDERS)


@settings(max_examples=60, deadline=None)
@given(kernel_matrices())
def test_kernel_matches_list_loop(m):
    # the list loop of _packed._rref is the reference for every field
    results = kernel_results(m)
    with list_loops():
        reference = kernel_results(m)
    assert results == reference


# Characteristic polynomial against the Berkowitz reference.  Besides dense
# matrices, the shapes below leave zero entries under the subdiagonal, so the
# Hessenberg reduction must pivot or skip a column and the recurrence meets
# zero subdiagonal entries.
CHARPOLY_ORDERS = (2, 4, 16, 256, 5, 127, 9, 1024, 131)
CHARPOLY_SHAPES = ("dense", "zero", "nilpotent", "derogatory", "block diagonal")


def permutation_matrix(f, perm):
    n = len(perm)
    ent = [0] * (n * n)
    for i, j in enumerate(perm):
        ent[i * n + j] = 1
    return Matrix(f, n, n, ent)


@st.composite
def charpoly_matrices(draw):
    f = get_field(draw(st.sampled_from(CHARPOLY_ORDERS)))
    shape = draw(st.sampled_from(CHARPOLY_SHAPES))
    n = draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))

    def square(size):
        return Matrix(f, size, size, draw(st.lists(entry, min_size=size * size,
                                                   max_size=size * size)))

    if shape == "dense":
        m = square(n)
    elif shape == "zero":
        m = Matrix.zero(f, n, n)
    elif shape == "nilpotent":
        m = square(n)
        m = Matrix(f, n, n, [v if j > i else 0 for i, row in enumerate(m.rows())
                             for j, v in enumerate(row)])
    elif shape == "derogatory":
        # a repeated block shares its minimal polynomial, so the matrix is
        # not cyclic
        block = square(draw(st.integers(1, 3)))
        m = direct_sum([block] * draw(st.integers(1, 2)) + [square(draw(st.integers(0, 1)))])
    else:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        m = direct_sum([square(size) for size in sizes])
    if draw(st.booleans()):
        perm = permutation_matrix(f, draw(st.permutations(range(m.nrows))))
        m = perm * m * perm.transpose()
    return m


@settings(max_examples=150, deadline=None)
@given(charpoly_matrices())
def test_charpoly_matches_berkowitz(m):
    assert m.charpoly() == reference_charpoly(m)



def list_hessenberg(m, transform):
    with list_loops():
        return _hessenberg(m, transform)


@settings(max_examples=100, deadline=None)
@given(charpoly_matrices())
def test_hessenberg_form_is_similar(m):
    # the shared reduction of charpoly and the intertwiner solver; every
    # byte field takes the packed path
    h, p = _hessenberg(m, transform=True)
    assert _hessenberg(m, transform=False) == list_hessenberg(m, False) == (h, None)
    assert (h, p) == list_hessenberg(m, True)
    n = m.nrows
    assert all(not h[i][j] for i in range(n) for j in range(i - 1))
    big_h = Matrix(m.field, n, n, [v for row in h for v in row])
    assert p.rank() == n
    assert p * m == big_h * p


@pytest.mark.parametrize("q, n", [(127, 40), (3, 40), (3, 130)])
def test_packed_hessenberg_reduces_long_dense_sums(q, n):
    # Row 0 is all ones and, after row 1 = (1, 0, ..., 0) is the pivot of
    # column 0, every multiplier is p - 1, so byte 0 of the new column 1 sums
    # 1 + (n - 2)(p - 1), past 255 when n - 2 > 255 // (p - 1).
    f = get_field(q)
    rng = random.Random(q * n)
    ent = [1] * n + [1] + [0] * (n - 1)
    for _ in range(n - 2):
        ent += [q - 1] + [rng.randrange(q) for _ in range(n - 1)]
    m = Matrix(f, n, n, ent)
    for transform in (False, True):
        assert _hessenberg(m, transform) == list_hessenberg(m, transform)
    dense = rand_matrix(rng, f, n, n)
    assert _hessenberg(dense, True) == list_hessenberg(dense, True)


@pytest.mark.parametrize("q", [2, 7, 16])
def test_charpoly_on_the_packed_hessenberg(q):
    f = get_field(q)
    m = rand_matrix(random.Random(q), f, 24, 24)
    assert m.charpoly() == reference_charpoly(m)

def test_charpoly_of_permuted_block_matrices():
    # zero columns below the subdiagonal at every stage, and pivots away from
    # the subdiagonal after the permutation
    rng = random.Random(43)
    for q in CHARPOLY_ORDERS:
        f = get_field(q)
        blocks = [rand_matrix(rng, f, size, size) for size in (1, 3, 2, 1)]
        m = direct_sum(blocks + [Matrix.zero(f, 2, 2)])
        perm = list(range(m.nrows))
        rng.shuffle(perm)
        p = permutation_matrix(f, perm)
        expected = Poly.one(f)
        for b in blocks:
            expected = expected * reference_charpoly(b)
        expected = expected * Poly(f, (0, 0, 1))
        assert (p * m * p.transpose()).charpoly() == m.charpoly() == expected


def list_matmul(a, b):
    with list_loops():
        return a * b


@settings(max_examples=60, deadline=None)
@given(kernel_matrices(), st.integers(0, 6), st.data())
def test_matmul_matches_list_loop(a, k, data):
    f = a.field
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
    b = Matrix(f, a.ncols, k, data.draw(st.lists(entry, min_size=a.ncols * k,
                                                  max_size=a.ncols * k)))
    assert a * b == list_matmul(a, b)


@pytest.mark.parametrize("q, m", [(3, 300), (5, 70), (127, 3), (127, 40)])
def test_matmul_reduces_long_dense_sums(q, m):
    # the first row of a and the first column of b are all p - 1, so a byte
    # of the sum would pass 255 after 255 // (p - 1) terms without a reduction
    f = get_field(q)
    rng = random.Random(q * m)
    a = Matrix(f, 2, m, [q - 1] * m + [rng.randrange(q) for _ in range(m)])
    b = Matrix(f, m, 3, [v for _ in range(m) for v in (q - 1, rng.randrange(q), q - 1)])
    assert m > 255 // (q - 1)
    assert a * b == list_matmul(a, b)
    assert (a * b)[0, 0] == m % q


@pytest.mark.parametrize("p", [2, 3, 7, 131])
def test_charpoly_and_rank_match_sympy(p):
    sympy_matrices = pytest.importorskip("sympy.polys.matrices")
    domain = pytest.importorskip("sympy").GF(p)
    f = get_field(p)
    rng = random.Random(p)
    for _ in range(12):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = rand_matrix(rng, f, nrows, ncols)
        if rng.random() < 0.3:  # rank deficient
            inner = rng.randint(0, min(nrows, ncols) - 1)
            m = rand_matrix(rng, f, nrows, inner) * rand_matrix(rng, f, inner, ncols)
        ref = sympy_matrices.DomainMatrix([[domain(v) for v in row] for row in m.rows()],
                                          (nrows, ncols), domain)
        assert m.rank() == ref.rank()
        if nrows == ncols:
            expected = [int(c) % p for c in reversed(ref.charpoly())]
            assert list(m.charpoly().coeffs) == expected
