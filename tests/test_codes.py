"""Kernel oracle, dimension formula, distance enumeration, bounds, conjugation."""

import random
from functools import reduce
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwine import (
    BudgetExceededError,
    FiniteField,
    IntertwiningCode,
    LengthMismatchError,
    Matrix,
    Partition,
    Poly,
    SingularError,
    SizeMismatchError,
    ZeroCodeError,
    complete_invertible,
    conjugate_code,
    construct_code,
    dimension_formula,
    direct_sum,
    generalized_jordan_matrix,
    intertwiner_basis,
    is_irreducible,
    is_zero_code,
    min_distance,
    nilpotent_matrix,
    rank_bounds,
    spectral_bounds,
    syndrome,
)
from intertwine import _packed
from intertwine.codes import _generators
from intertwine.matrices import _hessenberg
from intertwine.polys import encoding
from support import (
    get_field,
    list_loops,
    min_sum,
    planted_matrix,
    rand_invertible,
    rand_matrix,
    reference_dimension_formula,
    reference_intertwiner_basis,
    reference_min_distance,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


def brute_min_distance(code, projective=False):
    """Independent oracle: materialize every nonzero codeword via codeword(),
    or with projective=True those whose leading nonzero coefficient is 1."""
    q, k = code.field.q, code.k
    best = None
    for j in range(k):
        for head in ([1] if projective else range(1, q)):
            for tail in product(range(q), repeat=k - 1 - j):
                w = code.codeword([0] * j + [head, *tail]).weight()
                best = w if best is None else min(best, w)
    return best


def embed(matrix, big):
    """Entrywise reinterpretation over an extension field sharing encodings."""
    return Matrix(big, matrix.nrows, matrix.ncols, matrix.entries)


def test_intertwiner_basis_examples():
    one = Matrix.zero(F2, 1, 1)
    code = intertwiner_basis([one], [one])
    assert code.k == 1 and code.basis == (Matrix(F2, 1, 1, [1]),)

    full = intertwiner_basis([Matrix.zero(F3, 2, 2)], [Matrix.zero(F3, 3, 3)])
    assert full.k == 6 and full.n == 6

    assert intertwiner_basis([Matrix.identity(F3, 2)], [Matrix.zero(F3, 2, 2)]).k == 0


def test_intertwiner_basis_is_canonical():
    rng = random.Random(57)
    a = rand_matrix(rng, F3, 3, 3)
    b = rand_matrix(rng, F3, 3, 3)
    code = intertwiner_basis([a], [b])
    # rebuilding the code from a shuffled, rescaled basis gives the same object
    mats = list(code.basis)
    rng.shuffle(mats)
    mats = [m.scale(2) for m in mats]
    assert IntertwiningCode(F3, 3, 3, mats) == code
    for x in code.basis:
        assert (a * x - x * b).is_zero


def test_code_shapes_must_be_integers():
    # a bool or float shape would serialize as a code that the parser rejects
    one = Matrix.unit(F5, 1, 1, 0, 0)
    with pytest.raises(SizeMismatchError):
        IntertwiningCode(F5, True, True, [one])
    with pytest.raises(SizeMismatchError):
        IntertwiningCode(F5, 2.0, 2, [])
    with pytest.raises(SizeMismatchError):
        IntertwiningCode(F5, 2, 0, [])
    assert IntertwiningCode(F5, 1, 1, [one]).k == 1


def test_multi_pair_intersection():
    rng = random.Random(59)
    for _ in range(20):
        a1, a2 = (rand_matrix(rng, F2, 3, 3) for _ in range(2))
        b1, b2 = (rand_matrix(rng, F2, 3, 3) for _ in range(2))
        joint = intertwiner_basis([a1, a2], [b1, b2])
        k1 = intertwiner_basis([a1], [b1]).k
        k2 = intertwiner_basis([a2], [b2]).k
        assert joint.k <= min(k1, k2)
        for x in joint.basis:
            assert all(m.is_zero for m in syndrome([a1, a2], [b1, b2], x))
    with pytest.raises(LengthMismatchError):
        intertwiner_basis([Matrix.zero(F2, 1, 1)], [])


# The solver's row formats: one byte per entry (characteristic 2 with
# q <= 256, primes below 128) and lists (every other field).
SOLVER_ORDERS = (2, 4, 8, 256, 3, 5, 7, 127, 9, 27, 131, 1024)
# "scalar" closes a Hessenberg block at every column; "last column" is an
# unreduced Hessenberg matrix but for its last subdiagonal entry.
PAIR_KINDS = ("random", "zero", "scalar", "derogatory", "cyclic", "block diagonal",
              "last column")


@st.composite
def matrices_of_kind(draw, f, n):
    """An n x n matrix whose eigenvalues come from a few small scalars, so
    that random pairs often share some and have a nonzero code."""
    kind = draw(st.sampled_from(PAIR_KINDS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    small = st.integers(0, min(f.q, 3) - 1)
    if kind == "random":
        return rand_matrix(rng, f, n, n)
    if kind == "zero":
        return Matrix.zero(f, n, n)
    if kind == "scalar" or n == 1:
        return Matrix.scalar(f, n, draw(small))
    if kind == "derogatory":
        # one eigenvalue with two to n Jordan blocks, conjugated: B's
        # Hessenberg form then closes a block per Jordan block, and when A
        # shares the eigenvalue the diagonal p(A) of each is singular
        cuts = sorted(rng.sample(range(1, n), draw(st.integers(1, n - 1))))
        parts = sorted((hi - lo for lo, hi in zip([0, *cuts], [*cuts, n])), reverse=True)
        return planted_matrix(rng, f, [((f.neg(draw(small)), 1), parts)])
    if kind == "cyclic":
        # one Jordan block per eigenvalue, conjugated
        first = draw(st.integers(1, n))
        c = draw(small)
        comps = [((f.neg(c), 1), [first])]
        if first < n:
            comps.append(((f.neg(int(c == 0)), 1), [n - first]))
        return planted_matrix(rng, f, comps)
    if kind == "block diagonal":
        first = draw(st.integers(1, n - 1))
        return direct_sum([rand_matrix(rng, f, first, first),
                           Matrix.scalar(f, n - first, draw(small))])
    ent = [rng.randrange(f.q) if j >= i - 1 else 0 for i in range(n) for j in range(n)]
    for i in range(1, n):
        ent[i * n + i - 1] = 0 if i == n - 1 else rng.randrange(1, f.q)
    return Matrix(f, n, n, ent)


@pytest.mark.parametrize("q", SOLVER_ORDERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_intertwiner_basis_matches_reference(q, data):
    f = get_field(q)
    r, s = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    pairs = data.draw(st.integers(1, 3))
    a_list = [data.draw(matrices_of_kind(f, r)) for _ in range(pairs)]
    b_list = [data.draw(matrices_of_kind(f, s)) for _ in range(pairs)]
    assert intertwiner_basis(a_list, b_list) == reference_intertwiner_basis(a_list, b_list)


@pytest.mark.parametrize("q, r, s", [
    *(pytest.param(q, 8, 6, id=str(q)) for q in (5, 127, 9, 131, 1024)),
    pytest.param(5, 16, 16, id="5-16x16"),
    pytest.param(9, 10, 10, id="9-10x10"),
])
def test_intertwiner_basis_of_a_constructed_pair(q, r, s):
    # B is conjugate to diag(zetas, beta, ..., beta), so its Hessenberg form
    # closes a block at almost every column, and the conditions of each can
    # involve the unknowns of any earlier block
    cert = construct_code(r, s, 2, get_field(q))
    code = intertwiner_basis([cert.A], [cert.B])
    assert code.k == 2
    assert code == reference_intertwiner_basis([cert.A], [cert.B])


@pytest.mark.parametrize("q", [7, 16, 131])
def test_intertwiner_basis_of_a_shared_eigenvalue_pair(q):
    # 0 has 10 Jordan blocks in A and 9 in B: B's Hessenberg form closes a
    # block per Jordan block, each with a singular diagonal p(A), so the
    # conditions left over in one block constrain the unknowns of earlier ones
    f = get_field(q)
    rng = random.Random(q)
    a = planted_matrix(rng, f, [((0, 1), [2, 2, 2, 2, 1, 1, 1, 1, 1, 1]), ((f.neg(1), 1), [3, 3])])
    b = planted_matrix(rng, f, [((0, 1), [2, 2, 1, 1, 1, 1, 1, 1, 1]), ((f.neg(2), 1), [4, 2])])
    code = intertwiner_basis([a], [b])
    assert code.k == 98
    assert code == reference_intertwiner_basis([a], [b])


def test_intertwiner_basis_reduces_long_column_sums():
    # B is upper Hessenberg with no zero entry on or above the subdiagonal,
    # so H = B and column 43's sum has 45 nonzero terms, past the 42 that a
    # GF(7) byte sum holds before it must be reduced
    f, s = FiniteField(7), 44
    assert _packed._format(f)[2] == 42
    rng = random.Random(7)
    while True:
        b = Matrix(f, s, s, [rng.randrange(1, 7) if j >= i - 1 else 0
                             for i in range(s) for j in range(s)])
        lam = next((c for c in range(7) if (b - Matrix.scalar(f, s, c)).rank() < s), None)
        if lam is not None:
            break
    assert _hessenberg(b, transform=True)[0] == [list(row) for row in b.rows()]
    a = Matrix(f, 2, 2, [lam, 1, 0, lam])
    code = intertwiner_basis([a], [b])
    assert code.k >= 1
    assert code == reference_intertwiner_basis([a], [b])


def test_second_pair_shrinks_the_code():
    rng = random.Random(113)
    for q in (2, 5, 9):
        f = get_field(q)
        a = planted_matrix(rng, f, [((0, 1), [2, 1]), ((1, 1), [1])])
        b = planted_matrix(rng, f, [((0, 1), [3]), ((1, 1), [1, 1])])
        zero_a, zero_b = Matrix.zero(f, 4, 4), Matrix.zero(f, 5, 5)
        first = intertwiner_basis([zero_a], [zero_b])
        both = intertwiner_basis([zero_a, a], [zero_b, b])
        assert first.k == 20 and both.k == 5
        assert both == intertwiner_basis([a], [b]) == reference_intertwiner_basis([a], [b])
        assert intertwiner_basis([a, zero_a], [b, zero_b]) == both
        # a third pair that is one of the first two changes nothing
        assert intertwiner_basis([zero_a, a, a], [zero_b, b, b]) == both


def _irreducible(f, degree):
    """The least monic irreducible of the degree, by encoding."""
    for code in range(f.q**degree):
        coeffs = [code // f.q**i % f.q for i in range(degree)] + [1]
        if is_irreducible(Poly(f, coeffs)):
            return tuple(coeffs)
    raise AssertionError("no irreducible")


# (q, components of A, components of B) at the sizes of the spectral
# benchmark; each component is (irreducible, Jordan block sizes), and the
# degree-2 irreducible is written as None.
SPECTRAL_SIZE_PAIRS = [
    (2, [((0, 1), [4, 3, 1]), ((1, 1), [5, 3]), (None, [3, 2, 2]), ((1, 1, 0, 1), [2])],
     [((0, 1), [3, 3, 2, 1]), ((1, 1), [6]), (None, [4, 1]), ((1, 0, 1, 1), [2, 1])]),
    (7, [((0, 1), [3, 2]), ((1, 1), [4, 3]), (None, [3, 3])],
     [((0, 1), [4, 2, 2, 1]), ((1, 1), [5]), (None, [4, 2, 1]), ((2, 1), [6, 6])]),
    (16, [((0, 1), [4, 4, 2]), ((1, 1), [3, 3, 3]), (None, [3, 2]), ((2, 1), [3])],
     [((0, 1), [5, 3, 1]), ((1, 1), [2, 2, 2, 1]), (None, [4, 2])]),
    (9, [((0, 1), [3, 1]), ((1, 1), [2, 2]), (None, [2])],
     [((0, 1), [2, 2]), ((1, 1), [3]), (None, [1]), ((2, 1), [1])]),
]


@pytest.mark.parametrize("q, a_comps, b_comps", SPECTRAL_SIZE_PAIRS,
                         ids=[str(q) for q, _, _ in SPECTRAL_SIZE_PAIRS])
def test_closed_forms_match_the_oracle_at_spectral_sizes(q, a_comps, b_comps):
    f = get_field(q)
    quad = _irreducible(f, 2)
    a_comps = [(coeffs or quad, parts) for coeffs, parts in a_comps]
    b_comps = [(coeffs or quad, parts) for coeffs, parts in b_comps]
    rng = random.Random(q)
    a = planted_matrix(rng, f, a_comps)
    b = planted_matrix(rng, f, b_comps)
    assert q == 9 or 24 <= min(a.nrows, b.nrows) and max(a.nrows, b.nrows) <= 40
    # per shared irreducible p: deg(p) * sum of min(lambda_i, mu_j) for the
    # dimension, deg(p) * (blocks * blocks, weight * weight) for the bounds
    mu_of = {coeffs: parts for coeffs, parts in b_comps}
    k = lo = hi = 0
    for coeffs, lam in a_comps:
        mu = mu_of.get(coeffs)
        if mu is not None:
            deg = len(coeffs) - 1
            k += deg * min_sum([Partition(lam), Partition(mu)])
            lo += deg * len(lam) * len(mu)
            hi += deg * sum(lam) * sum(mu)
    assert dimension_formula(a, b).total == k == intertwiner_basis([a], [b]).k
    assert spectral_bounds(a, b) == (lo, hi)
    assert lo <= k <= hi

def test_dimension_formula_examples():
    p = Poly(F2, (1, 1, 0, 1))
    a9 = generalized_jordan_matrix(p, Partition([3]))
    breakdown = dimension_formula(a9, a9)
    assert breakdown.total == 9
    assert len(breakdown.terms) == 1
    term = breakdown.terms[0]
    assert term.irr == p and term.contribution == 9
    assert term.lam == term.mu == Partition([3])

    n21 = nilpotent_matrix(F2, Partition([2, 1]))
    n2 = nilpotent_matrix(F2, Partition([2]))
    assert dimension_formula(n21, n2).total == 3

    empty = dimension_formula(Matrix.identity(F2, 2), Matrix.zero(F2, 2, 2))
    assert empty.total == 0 and empty.terms == ()


# (q, components of A, components of B), written as in SPECTRAL_SIZE_PAIRS:
# each side has irreducibles the other lacks, and the last two pairs are
# coprime.
SHARED_ONLY_PAIRS = [
    (2, [((0, 1), [2, 1]), ((1, 1, 0, 1), [1]), (None, [1])],
     [((0, 1), [3]), ((1, 0, 1, 1), [1]), (None, [2]), ((1, 1), [1])]),
    (5, [((0, 1), [2]), ((1, 1), [1, 1]), ((3, 1), [3])],
     [((1, 1), [2]), ((2, 1), [2]), (None, [1])]),
    (16, [((2, 1), [2, 2]), (None, [1])], [((2, 1), [3]), ((3, 1), [2])]),
    (9, [((0, 1), [2, 1]), (None, [1])], [((0, 1), [1, 1]), ((1, 1), [2])]),
    (3, [((0, 1), [2, 1])], [((1, 1), [2]), (None, [1])]),
    (7, [((1, 1), [1]), (None, [2, 1])], [((0, 1), [3])]),
]


@pytest.mark.parametrize("q, a_comps, b_comps", SHARED_ONLY_PAIRS,
                         ids=[str(q) for q, _, _ in SHARED_ONLY_PAIRS])
def test_shared_only_closed_form_matches_full_pairing(q, a_comps, b_comps):
    f = get_field(q)
    quad = _irreducible(f, 2)
    rng = random.Random(q)
    a = planted_matrix(rng, f, [(coeffs or quad, parts) for coeffs, parts in a_comps])
    b = planted_matrix(rng, f, [(coeffs or quad, parts) for coeffs, parts in b_comps])
    breakdown = dimension_formula(a, b)
    assert breakdown == reference_dimension_formula(a, b)
    assert breakdown.total == intertwiner_basis([a], [b]).k
    shared = {coeffs or quad for coeffs, _ in a_comps} & {coeffs or quad for coeffs, _ in b_comps}
    assert [t.irr.coeffs for t in breakdown.terms] == sorted(
        shared, key=lambda c: (len(c), encoding(Poly(f, c))))
    if not shared:
        assert breakdown.total == 0 and breakdown.terms == ()
        assert is_zero_code(a, b)
    # a matrix against itself shares every irreducible
    assert dimension_formula(a, a) == reference_dimension_formula(a, a)
    assert dimension_formula(a, a).total == intertwiner_basis([a], [a]).k


def test_shared_only_closed_form_on_random_and_empty_pairs():
    rng = random.Random(113)
    for q in (2, 3, 4, 5, 7, 9):
        field = get_field(q)
        for _ in range(8):
            r, s = rng.randint(1, 5), rng.randint(1, 5)
            a = rand_matrix(rng, field, r, r)
            b = rand_matrix(rng, field, s, s)
            assert dimension_formula(a, b) == reference_dimension_formula(a, b)
            assert dimension_formula(a, b).total == intertwiner_basis([a], [b]).k
        # the 0x0 matrix has characteristic polynomial 1 and no component
        empty = Matrix.zero(field, 0, 0)
        for m in (empty, a):
            for pair in ((empty, m), (m, empty)):
                assert dimension_formula(*pair) == reference_dimension_formula(*pair)
                assert dimension_formula(*pair).terms == ()


def test_is_zero_code_examples():
    assert is_zero_code(Matrix.identity(F2, 2), Matrix.zero(F2, 2, 2))
    n2 = nilpotent_matrix(F2, Partition([2]))
    assert not is_zero_code(n2, n2)
    comp = Matrix(F2, 2, 2, [0, 1, 1, 1])  # companion of t^2 + t + 1
    assert is_zero_code(comp, Matrix.identity(F2, 2))


def test_formula_matches_oracle_over_larger_extensions():
    rng = random.Random(109)
    for q in (8, 27):
        field = get_field(q)
        for _ in range(10):
            r, s = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_matrix(rng, field, r, r)
            b = rand_matrix(rng, field, s, s)
            assert dimension_formula(a, b).total == intertwiner_basis([a], [b]).k


def test_zero_test_biconditional():
    rng = random.Random(61)
    for q in (2, 3, 4, 5):
        field = get_field(q)
        for _ in range(25):
            r, s = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_matrix(rng, field, r, r)
            b = rand_matrix(rng, field, s, s)
            assert is_zero_code(a, b) == (intertwiner_basis([a], [b]).k == 0)


def test_min_distance_examples():
    full = intertwiner_basis([Matrix.zero(F2, 2, 2)], [Matrix.zero(F2, 2, 2)])
    assert full.k == 4
    assert F2.q**full.k - 1 == 15
    assert min_distance(full) == 1

    diag = IntertwiningCode(F3, 2, 2, [Matrix.unit(F3, 2, 2, 0, 0), Matrix.unit(F3, 2, 2, 1, 1)])
    assert min_distance(diag) == 1


def test_min_distance_matches_brute_oracle():
    rng = random.Random(67)
    for q in (2, 3, 4, 5):
        field = get_field(q)
        for _ in range(10):
            r, s = rng.randint(1, 3), rng.randint(1, 3)
            a = rand_matrix(rng, field, r, r)
            b = rand_matrix(rng, field, s, s)
            code = intertwiner_basis([a], [b])
            if code.k == 0 or field.q**code.k > 3000:
                continue
            assert min_distance(code) == brute_min_distance(code)


def test_min_distance_errors():
    zero = intertwiner_basis([Matrix.identity(F2, 2)], [Matrix.zero(F2, 2, 2)])
    with pytest.raises(ZeroCodeError):
        min_distance(zero)
    full = intertwiner_basis([Matrix.zero(F2, 2, 2)], [Matrix.zero(F2, 2, 2)])
    with pytest.raises(BudgetExceededError) as exc:
        min_distance(full, budget=3)
    assert (exc.value.needed, exc.value.budget) == (15, 3)


def test_min_distance_budget_boundary():
    code = intertwiner_basis([Matrix.zero(F3, 1, 1)], [Matrix.zero(F3, 2, 2)])
    needed = F3.q**code.k - 1
    assert min_distance(code, budget=needed) == 1
    with pytest.raises(BudgetExceededError) as exc:
        min_distance(code, budget=needed - 1)
    assert (exc.value.needed, exc.value.budget) == (needed, needed - 1)


@pytest.mark.parametrize("q, n, k", [(9, 8, 5), (16, 7, 4), (16, 10, 4)])
def test_min_distance_of_reed_solomon_codes(q, n, k):
    # the rows x^j at the n distinct points 0 .. n - 1 span a Reed-Solomon
    # code, d = n - k + 1, with one information set per k positions; so the
    # scan must reach level 3 on these, 640 or 900 coefficient rows in more
    # than one batch of products, on one generator (n < 2k) or two
    field = get_field(q)
    rows = [[1] * n]
    for _ in range(k - 1):
        rows.append([field.mul(x, v) for x, v in zip(range(n), rows[-1])])
    code = IntertwiningCode(field, 1, n, [Matrix(field, 1, n, row) for row in rows])
    assert min_distance(code) == n - k + 1
    with list_loops():
        assert min_distance(code) == n - k + 1


def test_min_distance_in_the_last_batch():
    # systematic (I | P) over GF(16), n = 7 < 2k, with row 1 of P set so that
    # coefficients (0, 1, 15, 15) give a codeword of weight 3.  For this seed
    # it is the only codeword of weight 3 or less up to scalars, and the last
    # of level 3's 900 coefficient rows, so only the fourth batch forms it.
    field = get_field(16)
    rng = random.Random(8)
    p = [[rng.randrange(1, 16) for _ in range(3)] for _ in range(4)]
    p[1] = [field.add(field.mul(15, x), field.mul(15, y)) for x, y in zip(p[2], p[3])]
    rows = [[int(i == j) for j in range(4)] + p[i] for i in range(4)]
    code = IntertwiningCode(field, 1, 7, [Matrix(field, 1, 7, row) for row in rows])
    assert code.codeword([0, 1, 15, 15]).weight() == 3
    assert min_distance(code) == reference_min_distance(code) == 3


# Both row formats that ``_packed._format`` decides: byte rows (2, 4, 8, 256,
# 3, 5, 7, 127) and list loops (9, 27, 131, 1024).
SCAN_ORDERS = (2, 4, 8, 256, 3, 5, 7, 127, 9, 27, 131, 1024)


@st.composite
def scan_codes(draw, q):
    f = get_field(q)
    kind = draw(st.sampled_from(["random", "distance one", "full support", "planted",
                                 "vanishing"]))
    if kind in ("planted", "vanishing"):
        r, s = (3, 3) if kind == "planted" else (3, 4)
    else:
        r, s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # at most about 1100 projective codewords for the projective oracle
    kmax = max(k for k in (1, 2, 3) if k <= r * s and (q**k - 1) // (q - 1) <= 1100)
    k = draw(st.integers(1, kmax))
    nonzero = st.integers(1, q - 1)
    entry = nonzero if kind == "full support" else st.integers(0, q - 1)
    if kind == "planted":
        # systematic rows (I | P) with a P whose columns are orthogonal to
        # a = (1, a_2, .., a_k), all a_i nonzero: the codeword sum a_i b_i
        # is (a | 0) of weight k, with a nonzero coefficient on every row
        a = [1] + draw(st.lists(nonzero, min_size=k - 1, max_size=k - 1))
        cols = [draw(st.lists(entry, min_size=k - 1, max_size=k - 1)) for _ in range(r * s - k)]
        heads = [f.neg(reduce(f.add, map(f.mul, a[1:], col), 0)) for col in cols]
        rows = [[int(i == j) for j in range(k)] + [head if i == 0 else col[i - 1]
                                                   for head, col in zip(heads, cols)]
                for i in range(k)]
        return kind, IntertwiningCode(f, r, s, [Matrix(f, r, s, row) for row in rows])
    mats = [Matrix(f, r, s, draw(st.lists(entry, min_size=r * s, max_size=r * s)))
            for _ in range(k)]
    if kind == "vanishing":
        # the basis vanishes on the dead positions, which never join an
        # information set; at least 2k live ones leave room for two sets
        dead = draw(st.sets(st.integers(0, r * s - 1), min_size=1, max_size=r * s - 2 * k))
        mats = [Matrix(f, r, s, [0 if i in dead else v for i, v in enumerate(m.entries)])
                for m in mats]
    if kind == "distance one":
        mats[0] = Matrix.unit(f, r, s, draw(st.integers(0, r - 1)), draw(st.integers(0, s - 1)))
    return kind, IntertwiningCode(f, r, s, mats)


@pytest.mark.parametrize("q", SCAN_ORDERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_min_distance_matches_reference_scans(q, data):
    kind, code = data.draw(scan_codes(q))
    if code.k == 0:
        return
    d = min_distance(code)
    assert d == brute_min_distance(code, projective=True)
    # disjoint information sets of k columns fit among the nonzero columns
    live = sum(any(m.entries[j] for m in code.basis) for j in range(code.n))
    gens = _generators(code.field, code.k, code.n, [m.entries for m in code.basis])
    assert 1 <= len(list(islice(gens, live // code.k + 1))) <= live // code.k
    with list_loops():
        assert min_distance(code) == d
    if q**code.k <= 4096:
        assert d == reference_min_distance(code) == brute_min_distance(code)
    if kind == "distance one":
        assert d == 1
    if kind == "full support" and code.k == 1:
        assert d == code.n
    if kind == "planted":
        assert d <= code.k


def test_bounds_examples():
    rs = (3, 4)
    lo, hi = rank_bounds(Matrix.zero(F5, rs[0], rs[0]), Matrix.zero(F5, rs[1], rs[1]))
    assert (lo, hi) == (12, 12)

    n21 = nilpotent_matrix(F2, Partition([2, 1]))
    n2 = nilpotent_matrix(F2, Partition([2]))
    assert rank_bounds(n21, n2) == (2, 3)
    assert intertwiner_basis([n21], [n2]).k == 3

    rng = random.Random(71)
    a = rand_invertible(rng, F5, 3)
    b = rand_invertible(rng, F5, 2)
    assert rank_bounds(a, b) == (0, 6)

    n2 = nilpotent_matrix(F2, Partition([2]))
    assert spectral_bounds(n2, n2) == (1, 4)
    assert spectral_bounds(Matrix.identity(F2, 2), Matrix.zero(F2, 2, 2)) == (0, 0)
    d = Matrix.diagonal(F5, [1, 2])
    assert spectral_bounds(d, d) == (2, 2) == (intertwiner_basis([d], [d]).k,) * 2


def test_bound_sandwich_on_random_pairs():
    rng = random.Random(73)
    for q in (2, 3, 9):
        field = get_field(q)
        for _ in range(15):
            r, s = rng.randint(1, 5), rng.randint(1, 5)
            a = rand_matrix(rng, field, r, r)
            b = rand_matrix(rng, field, s, s)
            k = intertwiner_basis([a], [b]).k
            lo, hi = spectral_bounds(a, b)
            assert lo <= k <= hi
            lo, hi = rank_bounds(a, b)
            assert lo <= k <= hi


def test_conjugate_code_identity_and_composition():
    rng = random.Random(79)
    a = rand_matrix(rng, F5, 3, 3)
    b = rand_matrix(rng, F5, 2, 2)
    code = intertwiner_basis([a], [b])
    eye_r, eye_s = Matrix.identity(F5, 3), Matrix.identity(F5, 2)
    assert conjugate_code(code, eye_r, eye_s) == code

    r1, r2 = rand_invertible(rng, F5, 3), rand_invertible(rng, F5, 3)
    s1, s2 = rand_invertible(rng, F5, 2), rand_invertible(rng, F5, 2)
    once = conjugate_code(conjugate_code(code, r1, s1), r2, s2)
    assert once == conjugate_code(code, r1 * r2, s1 * s2)


def test_conjugate_code_matches_conjugated_pair():
    rng = random.Random(83)
    for q in (2, 3, 5):
        field = get_field(q)
        for _ in range(10):
            r, s = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_matrix(rng, field, r, r)
            b = rand_matrix(rng, field, s, s)
            code = intertwiner_basis([a], [b])
            rm = rand_invertible(rng, field, r)
            sm = rand_invertible(rng, field, s)
            conjugated = conjugate_code(code, rm, sm)
            direct = intertwiner_basis([rm.inverse() * a * rm], [sm.inverse() * b * sm])
            assert conjugated == direct
            assert conjugated.k == code.k


def test_conjugation_can_spread_distance_to_rs():
    # start from the code spanned by a single matrix unit and conjugate by
    # all-ones bordered invertible matrices: the image is the all-ones
    # rank-one matrix, so the distance jumps from 1 to r*s
    r, s = 3, 2
    seed = IntertwiningCode(F5, r, s, [Matrix.unit(F5, r, s, 0, 0)])
    assert min_distance(seed) == 1
    t = complete_invertible(F5, [(1,) * r], r).transpose()
    smat = complete_invertible(F5, [(1,) * s], s)
    image = conjugate_code(seed, t.inverse(), smat)
    assert image.k == 1
    assert min_distance(image) == r * s
    assert image.basis[0] == Matrix(F5, r, s, [1] * (r * s))


def test_conjugate_code_rejects_singular():
    code = intertwiner_basis([Matrix.zero(F2, 2, 2)], [Matrix.zero(F2, 2, 2)])
    singular = Matrix(F2, 2, 2, [1, 1, 1, 1])
    with pytest.raises(SingularError):
        conjugate_code(code, singular, Matrix.identity(F2, 2))


def test_syndrome_examples():
    a = Matrix.identity(F2, 2)
    b = Matrix.zero(F2, 2, 2)
    x = Matrix.unit(F2, 2, 2, 0, 0)
    assert syndrome([a], [b], x) == [x]
    assert syndrome([b], [b], x) == [Matrix.zero(F2, 2, 2)]
    code = intertwiner_basis([b], [b])
    for w in code.basis:
        assert all(m.is_zero for m in syndrome([b], [b], w))


def test_shift_invariance():
    rng = random.Random(89)
    for q in (2, 3, 5, 9):
        field = get_field(q)
        for _ in range(8):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, field, n, n)
            b = rand_matrix(rng, field, n, n)
            alpha = rng.randrange(q)
            shift_a = a - Matrix.scalar(field, n, alpha)
            shift_b = b - Matrix.scalar(field, n, alpha)
            assert intertwiner_basis([a], [b]) == intertwiner_basis([shift_a], [shift_b])


def test_extension_invariance():
    rng = random.Random(97)
    big = get_field(4)
    for _ in range(15):
        r, s = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, F2, r, r)
        b = rand_matrix(rng, F2, s, s)
        small_dim = intertwiner_basis([a], [b]).k
        big_dim = intertwiner_basis([embed(a, big)], [embed(b, big)]).k
        assert small_dim == big_dim


def test_direct_sum_additivity():
    rng = random.Random(101)
    for q in (2, 3):
        field = get_field(q)
        for _ in range(8):
            sizes = [rng.randint(1, 3) for _ in range(4)]
            a1 = rand_matrix(rng, field, sizes[0], sizes[0])
            a2 = rand_matrix(rng, field, sizes[1], sizes[1])
            b1 = rand_matrix(rng, field, sizes[2], sizes[2])
            b2 = rand_matrix(rng, field, sizes[3], sizes[3])
            lhs = intertwiner_basis([direct_sum([a1, a2])], [direct_sum([b1, b2])]).k
            rhs = sum(
                intertwiner_basis([x], [y]).k
                for x in (a1, a2) for y in (b1, b2)
            )
            assert lhs == rhs


def test_transpose_duality():
    rng = random.Random(103)
    for q in (2, 5):
        field = get_field(q)
        for _ in range(10):
            r, s = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_matrix(rng, field, r, r)
            b = rand_matrix(rng, field, s, s)
            code = intertwiner_basis([a], [b])
            dual = intertwiner_basis([b.transpose()], [a.transpose()])
            assert dual.k == code.k
            transposed = IntertwiningCode(field, s, r, [x.transpose() for x in code.basis])
            assert transposed == dual
            assert sorted(x.weight() for x in transposed.basis) == sorted(
                x.weight() for x in dual.basis)


def test_dimension_below_rank_upper_bound_invariant():
    rng = random.Random(107)
    for _ in range(20):
        r, s = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, F3, r, r)
        b = rand_matrix(rng, F3, s, s)
        code = intertwiner_basis([a], [b])
        assert code.k <= rank_bounds(a, b)[1]


def test_codeword_materializes_combinations():
    code = intertwiner_basis([Matrix.zero(F3, 2, 2)], [Matrix.zero(F3, 2, 2)])
    w = code.codeword([1, 2, 0, 1])
    expected = code.basis[0] + code.basis[1].scale(2) + code.basis[3]
    assert w == expected


@pytest.mark.parametrize("q", [9, 1024, 16])
def test_codeword_matches_the_explicit_sum(q):
    # GF(9) and GF(1024) take the list product, GF(16) the packed one
    field = get_field(q)
    rng = random.Random(q)
    code = IntertwiningCode(field, 2, 3, [rand_matrix(rng, field, 2, 3) for _ in range(4)])
    assert code.k == 4
    for _ in range(5):
        coeffs = [rng.randrange(q) for _ in range(code.k)]
        expected = Matrix.zero(field, 2, 3)
        for c, x in zip(coeffs, code.basis):
            expected = expected + x.scale(c)
        assert code.codeword(coeffs) == expected
    assert code.codeword([0] * code.k) == Matrix.zero(field, 2, 3)
    zero = IntertwiningCode(field, 2, 3, [])
    assert zero.codeword([]) == Matrix.zero(field, 2, 3)
    with pytest.raises(SizeMismatchError):
        code.codeword([1] * (code.k + 1))


@pytest.mark.parametrize("q", [4, 5])
@pytest.mark.parametrize("bad", [-1, 7, True, 1.0])
def test_scalar_inputs_are_element_encodings(q, bad):
    # -1 once read log[-1], the log of the last element, and 7 indexed past
    # the tables; a bool or a float is not an encoding either
    field = get_field(q)
    code = intertwiner_basis([Matrix.zero(field, 2, 2)], [Matrix.zero(field, 2, 2)])
    for call in (lambda: code.codeword([bad, 0, 0, 0]),
                 lambda: code.basis[0].scale(bad),
                 lambda: Poly(field, [1, 1]).scale(bad)):
        with pytest.raises(ValueError, match="not an element encoding"):
            call()
    assert code.codeword([q - 1, 0, 0, 1]) == code.basis[0].scale(q - 1) + code.basis[3]
    assert Poly(field, [2, 1]).scale(q - 1) == Poly(field, [field.mul(2, q - 1), q - 1])
