"""Intertwining codes: the spaces of matrices X with A_i X = X B_i.

Viewed entrywise, such a space is a linear code of length r*s.  The kernel
basis here is the ground truth everything else is checked against.  It is
solved on a Hessenberg form of B, with r unknowns per Hessenberg block of B
instead of the r*s entries of X, and no Kronecker-product vectorization.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations, islice, product

from ._packed import _matmul, _row, _rref
from .canonical import _component, _factors
from .errors import (
    BudgetExceededError,
    FieldMismatchError,
    LengthMismatchError,
    NotSquareError,
    SizeMismatchError,
    ZeroCodeError,
)
from .matrices import Matrix, _hessenberg
from .partitions import conjugate_product
from .polys import gcd

#: Default ceiling on q^k - 1, the number of nonzero codewords.
DEFAULT_BUDGET = 1 << 24


class IntertwiningCode:
    """A subspace of r x s matrices as a linear code of length n = r*s.

    The stored basis is canonical: the row-major vectorizations form a
    reduced-row-echelon basis, so two instances describe the same subspace
    exactly when their bases compare equal.  The minimum distance is not
    stored: ``min_distance`` computes it.
    """

    __slots__ = ("field", "r", "s", "basis")

    def __init__(self, field, r, s, basis):
        if type(r) is not int or type(s) is not int or r < 1 or s < 1:
            raise SizeMismatchError(
                f"codes need positive integer block dimensions, got {r!r} x {s!r}")
        mats = []
        for m in basis:
            if m.field != field:
                raise FieldMismatchError("basis matrix over a different field")
            if (m.nrows, m.ncols) != (r, s):
                raise SizeMismatchError(f"basis matrix is {m.nrows}x{m.ncols}, expected {r}x{s}")
            mats.append(m)
        self.field = field
        self.r = r
        self.s = s
        self.basis = _canonical_basis(field, r, s, mats)

    @property
    def k(self) -> int:
        return len(self.basis)

    @property
    def n(self) -> int:
        return self.r * self.s

    def codeword(self, coefficients) -> Matrix:
        """The linear combination of basis elements with the given coefficients."""
        f = self.field
        coefficients = [f._element(c) for c in coefficients]
        if len(coefficients) != self.k:
            raise SizeMismatchError(f"expected {self.k} coefficients, got {len(coefficients)}")
        # the coefficient row times the basis stacked one matrix per row
        stack = Matrix._raw(f, self.k, self.n, [v for m in self.basis for v in m.entries])
        row = Matrix._raw(f, 1, self.k, coefficients) * stack
        return Matrix._raw(f, self.r, self.s, row.entries)

    def __eq__(self, other):
        if not isinstance(other, IntertwiningCode):
            return NotImplemented
        return (self.field == other.field and self.r == other.r
                and self.s == other.s and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.r, self.s, self.basis))

    def __repr__(self):
        return f"IntertwiningCode({self.field}, r={self.r}, s={self.s}, k={self.k})"


def _canonical_basis(field, r, s, mats):
    if not mats:
        return ()
    stacked = Matrix._raw(field, len(mats), r * s, [v for m in mats for v in m.entries])
    reduced, rank, _ = stacked.rref()
    n = r * s
    out = []
    for i in range(rank):
        out.append(Matrix._raw(field, r, s, reduced.entries[i * n:(i + 1) * n]))
    return tuple(out)


def _check_pair(a: Matrix, b: Matrix):
    if not a.is_square or not b.is_square:
        raise NotSquareError("intertwining pairs must be square")
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")


def intertwiner_basis(a_list, b_list) -> IntertwiningCode:
    """Kernel-oracle basis of {X : A_i X = X B_i for every i}.

    The first pair is solved on a Hessenberg form of B_1 (``_pair_basis``).
    Each further pair is imposed on the space found so far: X = sum c_l X_l
    is a codeword exactly when sum c_l (A_i X_l - X_l B_i) = 0, a system in
    as many unknowns as that space has dimensions.  The canonical basis is
    returned.  This is the oracle each closed-form result is tested against.
    """
    a_list = list(a_list)
    b_list = list(b_list)
    if len(a_list) != len(b_list):
        raise LengthMismatchError(f"{len(a_list)} left matrices vs {len(b_list)} right matrices")
    if not a_list:
        raise LengthMismatchError("at least one pair is required")
    for a, b in zip(a_list, b_list):
        _check_pair(a, b)
    field = a_list[0].field
    r = a_list[0].nrows
    s = b_list[0].nrows
    for a, b in zip(a_list, b_list):
        if a.field != field:
            raise FieldMismatchError("pairs over different fields")
        if a.nrows != r or b.nrows != s:
            raise SizeMismatchError("pairs have inconsistent block dimensions")
    if r < 1 or s < 1:
        raise SizeMismatchError("codes need positive block dimensions")
    n = r * s
    rows = _pair_basis(a_list[0], b_list[0])
    for a, b in zip(a_list[1:], b_list[1:]):
        k = rows.nrows
        if not k:
            break
        xs = [Matrix._raw(field, r, s, rows.entries[l * n:(l + 1) * n]) for l in range(k)]
        # column l holds the defect of X_l
        defects = Matrix._raw(field, k, n, [v for x in xs for v in (a * x - x * b).entries])
        coeffs = defects.transpose().nullspace()
        rows = Matrix._raw(field, len(coeffs), k, [v for c in coeffs for v in c.entries]) * rows
    mats = [Matrix._raw(field, r, s, rows.entries[l * n:(l + 1) * n]) for l in range(rows.nrows)]
    return IntertwiningCode(field, r, s, mats)


def _pair_basis(a: Matrix, b: Matrix) -> Matrix:
    """A basis of {X : AX = XB} as the rows of a k x rs matrix, each row the
    row-major entries of one X.

    With H = P B P^-1 upper Hessenberg (``_hessenberg``) and Y = X P^-1, the
    equation becomes AY = YH, whose column j reads
    h_(j+1,j) y_(j+1) = A y_j - sum_(t<=j) h_tj y_t.  A nonzero subdiagonal
    entry determines the next column.  A zero one, or the last column,
    closes a block: the right-hand side must vanish, r linear conditions,
    and the next column is a fresh vector of r unknowns.  So each y_j is an
    r x n coefficient matrix over n = r * (number of blocks) unknowns, and
    the kernel of the conditions gives every Y, and X = Y P (Gantmacher,
    The Theory of Matrices, Vol. 1, Ch. VIII).  Block b's conditions involve
    only the unknowns of blocks <= b, so the unknowns are numbered last block
    first: the columns that ``nullspace`` eliminates first are then the ones
    the fewest conditions involve, and a constructed pair, which closes a
    block at almost every column, makes almost no fill (the order of Golub,
    Nash & Van Loan's Hessenberg-Schur method, IEEE TAC 24, 1979).  Each y_j
    is kept as one row of r * n entries, and each column's sum is one row of
    a ``_packed._matmul`` product over the rows A y_j, y_0, ..., y_j.
    """
    field = a.field
    r, s = a.nrows, b.nrows
    h, p = _hessenberg(b, transform=True)
    blocks = 1 + sum(1 for j in range(s - 1) if not h[j + 1][j])
    n = r * blocks
    size = r * n
    neg, mul, inv = field.neg, field.mul, field.inv

    def opened(block):
        # a block's free vector: the r x r identity in the block's columns
        ent = [0] * size
        for u in range(r):
            ent[u * n + (blocks - 1 - block) * r + u] = 1
        return _row(field, ent)

    block = 0
    ys = [opened(0)]
    conditions = []
    for j in range(s):
        y = ys[j]
        ay = _matmul(field, r, r, n, a.entries, [y[u * n:(u + 1) * n] for u in range(r)])
        # w = g (A y_j - sum_(t<=j) h_tj y_t): y_(j+1) for g = 1/h_(j+1,j), or
        # the conditions of a closing block for g = 1
        closes = j + 1 == s or not h[j + 1][j]
        g = 1 if closes else inv(h[j + 1][j])
        ng = neg(g)
        coeffs = [g] + [mul(ng, h[t][j]) for t in range(j + 1)]
        w = _matmul(field, 1, j + 2, size, coeffs, [ay, *ys])
        if not closes:
            ys.append(w)
            continue
        conditions.extend(w)
        block += 1
        if block < blocks:
            ys.append(opened(block))
    kernel = Matrix._raw(field, r * blocks, n, conditions).nullspace()
    zs = Matrix._raw(field, len(kernel), n, [v for z in kernel for v in z.entries])
    # column c of X = Y P is d_c z for the coefficient matrix d_c = sum_j P_jc y_j
    d = _matmul(field, s, s, size, p.transpose().entries, ys)
    # entry (m, (u, c)) of ct is entry (u, m) of d_c, so row l of zs ct is
    # vec(X_l); d[u * n + m::size] lists entry (u, m) of every d_c
    ct = Matrix._raw(field, n, r * s,
                     chain.from_iterable(d[u * n + m::size] for m in range(n) for u in range(r)))
    return zs * ct


FactorTerm = namedtuple("FactorTerm", "irr lam mu contribution")
FactorTerm.__doc__ = "Contribution of one shared irreducible factor to the dimension."
DimensionBreakdown = namedtuple("DimensionBreakdown", "total terms")


def dimension_formula(a: Matrix, b: Matrix) -> DimensionBreakdown:
    """Closed-form dim of the intertwiner space of a single pair.

    Every irreducible p dividing both characteristic polynomials contributes
    deg(p) times the conjugate-product pairing of its two component
    partitions; a factor of one side only contributes nothing, so only the
    shared factors are decomposed (``canonical._component``).  Equals the
    kernel-oracle dimension.
    """
    _check_pair(a, b)
    b_mult = dict(_factors(b))
    terms = []
    total = 0
    for irr, mult in _factors(a):
        if irr not in b_mult:
            continue
        lam = _component(a, irr, mult).partition
        mu = _component(b, irr, b_mult[irr]).partition
        amount = irr.degree * conjugate_product([lam, mu])
        terms.append(FactorTerm(irr, lam, mu, amount))
        total += amount
    return DimensionBreakdown(total, tuple(terms))


def is_zero_code(a: Matrix, b: Matrix) -> bool:
    """True exactly when the intertwiner space of (a, b) is zero.

    One gcd of the two characteristic polynomials decides this: coprimality
    forces the zero code, and any common irreducible factor contributes a
    positive term to the dimension formula.  No factorization is needed.
    """
    _check_pair(a, b)
    return gcd(a.charpoly(), b.charpoly()).degree == 0


def min_distance(code: IntertwiningCode, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum Hamming weight by Brouwer-Zimmermann enumeration
    (Zimmermann, TU Hamburg-Harburg report 3-96, 1996; Grassl, Searching for
    linear codes with large minimum distance, 2006).

    Raises unless q^k - 1, the number of nonzero codewords, fits in the
    budget.  Level w forms, for each generator of ``_generators``, every
    combination of w of its rows with first coefficient 1, since scalar
    multiples share a weight.  Level 1 is the rows, read as each generator
    is made; higher levels are rows of ``_packed._matmul`` products.  A
    codeword not yet formed has w + 1 or more nonzero coefficients on each
    of the m disjoint information sets, so its weight is at least m(w + 1),
    and the scan stops once that reaches the lightest codeword formed.

    The bound holds for any m, and one generator's levels form every
    codeword.  So no further generator is made once the level-1 rows that
    would lift 2m to the lightest weight are as many as the first
    generator's other codewords; a long code of small k would otherwise
    make about d/2 generators.
    """
    k = code.k
    if k == 0:
        raise ZeroCodeError("the zero code has no minimum distance")
    field = code.field
    count = field.q**k - 1
    if count > budget:
        raise BudgetExceededError(count, budget)
    n = code.n
    gens = []
    best = n
    for gen in _generators(field, k, n, [m.entries for m in code.basis]):
        gens.append(gen)
        best = min(best, *(n - row.count(0) for row in gen))
        if 2 * len(gens) >= best:
            return best
        if count // (field.q - 1) - k <= k * (best // 2 - len(gens)):
            gens = gens[:1]
            break
    for w in range(2, k + 1):
        messages = _messages(field.q, k, w)
        # 256 coefficient rows per product bound the memory
        while batch := list(chain.from_iterable(islice(messages, 256))):
            for gen in gens:
                out = _matmul(field, len(batch) // k, k, n, batch, gen)
                for i in range(0, len(out), n):
                    best = min(best, n - out[i:i + n].count(0))
        if len(gens) * (w + 1) >= best:
            break
    return best


def _generators(field, k, n, rows):
    """Generators of the code, as k rows of n entries, systematic on disjoint
    information sets.  Each is the reduced echelon form of the basis rows
    with the columns that no earlier set pivots on placed first, made while
    all k pivots fall among those columns, and stays column-permuted, since
    no weight sees the order."""
    order = list(range(n))
    free = n
    while True:
        flat, _, pivots = _rref(field, k, n, [row[c] for row in rows for c in order])
        if pivots[-1] >= free:
            return
        yield [flat[i * n:(i + 1) * n] for i in range(k)]
        order = [c for i, c in enumerate(order) if i not in pivots] + [order[i] for i in pivots]
        free -= k


def _messages(q, k, w):
    """The coefficient rows of weight w whose first nonzero entry is 1."""
    for support in combinations(range(k), w):
        for tail in product(range(1, q), repeat=w - 1):
            row = [0] * k
            for j, c in zip(support, (1, *tail)):
                row[j] = c
            yield row


def rank_bounds(a: Matrix, b: Matrix) -> tuple[int, int]:
    """(lo, hi) with lo = (r - rk a)(s - rk b) and hi = lo + rk(a) rk(b)."""
    _check_pair(a, b)
    ra = a.rank()
    rb = b.rank()
    lo = (a.nrows - ra) * (b.nrows - rb)
    return lo, lo + ra * rb


def spectral_bounds(a: Matrix, b: Matrix) -> tuple[int, int]:
    """Eigenspace/generalized-eigenspace sandwich for the dimension.

    Over the algebraic closure every root of an irreducible factor p of the
    characteristic polynomial has eigenspace dimension equal to the number
    of parts of p's component partition, and generalized eigenspace
    dimension equal to the multiplicity of p.  So per shared irreducible p,
    that is per term (p, lambda, mu) of ``dimension_formula``, each of its
    deg(p) roots contributes len(lambda) * len(mu) to the lower bound and
    |lambda| * |mu| to the upper bound, all evaluated in base-field
    arithmetic.
    """
    lo = hi = 0
    for t in dimension_formula(a, b).terms:
        lo += t.irr.degree * len(t.lam) * len(t.mu)
        hi += t.irr.degree * t.lam.weight * t.mu.weight
    return lo, hi


def conjugate_code(code: IntertwiningCode, r_mat: Matrix, s_mat: Matrix) -> IntertwiningCode:
    """Image of the code under X -> R^{-1} X S, recanonicalized.

    The result equals the intertwiner space of the conjugated pairs; the
    dimension is preserved but the minimum distance generally is not.
    """
    if not r_mat.is_square or not s_mat.is_square:
        raise NotSquareError("conjugators must be square")
    if r_mat.field != code.field or s_mat.field != code.field:
        raise FieldMismatchError("conjugators over a different field")
    if r_mat.nrows != code.r or s_mat.nrows != code.s:
        raise SizeMismatchError(
            f"conjugators must be {code.r}x{code.r} and {code.s}x{code.s}"
        )
    t = r_mat.inverse()
    s_mat.inverse()  # raises SingularError if S is not invertible
    return IntertwiningCode(code.field, code.r, code.s,
                            [t * x * s_mat for x in code.basis])


def syndrome(a_list, b_list, x: Matrix) -> list[Matrix]:
    """The defect matrices A_i X - X B_i; all zero exactly for codewords."""
    a_list = list(a_list)
    b_list = list(b_list)
    if len(a_list) != len(b_list):
        raise LengthMismatchError(f"{len(a_list)} left matrices vs {len(b_list)} right matrices")
    out = []
    for a, b in zip(a_list, b_list):
        _check_pair(a, b)
        if a.nrows != x.nrows or b.nrows != x.ncols:
            raise SizeMismatchError("syndrome shapes are inconsistent")
        out.append(a * x - x * b)
    return out
