"""Intertwining codes: the spaces of matrices X with A_i X = X B_i.

Viewed entrywise, such a space is a linear code of length r*s.  The kernel
basis here is the ground truth everything else is checked against.  It is
solved on a Hessenberg form of B, with r unknowns per Hessenberg block of B
instead of the r*s entries of X, and no Kronecker-product vectorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from ._packed import _axpy_ops, _row_ops
from .canonical import primary_decomposition
from .errors import (
    BudgetExceededError,
    FieldMismatchError,
    LengthMismatchError,
    NotSquareError,
    SizeMismatchError,
    ZeroCodeError,
)
from .matrices import Matrix, _hessenberg
from .partitions import Partition, conjugate_product
from .polys import Poly, gcd

#: Default ceiling on exhaustively enumerated codewords.
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
        if r < 1 or s < 1:
            raise SizeMismatchError("codes need positive block dimensions")
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
        coefficients = list(coefficients)
        if len(coefficients) != self.k:
            raise SizeMismatchError(f"expected {self.k} coefficients, got {len(coefficients)}")
        f = self.field
        add, mul = f.add, f.mul
        acc = [0] * self.n
        for c, mat in zip(coefficients, self.basis):
            if c:
                for i, v in enumerate(mat.entries):
                    if v:
                        acc[i] = add(acc[i], mul(c, v))
        return Matrix(f, self.r, self.s, acc)

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
    The Theory of Matrices, Vol. 1, Ch. VIII).
    """
    field = a.field
    r, s = a.nrows, b.nrows
    h, p = _hessenberg(b, transform=True)
    blocks = 1 + sum(1 for j in range(s - 1) if not h[j + 1][j])
    n = r * blocks
    size = r * n
    pack, axpy, unpack = _axpy_ops(field, size)
    neg, inv = field.neg, field.inv
    zero = pack([0] * size)
    identity = Matrix.identity(field, r).entries

    def placed(block, entries):
        # the coefficient matrix with the r x r entries in the block's columns
        ent = [0] * size
        for u in range(r):
            start = u * n + block * r
            ent[start:start + r] = entries[u * r:(u + 1) * r]
        return pack(ent)

    # a block opens with y_j its free vector, so A y_j is A in its columns
    block = 0
    ys = [placed(0, identity)]
    ay = placed(0, a.entries)
    conditions = []
    for j in range(s):
        w = ay
        for t in range(j + 1):
            if h[t][j]:
                w = axpy(w, neg(h[t][j]), ys[t])
        if j + 1 < s and h[j + 1][j]:
            ys.append(axpy(zero, inv(h[j + 1][j]), w))
            ay = pack((a * Matrix._raw(field, r, n, unpack(ys[-1]))).entries)
        else:
            conditions.extend(unpack(w))
            block += 1
            if block < blocks:
                ys.append(placed(block, identity))
                ay = placed(block, a.entries)
    kernel = Matrix._raw(field, r * blocks, n, conditions).nullspace()
    zs = Matrix._raw(field, len(kernel), n, [v for z in kernel for v in z.entries])
    # column c of X = Y P is d_c z for the coefficient matrix d_c = sum_j P_jc y_j
    d = (p.transpose() * Matrix._raw(field, s, size, [v for y in ys for v in unpack(y)])).entries
    # entry (m, (u, c)) of ct is entry (u, m) of d_c, so row l of zs ct is
    # vec(X_l); d[u * n + m::size] lists entry (u, m) of every d_c
    ct = Matrix._raw(field, n, r * s,
                     chain.from_iterable(d[u * n + m::size] for m in range(n) for u in range(r)))
    return zs * ct


@dataclass(frozen=True)
class FactorTerm:
    """Contribution of one shared irreducible factor to the dimension."""

    irr: Poly
    lam: Partition
    mu: Partition
    contribution: int


@dataclass(frozen=True)
class DimensionBreakdown:
    total: int
    terms: tuple[FactorTerm, ...]


def dimension_formula(a: Matrix, b: Matrix) -> DimensionBreakdown:
    """Closed-form dim of the intertwiner space of a single pair.

    Both matrices are primary-decomposed; every irreducible p dividing both
    characteristic polynomials contributes deg(p) times the conjugate-product
    pairing of its two partitions.  Equals the kernel-oracle dimension.
    """
    _check_pair(a, b)
    by_irr = {c.irr: c for c in primary_decomposition(b)}
    terms = []
    total = 0
    for ca in primary_decomposition(a):
        cb = by_irr.get(ca.irr)
        if cb is None:
            continue
        amount = ca.degree * conjugate_product([ca.partition, cb.partition])
        terms.append(FactorTerm(ca.irr, ca.partition, cb.partition, amount))
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
    """Exact minimum Hamming weight by exhaustive projective enumeration.

    Scalar multiples share a weight, so only the (q^k - 1)/(q - 1) codewords
    whose leading nonzero coefficient is 1 are visited.  GF(q) = GF(p)^e
    through the generators alpha^t * b_i (t < e), and for each leading
    position j the GF(p)-combinations of the later generators are walked in
    p-ary modular Gray order from b_j: step i adds generator v_p(i) once, one
    packed row add and one weight count.  Raises unless q^k - 1, the number
    of nonzero codewords, fits in the budget.
    """
    k = code.k
    if k == 0:
        raise ZeroCodeError("the zero code has no minimum distance")
    field = code.field
    count = field.q**k - 1
    if count > budget:
        raise BudgetExceededError(count, budget)
    p, e, mul = field.p, field.e, field.mul
    pack, add, weight = _row_ops(field, code.n)
    # alpha^t is encoded p^t
    gens = [pack([mul(p**t, v) for v in m.entries]) for m in code.basis for t in range(e)]
    best = code.n
    for j in range(k):
        row = gens[e * j]
        later = gens[e * (j + 1):]
        for i in range(p**len(later)):
            if i:
                # the Gray code steps digit v = v_p(i) up by one
                v = 0
                while i % p == 0:
                    i //= p
                    v += 1
                row = add(row, later[v])
            w = weight(row)
            if w < best:
                best = w
                if w == 1:
                    return 1
    return best


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
