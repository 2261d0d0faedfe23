"""Dense exact matrices over a finite field.

Matrices are immutable values; row-major entry order is the single
vectorization convention used throughout the library.  The characteristic
polynomial comes from a similarity reduction to upper Hessenberg form
(``_hessenberg``, which also serves the intertwiner solver of ``codes``) and
the Hessenberg determinant recurrence, O(n^3) field operations in every
characteristic.  Products, elimination and the Hessenberg reduction are the
kernels ``_packed._matmul``, ``_rref`` and ``_hessenberg``.
"""

from __future__ import annotations

from . import _packed
from .errors import (
    ConstantPolynomialError,
    DependentPrefixError,
    FieldMismatchError,
    NotMonicError,
    NotSquareError,
    SingularError,
    SizeMismatchError,
)
from .fields import FiniteField
from .polys import Poly


def _size(n):
    """n itself if it is a matrix size: an int, not a bool, at least 0."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise SizeMismatchError(f"matrix sizes must be integers, got {n!r}")
    if n < 0:
        raise SizeMismatchError(f"matrix sizes must be non-negative, got {n}")
    return n


class Matrix:
    """An r x s matrix with integer-encoded entries, row major."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: FiniteField, nrows: int, ncols: int, entries):
        count = _size(nrows) * _size(ncols)
        entries = tuple(entries)
        if len(entries) != count:
            raise SizeMismatchError(
                f"expected {nrows}x{ncols} = {count} entries, got {len(entries)}"
            )
        q = field.q
        for v in entries:
            if type(v) is not int or not 0 <= v < q:
                raise ValueError(f"entry {v!r} is not an element encoding of {field}")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries

    @classmethod
    def _raw(cls, field, nrows, ncols, entries):
        """A matrix from entries already known to be valid encodings of the
        right count, such as the result of arithmetic on matrices; no check."""
        m = object.__new__(cls)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m.entries = tuple(entries)
        return m

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, nrows, ncols, (0,) * (_size(nrows) * _size(ncols)))

    @classmethod
    def identity(cls, field, n):
        return cls.scalar(field, n, 1)

    @classmethod
    def scalar(cls, field, n, c):
        """c times the identity."""
        return cls.diagonal(field, [c] * _size(n))

    @classmethod
    def diagonal(cls, field, values):
        values = list(values)
        n = len(values)
        ent = [0] * (n * n)
        for i, v in enumerate(values):
            ent[i * n + i] = v
        return cls(field, n, n, ent)

    @classmethod
    def from_rows(cls, field, rows):
        rows = [tuple(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise SizeMismatchError("rows have unequal lengths")
        return cls(field, nrows, ncols, [v for r in rows for v in r])

    @classmethod
    def unit(cls, field, nrows, ncols, i, j):
        """The matrix with a single 1 in position (i, j)."""
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise IndexError(f"index ({i}, {j}) is outside a {nrows}x{ncols} matrix")
        ent = [0] * (nrows * ncols)
        ent[i * ncols + j] = 1
        return cls(field, nrows, ncols, ent)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"index ({i}, {j}) is outside a {self.nrows}x{self.ncols} matrix")
        return self.entries[i * self.ncols + j]

    def row(self, i):
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def col(self, j):
        return tuple(self.entries[i * self.ncols + j] for i in range(self.nrows))

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def _same_field(self, other):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def weight(self) -> int:
        """Number of nonzero entries (Hamming weight of the vectorization)."""
        return len(self.entries) - self.entries.count(0)

    @property
    def is_zero(self):
        return self.weight() == 0

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise SizeMismatchError("matrix addition needs equal shapes")
        add = self.field.add
        return Matrix._raw(self.field, self.nrows, self.ncols,
                           [add(a, b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise SizeMismatchError("matrix subtraction needs equal shapes")
        sub = self.field.sub
        return Matrix._raw(self.field, self.nrows, self.ncols,
                           [sub(a, b) for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        neg = self.field.neg
        return Matrix._raw(self.field, self.nrows, self.ncols, [neg(a) for a in self.entries])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_field(other)
        if self.ncols != other.nrows:
            raise SizeMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        f, n, m, k = self.field, self.nrows, self.ncols, other.ncols
        return Matrix._raw(f, n, k, _packed._matmul(f, n, m, k, self.entries, other.rows()))

    def scale(self, c: int):
        """Multiply every entry by the field element c."""
        c, mul = self.field._element(c), self.field.mul
        return Matrix._raw(self.field, self.nrows, self.ncols, [mul(c, a) for a in self.entries])

    def transpose(self):
        n, m = self.nrows, self.ncols
        e = self.entries
        return Matrix._raw(self.field, m, n,
                           [e[i * m + j] for j in range(m) for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.entries))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}, {list(map(list, self.rows()))})"

    # -- elimination ------------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, rank, pivot_columns)."""
        flat, rank, pivots = _packed._rref(self.field, self.nrows, self.ncols, self.entries)
        return Matrix._raw(self.field, self.nrows, self.ncols, flat), rank, pivots

    def rank(self) -> int:
        return self.rref()[1]

    def nullspace(self):
        """Canonical kernel basis: one column vector per free column, the free
        variable set to 1 in ascending column order."""
        reduced, _, pivots = self.rref()
        m = self.ncols
        return [Matrix._raw(self.field, m, 1, v)
                for v in _kernel(self.field, reduced.entries, m, m, pivots)]

    def inverse(self):
        if not self.is_square:
            raise NotSquareError("inverse needs a square matrix")
        f, n = self.field, self.nrows
        aug_rows = []
        for i in range(n):
            row = list(self.row(i)) + [0] * n
            row[n + i] = 1
            aug_rows.append(row)
        aug = Matrix._raw(f, n, 2 * n, [v for row in aug_rows for v in row])
        reduced, _, pivots = aug.rref()
        # invertible exactly when every pivot lands in the left block
        if pivots[:n] != tuple(range(n)):
            raise SingularError(f"{n}x{n} matrix has rank {sum(1 for p in pivots if p < n)}")
        ent = []
        for i in range(n):
            ent.extend(reduced.entries[i * 2 * n + n:(i + 1) * 2 * n])
        return Matrix._raw(f, n, n, ent)

    # -- characteristic polynomial ------------------------------------------------

    def charpoly(self) -> Poly:
        """det(tI - M), monic of degree n.

        The matrix is first brought to upper Hessenberg form H by similarity
        (``_hessenberg``).  The leading principal minors p_m of tI - H
        (1-based) then satisfy
        p_m = (t - h_mm) p_(m-1) - sum_i h_im (prod_(i<j<=m) h_(j,j-1)) p_(i-1)
        (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9).
        """
        if not self.is_square:
            raise NotSquareError("characteristic polynomial needs a square matrix")
        f = self.field
        n = self.nrows
        add, mul, neg = f.add, f.mul, f.neg
        h, _ = _hessenberg(self)
        # polys[m] holds the ascending coefficients of p_m
        polys = [[1]]
        for m in range(n):
            prev = polys[m]
            c = neg(h[m][m])
            cur = [0] + prev
            if c:
                for d, v in enumerate(prev):
                    if v:
                        cur[d] = add(cur[d], mul(c, v))
            prod = 1
            for i in range(m - 1, -1, -1):
                prod = mul(prod, h[i + 1][i])
                if not prod:
                    break
                coef = mul(prod, h[i][m])
                if coef:
                    c = neg(coef)
                    for d, v in enumerate(polys[i]):
                        if v:
                            cur[d] = add(cur[d], mul(c, v))
            polys.append(cur)
        return Poly(f, polys[n])


def _kernel(field, entries, width, m, pivots):
    """The canonical kernel basis, as lists, of the reduced matrix with the
    given pivots in the first m columns of rows of width entries."""
    neg, pivset, basis = field.neg, set(pivots), []
    for free in range(m):
        if free in pivset:
            continue
        v = [0] * m
        v[free] = 1
        for rr, pc in enumerate(pivots):
            coef = entries[rr * width + free]
            if coef:
                v[pc] = neg(coef)
        basis.append(v)
    return basis


def _hessenberg(m: Matrix, transform=False):
    """(h, P): the rows of an upper Hessenberg H = P M P^-1 as lists, and P as
    a Matrix when transform is true (else None); see ``_packed._hessenberg``.
    """
    n = m.nrows
    h, p = _packed._hessenberg(m.field, n, m.entries, transform)
    return h, Matrix._raw(m.field, n, n, p) if transform else None


def poly_eval(f: Poly, m: Matrix) -> Matrix:
    """Evaluate a polynomial at a square matrix by Horner's scheme."""
    if not m.is_square:
        raise NotSquareError("polynomial evaluation needs a square matrix")
    if f.field != m.field:
        raise FieldMismatchError(f"{f.field} vs {m.field}")
    field, n = m.field, m.nrows
    if f.is_zero:
        return Matrix.zero(field, n, n)
    # the coefficients are valid encodings, so constants go straight onto
    # the diagonal
    add = field.add
    cs = f.coeffs
    ent = [0] * (n * n)
    ent[::n + 1] = [cs[-1]] * n
    acc = Matrix._raw(field, n, n, ent)
    for c in reversed(cs[:-1]):
        acc = acc * m
        if c:
            ent = list(acc.entries)
            ent[::n + 1] = [add(v, c) for v in ent[::n + 1]]
            acc = Matrix._raw(field, n, n, ent)
    return acc


def direct_sum(blocks, field=None) -> Matrix:
    """Block-diagonal assembly; the empty sum is the 0x0 matrix."""
    blocks = list(blocks)
    if not blocks:
        if field is None:
            raise ValueError("an empty direct sum needs an explicit field")
        return Matrix(field, 0, 0, ())
    field = blocks[0].field
    for b in blocks[1:]:
        if b.field != field:
            raise FieldMismatchError("direct sum blocks over different fields")
    nrows = sum(b.nrows for b in blocks)
    ncols = sum(b.ncols for b in blocks)
    ent = [0] * (nrows * ncols)
    roff = coff = 0
    for b in blocks:
        for i in range(b.nrows):
            base = (roff + i) * ncols + coff
            ent[base:base + b.ncols] = b.row(i)
        roff += b.nrows
        coff += b.ncols
    return Matrix._raw(field, nrows, ncols, ent)


def complete_invertible(field, vectors, n) -> Matrix:
    """Extend independent length-n vectors to an invertible n x n matrix.

    The vectors become the first rows and the completion appends standard
    basis vectors at the non-pivot columns of the prefix's reduced echelon
    form, in ascending order.  The transpose completes columns instead.
    """
    vecs = [tuple(v) for v in vectors]
    k = len(vecs)
    if k > n:
        raise DependentPrefixError(f"{k} vectors cannot be independent in dimension {n}")
    if any(len(v) != n for v in vecs):
        raise SizeMismatchError(f"prefix vectors must have length {n}")
    prefix = Matrix(field, k, n, [x for v in vecs for x in v])
    _, rank, pivots = prefix.rref()
    if rank < k:
        raise DependentPrefixError(f"prefix has rank {rank} < {k}")
    rows = list(vecs)
    pivset = set(pivots)
    for j in range(n):
        if j not in pivset:
            e = [0] * n
            e[j] = 1
            rows.append(tuple(e))
    return Matrix.from_rows(field, rows)


def companion_matrix(f: Poly) -> Matrix:
    """Companion matrix: ones on the superdiagonal, negated coefficients in
    the last row; its characteristic polynomial is f."""
    if f.degree < 1:
        raise ConstantPolynomialError("companion matrix needs degree >= 1")
    if not f.is_monic:
        raise NotMonicError("companion matrix needs a monic polynomial")
    field = f.field
    d = f.degree
    neg = field.neg
    ent = [0] * (d * d)
    for i in range(d - 1):
        ent[i * d + i + 1] = 1
    for j in range(d):
        ent[(d - 1) * d + j] = neg(f.coeffs[j])
    return Matrix(field, d, d, ent)
