"""Primary decomposition of a square matrix over GF(q).

A matrix A splits F^r into invariant subspaces ker p(A)^m, one per monic
irreducible factor p of its characteristic polynomial.  On each subspace the
action is modelled by a generalized Jordan matrix whose block sizes form a
partition, recovered basis-free from the nullity chain dim ker p(A)^j: its
differences divided by deg p are the conjugate partition.  One elimination
of [p(A) | I] gives the chain, by lifting each kernel basis to the next
without forming a power of p(A).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InternalInconsistencyError, NotIrreducibleError, NotSquareError
from ._packed import _matmul, _row
from .matrices import Matrix, _kernel, _with_identity, companion_matrix, direct_sum, poly_eval
from .partitions import Partition
from .polys import Poly, factor, is_irreducible


class PrimaryComponent(namedtuple("PrimaryComponent", "irr mult partition")):
    """One irreducible factor with its multiplicity and block partition."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.irr.degree

    @property
    def dimension(self) -> int:
        """Dimension of the invariant subspace: deg(irr) * mult."""
        return self.irr.degree * self.mult


def primary_decomposition(a: Matrix) -> tuple[PrimaryComponent, ...]:
    """Split a square matrix into (irreducible, multiplicity, partition) data.

    The components come sorted by (degree, coefficient encoding) of their
    irreducible, the order of ``factor``; see ``_component`` for how each is
    found.
    """
    return tuple(_component(a, irr, mult) for irr, mult in _factors(a))


def _factors(a: Matrix) -> tuple[tuple[Poly, int], ...]:
    """The (irreducible, multiplicity) factors of the characteristic
    polynomial, none for the 0x0 matrix, whose characteristic polynomial is
    the constant 1."""
    if not a.is_square:
        raise NotSquareError("primary decomposition needs a square matrix")
    return factor(a.charpoly()).factors if a.nrows else ()


def _component(a: Matrix, irr: Poly, mult: int) -> PrimaryComponent:
    """The primary component of an irreducible factor irr of multiplicity
    mult in the characteristic polynomial of a.

    The nullities n_j = dim ker N^j of N = irr(a) come from one elimination
    of [N | I], which gives R = T N, reduced with rho pivots.  A vector y is
    in im N exactly when entries rho.. of T y vanish, and x with x[pivot_i] =
    (T y)_i, zero elsewhere, then solves N x = y: ker N^(j+1) is ker N plus
    the lift of ker N^j & im N.  M has T's first rho rows as its pivot
    columns and the rest as its free columns.  For the rows Y of a basis of
    ker N^j, each c in the nullspace of the free columns of Y M lifts c Y to
    c Y M, so no power of N is formed.  The chain stops at deg(irr) * mult;
    the block counts (n_j - n_{j-1}) / deg irr must be weakly decreasing,
    and their conjugate is the partition.  Anything else is an arithmetic
    bug and raises InternalInconsistencyError.
    """
    field, n = a.field, a.nrows
    d = irr.degree
    target = d * mult
    wide = _with_identity(poly_eval(irr, a))
    reduced, _, pivots = Matrix._raw(field, n, 2 * n, wide).rref()
    ent, pivots = reduced.entries, [c for c in pivots if c < n]
    free = [c for c in range(n) if c not in pivots]
    trow = dict(zip(pivots + free, range(n)))
    mrows = [_row(field, [ent[2 * n * trow[c] + n + j] for c in range(n)]) for j in range(n)]
    kernel = [v for x in _kernel(field, ent, 2 * n, n, pivots) for v in x]
    y, blocks, prev = [], [], 0
    while True:
        k = len(y) // n
        z = _matmul(field, k, n, n, y, mrows)
        cs = Matrix._raw(field, len(free), k, [v for c in free for v in z[c::n]]).nullspace()
        y = kernel + list(_matmul(field, len(cs), k, n, [v for c in cs for v in c.entries],
                                  [z[i * n:(i + 1) * n] for i in range(k)]))
        nullity = len(y) // n
        delta = nullity - prev
        if delta <= 0 or delta % d:
            raise InternalInconsistencyError(
                f"nullity step {delta} for factor {irr!r} is not a positive multiple of {d}"
            )
        if blocks and delta // d > blocks[-1]:
            raise InternalInconsistencyError(
                f"block counts for factor {irr!r} are not weakly decreasing"
            )
        blocks.append(delta // d)
        if nullity == target:
            break
        if len(blocks) > mult:
            raise InternalInconsistencyError(
                f"nullity chain for factor {irr!r} failed to stabilize"
            )
        prev = nullity
    partition = Partition(blocks).conjugate()
    if partition.weight != mult:
        raise InternalInconsistencyError(
            f"partition weight {partition.weight} != multiplicity {mult} for {irr!r}"
        )
    return PrimaryComponent(irr, mult, partition)


def nilpotent_matrix(field, lam: Partition) -> Matrix:
    """Block-diagonal nilpotent matrix with upper-shift blocks of sizes lam:
    the generalized Jordan matrix of the irreducible t."""
    return generalized_jordan_matrix(Poly.t(field), lam)


def generalized_jordan_matrix(p: Poly, lam: Partition) -> Matrix:
    """Generalized Jordan matrix for an irreducible p and block partition lam.

    Each part m contributes a dm x dm block (d = deg p) with the companion
    matrix of p repeated on the diagonal and d x d identity blocks on the
    superdiagonal.  The characteristic polynomial is p**weight(lam).
    """
    if not is_irreducible(p):
        raise NotIrreducibleError(f"{p!r} is not irreducible")
    field = p.field
    d = p.degree
    comp = companion_matrix(p)
    blocks = []
    for m in lam.parts:
        size = d * m
        ent = [0] * (size * size)
        for t in range(m):
            off = t * d
            for i in range(d):
                base = (off + i) * size
                for j in range(d):
                    ent[base + off + j] = comp.entries[i * d + j]
                if t + 1 < m:
                    ent[base + off + d + i] = 1
        blocks.append(Matrix(field, size, size, ent))
    return direct_sum(blocks, field=field)

