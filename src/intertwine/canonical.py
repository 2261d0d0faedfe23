"""Primary decomposition of a square matrix over GF(q).

A matrix A splits F^r into invariant subspaces ker p(A)^m, one per monic
irreducible factor p of its characteristic polynomial.  On each subspace the
action is modelled by a generalized Jordan matrix whose block sizes form a
partition; the partition is recovered basis-free from the nullity chain
dim ker p(A)^j, whose successive differences divided by deg p are the
conjugate partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistencyError, NotIrreducibleError, NotSquareError
from .matrices import Matrix, companion_matrix, direct_sum, poly_eval
from .partitions import Partition
from .polys import Poly, factor, is_irreducible


@dataclass(frozen=True)
class PrimaryComponent:
    """One irreducible factor with its multiplicity and block partition."""

    irr: Poly
    mult: int
    partition: Partition

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
    irreducible, the order of ``factor``.

    For each irreducible factor p of the characteristic polynomial, the
    nullities n_j = dim ker p(a)^j are computed until they stabilize; the
    block-count sequence (n_j - n_{j-1}) / deg p must be weakly decreasing and
    its conjugate is the component partition.  Violations of divisibility or
    monotonicity can only come from an arithmetic bug and raise
    InternalInconsistencyError.
    """
    if not a.is_square:
        raise NotSquareError("primary decomposition needs a square matrix")
    n = a.nrows
    comps = []
    if n:
        for irr, mult in factor(a.charpoly()).factors:
            d = irr.degree
            target = d * mult
            pa = poly_eval(irr, a)
            power = pa
            blocks = []
            prev = 0
            while True:
                nullity = n - power.rref()[1]
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
                power = power * pa
            partition = Partition(blocks).conjugate()
            if partition.weight != mult:
                raise InternalInconsistencyError(
                    f"partition weight {partition.weight} != multiplicity {mult} for {irr!r}"
                )
            comps.append(PrimaryComponent(irr, mult, partition))
    return tuple(comps)


def nilpotent_matrix(field, lam: Partition) -> Matrix:
    """Block-diagonal nilpotent matrix with upper-shift blocks of sizes lam."""
    blocks = []
    for m in lam.parts:
        ent = [0] * (m * m)
        for i in range(m - 1):
            ent[i * m + i + 1] = 1
        blocks.append(Matrix(field, m, m, ent))
    return direct_sum(blocks, field=field)


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

