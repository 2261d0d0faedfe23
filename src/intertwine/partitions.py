"""Integer partitions, conjugation, and the conjugate-product pairing behind
the dimension formula."""

from __future__ import annotations

from .errors import EmptyListError


class Partition(tuple):
    """Weakly decreasing positive parts as a tuple; the empty partition has weight 0."""

    __slots__ = ()

    def __new__(cls, parts=()):
        ps = tuple(parts)
        for i, x in enumerate(ps):
            if type(x) is not int:
                raise ValueError(f"parts must be integers, got {x!r}")
            if x < 1:
                raise ValueError(f"parts must be positive, got {x}")
            if i and ps[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing, got {list(ps)}")
        return super().__new__(cls, ps)

    parts = property(tuple)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def first(self) -> int:
        """Largest part, 0 for the empty partition."""
        return self[0] if self else 0

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram: part i counts original parts >= i."""
        return Partition(sum(1 for x in self if x > i) for i in range(self.first))

    def __repr__(self):
        return f"Partition({list(self)})"


def conjugate_product(partitions) -> int:
    """Sum over i of the product of the i-th conjugate parts, i up to the
    least largest part."""
    ps = list(partitions)
    if not ps:
        raise EmptyListError("conjugate_product needs at least one partition")
    m = min(p.first for p in ps)
    if m == 0:
        return 0
    conjs = [p.conjugate() for p in ps]
    total = 0
    for i in range(m):
        term = 1
        for c in conjs:
            term *= c[i]
        total += term
    return total

