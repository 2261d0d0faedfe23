"""Shared helpers for the test suite."""

from itertools import product
from unittest import mock

from intertwine import _packed
from intertwine import (
    DimensionBreakdown,
    FactorTerm,
    FiniteField,
    InternalInconsistencyError,
    IntertwiningCode,
    Matrix,
    Partition,
    Poly,
    PrimaryComponent,
    conjugate_product,
    direct_sum,
    generalized_jordan_matrix,
    poly_eval,
    primary_decomposition,
)


def get_field(q):
    """GF(q) for a prime power written as a plain integer."""
    return FiniteField.of_order(q)


def list_loops():
    """A context in which every ``_packed`` kernel runs its list loop, the
    reference for every field."""
    return mock.patch.object(_packed, "_format", lambda field: None)


def reference_is_irreducible(p, f):
    """Brute force over GF(p): the monic f (ascending integer coefficients)
    has no monic divisor of degree 1..deg(f) // 2."""
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for low in product(range(p), repeat=d):
            g = list(low) + [1]
            rem = list(f)
            for top in range(m, d - 1, -1):
                c = rem[top]
                for j in range(d + 1):
                    rem[top - d + j] = (rem[top - d + j] - c * g[j]) % p
            if not any(rem):
                return False
    return True


def rand_matrix(rng, field, nrows, ncols):
    return Matrix(field, nrows, ncols, [rng.randrange(field.q) for _ in range(nrows * ncols)])


def rand_invertible(rng, field, n):
    while True:
        m = rand_matrix(rng, field, n, n)
        if m.rank() == n:
            return m


def planted_matrix(rng, field, components):
    """T^-1 J T for a random invertible T, where J is the direct sum of the
    generalized Jordan matrices of components, (ascending coefficients of a
    monic irreducible, block sizes) pairs."""
    j = direct_sum([generalized_jordan_matrix(Poly(field, coeffs), Partition(parts))
                    for coeffs, parts in components], field)
    t = rand_invertible(rng, field, j.nrows)
    return t.inverse() * j * t


def rand_partition(rng, max_weight):
    w = rng.randint(0, max_weight)
    parts = []
    while w:
        part = rng.randint(1, w)
        parts.append(part)
        w -= part
    return Partition(sorted(parts, reverse=True))


def partitions_of(n):
    """All partitions of n (oracle-style enumeration)."""

    def gen(total, largest):
        if total == 0:
            yield []
            return
        for first in range(min(total, largest), 0, -1):
            for rest in gen(total - first, first):
                yield [first] + rest

    for parts in gen(n, n):
        yield Partition(parts)


def min_sum(partitions):
    """Sum of min over every index tuple, one part per partition: the direct
    multi-sum that conjugate_product evaluates over conjugate parts."""
    return sum(min(tup) for tup in product(*(p.parts for p in partitions)))


def reference_min_distance(code):
    """Minimum weight by the ranked full scan: every one of the q^k - 1
    nonzero coefficient vectors, as base-q digit strings of 1..q^k - 1 (most
    significant first), with the codeword rebuilt from the changed digit on."""
    field = code.field
    q, k, n = field.q, code.k, code.n
    vecs = [list(m.entries) for m in code.basis]
    mul, add = field.mul, field.add
    tables = [[None] * q for _ in range(k)]

    def scaled(i, c):
        if c == 0:
            return [0] * n
        row = tables[i][c]
        if row is None:
            row = tables[i][c] = [mul(c, x) for x in vecs[i]]
        return row

    digits = [0] * (k - 1) + [1]
    partial = [None] * k

    def recompute(pos):
        for i in range(pos, k):
            row = scaled(i, digits[i])
            partial[i] = row if i == 0 else [add(a, b) for a, b in zip(partial[i - 1], row)]

    recompute(0)
    best = n + 1
    for m in range(1, q**k):
        if m > 1:
            i = k - 1
            while True:
                digits[i] += 1
                if digits[i] < q:
                    break
                digits[i] = 0
                i -= 1
            recompute(i)
        best = min(best, n - partial[k - 1].count(0))
        if best == 1:
            break
    return best


def reference_charpoly(m):
    """det(tI - M) by the division-free Berkowitz iteration, O(n^4)."""
    f = m.field
    n = m.nrows
    if n == 0:
        return Poly.one(f)
    add, mul, neg = f.add, f.mul, f.neg
    ent = m.entries
    p = [1, neg(ent[0])]  # descending coefficients for the leading 1x1 block
    for r in range(1, n):
        col = [ent[i * n + r] for i in range(r)]
        row = [ent[r * n + j] for j in range(r)]
        c = [1, neg(ent[r * n + r])]
        w = col
        for k in range(1, r + 1):
            acc = 0
            for t in range(r):
                if row[t] and w[t]:
                    acc = add(acc, mul(row[t], w[t]))
            c.append(neg(acc))
            if k < r:
                w2 = [0] * r
                for i in range(r):
                    acc = 0
                    base = i * n
                    for t in range(r):
                        a = ent[base + t]
                        if a and w[t]:
                            acc = add(acc, mul(a, w[t]))
                    w2[i] = acc
                w = w2
        new_p = [0] * (r + 2)
        for i, ci in enumerate(c):
            if ci:
                for j, pj in enumerate(p):
                    idx = i + j
                    if idx < r + 2 and pj:
                        new_p[idx] = add(new_p[idx], mul(ci, pj))
        p = new_p
    return Poly(f, list(reversed(p)))


def reference_intertwiner_basis(a_list, b_list):
    """{X : A_i X = X B_i} by direct elimination on the r*s unknown entries of
    X: every pair contributes r*s homogeneous conditions, one per entry of
    A_i X - X B_i."""
    field = a_list[0].field
    r, s = a_list[0].nrows, b_list[0].nrows
    n = r * s
    sub = field.sub
    rows = []
    for a, b in zip(a_list, b_list):
        ae, be = a.entries, b.entries
        for u in range(r):
            for v in range(s):
                row = [0] * n
                for t in range(r):
                    row[t * s + v] = ae[u * r + t]
                for t in range(s):
                    row[u * s + t] = sub(row[u * s + t], be[t * s + v])
                rows.append(row)
    system = Matrix(field, len(rows), n, [v for row in rows for v in row])
    return IntertwiningCode(field, r, s, [Matrix(field, r, s, vec.entries)
                                          for vec in system.nullspace()])


def reference_poly_mul(f, g):
    """f * g by the schoolbook loop, one field call per coefficient pair."""
    field = f.field
    a, b = f.coeffs, g.coeffs
    if not a or not b:
        return Poly.zero(field)
    out = [0] * (len(a) + len(b) - 1)
    add, mul = field.add, field.mul
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return Poly(field, out)


def reference_poly_divmod(f, g):
    """(quotient, remainder) of f by a nonzero g by schoolbook long division,
    one field call per coefficient operation."""
    field = f.field
    db = g.degree
    if f.degree < db:
        return Poly.zero(field), f
    a = list(f.coeffs)
    bq = g.coeffs
    inv_lead = field.inv(bq[-1])
    sub, mul = field.sub, field.mul
    qcoeffs = [0] * (f.degree - db + 1)
    for i in range(f.degree - db, -1, -1):
        top = a[i + db]
        if top:
            c = mul(top, inv_lead)
            qcoeffs[i] = c
            for j in range(db + 1):
                if bq[j]:
                    a[i + j] = sub(a[i + j], mul(c, bq[j]))
    return Poly(field, qcoeffs), Poly(field, a[:db])


def reference_dimension_formula(a, b):
    """The closed-form dimension from two full primary decompositions,
    paired by irreducible: the components that only one side has are
    computed and then dropped."""
    by_irr = {c.irr: c for c in primary_decomposition(b)}
    terms = []
    for ca in primary_decomposition(a):
        cb = by_irr.get(ca.irr)
        if cb is not None:
            amount = ca.degree * conjugate_product([ca.partition, cb.partition])
            terms.append(FactorTerm(ca.irr, ca.partition, cb.partition, amount))
    return DimensionBreakdown(sum(t.contribution for t in terms), tuple(terms))


def reference_component(a, irr, mult):
    """The primary component of irr (multiplicity mult) in a from the powers
    of irr(a): one product and one rref per nullity n_j = dim ker irr(a)^j,
    with the same consistency checks as ``canonical._component``."""
    n = a.nrows
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
    return PrimaryComponent(irr, mult, partition)
