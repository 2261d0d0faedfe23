"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything is exact arithmetic: zero tolerance throughout.
"""

import random
import time
from fractions import Fraction

import pytest

from intertwine import (
    FiniteField,
    IntertwiningCode,
    Matrix,
    NotPrimeError,
    Partition,
    Poly,
    conjugate_code,
    conjugate_product,
    construct_code,
    construct_extremal,
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
)
from support import get_field, min_sum, rand_invertible, rand_matrix, rand_partition

ORACLE_ORDERS = (2, 3, 4, 5, 9)
CONSTRUCTION_ORDERS = (5, 7, 8, 9)


def _finish(number, label, failures, started=None):
    status = "PASS" if not failures else "FAIL"
    timing = f" [{time.time() - started:.1f}s]" if started is not None else ""
    print(f"{status} criterion {number}: {label}{timing}")
    assert not failures, f"criterion {number}: first failures: {failures[:5]}"


@pytest.fixture(scope="module")
def oracle_samples():
    rng = random.Random(1009)
    samples = []
    for _ in range(500):
        field = get_field(rng.choice(ORACLE_ORDERS))
        r = rng.randint(1, 6)
        s = rng.randint(1, 6)
        a = rand_matrix(rng, field, r, r)
        b = rand_matrix(rng, field, s, s)
        samples.append((a, b, intertwiner_basis([a], [b]).k))
    return samples


@pytest.fixture(scope="module")
def construction_grid():
    grid = []
    for q in CONSTRUCTION_ORDERS:
        field = get_field(q)
        for k in range(1, 7):
            if q < k + 2 or q**k > 10**5:
                continue
            for r in range(k, 7):
                for s in range(k, 7):
                    cert = construct_code(r, s, k, field)
                    code = intertwiner_basis([cert.A], [cert.B])
                    d = min_distance(code) if code.k else None
                    grid.append((q, r, s, k, cert, code.k, d))
    return grid


@pytest.fixture(scope="module")
def extremal_grid():
    grid = []
    for r in range(1, 6):
        for s in range(1, 6):
            field = _least_field(min(r, s) + 2)
            q = field.q
            cert = construct_extremal(r, s, field)
            code = intertwiner_basis([cert.A], [cert.B])
            d = min_distance(code) if code.k else None
            grid.append((q, r, s, cert, code.k, d))
    return grid


def _least_field(n):
    """GF(q) for the least prime power q >= n."""
    while True:
        try:
            return get_field(n)
        except NotPrimeError:
            n += 1


def test_criterion_1_dimension_formula_matches_oracle(oracle_samples):
    started = time.time()
    failures = []
    for a, b, k_oracle in oracle_samples:
        k_formula = dimension_formula(a, b).total
        if k_formula != k_oracle:
            failures.append((a.field.q, a.nrows, b.nrows, k_formula, k_oracle))
    _finish(1, f"formula = oracle on {len(oracle_samples)} random pairs",
            failures, started)


def test_criterion_2_construction_theorem(construction_grid):
    started = time.time()
    failures = []
    for q, r, s, k, cert, dim, d in construction_grid:
        want_d = (r // k) * s
        if dim != k or d != want_d or cert.claimed_d != want_d:
            failures.append((q, r, s, k, dim, d))
    _finish(2, f"dim k and distance floor(r/k)*s on {len(construction_grid)} constructions",
            failures, started)


def test_criterion_3_extremal_corollary(extremal_grid):
    started = time.time()
    failures = []
    for q, r, s, cert, dim, d in extremal_grid:
        if dim != min(r, s) or d != max(r, s):
            failures.append((q, r, s, dim, d))
    _finish(3, f"dim min(r,s), distance max(r,s) on {len(extremal_grid)} extremal codes",
            failures, started)


def test_criterion_4_partition_identity():
    started = time.time()
    rng = random.Random(271828)
    failures = []
    for _ in range(1000):
        tup = [rand_partition(rng, 30) for _ in range(rng.randint(1, 4))]
        lhs = min_sum(tup)
        rhs = conjugate_product(tup)
        if lhs != rhs:
            failures.append(([p.parts for p in tup], lhs, rhs))
    _finish(4, "min-sum = conjugate-product on 1000 random tuples", failures, started)


def test_criterion_5_bounds_sandwich(oracle_samples):
    started = time.time()
    failures = []
    for a, b, k in oracle_samples:
        lo, hi = spectral_bounds(a, b)
        if not lo <= k <= hi:
            failures.append(("spectral", a.field.q, lo, k, hi))
        lo, hi = rank_bounds(a, b)
        if not lo <= k <= hi:
            failures.append(("rank", a.field.q, lo, k, hi))
    # tightness at the rank upper bound for equal single nilpotent Jordan
    # blocks holds exactly up to size 2 (1 + (m-1)^2 = m has no larger roots);
    # the strict gap beyond is asserted so the boundary stays documented
    f2 = FiniteField(2)
    for m in range(1, 7):
        block = nilpotent_matrix(f2, Partition([m]))
        dim = intertwiner_basis([block], [block]).k
        hi = rank_bounds(block, block)[1]
        if m <= 2:
            if dim != hi:
                failures.append(("tight", m, dim, hi))
        elif dim >= hi:
            failures.append(("gap", m, dim, hi))
    _finish(5, "spectral and rank sandwiches on every criterion-1 sample",
            failures, started)


def test_criterion_6_nine_by_nine_worked_example():
    started = time.time()
    failures = []
    f2 = FiniteField(2)
    # least monic irreducible cubic over GF(2), found by exhaustive scan
    cubic = None
    for enc in range(8):
        cand = Poly(f2, [enc & 1, (enc >> 1) & 1, (enc >> 2) & 1, 1])
        if is_irreducible(cand):
            cubic = cand
            break
    if cubic != Poly(f2, (1, 1, 0, 1)):
        failures.append(("least cubic", cubic))
    a = generalized_jordan_matrix(cubic, Partition([3]))
    if a.charpoly() != cubic**3:
        failures.append(("charpoly", a.charpoly()))
    breakdown = dimension_formula(a, a)
    oracle = intertwiner_basis([a], [a]).k
    if breakdown.total != 9 or oracle != 9:
        failures.append(("dimension", breakdown.total, oracle))
    if [(t.irr, t.contribution) for t in breakdown.terms] != [(cubic, 9)]:
        failures.append(("breakdown", breakdown.terms))
    _finish(6, "9x9 cyclic pair with cubic-cubed characteristic polynomial has dim 9",
            failures, started)


def test_criterion_7_invariance_suite():
    started = time.time()
    rng = random.Random(314159)
    failures = []

    for trial in range(100):
        field = get_field(rng.choice(ORACLE_ORDERS))
        q = field.q

        # shift invariance: identical canonical bases
        n = rng.randint(1, 4)
        a = rand_matrix(rng, field, n, n)
        b = rand_matrix(rng, field, n, n)
        alpha = rng.randrange(q)
        shifted = intertwiner_basis([a - Matrix.scalar(field, n, alpha)],
                                    [b - Matrix.scalar(field, n, alpha)])
        if shifted != intertwiner_basis([a], [b]):
            failures.append(("shift", trial))

        # conjugation: image code equals code of the conjugated pair
        r, s = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, field, r, r)
        b = rand_matrix(rng, field, s, s)
        code = intertwiner_basis([a], [b])
        rm = rand_invertible(rng, field, r)
        sm = rand_invertible(rng, field, s)
        if conjugate_code(code, rm, sm) != intertwiner_basis(
                [rm.inverse() * a * rm], [sm.inverse() * b * sm]):
            failures.append(("conjugation", trial))

        # extension invariance: GF(2) pairs re-read over GF(4)
        f2, f4 = get_field(2), get_field(4)
        r, s = rng.randint(1, 4), rng.randint(1, 4)
        a2 = rand_matrix(rng, f2, r, r)
        b2 = rand_matrix(rng, f2, s, s)
        lifted_dim = intertwiner_basis(
            [Matrix(f4, r, r, a2.entries)], [Matrix(f4, s, s, b2.entries)]).k
        if intertwiner_basis([a2], [b2]).k != lifted_dim:
            failures.append(("extension", trial))

        # direct-sum additivity
        sizes = [rng.randint(1, 3) for _ in range(4)]
        mats = [rand_matrix(rng, field, sz, sz) for sz in sizes]
        lhs = intertwiner_basis([direct_sum(mats[:2])], [direct_sum(mats[2:])]).k
        rhs = sum(intertwiner_basis([x], [y]).k for x in mats[:2] for y in mats[2:])
        if lhs != rhs:
            failures.append(("direct-sum", trial))

        # transpose duality: swapped transposed pair spans the transposed basis
        r, s = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, field, r, r)
        b = rand_matrix(rng, field, s, s)
        code = intertwiner_basis([a], [b])
        dual = intertwiner_basis([b.transpose()], [a.transpose()])
        transposed = IntertwiningCode(field, s, r, [x.transpose() for x in code.basis])
        if dual.k != code.k or transposed != dual:
            failures.append(("transpose", trial))
        if sorted(x.weight() for x in transposed.basis) != sorted(
                x.weight() for x in dual.basis):
            failures.append(("transpose-weights", trial))

        # coprimality zero test is exact in both directions
        r, s = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, field, r, r)
        b = rand_matrix(rng, field, s, s)
        if is_zero_code(a, b) != (intertwiner_basis([a], [b]).k == 0):
            failures.append(("zero-test", trial))

    _finish(7, "shift/conjugation/extension/direct-sum/transpose/zero-test on 100 instances each",
            failures, started)


def test_criterion_8_rate_distance_and_singleton(construction_grid, extremal_grid):
    started = time.time()
    failures = []
    for q, r, s, k, cert, dim, d in construction_grid:
        n = r * s
        rate_d = Fraction(k, n) * d
        if rate_d > 1:
            failures.append(("rate", q, r, s, k, rate_d))
        if (rate_d == 1) != (r % k == 0):
            failures.append(("rate-equality", q, r, s, k, rate_d))
        if d + dim > n + 1:
            failures.append(("singleton", q, r, s, k, d))
    for q, r, s, cert, dim, d in extremal_grid:
        if d + dim > r * s + 1:
            failures.append(("singleton-extremal", q, r, s, d))
    _finish(8, "R*d <= 1 with equality iff k | r, and the Singleton bound",
            failures, started)
