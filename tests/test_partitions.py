"""Partition conjugation, the conjugate product and its min-sum reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwine import (
    EmptyListError,
    Partition,
    conjugate_product,
    intertwiner_basis,
    nilpotent_matrix,
)
from support import get_field, min_sum, partitions_of, rand_partition


@st.composite
def partitions(draw, max_weight=40):
    w = draw(st.integers(0, max_weight))
    parts = []
    while w:
        part = draw(st.integers(1, w))
        parts.append(part)
        w -= part
    return Partition(sorted(parts, reverse=True))


def test_validation():
    with pytest.raises(ValueError):
        Partition([0, 1])
    with pytest.raises(ValueError):
        Partition([1, 2])
    # parts are never coerced: no float, string or bool counts as an integer
    for bad in ([2.5], [2.0], ["3"], [True], [2, True]):
        with pytest.raises(ValueError):
            Partition(bad)
    assert Partition([]).weight == 0
    assert Partition([3, 1]).weight == 4


def test_conjugate_examples():
    assert Partition([5, 3, 3, 1]).conjugate() == Partition([4, 3, 3, 1, 1])
    assert Partition([]).conjugate() == Partition([])
    assert Partition([4]).conjugate() == Partition([1, 1, 1, 1])


@settings(max_examples=150, deadline=None)
@given(partitions())
def test_conjugate_is_weight_preserving_involution(lam):
    conj = lam.conjugate()
    assert conj.weight == lam.weight
    assert conj.conjugate() == lam


def test_min_sum_examples():
    assert min_sum([Partition([2, 1]), Partition([2])]) == 3
    assert min_sum([Partition([1] * 4), Partition([1] * 5)]) == 20
    assert min_sum([Partition([2, 1])] * 3) == 9
    assert min_sum([Partition([]), Partition([3])]) == 0


def test_conjugate_product_examples():
    assert conjugate_product([Partition([2, 1]), Partition([2])]) == 3
    lam = Partition([5, 3, 3, 1])
    assert conjugate_product([lam]) == lam.weight == 12
    assert conjugate_product([Partition([2, 1])] * 3) == 9
    assert conjugate_product([Partition([]), Partition([3])]) == 0


def test_empty_list_rejected():
    with pytest.raises(EmptyListError):
        conjugate_product([])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_min_sum_equals_conjugate_product(data):
    tup = [data.draw(partitions(max_weight=30)) for _ in range(data.draw(st.integers(1, 4)))]
    assert min_sum(tup) == conjugate_product(tup)


def test_nilpotent_pair_dim_examples():
    assert conjugate_product([Partition([3]), Partition([3])]) == 3
    assert conjugate_product([Partition([1] * 3), Partition([1] * 4)]) == 12
    assert conjugate_product([Partition([2, 1]), Partition([2])]) == 3


@pytest.mark.parametrize("q", [2, 3])
def test_nilpotent_pair_dim_matches_kernel_oracle(q):
    field = get_field(q)
    rng = random.Random(q)
    pool = [lam for n in range(0, 7) for lam in partitions_of(n)]
    for _ in range(40):
        lam, mu = rng.choice(pool), rng.choice(pool)
        if lam.weight == 0 or mu.weight == 0:
            continue
        a = nilpotent_matrix(field, lam)
        b = nilpotent_matrix(field, mu)
        expected = intertwiner_basis([a], [b]).k
        assert conjugate_product([lam, mu]) == expected


def test_dimension_sandwich():
    rng = random.Random(5)
    for _ in range(100):
        lam = rand_partition(rng, 12)
        mu = rand_partition(rng, 12)
        if not lam or not mu:
            continue
        dim = conjugate_product([lam, mu])
        assert len(lam) * len(mu) <= dim <= lam.weight * mu.weight
