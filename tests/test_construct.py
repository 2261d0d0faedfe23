"""Seeded diagonal pairs, the distance construction, and certificate checks."""

import random
from fractions import Fraction

import pytest

from intertwine import (
    BadKError,
    CertificateCheck,
    FieldTooSmallError,
    FiniteField,
    InternalInconsistencyError,
    IntertwiningCode,
    Matrix,
    construct_code,
    construct_extremal,
    diagonal_seed,
    intertwiner_basis,
    min_distance,
    verify_certificate,
)
from intertwine import codes, construct
from intertwine._packed import _rref
from support import get_field

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


def test_diagonal_seed_examples():
    a0, b0 = diagonal_seed(2, 2, 1, F3)
    assert a0 == Matrix.diagonal(F3, [0, 1])
    assert b0 == Matrix.diagonal(F3, [0, 2])
    code = intertwiner_basis([a0], [b0])
    assert code.basis == (Matrix.unit(F3, 2, 2, 0, 0),)
    assert min_distance(code) == 1

    a0, b0 = diagonal_seed(2, 2, 2, F2)
    assert a0 == b0 == Matrix.diagonal(F2, [0, 1])

    with pytest.raises(FieldTooSmallError) as exc:
        diagonal_seed(2, 2, 1, F2)
    assert (exc.value.required, exc.value.actual) == (3, 2)


def test_diagonal_seed_spans_matrix_units():
    rng = random.Random(3)
    for q in (3, 4, 5, 7):
        field = get_field(q)
        for _ in range(8):
            r, s = rng.randint(1, 4), rng.randint(1, 4)
            k = rng.randint(1, min(r, s))
            need = k + (1 if r > k else 0) + (1 if s > k else 0)
            if field.q < need:
                continue
            a0, b0 = diagonal_seed(r, s, k, field)
            units = [Matrix.unit(field, r, s, i, i) for i in range(k)]
            assert intertwiner_basis([a0], [b0]) == IntertwiningCode(field, r, s, units)


def test_bad_k_rejected():
    with pytest.raises(BadKError):
        diagonal_seed(2, 2, 0, F5)
    with pytest.raises(BadKError):
        construct_code(2, 3, 3, F5)


@pytest.mark.parametrize("build", [
    lambda: construct_code(True, 2, 1, F5),
    lambda: construct_code(3.0, 2, 1, F5),
    lambda: construct_code(3, 2, 1.0, F5),
    lambda: construct_extremal(3, 2.0, F5),
    lambda: construct_extremal(True, 2, F5),
    lambda: diagonal_seed(2, 2, True, F5),
])
def test_sizes_that_are_not_plain_ints_rejected(build):
    with pytest.raises(BadKError, match="must be integers"):
        build()


def test_construct_code_example_3_2_2():
    cert = construct_code(3, 2, 2, F5)
    assert cert.row_blocks == ((1,), (2, 3))
    assert cert.claimed_d == 2
    code = intertwiner_basis([cert.A], [cert.B])
    assert code.k == 2
    assert min_distance(code) == 2
    # independent oracle: all 5^2 - 1 = 24 nonzero codewords, materialized
    weights = [
        code.codeword((c1, c2)).weight()
        for c1 in range(5) for c2 in range(5) if (c1, c2) != (0, 0)
    ]
    assert len(weights) == 24
    assert min(weights) == 2


def test_construct_code_square_full_k():
    cert = construct_code(2, 2, 2, F5)
    code = intertwiner_basis([cert.A], [cert.B])
    d = min_distance(code)
    assert (code.k, d) == (2, 2)
    assert Fraction(code.k, 4) * d == 1


def test_construct_code_k_one_fills_support():
    for s in (2, 3, 4):
        cert = construct_code(3, s, 1, F3)
        assert cert.claimed_d == 3 * s
        assert cert.X[0].weight() == 3 * s
        code = intertwiner_basis([cert.A], [cert.B])
        assert min_distance(code) == 3 * s


def test_construct_requires_k_plus_two_elements():
    with pytest.raises(FieldTooSmallError) as exc:
        construct_code(2, 2, 1, F2)
    assert (exc.value.required, exc.value.actual) == (3, 2)


def test_codeword_supports_follow_row_blocks():
    cert = construct_code(5, 3, 2, get_field(7))
    for ell, block in enumerate(cert.row_blocks):
        x = cert.X[ell]
        assert x.weight() == len(block) * cert.s
        for i in range(cert.r):
            row_weight = sum(1 for v in x.row(i) if v)
            assert row_weight == (cert.s if i + 1 in block else 0)
    sizes = [len(b) for b in cert.row_blocks]
    assert sizes[:-1] == [5 // 2] * (cert.k - 1)
    assert sum(sizes) == 5


def test_gamma_avoids_degenerate_values():
    for q in (4, 5, 7, 9):
        field = get_field(q)
        for s in range(1, 5):
            cert = construct_code(s, s, 1, field)
            assert cert.gamma not in (0, 1)
            assert cert.gamma != field.sub(1, s % field.p)


def test_gamma_fallback_is_all_ones_row():
    cert = construct_code(1, 2, 1, F3)  # every other choice is excluded in GF(3)
    assert cert.gamma == 1
    assert cert.S.row(0) == (1, 1)
    assert min_distance(intertwiner_basis([cert.A], [cert.B])) == 2


def test_construction_is_deterministic():
    a = construct_code(4, 3, 2, F5)
    b = construct_code(4, 3, 2, F5)
    assert a == b


def test_extremal_examples():
    cert = construct_extremal(2, 3, F5)
    code = intertwiner_basis([cert.A], [cert.B])
    assert (code.k, min_distance(code)) == (2, 3)
    assert not cert.transposed

    cert = construct_extremal(3, 2, F5)
    code = intertwiner_basis([cert.A], [cert.B])
    assert (code.k, min_distance(code)) == (2, 3)
    assert cert.transposed

    cert = construct_extremal(2, 2, F5)
    code = intertwiner_basis([cert.A], [cert.B])
    assert (code.k, min_distance(code)) == (2, 2)

    with pytest.raises(FieldTooSmallError):
        construct_extremal(3, 3, F3)


def test_transposed_certificate_is_consistent():
    cert = construct_extremal(4, 2, get_field(5))
    assert (cert.r, cert.s, cert.k) == (4, 2, 2)
    assert cert.claimed_d == 4
    report = verify_certificate(cert)
    assert report.passed
    assert cert.A == cert.R.inverse() * cert.A0 * cert.R
    assert cert.B == cert.S.inverse() * cert.B0 * cert.S


def test_verify_passes_on_fresh_certificates():
    rng = random.Random(13)
    for _ in range(6):
        q = rng.choice([5, 7, 8, 9])
        field = get_field(q)
        k = rng.randint(1, min(4, q - 2))
        r = rng.randint(k, 5)
        s = rng.randint(k, 5)
        cert = construct_code(r, s, k, field)
        report = verify_certificate(cert)
        assert report.passed, [c for c in report.checks if not c.passed]
        assert not report.distance_skipped


@pytest.mark.parametrize("r, s, k, q, d", [(14, 14, 7, 9, 28), (12, 12, 6, 16, 24)])
def test_min_distance_of_a_large_constructed_code(r, s, k, q, d):
    # 9^7 - 1 nonzero codewords over a field of list loops, and
    # 16^6 - 1 = 2^24 - 1 at the edge of the default budget
    cert = construct_code(r, s, k, get_field(q))
    assert min_distance(intertwiner_basis([cert.A], [cert.B])) == cert.claimed_d == d


def test_min_distance_of_a_long_code_of_small_dimension(monkeypatch):
    # 24 nonzero codewords against d / 2 = 100 generators: the scan finishes
    # on the first generator, after one elimination
    cert = construct_code(20, 20, 2, F5)
    code = intertwiner_basis([cert.A], [cert.B])
    calls = []
    monkeypatch.setattr(codes, "_rref", lambda *args: calls.append(args) or _rref(*args))
    assert min_distance(code) == cert.claimed_d == 200
    assert len(calls) == 1


@pytest.mark.parametrize("r, s, k, q, d, eliminations", [
    (9, 10, 3, 16, 30, 15), (10, 10, 3, 7, 30, 1), (16, 16, 4, 7, 64, 1)])
def test_min_distance_weighs_eliminations_against_codewords(monkeypatch, r, s, k, q, d,
                                                            eliminations):
    # another generator costs one elimination, about n / 8 codewords on byte
    # rows: at n = 90, 14 more of them (154) cost less than the first
    # generator's 270 other codewords; at n = 100 and 256 they cost more
    # than its 54 and 396
    cert = construct_code(r, s, k, get_field(q))
    code = intertwiner_basis([cert.A], [cert.B])
    calls = []
    monkeypatch.setattr(codes, "_rref", lambda *args: calls.append(args) or _rref(*args))
    assert min_distance(code) == cert.claimed_d == d
    assert len(calls) == eliminations


def test_verify_flags_zeroed_codeword():
    cert = construct_code(3, 2, 2, F5)
    bad = cert._replace(X=(Matrix.zero(F5, 3, 2),) + cert.X[1:])
    report = verify_certificate(bad)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "rank-one codeword identities" in failed


def test_verify_flags_inflated_distance():
    cert = construct_code(3, 2, 2, F5)
    bad = cert._replace(claimed_d=cert.claimed_d + 1)
    report = verify_certificate(bad)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"minimum distance equals claim", "minimum distance from disjoint supports"}


def test_verify_flags_singular_conjugator():
    cert = construct_code(2, 2, 1, F5)
    bad = cert._replace(R=Matrix.zero(F5, 2, 2))
    report = verify_certificate(bad)
    assert not report.passed
    assert any(c.name == "R invertible" and not c.passed for c in report.checks)


def test_verify_skips_distance_on_small_budget():
    cert = construct_code(3, 3, 2, F5)
    # the budget is checked against the 5^2 - 1 = 24 nonzero codewords
    for budget, skipped in ((3, True), (23, True), (24, False)):
        report = verify_certificate(cert, budget=budget)
        assert report.distance_skipped == skipped
        assert report.passed  # every other check still runs and passes
        names = [c.name for c in report.checks]
        assert ("minimum distance equals claim" in names) != skipped


def test_verify_reports_a_zero_code():
    cert = construct_code(3, 3, 2, F5)
    # the one element of GF(5) that is no seed scalar, so no eigenvalue of A
    [c] = set(range(5)) - {*cert.zetas, cert.alpha, cert.beta}
    report = verify_certificate(cert._replace(B=Matrix.scalar(F5, 3, c)))
    assert not report.passed and not report.distance_skipped
    assert CertificateCheck("minimum distance equals claim", False, "code is zero") in report.checks


def test_verify_confirms_distance_from_supports_beyond_budget():
    # 16^10 - 1 codewords are far beyond the default budget
    cert = construct_code(20, 10, 10, get_field(16))
    report = verify_certificate(cert)
    assert report.distance_skipped and report.passed
    assert cert.claimed_d == 20
    assert [c for c in report.checks if c.name == "minimum distance from disjoint supports"] == [
        CertificateCheck("minimum distance from disjoint supports", True)]


def test_verify_flags_overlapping_supports():
    cert = construct_code(3, 2, 2, F5)
    # X1 + X2 still lies in the code and keeps the X independent
    bad = cert._replace(X=(cert.X[0], cert.X[0] + cert.X[1]))
    report = verify_certificate(bad)
    [check] = [c for c in report.checks if c.name == "minimum distance from disjoint supports"]
    assert (check.passed, check.detail) == (False, "codeword supports overlap")
    assert not report.passed


def test_builder_self_check_runs_at_every_size(monkeypatch):
    # The check never solves for the code: the dimension is the closed form
    # and the distance comes from the disjoint supports, so neither a B with
    # dozens of Hessenberg blocks nor 16^10 - 1 codewords is a reason to skip it
    assert construct_code(2, 2, 2, F5).claimed_d == 2
    assert construct_code(40, 40, 2, F5).claimed_d == 800
    assert construct_code(20, 10, 10, get_field(16)).claimed_d == 20
    assert construct_extremal(12, 30, get_field(16)).claimed_d == 30
    # one entry changed keeps the supports disjoint but leaves the code
    cert = construct_code(3, 2, 2, F5)
    bent = list(cert.X[0].entries)
    bent[1] = 2
    with pytest.raises(InternalInconsistencyError, match="does not intertwine"):
        construct._self_check(cert._replace(X=(Matrix(F5, 3, 2, bent), *cert.X[1:])))
    # alpha = zeta_0 leaves every X_l in the code with the claimed weight, but
    # A0 and B0 then share a second eigenspace and the code grows to dimension r
    seed = construct._seed

    def colliding_seed(r, s, k, field, need):
        a0, b0, zetas, _, beta = seed(r, s, k, field, need)
        return Matrix.diagonal(field, [*zetas, *[zetas[0]] * (r - k)]), b0, zetas, zetas[0], beta

    with monkeypatch.context() as m:
        m.setattr(construct, "_seed", colliding_seed)
        with pytest.raises(InternalInconsistencyError, match="dimension 3, expected 2"):
            construct_code(3, 2, 2, F5)
    # gamma = 0 zeroes one entry of each distinguished row of S, so every
    # codeword is lighter than the claim
    monkeypatch.setattr(construct, "_choose_gamma", lambda field, s, k: 0)
    for r, s, k, q in ((3, 2, 2, 5), (20, 10, 10, 16)):
        with pytest.raises(InternalInconsistencyError, match="lightest codeword has weight"):
            construct_code(r, s, k, get_field(q))
