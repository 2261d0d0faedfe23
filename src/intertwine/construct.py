"""Constructive intertwining codes with machine-checkable certificates.

The construction conjugates a diagonal seed pair whose intertwiner space is
spanned by the matrix units E_11..E_kk.  Choosing the first k columns of
R^{-1} as 0/1 indicators of a row-block partition and the first k rows of S
as full-support vectors turns each E_ll into a rank-one codeword supported on
one row block, which pins the minimum distance at floor(r/k) * s.

Every choice (scalars, gamma, completions) is deterministic, so rebuilding a
certificate from the same inputs is byte-identical.
"""

from __future__ import annotations

from collections import namedtuple

from .codes import (
    DEFAULT_BUDGET,
    IntertwiningCode,
    dimension_formula,
    intertwiner_basis,
    min_distance,
)
from .errors import (
    BadKError,
    BudgetExceededError,
    FieldTooSmallError,
    InternalInconsistencyError,
    SingularError,
    ZeroCodeError,
)
from .matrices import Matrix, complete_invertible


Certificate = namedtuple(
    "Certificate",
    "field r s k A0 B0 zetas alpha beta gamma R S A B X row_blocks claimed_d transposed",
    defaults=(False,),
)
Certificate.__doc__ = """Full witness for a constructed code: the diagonal seed, conjugators,
rank-one codewords, and the claimed parameters.

zetas, X and row_blocks are tuples, row_blocks of 1-based indices; alpha and
beta may be None.  A certificate built by construct_extremal for r > s
carries ``transposed=True``: its row_blocks then partition the columns and
the roles of the indicator and full-support vectors swap between R and S.
"""


def _seed(r, s, k, field, need):
    # (A0, B0, zetas, alpha, beta) after checking r, s, k and that q >= need
    if any(not isinstance(n, int) or isinstance(n, bool) for n in (r, s, k)):
        raise BadKError(f"r, s and k must be integers, got {r!r}, {s!r}, {k!r}")
    if not 1 <= k <= min(r, s):
        raise BadKError(f"k must satisfy 1 <= k <= min({r}, {s}), got {k}")
    if field.q < need:
        raise FieldTooSmallError(need, field.q)
    zetas = tuple(range(k))
    alpha = k if r > k else None
    beta = k + (r > k) if s > k else None
    a0 = Matrix.diagonal(field, list(zetas) + [alpha] * (r - k))
    b0 = Matrix.diagonal(field, list(zetas) + [beta] * (s - k))
    return a0, b0, zetas, alpha, beta


def diagonal_seed(r, s, k, field) -> tuple[Matrix, Matrix]:
    """Diagonal pair whose intertwiner space is spanned by E_11..E_kk.

    Both matrices share the first k scalars; the remaining diagonal entries
    are two fresh scalars (one per side), so the only coincidences between
    the diagonals sit at positions (l, l) for l <= k.  Scalars are the first
    admissible elements in canonical order.
    """
    return _seed(r, s, k, field, k + (r > k) + (s > k))[:2]


def _choose_gamma(field, s, k):
    # gamma = 1 or 1 - s*1 would make the first k rows of (gamma-1)I + J
    # dependent; gamma = 0 would put a zero into each row and cut the row
    # weight below s.  When the three exclusions cover the field (only
    # GF(3) with s = 2 mod 3, forcing k = 1) the single row falls back to
    # all-ones, i.e. gamma = 1.
    excluded = {0, 1, field.sub(1, s % field.p)}
    for x in field.elements():
        if x not in excluded:
            return x
    if k == 1:
        return 1
    raise InternalInconsistencyError("no admissible gamma despite q >= k + 2")


def construct_code(r, s, k, field) -> Certificate:
    """Build a pair (A, B) whose code has dimension k and minimum distance
    floor(r/k) * s, together with the full witness data.

    Requires q >= k + 2.  The certificate is re-verified at every size
    without solving for the code: every codeword X_l must intertwine (A, B),
    the closed-form dimension of (A, B) must be k, and the X_l must have
    nonempty, pairwise disjoint supports, which makes them independent, so
    they span the code, and puts its minimum distance at the lightest X_l;
    otherwise InternalInconsistencyError is raised.
    """
    a0, b0, zetas, alpha, beta = _seed(r, s, k, field, k + 2)
    blocks = _row_blocks(r, k)

    gamma = _choose_gamma(field, s, k)
    u_rows = [_full_support(gamma, ell, s) for ell in range(k)]
    s_mat = complete_invertible(field, u_rows, s)

    v_cols = [_indicator(block, r) for block in blocks]
    t_mat = complete_invertible(field, v_cols, r).transpose()
    r_mat = t_mat.inverse()

    a = t_mat * a0 * r_mat
    b = s_mat.inverse() * b0 * s_mat
    # X_l = v_l u_l, with v_l a 0/1 indicator
    x_words = [Matrix(field, r, s, [c * v for c in col for v in row])
               for col, row in zip(v_cols, u_rows)]

    cert = Certificate(
        field=field, r=r, s=s, k=k, A0=a0, B0=b0,
        zetas=zetas, alpha=alpha, beta=beta, gamma=gamma,
        R=r_mat, S=s_mat, A=a, B=b, X=tuple(x_words),
        row_blocks=blocks, claimed_d=(r // k) * s,
    )
    _self_check(cert)
    return cert


def _indicator(block, n):
    # the 0/1 indicator in GF(q)^n of a block of 1-based indices
    return tuple(int(i in block) for i in range(1, n + 1))


def _full_support(gamma, ell, n):
    # the vector of n ones but gamma at 0-based position ell
    return tuple(gamma if j == ell else 1 for j in range(n))


def _row_blocks(total, k):
    # the canonical layout of 1-based indices: k - 1 contiguous blocks of
    # total // k, the last block taking the remainder
    width = total // k
    bounds = [ell * width for ell in range(k)] + [total]
    return tuple(tuple(range(lo + 1, hi + 1)) for lo, hi in zip(bounds, bounds[1:]))


def _self_check(cert):
    # The X_l lie in the code.  _distance_problem passing means their
    # supports are pairwise disjoint and, as the claimed distance is
    # positive, nonempty, so the X_l are independent; with the code's
    # closed-form dimension at k they span it.
    if not all(cert.A * x == x * cert.B for x in cert.X):
        raise InternalInconsistencyError("a constructed codeword does not intertwine (A, B)")
    k = dimension_formula(cert.A, cert.B).total
    if k != cert.k:
        raise InternalInconsistencyError(f"constructed code has dimension {k}, expected {cert.k}")
    problem = _distance_problem(cert.X, cert.claimed_d)
    if problem:
        raise InternalInconsistencyError(f"constructed code: {problem}")


def _distance_problem(xs, claimed_d):
    # For X_l spanning the code with pairwise disjoint supports, the weight
    # of sum a_l X_l is the sum of wt(X_l) over a_l != 0, so d = min_l wt(X_l).
    # Returns "" when that minimum is the claim, else what is wrong.
    supports = [{i for i, v in enumerate(x.entries) if v} for x in xs]
    if sum(map(len, supports)) != len(set().union(*supports)):
        return "codeword supports overlap"
    lightest = min(map(len, supports))
    if lightest != claimed_d:
        return f"lightest codeword has weight {lightest}, claimed {claimed_d}"
    return ""


def construct_extremal(r, s, field) -> Certificate:
    """A pair whose code has dimension min(r, s) and distance max(r, s).

    For r <= s this is construct_code(r, s, r); otherwise the construction
    runs for the transposed shape and all witness data is transposed, using
    that X -> X^T maps the code of (A, B) onto the code of (B^T, A^T) with
    weights preserved.  The certificate gets construct_code's self-check.
    """
    if r <= s:
        return construct_code(r, s, r, field)
    base = construct_code(s, r, s, field)
    return _transpose_certificate(base)


def _transpose_certificate(c: Certificate) -> Certificate:
    t_new = c.S.transpose()  # columns of the new R^{-1} are the old u rows
    return Certificate(
        field=c.field, r=c.s, s=c.r, k=c.k,
        A0=c.B0, B0=c.A0,
        zetas=c.zetas, alpha=c.beta, beta=c.alpha, gamma=c.gamma,
        R=t_new.inverse(), S=c.R.inverse().transpose(),
        A=c.B.transpose(), B=c.A.transpose(),
        X=tuple(x.transpose() for x in c.X),
        row_blocks=c.row_blocks,
        claimed_d=c.claimed_d,
        transposed=True,
    )


CertificateCheck = namedtuple("CertificateCheck", "name passed detail", defaults=("",))


class VerificationReport(namedtuple("VerificationReport", "checks distance_skipped",
                                    defaults=(False,))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_certificate(cert: Certificate, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Recheck a certificate from scratch; failures are report entries.

    Verifies invertibility of R and S, the block/full-support structure of
    the distinguished rows and columns (the full-support ones all ones but
    gamma at position l), the rank-one identities R^{-1} E_ll S = X_l, that
    every X_l intertwines (A, B), that A0 and B0 are the diagonals of the
    stated zetas, alpha and beta and (A, B) their stated conjugate, the
    oracle dimension, the claimed minimum distance from the disjoint
    supports of the X_l (never skipped), and the claimed minimum distance
    by ``codes.min_distance`` (skipped, with a flag, when q^k - 1 exceeds
    the budget).  This function shares no intermediate state with the builder.
    A certificate whose k, number of codewords or matrix shapes and fields
    do not fit r and s gets a single failed "certificate shapes" check.
    """
    problem = _shape_problem(cert)
    if problem:
        return VerificationReport((CertificateCheck("certificate shapes", False, problem),))
    checks = []
    field, r, s, k = cert.field, cert.r, cert.s, cert.k

    def check(name, detail):
        checks.append(CertificateCheck(name, not detail, detail))

    t_inv, s_inv = _inverse(cert.R), _inverse(cert.S)
    check("R invertible", "R is singular" if t_inv is None else "")
    check("S invertible", "S is singular" if s_inv is None else "")

    extras = [x for x in (cert.alpha, cert.beta) if x is not None]
    distinct = len({*cert.zetas, *extras})
    expected = k + len(extras)
    check("seed scalars distinct",
          "" if distinct == expected else f"{distinct} distinct of {expected}")

    blocks_ok = tuple(cert.row_blocks) == _row_blocks(s if cert.transposed else r, k)
    check("row blocks partition the index set",
          "" if blocks_ok else f"blocks {cert.row_blocks} do not partition")

    check("indicator / full-support structure",
          "" if _structure_ok(cert, t_inv)
          else "distinguished rows or columns have the wrong shape")

    detail = ""
    if t_inv is None:
        detail = "R is singular"
    else:
        for ell in range(k):
            if t_inv * Matrix.unit(field, r, s, ell, ell) * cert.S != cert.X[ell]:
                detail = f"codeword {ell + 1} is not R^-1 E S"
                break
    check("rank-one codeword identities", detail)

    intertwines = all(cert.A * x == x * cert.B for x in cert.X)
    check("codewords intertwine (A, B)", "" if intertwines else "some A X - X B is nonzero")

    seed_ok = (t_inv is not None and s_inv is not None and _seed_diagonals_ok(cert)
               and cert.A == t_inv * cert.A0 * cert.R
               and cert.B == s_inv * cert.B0 * cert.S)
    check("pair is the conjugated seed",
          "" if seed_ok else "A0, B0 are not the stated diagonals or A, B not their conjugates")

    span_k = IntertwiningCode(field, r, s, cert.X).k
    check("codewords independent", "" if span_k == k else f"span has dimension {span_k}")

    code = intertwiner_basis([cert.A], [cert.B])
    check("oracle dimension equals k", "" if code.k == k else f"oracle dimension {code.k}")

    if intertwines and span_k == k == code.k:
        detail = _distance_problem(cert.X, cert.claimed_d)
    else:
        detail = "codewords do not span the oracle code"
    check("minimum distance from disjoint supports", detail)

    skipped = False
    try:
        d = min_distance(code, budget)
    except ZeroCodeError:
        check("minimum distance equals claim", "code is zero")
    except BudgetExceededError:
        skipped = True
    else:
        check("minimum distance equals claim",
              "" if d == cert.claimed_d else f"distance {d}, claimed {cert.claimed_d}")
    return VerificationReport(tuple(checks), skipped)


def _inverse(m):
    # m^-1, or None for a singular m
    try:
        return m.inverse()
    except SingularError:
        return None


def _shape_problem(cert):
    r, s, k = cert.r, cert.s, cert.k
    if not 1 <= k <= min(r, s):
        return f"k = {k} is outside 1..min({r}, {s})"
    if len(cert.X) != k or len(cert.row_blocks) != k:
        return f"{len(cert.X)} codewords and {len(cert.row_blocks)} row blocks for k = {k}"
    named = [("A0", cert.A0, r, r), ("B0", cert.B0, s, s), ("R", cert.R, r, r),
             ("S", cert.S, s, s), ("A", cert.A, r, r), ("B", cert.B, s, s)]
    named += [(f"X{ell + 1}", x, r, s) for ell, x in enumerate(cert.X)]
    for name, m, nrows, ncols in named:
        if (m.nrows, m.ncols) != (nrows, ncols):
            return f"{name} is {m.nrows}x{m.ncols}, expected {nrows}x{ncols}"
        if m.field != cert.field:
            return f"{name} is over {m.field}, the certificate over {cert.field}"
    return ""


def _seed_diagonals_ok(cert):
    # A0 = diag(zetas, alpha, ..., alpha) and B0 = diag(zetas, beta, ..., beta),
    # alpha absent exactly when r = k and beta when s = k.  The scalars are
    # only compared, so one outside the field fails instead of raising.
    for m, extra in ((cert.A0, cert.alpha), (cert.B0, cert.beta)):
        n = m.nrows
        values = [*cert.zetas, *[extra] * (n - cert.k)]
        if (extra is None) != (n == cert.k) or len(values) != n:
            return False
        if m.entries != tuple(values[i] if i == j else 0 for i in range(n) for j in range(n)):
            return False
    return True


def _structure_ok(cert, t_inv):
    # Direct orientation: columns of R^{-1} are block indicators and rows of
    # S are all ones but gamma at position l.  Transposed ones swap roles.
    if t_inv is None or cert.gamma == 0:
        return False
    indicators = [t_inv.col(ell) for ell in range(cert.k)]
    supports = [cert.S.row(ell) for ell in range(cert.k)]
    if cert.transposed:
        indicators, supports = supports, indicators
    return all(ind == _indicator(block, len(ind))
               and sup == _full_support(cert.gamma, ell, len(sup))
               for ell, (block, ind, sup) in enumerate(zip(cert.row_blocks, indicators, supports)))
