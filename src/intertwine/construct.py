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

from dataclasses import dataclass

from .codes import DEFAULT_BUDGET, IntertwiningCode, intertwiner_basis, min_distance
from .errors import (
    BadKError,
    FieldTooSmallError,
    InternalInconsistencyError,
    SingularError,
)
from .fields import FiniteField
from .matrices import Matrix, complete_invertible


@dataclass(frozen=True)
class Certificate:
    """Full witness for a constructed code: the diagonal seed, conjugators,
    rank-one codewords, and the claimed parameters.

    A certificate built by construct_extremal for r > s carries
    ``transposed=True``: its row_blocks then partition the columns and the
    roles of the indicator and full-support vectors swap between R and S.
    """

    field: FiniteField
    r: int
    s: int
    k: int
    A0: Matrix
    B0: Matrix
    zetas: tuple[int, ...]
    alpha: int | None
    beta: int | None
    gamma: int
    R: Matrix
    S: Matrix
    A: Matrix
    B: Matrix
    X: tuple[Matrix, ...]
    row_blocks: tuple[tuple[int, ...], ...]  # 1-based indices
    claimed_d: int
    transposed: bool = False


def _seed(r, s, k, field, need):
    # (A0, B0, zetas, alpha, beta) after checking k and that q >= need
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


def construct_code(r, s, k, field, *, check=True) -> Certificate:
    """Build a pair (A, B) whose code has dimension k and minimum distance
    floor(r/k) * s, together with the full witness data.

    Requires q >= k + 2.  With check=True (the default) the certificate is
    re-verified at every size: the codewords X_l must span the kernel-oracle
    code of (A, B), and their pairwise disjoint supports must put the
    lightest weight at the claimed distance; otherwise
    InternalInconsistencyError is raised.  check=False skips this
    self-check so that large shapes can still be built: its oracle solves
    for r unknowns per Hessenberg block of B, and B here has s - k + 1
    blocks.  construct_code(40, 40, 2, GF(5)) takes about 3 ms unchecked
    and 9 s checked (Python 3.11, one Xeon core).
    """
    a0, b0, zetas, alpha, beta = _seed(r, s, k, field, k + 2)

    width = r // k
    blocks = []
    for ell in range(1, k):
        blocks.append(tuple(range((ell - 1) * width + 1, ell * width + 1)))
    blocks.append(tuple(range((k - 1) * width + 1, r + 1)))  # last block absorbs the remainder

    gamma = _choose_gamma(field, s, k)
    u_rows = []
    for ell in range(k):
        row = [1] * s
        row[ell] = gamma
        u_rows.append(tuple(row))
    s_mat = complete_invertible(field, u_rows, s, mode="rows")

    v_cols = []
    for block in blocks:
        col = [0] * r
        for i in block:
            col[i - 1] = 1
        v_cols.append(tuple(col))
    t_mat = complete_invertible(field, v_cols, r, mode="columns")
    r_mat = t_mat.inverse()

    a = t_mat * a0 * r_mat
    b = s_mat.inverse() * b0 * s_mat

    f = field
    x_words = []
    for ell in range(k):
        col = v_cols[ell]
        row = u_rows[ell]
        ent = []
        for ci in col:
            ent.extend(row if ci else (0,) * s)
        x_words.append(Matrix(f, r, s, ent))

    cert = Certificate(
        field=field, r=r, s=s, k=k, A0=a0, B0=b0,
        zetas=zetas, alpha=alpha, beta=beta, gamma=gamma,
        R=r_mat, S=s_mat, A=a, B=b, X=tuple(x_words),
        row_blocks=tuple(blocks), claimed_d=width * s,
    )
    if check:
        _self_check(cert)
    return cert


def _self_check(cert):
    # Both bases are canonical, so equality means the X_l span the oracle
    # code; nonzero X_l with disjoint supports then make its dimension k.
    code = intertwiner_basis([cert.A], [cert.B])
    if IntertwiningCode(cert.field, cert.r, cert.s, cert.X) != code:
        raise InternalInconsistencyError(
            f"constructed codewords do not span the oracle code of dimension {code.k}"
        )
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


def construct_extremal(r, s, field, *, check=True) -> Certificate:
    """A pair whose code has dimension min(r, s) and distance max(r, s).

    For r <= s this is construct_code(r, s, r); otherwise the construction
    runs for the transposed shape and all witness data is transposed, using
    that X -> X^T maps the code of (A, B) onto the code of (B^T, A^T) with
    weights preserved.
    """
    if r <= s:
        return construct_code(r, s, r, field, check=check)
    base = construct_code(s, r, s, field, check=check)
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


@dataclass(frozen=True)
class CertificateCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CertificateCheck, ...]
    distance_skipped: bool = False

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
    by exhaustive scan (skipped, with a flag, when q^k - 1 exceeds the
    budget).  This function shares no intermediate state with the builder.
    A certificate whose k, number of codewords or matrix shapes and fields
    do not fit r and s gets a single failed "certificate shapes" check.
    """
    problem = _shape_problem(cert)
    if problem:
        return VerificationReport((CertificateCheck("certificate shapes", False, problem),))
    checks = []
    field, r, s, k = cert.field, cert.r, cert.s, cert.k

    t_inv = None
    try:
        t_inv = cert.R.inverse()
        checks.append(CertificateCheck("R invertible", True))
    except SingularError:
        checks.append(CertificateCheck("R invertible", False, "R is singular"))
    s_inv = None
    try:
        s_inv = cert.S.inverse()
        checks.append(CertificateCheck("S invertible", True))
    except SingularError:
        checks.append(CertificateCheck("S invertible", False, "S is singular"))

    distinct = len({*cert.zetas,
                    *([] if cert.alpha is None else [cert.alpha]),
                    *([] if cert.beta is None else [cert.beta])})
    expected = k + (cert.alpha is not None) + (cert.beta is not None)
    checks.append(CertificateCheck(
        "seed scalars distinct", distinct == expected,
        "" if distinct == expected else f"{distinct} distinct of {expected}"))

    blocks_ok = _blocks_cover(cert.row_blocks, r if not cert.transposed else s, k)
    checks.append(CertificateCheck(
        "row blocks partition the index set", blocks_ok,
        "" if blocks_ok else f"blocks {cert.row_blocks} do not partition"))

    structure_ok = _structure_ok(cert, t_inv)
    checks.append(CertificateCheck(
        "indicator / full-support structure", structure_ok,
        "" if structure_ok else "distinguished rows or columns have the wrong shape"))

    rank_one_ok = True
    detail = ""
    if t_inv is None:
        rank_one_ok = False
        detail = "R is singular"
    else:
        for ell in range(k):
            if t_inv * Matrix.unit(field, r, s, ell, ell) * cert.S != cert.X[ell]:
                rank_one_ok = False
                detail = f"codeword {ell + 1} is not R^-1 E S"
                break
    checks.append(CertificateCheck("rank-one codeword identities", rank_one_ok, detail))

    intertwines = all((cert.A * x - x * cert.B).is_zero for x in cert.X)
    checks.append(CertificateCheck(
        "codewords intertwine (A, B)", intertwines,
        "" if intertwines else "some A X - X B is nonzero"))

    seed_ok = (t_inv is not None and s_inv is not None and _seed_diagonals_ok(cert)
               and cert.A == t_inv * cert.A0 * cert.R
               and cert.B == s_inv * cert.B0 * cert.S)
    checks.append(CertificateCheck(
        "pair is the conjugated seed", seed_ok,
        "" if seed_ok else "A0, B0 are not the stated diagonals or A, B not their conjugates"))

    span_k = IntertwiningCode(field, r, s, cert.X).k
    checks.append(CertificateCheck(
        "codewords independent", span_k == k,
        "" if span_k == k else f"span has dimension {span_k}"))

    code = intertwiner_basis([cert.A], [cert.B])
    checks.append(CertificateCheck(
        "oracle dimension equals k", code.k == k,
        "" if code.k == k else f"oracle dimension {code.k}"))

    if intertwines and span_k == k == code.k:
        detail = _distance_problem(cert.X, cert.claimed_d)
    else:
        detail = "codewords do not span the oracle code"
    checks.append(CertificateCheck("minimum distance from disjoint supports", not detail, detail))

    skipped = False
    if code.k == 0:
        checks.append(CertificateCheck("minimum distance equals claim", False, "code is zero"))
    elif field.q**code.k - 1 > budget:
        skipped = True
    else:
        d = min_distance(code, budget)
        checks.append(CertificateCheck(
            "minimum distance equals claim", d == cert.claimed_d,
            "" if d == cert.claimed_d else f"distance {d}, claimed {cert.claimed_d}"))
    return VerificationReport(tuple(checks), skipped)


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


def _blocks_cover(blocks, total, k):
    # the canonical layout: k-1 blocks of size floor(total/k), the last
    # block absorbing the remainder, all contiguous
    if len(blocks) != k or k < 1 or total < k:
        return False
    width = total // k
    expected = [tuple(range((ell - 1) * width + 1, ell * width + 1)) for ell in range(1, k)]
    expected.append(tuple(range((k - 1) * width + 1, total + 1)))
    return list(blocks) == expected


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
    if t_inv is None:
        return False
    k = cert.k
    if not cert.transposed:
        indicator_vecs = [t_inv.col(ell) for ell in range(k)]
        support_vecs = [cert.S.row(ell) for ell in range(k)]
        block_len = cert.r
    else:
        indicator_vecs = [cert.S.row(ell) for ell in range(k)]
        support_vecs = [t_inv.col(ell) for ell in range(k)]
        block_len = cert.s
    for ell in range(k):
        block = set(cert.row_blocks[ell])
        vec = indicator_vecs[ell]
        if len(vec) != block_len:
            return False
        for i, v in enumerate(vec, start=1):
            if v != (1 if i in block else 0):
                return False
        expected = [1] * len(support_vecs[ell])
        expected[ell] = cert.gamma
        if list(support_vecs[ell]) != expected or cert.gamma == 0:
            return False
    return True
