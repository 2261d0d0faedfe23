"""JSON round-trips for every artifact the CLI reads or writes.

All builders return plain dict/list structures with a stable key order, so
json.dumps output is byte-reproducible.  Parsers validate shape and raise
ValueError with a readable message on malformed input, where a JSON boolean
never counts as an integer; mathematical preconditions keep their dedicated
exceptions.  Codes carry no minimum distance: the "d" and "d_budget" keys
that older versions wrote are ignored on input.
"""

from __future__ import annotations

from .codes import IntertwiningCode
from .construct import Certificate, VerificationReport
from .fields import FiniteField
from .matrices import Matrix
from .polys import Factorization, Poly


def _require(obj, key, types, what):
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{what}: missing key {key!r}")
    val = obj[key]
    # JSON true/false arrive as bool, which Python counts as an int
    if not isinstance(val, types) or (types is int and isinstance(val, bool)):
        raise ValueError(f"{what}: key {key!r} has the wrong type")
    return val


def _optional_int(obj, key, what):
    val = obj.get(key)
    if val is not None and (not isinstance(val, int) or isinstance(val, bool)):
        raise ValueError(f"{what}: key {key!r} must be an integer or null")
    return val


def _int_list(val, what):
    if not isinstance(val, list) or any(not isinstance(x, int) or isinstance(x, bool) for x in val):
        raise ValueError(f"{what}: expected a list of integers")
    return [int(x) for x in val]


# -- fields -----------------------------------------------------------------

def field_to_json(field: FiniteField) -> dict:
    out = {"p": field.p, "e": field.e}
    if field.e > 1:
        out["modulus"] = list(field.modulus)
    return out


def field_from_json(obj) -> FiniteField:
    p = _require(obj, "p", int, "field")
    e = _require(obj, "e", int, "field")
    modulus = None
    if "modulus" in obj and obj["modulus"] is not None:
        modulus = tuple(_int_list(obj["modulus"], "field modulus"))
    return FiniteField(p, e, modulus)


# -- polynomials --------------------------------------------------------------

def poly_to_json(f: Poly) -> dict:
    return {"field": field_to_json(f.field), "coeffs": list(f.coeffs)}


def poly_from_json(obj) -> Poly:
    field = field_from_json(_require(obj, "field", dict, "polynomial"))
    coeffs = _int_list(_require(obj, "coeffs", list, "polynomial"), "polynomial coeffs")
    return Poly(field, coeffs)


# -- matrices ------------------------------------------------------------------

def matrix_to_json(m: Matrix) -> dict:
    return {
        "field": field_to_json(m.field),
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [list(m.row(i)) for i in range(m.nrows)],
    }


def matrix_from_json(obj) -> Matrix:
    field = field_from_json(_require(obj, "field", dict, "matrix"))
    nrows = _require(obj, "rows", int, "matrix")
    ncols = _require(obj, "cols", int, "matrix")
    raw = _require(obj, "entries", list, "matrix")
    if len(raw) != nrows:
        raise ValueError(f"matrix: expected {nrows} rows, got {len(raw)}")
    flat = []
    for row in raw:
        row = _int_list(row, "matrix row")
        if len(row) != ncols:
            raise ValueError(f"matrix: expected {ncols} columns, got {len(row)}")
        flat.extend(row)
    return Matrix(field, nrows, ncols, flat)


# -- codes ------------------------------------------------------------------------

def code_to_json(code: IntertwiningCode) -> dict:
    return {
        "field": field_to_json(code.field),
        "r": code.r,
        "s": code.s,
        "k": code.k,
        "basis": [matrix_to_json(m) for m in code.basis],
    }


def code_from_json(obj) -> IntertwiningCode:
    """Parse a code; an optional "k" must equal the rank of the basis.  Like
    any other extra key, the "d" and "d_budget" keys that older versions
    wrote are ignored."""
    field = field_from_json(_require(obj, "field", dict, "code"))
    r = _require(obj, "r", int, "code")
    s = _require(obj, "s", int, "code")
    basis = [matrix_from_json(m) for m in _require(obj, "basis", list, "code")]
    code = IntertwiningCode(field, r, s, basis)
    k = _optional_int(obj, "k", "code")
    if k is not None and k != code.k:
        raise ValueError(f"code: key 'k' is {k}, but the basis has rank {code.k}")
    return code


# -- factorizations ---------------------------------------------------------------------

def factorization_to_json(fact: Factorization) -> dict:
    return {
        "field": field_to_json(fact.field),
        "unit": fact.unit,
        "factors": [
            {"coeffs": list(g.coeffs), "multiplicity": m} for g, m in fact.factors
        ],
    }


# -- certificates -----------------------------------------------------------------------

def certificate_to_json(cert: Certificate) -> dict:
    return {
        "field": field_to_json(cert.field),
        "r": cert.r,
        "s": cert.s,
        "k": cert.k,
        "A0": matrix_to_json(cert.A0),
        "B0": matrix_to_json(cert.B0),
        "zetas": list(cert.zetas),
        "alpha": cert.alpha,
        "beta": cert.beta,
        "gamma": cert.gamma,
        "R": matrix_to_json(cert.R),
        "S": matrix_to_json(cert.S),
        "A": matrix_to_json(cert.A),
        "B": matrix_to_json(cert.B),
        "X": [matrix_to_json(x) for x in cert.X],
        "row_blocks": [list(b) for b in cert.row_blocks],
        "claimed_d": cert.claimed_d,
        "transposed": cert.transposed,
    }


def certificate_from_json(obj) -> Certificate:
    field = field_from_json(_require(obj, "field", dict, "certificate"))
    alpha = _optional_int(obj, "alpha", "certificate")
    beta = _optional_int(obj, "beta", "certificate")
    transposed = obj.get("transposed", False)
    if not isinstance(transposed, bool):
        raise ValueError("certificate: key 'transposed' must be a boolean")
    blocks = _require(obj, "row_blocks", list, "certificate")

    def matrix(key):
        return matrix_from_json(_require(obj, key, dict, "certificate"))

    return Certificate(
        field=field,
        r=_require(obj, "r", int, "certificate"),
        s=_require(obj, "s", int, "certificate"),
        k=_require(obj, "k", int, "certificate"),
        A0=matrix("A0"),
        B0=matrix("B0"),
        zetas=tuple(_int_list(_require(obj, "zetas", list, "certificate"), "zetas")),
        alpha=alpha,
        beta=beta,
        gamma=_require(obj, "gamma", int, "certificate"),
        R=matrix("R"),
        S=matrix("S"),
        A=matrix("A"),
        B=matrix("B"),
        X=tuple(matrix_from_json(x) for x in _require(obj, "X", list, "certificate")),
        row_blocks=tuple(tuple(_int_list(b, "row block")) for b in blocks),
        claimed_d=_require(obj, "claimed_d", int, "certificate"),
        transposed=transposed,
    )


# -- verification reports ------------------------------------------------------------------

def report_to_json(report: VerificationReport) -> dict:
    return {
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
        "passed": report.passed,
        "distance_skipped": report.distance_skipped,
    }
