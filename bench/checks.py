"""Checkers: compare one request's output bytes with its planted answer.

Each checker returns None when the output is right and a short reason when
it is not.  They run after the timed loop, never inside it.
"""

from __future__ import annotations

import json

from intertwine.fields import FiniteField
from intertwine.polys import Poly
from plant import FIELDS


def _check_dim(step, obj):
    k = step.expect["k"]
    if obj.get("k") != k or obj.get("oracle") != k:
        return f"k {obj.get('k')} != planted {k}"
    if obj.get("consistent") is not True or obj.get("formula", {}).get("total") != k:
        return "formula total disagrees or consistent is not true"
    return None


def _check_basis(step, obj):
    e = step.expect
    if obj.get("k") != e["k"]:
        return f"k {obj.get('k')} != planted {e['k']}"
    if (obj.get("r"), obj.get("s")) != (e["r"], e["s"]) or len(obj.get("basis", ())) != e["k"]:
        return "shape or basis length disagrees"
    return None


def _check_formula(step, obj):
    if obj.get("total") != step.expect["k"]:
        return f"total {obj.get('total')} != planted {step.expect['k']}"
    return None


def _check_bounds(step, obj):
    e = step.expect
    if (obj.get("lo"), obj.get("hi")) != (e["lo"], e["hi"]):
        return f"bounds {obj.get('lo')}..{obj.get('hi')} != planted {e['lo']}..{e['hi']}"
    return None


def _check_zero(step, obj):
    if obj.get("zero") is not step.expect["zero"]:
        return f"zero {obj.get('zero')} != planted {step.expect['zero']}"
    return None


def _check_factor(step, obj):
    p, e = FIELDS[step.expect["q"]]
    field = FiniteField(p, e)
    prod = Poly.constant(field, obj["unit"])
    for f in obj["factors"]:
        g = Poly(field, f["coeffs"])
        if not g.is_monic or g.degree < 1 or f["multiplicity"] < 1:
            return f"factor {f['coeffs']} is not monic of positive degree"
        prod = prod * g**f["multiplicity"]
    if list(prod.coeffs) != step.expect["coeffs"]:
        return "factors do not multiply back to the input"
    return None


def _check_construct(step, obj):
    e = step.expect
    got = (obj.get("r"), obj.get("s"), obj.get("k"), obj.get("claimed_d"), obj.get("transposed"))
    want = (e["r"], e["s"], e["k"], e["d"], e["transposed"])
    if got != want:
        return f"(r, s, k, d, transposed) {got} != planted {want}"
    return None


def _check_mindist(step, obj):
    e = step.expect
    if obj.get("d") != e["d"]:
        return f"d {obj.get('d')} != planted {e['d']}"
    if obj.get("enumerated") != e["q"] ** e["k"] - 1:
        return f"enumerated {obj.get('enumerated')} != q^k - 1"
    return None


def _check_verify(step, obj):
    if obj.get("passed") is not True or obj.get("distance_skipped") is not False:
        return f"passed={obj.get('passed')} distance_skipped={obj.get('distance_skipped')}"
    if not all(c.get("passed") is True for c in obj.get("checks", ())):
        return "a verification check failed"
    return None


CHECKERS = {
    "dim": _check_dim, "basis": _check_basis, "formula": _check_formula,
    "bounds": _check_bounds, "zero": _check_zero, "factor": _check_factor,
    "construct": _check_construct, "mindist": _check_mindist, "verify": _check_verify,
}


def check(step, out):
    """None if the output bytes carry the planted answer, else a reason."""
    try:
        obj = json.loads(out)
        if not isinstance(obj, dict):
            return "output is not a JSON object"
        return CHECKERS[step.kind](step, obj)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
