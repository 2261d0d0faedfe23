"""Command line front end: JSON in, JSON out, deterministic output, budgets.

Exit codes: 0 ok, 1 usage or parse error, 2 mathematical precondition
violation, 3 budget exceeded, 4 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .codes import (
    DEFAULT_BUDGET,
    dimension_formula,
    intertwiner_basis,
    is_zero_code,
    min_distance,
    rank_bounds,
    spectral_bounds,
)
from .construct import construct_code, construct_extremal, verify_certificate
from .errors import (
    BudgetExceededError,
    IntertwineError,
    InternalInconsistencyError,
)
from .fields import FiniteField
from . import serialize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub, *, field_opts=False, budget=False):
    sub.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    if budget:
        sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                         help="maximum number of enumerated codewords (default 2^24)")
    if field_opts:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--q", metavar="P^E", help="field order, e.g. 5 or 2^3 or 9")
        group.add_argument("--field", metavar="PATH", help="field JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="intertwine",
                     description="Exact analysis and construction of intertwining codes.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dim", help="dimension of the code of one or more pairs")
    p.add_argument("matrices", nargs="+", metavar="A.json B.json",
                   help="matrix files, in pairs")
    _add_common(p)
    p.set_defaults(handler=_cmd_dim)

    p = subs.add_parser("basis", help="canonical basis of the code of the given pairs")
    p.add_argument("matrices", nargs="+", metavar="A.json B.json")
    _add_common(p)
    p.set_defaults(handler=_cmd_basis)

    p = subs.add_parser("mindist", help="exhaustive minimum distance of a code")
    p.add_argument("code", metavar="code.json")
    _add_common(p, budget=True)
    p.set_defaults(handler=_cmd_mindist)

    p = subs.add_parser("bounds", help="dimension bounds for a single pair")
    p.add_argument("matrices", nargs=2, metavar=("A.json", "B.json"))
    _add_common(p)
    p.set_defaults(handler=_cmd_bounds)

    p = subs.add_parser("zero", help="coprimality zero-code test for a single pair")
    p.add_argument("matrices", nargs=2, metavar=("A.json", "B.json"))
    _add_common(p)
    p.set_defaults(handler=_cmd_zero)

    p = subs.add_parser("construct",
                        help="certificate for a code of dimension k and distance floor(r/k)*s")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("k", type=int)
    _add_common(p, field_opts=True)
    p.set_defaults(handler=_cmd_construct)

    p = subs.add_parser("extremal",
                        help="certificate for dimension min(r,s) and distance max(r,s)")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    _add_common(p, field_opts=True)
    p.set_defaults(handler=_cmd_extremal)

    p = subs.add_parser("verify", help="recheck a construction certificate")
    p.add_argument("certificate", metavar="cert.json")
    p.add_argument("--strict", action="store_true",
                   help="fail (exit 3) when the distance check is skipped for budget")
    _add_common(p, budget=True)
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("factor", help="factor a polynomial into monic irreducibles")
    p.add_argument("poly", metavar="poly.json")
    _add_common(p)
    p.set_defaults(handler=_cmd_factor)

    return parser


# -- input helpers -------------------------------------------------------------

def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} file {path!r} is not valid JSON: {exc}") from exc


def _load(path, what, parse):
    obj = _load_json(path, what)
    try:
        return parse(obj)
    except IntertwineError:
        # a field too large or of a bad degree is a precondition, as with --q
        raise
    except ValueError as exc:
        raise UsageError(f"{what} file {path!r}: {exc}") from exc


def _load_pairs(paths):
    if len(paths) % 2 or not paths:
        raise UsageError("matrix files must come in (A, B) pairs")
    mats = [_load(p, "matrix", serialize.matrix_from_json) for p in paths]
    return mats[0::2], mats[1::2]


def _parse_order(text) -> FiniteField:
    base, caret, exp = text.partition("^")
    try:
        n = int(base)
        e = int(exp) if caret else None
    except ValueError as exc:
        raise UsageError(f"cannot parse field order {text!r}") from exc
    return FiniteField.of_order(n) if e is None else FiniteField(n, e)


def _resolve_field(args) -> FiniteField:
    if args.q is not None:
        return _parse_order(args.q)
    return _load(args.field, "field", serialize.field_from_json)


def _emit(args, payload) -> None:
    if args.pretty:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = json.dumps(payload, separators=(",", ":")) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


# -- subcommand handlers ----------------------------------------------------------

def _cmd_dim(args) -> int:
    a_list, b_list = _load_pairs(args.matrices)
    code = intertwiner_basis(a_list, b_list)
    if len(a_list) == 1:
        breakdown = dimension_formula(a_list[0], b_list[0])
        payload = {
            "pairs": 1,
            "k": code.k,
            "formula": {
                "total": breakdown.total,
                "factors": [
                    {
                        "irr": list(t.irr.coeffs),
                        "degree": t.irr.degree,
                        "lambda": list(t.lam.parts),
                        "mu": list(t.mu.parts),
                        "contribution": t.contribution,
                    }
                    for t in breakdown.terms
                ],
            },
            "oracle": code.k,
            "consistent": breakdown.total == code.k,
        }
        _emit(args, payload)
        if breakdown.total != code.k:
            print(
                f"internal error: formula dimension {breakdown.total} != oracle {code.k}",
                file=sys.stderr,
            )
            return EXIT_INTERNAL
        return EXIT_OK
    payload = {
        "pairs": len(a_list),
        "k": code.k,
        "note": "multiple pairs: kernel dimension only, no closed formula applies",
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_basis(args) -> int:
    a_list, b_list = _load_pairs(args.matrices)
    code = intertwiner_basis(a_list, b_list)
    _emit(args, serialize.code_to_json(code))
    return EXIT_OK


def _cmd_mindist(args) -> int:
    code = _load(args.code, "code", serialize.code_from_json)
    d = min_distance(code, args.budget)
    _emit(args, {"d": d, "enumerated": code.field.q**code.k - 1})
    return EXIT_OK


def _cmd_bounds(args) -> int:
    a_list, b_list = _load_pairs(args.matrices)
    a, b = a_list[0], b_list[0]
    spectral = spectral_bounds(a, b)
    ranks = rank_bounds(a, b)
    code = intertwiner_basis([a], [b])
    _emit(args, {
        "spectral": {"lo": spectral[0], "hi": spectral[1]},
        "rank": {"lo": ranks[0], "hi": ranks[1]},
        "dim": code.k,
    })
    return EXIT_OK


def _cmd_zero(args) -> int:
    a_list, b_list = _load_pairs(args.matrices)
    _emit(args, {"zero": is_zero_code(a_list[0], b_list[0])})
    return EXIT_OK


def _cmd_construct(args) -> int:
    field = _resolve_field(args)
    cert = construct_code(args.r, args.s, args.k, field)
    _emit(args, serialize.certificate_to_json(cert))
    return EXIT_OK


def _cmd_extremal(args) -> int:
    field = _resolve_field(args)
    cert = construct_extremal(args.r, args.s, field)
    _emit(args, serialize.certificate_to_json(cert))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cert = _load(args.certificate, "certificate", serialize.certificate_from_json)
    report = verify_certificate(cert, args.budget)
    _emit(args, serialize.report_to_json(report))
    if not report.passed:
        return EXIT_PRECONDITION
    if report.distance_skipped:
        print("warning: distance check skipped (budget exceeded)", file=sys.stderr)
        if args.strict:
            return EXIT_BUDGET
    return EXIT_OK


def _cmd_factor(args) -> int:
    from .polys import factor

    poly = _load(args.poly, "polynomial", serialize.poly_from_json)
    fact = factor(poly)
    _emit(args, serialize.factorization_to_json(fact))
    return EXIT_OK


# built once: building costs far more than parsing one command line
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInconsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (IntertwineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
