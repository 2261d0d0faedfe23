"""Tracing from outside the package: spans around public calls, self time,
and a separate pass that counts field operations.

``Tracer.install`` wraps every public function of each package module, in
every module namespace that binds it, plus the Matrix kernels and
``FiniteField.__init__``.  A span records (name, start, end, parent span,
request id, work).  Spans stay in memory until the run ends.

Field operations are too cheap to time: a span each would swamp every other
span.  ``FieldOpCounter`` instead wraps the arithmetic callables of each
FiniteField instance built while it is installed, and only counts.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

MODULES = ("fields", "polys", "matrices", "partitions", "canonical",
           "codes", "construct", "serialize", "cli")

# Class methods that carry a layer's work; everything else on the classes is
# per-element arithmetic and stays inside its caller's self time.
METHODS = {
    "matrices": ("Matrix", ("rref", "nullspace", "inverse", "charpoly", "__mul__")),
    "fields": ("FiniteField", ("__init__",)),
}


def _rref_cells(args, kwargs):
    return args[0].nrows * args[0].ncols


def _oracle_unknowns(args, kwargs):
    a_list, b_list = list(args[0]), list(args[1])
    return a_list[0].nrows * b_list[0].nrows if a_list and b_list else 0


def _factor_degree(args, kwargs):
    return args[0].degree


def _codewords(args, kwargs):
    code = args[0]
    return code.field.q**code.k - 1


# Work counted per span, as a function of the call's arguments.
WORK = {
    "matrices.Matrix.rref": _rref_cells,
    "codes.intertwiner_basis": _oracle_unknowns,
    "polys.factor": _factor_degree,
    "codes.min_distance": _codewords,
}


def _package_modules():
    return {name: sys.modules[f"intertwine.{name}"] for name in MODULES}


def _patch_all(make_wrapper):
    """Rebind every target in every intertwine namespace; return an undo list."""
    mods = _package_modules()
    undo = []
    originals = {}
    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                originals[obj] = f"{short}.{name}"
    for short, (cls_name, meths) in METHODS.items():
        cls = getattr(mods[short], cls_name)
        for meth in meths:
            orig = cls.__dict__[meth]
            setattr(cls, meth, make_wrapper(f"{short}.{cls_name}.{meth}", orig))
            undo.append((cls, meth, orig))
    wrapped = {orig: make_wrapper(span, orig) for orig, span in originals.items()}
    namespaces = [m for n, m in sys.modules.items()
                  if n == "intertwine" or n.startswith("intertwine.")]
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(ns, name, wrapped[obj])
                undo.append((ns, name, obj))
    return undo


def _unpatch(undo):
    for owner, name, orig in reversed(undo):
        setattr(owner, name, orig)


class Tracer:
    """Collects spans [name, start, end, parent, request, work]."""

    def __init__(self):
        self.spans = []
        self.request = ""
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request,
                    work(args, kwargs) if work else 0]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        self._undo = _patch_all(self._wrap)

    def uninstall(self):
        _unpatch(self._undo)
        self._undo = []


def self_times(spans):
    """Per span: its duration minus the part of it its direct children cover."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(i)
    out = []
    for i, sp in enumerate(spans):
        start, end = sp[1], sp[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class FieldOpCounter:
    """Counts mul, add (add + sub + neg) and inv calls of every field built
    while installed; div counts as one mul and one inv."""

    KEYS = {"add": ("add",), "sub": ("add",), "neg": ("add",), "mul": ("mul",),
            "inv": ("inv",), "div": ("mul", "inv")}

    def __init__(self):
        self.counts = {"mul": 0, "add": 0, "inv": 0}
        self._undo = []

    def _counting(self, fn, keys):
        counts = self.counts
        if len(keys) == 1:
            key = keys[0]

            def counted(*args):
                counts[key] += 1
                return fn(*args)
        else:
            def counted(*args):
                for key in keys:
                    counts[key] += 1
                return fn(*args)
        return counted

    def install(self):
        cls = sys.modules["intertwine.fields"].FiniteField
        orig = cls.__dict__["__init__"]
        counter = self

        def __init__(field, *args, **kwargs):
            orig(field, *args, **kwargs)
            for attr, keys in counter.KEYS.items():
                setattr(field, attr, counter._counting(getattr(field, attr), keys))

        cls.__init__ = __init__
        self._undo = [(cls, "__init__", orig)]

    def uninstall(self):
        _unpatch(self._undo)
        self._undo = []


def layer_metrics(spans):
    """Per-layer metrics from one traced pass (see README.md for the table)."""
    selfs = self_times(spans)
    calls, self_s, work = {}, {}, {}
    for sp, st in zip(spans, selfs):
        name = sp[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        work[name] = work.get(name, 0) + sp[5]

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def module_self(prefix, pred=lambda n: True):
        return sum(v for n, v in self_s.items() if n.startswith(prefix + ".") and pred(n))

    md_s = s("codes.min_distance")
    codewords = work.get("codes.min_distance", 0)
    m = {
        "fields.init_calls": c("fields.FiniteField.__init__"),
        "fields.init_s": module_self("fields"),
        "matrices.rref_calls": c("matrices.Matrix.rref"),
        "matrices.rref_s": s("matrices.Matrix.rref"),
        "matrices.rref_cells": work.get("matrices.Matrix.rref", 0),
        "matrices.matmul_calls": c("matrices.Matrix.__mul__"),
        "matrices.matmul_s": s("matrices.Matrix.__mul__"),
        "matrices.poly_eval_s": s("matrices.poly_eval"),
        "matrices.charpoly_calls": c("matrices.Matrix.charpoly"),
        "matrices.charpoly_s": s("matrices.Matrix.charpoly"),
        "matrices.inverse_s": s("matrices.Matrix.inverse"),
        "polys.factor_calls": c("polys.factor"),
        "polys.factor_s": s("polys.factor"),
        "polys.factor_degree": work.get("polys.factor", 0),
        "polys.gcd_calls": c("polys.gcd"),
        "polys.gcd_s": s("polys.gcd"),
        "canonical.primary_decomposition_calls": c("canonical.primary_decomposition"),
        "canonical.primary_decomposition_s": s("canonical.primary_decomposition"),
        "codes.intertwiner_basis_calls": c("codes.intertwiner_basis"),
        "codes.intertwiner_basis_s": s("codes.intertwiner_basis"),
        "codes.oracle_unknowns": work.get("codes.intertwiner_basis", 0),
        "codes.dimension_formula_s": s("codes.dimension_formula"),
        "codes.min_distance_calls": c("codes.min_distance"),
        "codes.min_distance_s": md_s,
        "codes.codewords": codewords,
        "codes.codewords_per_s": codewords / md_s if md_s > 0 else 0.0,
        "construct.construct_s": module_self(
            "construct", lambda n: n != "construct.verify_certificate"),
        "construct.verify_s": s("construct.verify_certificate"),
        "serialize.parse_s": module_self("serialize", lambda n: n.endswith("_from_json")),
        "serialize.emit_s": module_self("serialize", lambda n: n.endswith("_to_json")),
        "serialize.parse_matrices": c("serialize.matrix_from_json"),
        "cli.self_s": module_self("cli"),
    }
    modules = {mod: module_self(mod) for mod in MODULES}
    return m, modules
