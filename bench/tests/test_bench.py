"""Tests of the benchmark itself: inputs, planted answers, self time, checkers."""

import json
import os
import random

import pytest

import checks
import plant
import run
import spans
from intertwine import cli, codes
from intertwine.codes import dimension_formula, intertwiner_basis, is_zero_code, spectral_bounds


@pytest.mark.parametrize("workload", ["oracle", "spectral", "certify"])
def test_same_seed_gives_identical_inputs(workload, workdir):
    a, b, c = (os.path.join(workdir, name) for name in "abc")
    units_a = plant.generate(workload, 7, a)
    units_b = plant.generate(workload, 7, b)
    plant.generate(workload, 8, c)
    assert plant.inputs_digest(a, units_a) == plant.inputs_digest(b, units_b)
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read()
    if workload != "certify":  # certify inputs are argv only
        assert plant.inputs_digest(a, units_a) != plant.inputs_digest(c, units_a)


@pytest.mark.parametrize("q", [2, 5, 9, 16])
def test_planted_answers_match_the_oracle_on_small_pairs(q):
    field = plant.make_field(q)
    pool = plant.irreducible_pool(field)
    rng = random.Random(q)
    for trial in range(6):
        r, s = rng.randint(2, 6), rng.randint(2, 6)
        coprime = trial % 3 == 2
        a_c, b_c = plant.plant_structures(rng, pool, r, s, coprime=coprime, max_weight=4)
        a = plant.random_conjugate(rng, field, a_c)
        b = plant.random_conjugate(rng, field, b_c)
        k = plant.planted_dim(a_c, b_c)
        assert intertwiner_basis([a], [b]).k == k
        assert dimension_formula(a, b).total == k
        assert spectral_bounds(a, b) == plant.planted_bounds(a_c, b_c)
        assert is_zero_code(a, b) is (k == 0)
        assert coprime <= (k == 0)
        a2, b2 = plant.second_pair_matrix(a), plant.second_pair_matrix(b)
        assert intertwiner_basis([a, a2], [b, b2]).k == k


def test_irreducible_pool_has_no_reducible_member():
    from intertwine.polys import Poly, is_irreducible

    for q in (2, 7, 16):
        field = plant.make_field(q)
        for coeffs in plant.irreducible_pool(field):
            assert is_irreducible(Poly(field, coeffs))


def _span(name, start, end, parent):
    return [name, start, end, parent, "req", 0]


def test_self_time_of_nested_spans():
    spans_ = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.x", 1.5, 2.5, 1),
        _span("b", 5.0, 6.0, 0),
        _span("b.x", 5.0, 6.0, 3),      # child covering its parent entirely
        _span("c", 7.0, 9.0, 0),
        _span("c.x", 7.0, 8.0, 5),
        _span("c.y", 7.5, 8.5, 5),      # overlaps its sibling: union is 1.5
        _span("other", 11.0, 12.0, -1),
    ]
    assert spans.self_times(spans_) == pytest.approx(
        [10.0 - 3.0 - 1.0 - 2.0, 3.0 - 1.0, 1.0, 0.0, 1.0, 2.0 - 1.5, 1.0, 1.0, 1.0])


def test_layer_metrics_sum_self_time_and_work():
    spans_ = [
        ["codes.intertwiner_basis", 0.0, 4.0, -1, "r1", 100],
        ["matrices.Matrix.rref", 1.0, 3.0, 0, "r1", 50],
        ["matrices.Matrix.rref", 5.0, 6.0, -1, "r2", 20],
        ["cli.main", 6.0, 7.0, -1, "r2", 0],
    ]
    layers, modules = spans.layer_metrics(spans_)
    assert layers["codes.intertwiner_basis_s"] == pytest.approx(2.0)
    assert layers["codes.oracle_unknowns"] == 100
    assert layers["matrices.rref_calls"] == 2
    assert layers["matrices.rref_s"] == pytest.approx(3.0)
    assert layers["matrices.rref_cells"] == 70
    assert layers["cli.self_s"] == pytest.approx(1.0)
    assert modules["matrices"] == pytest.approx(3.0)


def test_tracer_records_spans_and_restores_the_package(workdir):
    units = plant.generate("oracle", 3, workdir)
    step = next(u[0] for u in units if u[0].kind == "dim")
    original = codes.intertwiner_basis
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert codes.intertwiner_basis is not original
        runner = run.Runner(run.InProcess(), tracer)
        runner.run_step(step)
    finally:
        tracer.uninstall()
    assert codes.intertwiner_basis is original
    assert cli.intertwiner_basis is original
    names = {sp[0] for sp in tracer.spans}
    assert {"cli.main", "codes.intertwiner_basis", "matrices.Matrix.rref",
            "fields.FiniteField.__init__"} <= names
    assert all(sp[4] == step.id for sp in tracer.spans)
    layers, _ = spans.layer_metrics(tracer.spans)
    assert layers["codes.intertwiner_basis_calls"] == 1
    assert layers["codes.oracle_unknowns"] == _unknowns(step)
    assert checks.check(step, runner.outputs[step.id]) is None


def _unknowns(step):
    with open(step.argv[1]) as fa, open(step.argv[2]) as fb:
        return json.load(fa)["rows"] * json.load(fb)["rows"]


def test_field_op_counter_counts_and_restores():
    from intertwine.fields import FiniteField

    original = FiniteField.__init__
    counter = spans.FieldOpCounter()
    counter.install()
    try:
        f = FiniteField(7)
        f.mul(f.add(1, 2), f.sub(3, 4))
        f.div(3, 5)
        f.inv(2)
    finally:
        counter.uninstall()
    assert FiniteField.__init__ is original
    assert counter.counts == {"mul": 2, "add": 2, "inv": 2}


def _step(kind, **expect):
    return plant.Step(id=f"t-{kind}", kind=kind, expect=expect)


def _dumps(obj):
    return json.dumps(obj).encode()


CORRUPTIONS = [
    (_step("dim", k=12), {"k": 12, "oracle": 12, "consistent": True, "formula": {"total": 12}},
     {"k": 11, "oracle": 11, "consistent": True, "formula": {"total": 11}}),
    (_step("dim", k=12), {"k": 12, "oracle": 12, "consistent": True, "formula": {"total": 12}},
     {"k": 12, "oracle": 12, "consistent": False, "formula": {"total": 12}}),
    (_step("basis", k=2, r=2, s=3), {"k": 2, "r": 2, "s": 3, "basis": [{}, {}]},
     {"k": 2, "r": 2, "s": 3, "basis": [{}]}),
    (_step("formula", k=5), {"total": 5}, {"total": 6}),
    (_step("bounds", lo=2, hi=9), {"lo": 2, "hi": 9}, {"lo": 2, "hi": 8}),
    (_step("zero", zero=True), {"zero": True}, {"zero": False}),
    (_step("mindist", q=7, k=4, d=16), {"d": 16, "enumerated": 2400},
     {"d": 14, "enumerated": 2400}),
    (_step("verify"), {"checks": [{"passed": True}], "passed": True, "distance_skipped": False},
     {"checks": [{"passed": True}], "passed": False, "distance_skipped": False}),
    (_step("verify"), {"checks": [{"passed": True}], "passed": True, "distance_skipped": False},
     {"checks": [{"passed": True}], "passed": True, "distance_skipped": True}),
    (_step("construct", r=8, s=9, k=4, d=18, transposed=False),
     {"r": 8, "s": 9, "k": 4, "claimed_d": 18, "transposed": False},
     {"r": 8, "s": 9, "k": 4, "claimed_d": 18, "transposed": True}),
    # (t + 1)(t + 2) = t^2 + 3t + 2 over GF(7)
    (_step("factor", q=7, coeffs=[2, 3, 1]),
     {"unit": 1, "factors": [{"coeffs": [1, 1], "multiplicity": 1},
                             {"coeffs": [2, 1], "multiplicity": 1}]},
     {"unit": 1, "factors": [{"coeffs": [1, 1], "multiplicity": 2}]}),
    (_step("factor", q=7, coeffs=[4, 6, 2]),
     {"unit": 2, "factors": [{"coeffs": [1, 1], "multiplicity": 1},
                             {"coeffs": [2, 1], "multiplicity": 1}]},
     {"unit": 1, "factors": [{"coeffs": [2, 2], "multiplicity": 1},
                             {"coeffs": [2, 1], "multiplicity": 1}]}),
]


@pytest.mark.parametrize("step,good,bad", CORRUPTIONS)
def test_checker_accepts_the_answer_and_rejects_a_corruption(step, good, bad):
    assert checks.check(step, _dumps(good)) is None
    assert checks.check(step, _dumps(bad)) is not None


def test_checker_rejects_non_json():
    assert checks.check(_step("zero", zero=True), b"not json") is not None


def test_evaluate_fails_a_request_whose_bytes_change():
    step = _step("zero", zero=True)
    good = _dumps({"zero": True})
    other = b'{"zero": true}\n'
    records = [(step, 0.1, 0, "d1"), (step, 0.1, 0, "d2"), (step, 0.1, 1, "d1")]
    flags, reasons = run.evaluate(records, {step.id: good}, {}, {})
    assert flags == [False, True, True]
    store = {step.id: "d0"}
    flags, _ = run.evaluate(records[:1], {step.id: other}, {}, store)
    assert flags == [True]
    assert reasons
