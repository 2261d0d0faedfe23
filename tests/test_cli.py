"""End-to-end CLI behavior: JSON I/O, exit codes, determinism."""

import json
import time

import pytest

from intertwine import (
    FiniteField,
    Matrix,
    Partition,
    Poly,
    construct_code,
    construct_extremal,
    intertwiner_basis,
    nilpotent_matrix,
)
from intertwine import serialize
from intertwine.cli import main

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_matrix(path, matrix):
    return write_json(path, serialize.matrix_to_json(matrix))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_single_pair_with_breakdown(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", nilpotent_matrix(F2, Partition([2, 1])))
    b = write_matrix(tmp_path / "b.json", nilpotent_matrix(F2, Partition([2])))
    code, out, _ = run(capsys, ["dim", a, b])
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3
    assert payload["consistent"] is True
    assert payload["formula"]["total"] == 3
    assert payload["formula"]["factors"] == [
        {"irr": [0, 1], "degree": 1, "lambda": [2, 1], "mu": [2], "contribution": 3}]


def test_dim_zero_code(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", Matrix.identity(F2, 2))
    b = write_matrix(tmp_path / "b.json", Matrix.zero(F2, 2, 2))
    code, out, _ = run(capsys, ["dim", a, b])
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 0 and payload["formula"]["factors"] == []


def test_dim_multi_pair(tmp_path, capsys):
    m = nilpotent_matrix(F2, Partition([2]))
    z = Matrix.zero(F2, 2, 2)
    a1 = write_matrix(tmp_path / "a1.json", m)
    b1 = write_matrix(tmp_path / "b1.json", m)
    a2 = write_matrix(tmp_path / "a2.json", z)
    b2 = write_matrix(tmp_path / "b2.json", z)
    code, out, _ = run(capsys, ["dim", a1, b1, a2, b2])
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"] == 2
    assert payload["k"] == intertwiner_basis([m, z], [m, z]).k
    assert "note" in payload and "formula" not in payload


def test_dim_rejects_odd_file_count(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", Matrix.zero(F2, 1, 1))
    code, _, err = run(capsys, ["dim", a])
    assert code == 1
    assert "pairs" in err


def test_dim_rejects_field_mismatch(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", Matrix.zero(F2, 2, 2))
    b = write_matrix(tmp_path / "b.json", Matrix.zero(F3, 2, 2))
    code, _, err = run(capsys, ["dim", a, b])
    assert code == 2
    assert "error" in err


def test_basis_then_mindist_roundtrip(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", Matrix.zero(F2, 2, 2))
    b = write_matrix(tmp_path / "b.json", Matrix.zero(F2, 2, 2))
    out_path = tmp_path / "code.json"
    code, _, _ = run(capsys, ["basis", a, b, "--out", str(out_path)])
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert blob["k"] == 4

    code, out, _ = run(capsys, ["mindist", str(out_path)])
    assert code == 0
    assert json.loads(out) == {"d": 1, "enumerated": 15}


def test_mindist_budget_exceeded(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", Matrix.zero(F2, 2, 2))
    b = write_matrix(tmp_path / "b.json", Matrix.zero(F2, 2, 2))
    out_path = tmp_path / "code.json"
    run(capsys, ["basis", a, b, "--out", str(out_path)])
    code, _, err = run(capsys, ["mindist", str(out_path), "--budget", "3"])
    assert code == 3
    assert "budget" in err


def test_mindist_budget_boundary(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", Matrix.zero(F2, 2, 2))
    b = write_matrix(tmp_path / "b.json", Matrix.zero(F2, 2, 2))
    out_path = tmp_path / "code.json"
    run(capsys, ["basis", a, b, "--out", str(out_path)])
    code, out, _ = run(capsys, ["mindist", str(out_path), "--budget", "15"])
    assert code == 0
    assert json.loads(out) == {"d": 1, "enumerated": 15}
    code, _, err = run(capsys, ["mindist", str(out_path), "--budget", "14"])
    assert code == 3
    assert "needs 15 codewords" in err


def test_mindist_zero_code_is_precondition_error(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", Matrix.identity(F2, 2))
    b = write_matrix(tmp_path / "b.json", Matrix.zero(F2, 2, 2))
    out_path = tmp_path / "code.json"
    run(capsys, ["basis", a, b, "--out", str(out_path)])
    code, _, _ = run(capsys, ["mindist", str(out_path)])
    assert code == 2


def test_bounds_example(tmp_path, capsys):
    n2 = nilpotent_matrix(F2, Partition([2]))
    a = write_matrix(tmp_path / "a.json", n2)
    b = write_matrix(tmp_path / "b.json", n2)
    code, out, _ = run(capsys, ["bounds", a, b])
    assert code == 0
    assert json.loads(out) == {
        "spectral": {"lo": 1, "hi": 4},
        "rank": {"lo": 1, "hi": 2},
        "dim": 2,
    }


def test_zero_command(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", Matrix.identity(F2, 2))
    b = write_matrix(tmp_path / "b.json", Matrix.zero(F2, 2, 2))
    code, out, _ = run(capsys, ["zero", a, b])
    assert code == 0
    assert json.loads(out) == {"zero": True}


def test_construct_and_verify_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["construct", "3", "2", "2", "--q", "5",
                              "--out", str(cert_path)])
    assert code == 0
    blob = json.loads(cert_path.read_text())
    assert blob["claimed_d"] == 2
    assert blob["row_blocks"] == [[1], [2, 3]]

    code, out, _ = run(capsys, ["verify", str(cert_path)])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_construct_field_too_small(capsys):
    code, _, err = run(capsys, ["construct", "2", "2", "1", "--q", "2"])
    assert code == 2
    assert "at least 3" in err


def test_construct_with_field_file(tmp_path, capsys):
    field_path = write_json(tmp_path / "field.json", {"p": 3, "e": 2})
    code, out, _ = run(capsys, ["construct", "2", "2", "1", "--field", field_path])
    assert code == 0
    assert json.loads(out)["field"] == {"p": 3, "e": 2, "modulus": [1, 0, 1]}


def test_extremal_command(tmp_path, capsys):
    code, out, _ = run(capsys, ["extremal", "3", "2", "--q", "5"])
    assert code == 0
    blob = json.loads(out)
    assert blob["k"] == 2 and blob["claimed_d"] == 3 and blob["transposed"] is True


def test_verify_tampered_certificate(tmp_path, capsys):
    cert = construct_code(3, 2, 2, F5)
    blob = serialize.certificate_to_json(cert)
    blob["claimed_d"] += 1
    cert_path = write_json(tmp_path / "cert.json", blob)
    code, out, _ = run(capsys, ["verify", cert_path])
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_verify_budget_skip_and_strict(tmp_path, capsys):
    cert = construct_code(3, 3, 2, F5, check=False)
    cert_path = write_json(tmp_path / "cert.json", serialize.certificate_to_json(cert))
    code, out, err = run(capsys, ["verify", cert_path, "--budget", "3"])
    assert code == 0
    assert json.loads(out)["distance_skipped"] is True
    assert "skipped" in err

    code, _, _ = run(capsys, ["verify", cert_path, "--budget", "3", "--strict"])
    assert code == 3


def test_factor_command(tmp_path, capsys):
    poly_path = write_json(tmp_path / "poly.json",
                           serialize.poly_to_json(Poly(F2, (0, 1, 0, 0, 1))))
    code, out, _ = run(capsys, ["factor", poly_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["unit"] == 1
    assert [f["coeffs"] for f in payload["factors"]] == [[0, 1], [1, 1], [1, 1, 1]]
    assert all(f["multiplicity"] == 1 for f in payload["factors"])


def test_q_parsing(tmp_path, capsys):
    fields = {
        "2^3": {"p": 2, "e": 3, "modulus": [1, 1, 0, 1]},
        "9": {"p": 3, "e": 2, "modulus": [1, 0, 1]},
        "256": {"p": 2, "e": 8, "modulus": [1, 1, 0, 1, 1, 0, 0, 0, 1]},
    }
    for q, field in fields.items():
        code, out, _ = run(capsys, ["construct", "2", "2", "1", "--q", q])
        assert code == 0, q
        assert json.loads(out)["field"] == field

    for q in ("abc", "2^x", "2^3^4"):
        code, out, err = run(capsys, ["construct", "2", "2", "1", "--q", q])
        assert (code, out) == (1, ""), q
        assert "cannot parse field order" in err

    for q in ("0", "1", "-4", "6", "12", "2^0", "2^-1", "4^2"):
        code, out, err = run(capsys, ["construct", "2", "2", "1", "--q", q])
        assert (code, out) == (2, ""), q
        assert "Traceback" not in err

    code, _, err = run(capsys, ["construct", "2", "2", "1", "--q", "12"])
    assert "prime" in err


# 2^61 - 1 is prime: trial division up to its square root would run for hours.
HUGE_PRIME = 2**61 - 1


def test_huge_order_exits_at_once(capsys):
    for q in (str(HUGE_PRIME), f"{HUGE_PRIME}^1", "2^1000000"):
        started = time.perf_counter()
        code, out, err = run(capsys, ["construct", "2", "2", "1", "--q", q])
        assert time.perf_counter() - started < 1
        assert (code, out) == (2, ""), q
        assert "exceeds the supported bound" in err and "Traceback" not in err


def test_huge_characteristic_in_a_file_exits_at_once(tmp_path, capsys):
    # an out-of-range field in a file is a precondition, as with --q
    blob = {"field": {"p": HUGE_PRIME, "e": 1}, "rows": 1, "cols": 1, "entries": [[0]]}
    path = write_json(tmp_path / "a.json", blob)
    started = time.perf_counter()
    code, out, err = run(capsys, ["dim", path, path])
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert "exceeds the supported bound" in err and "Traceback" not in err


def test_field_errors_in_a_file_exit_like_the_q_option(tmp_path, capsys):
    # the order or degree of a field is a precondition wherever it is given;
    # a malformed shape stays a parse error
    cases = [({"p": 2, "e": 0}, 2, "extension degree"),
             ({"p": 2, "e": 40}, 2, "exceeds the supported bound"),
             ({"p": 2**31 + 11, "e": 1}, 2, "exceeds the supported bound"),
             ({"p": 4, "e": 1}, 2, "prime"),
             ({"p": 2, "e": "1"}, 1, "'e'"),
             ({"p": 2}, 1, "'e'")]
    for field, want, message in cases:
        blob = {"field": field, "rows": 1, "cols": 1, "entries": [[0]]}
        path = write_json(tmp_path / "a.json", blob)
        code, out, err = run(capsys, ["dim", path, path])
        assert (code, out) == (want, ""), field
        assert message in err and "Traceback" not in err, field
        field_path = write_json(tmp_path / "field.json", field)
        code, out, err = run(capsys, ["construct", "2", "2", "1", "--field", field_path])
        assert (code, out) == (want, ""), field
    for q in ("2^0", "2^40", str(2**31 + 11)):
        code, out, _ = run(capsys, ["construct", "2", "2", "1", "--q", q])
        assert (code, out) == (2, ""), q


def test_json_booleans_are_not_integers(tmp_path, capsys):
    bool_e = serialize.matrix_to_json(Matrix.zero(F2, 1, 1))
    bool_e["field"]["e"] = True
    bool_rows = serialize.matrix_to_json(Matrix.zero(F2, 1, 1))
    bool_rows["rows"] = True
    for key, blob in (("e", bool_e), ("rows", bool_rows)):
        path = write_json(tmp_path / "a.json", blob)
        code, out, err = run(capsys, ["dim", path, path])
        assert (code, out) == (1, ""), key
        assert repr(key) in err and "Traceback" not in err

    cert = serialize.certificate_to_json(construct_code(2, 2, 1, F5))
    cert["k"] = True
    code, out, err = run(capsys, ["verify", write_json(tmp_path / "cert.json", cert)])
    assert (code, out) == (1, "")
    assert "'k'" in err and "Traceback" not in err


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["mindist", str(bad)])
    assert code == 1
    assert "JSON" in err

    code, _, err = run(capsys, ["mindist", str(tmp_path / "missing.json")])
    assert code == 1

    # the builders prove the distance without enumeration, so take no budget
    for argv in (["construct", "3", "2", "2"], ["extremal", "3", "2"]):
        code, out, err = run(capsys, argv + ["--q", "5", "--budget", "100"])
        assert (code, out) == (1, "")
        assert "--budget" in err

    # every output is deterministic, so no subcommand takes a seed
    for argv in every_subcommand(tmp_path):
        code, out, err = run(capsys, argv + ["--seed", "0"])
        assert (code, out) == (1, ""), argv[0]
        assert "--seed" in err and "Traceback" not in err, argv[0]
        assert err.count("\n") == 1, argv[0]


def every_subcommand(tmp_path):
    """A valid command line for each subcommand, on small inputs."""
    a = write_matrix(tmp_path / "a.json", nilpotent_matrix(F2, Partition([2])))
    code = write_json(tmp_path / "code.json", serialize.code_to_json(
        intertwiner_basis([Matrix.zero(F2, 1, 1)], [Matrix.zero(F2, 1, 1)])))
    cert = write_json(tmp_path / "cert.json",
                      serialize.certificate_to_json(construct_code(2, 2, 1, F3)))
    poly = write_json(tmp_path / "poly.json", serialize.poly_to_json(Poly(F2, (0, 1, 1))))
    return [["dim", a, a], ["basis", a, a], ["mindist", code], ["bounds", a, a],
            ["zero", a, a], ["construct", "2", "2", "1", "--q", "3"],
            ["extremal", "2", "1", "--q", "3"], ["verify", cert], ["factor", poly]]


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    for argv in every_subcommand(tmp_path):
        for out_path in (tmp_path / "missing" / "x.json", tmp_path):
            code, out, err = run(capsys, argv + ["--out", str(out_path)])
            assert (code, out) == (1, ""), (argv[0], out_path)
            assert err.startswith("error: cannot write output file"), (argv[0], out_path)
            assert err.count("\n") == 1 and "Traceback" not in err, (argv[0], out_path)


def test_outputs_are_deterministic(capsys):
    code1, out1, _ = run(capsys, ["construct", "4", "3", "2", "--q", "7"])
    code2, out2, _ = run(capsys, ["construct", "4", "3", "2", "--q", "7"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_pretty_output(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", Matrix.zero(F2, 1, 1))
    b = write_matrix(tmp_path / "b.json", Matrix.zero(F2, 1, 1))
    _, compact, _ = run(capsys, ["zero", a, b])
    _, pretty, _ = run(capsys, ["zero", a, b, "--pretty"])
    assert json.loads(compact) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in compact


def verify_tampered(tmp_path, capsys, tamper, cert=None):
    blob = serialize.certificate_to_json(cert or construct_code(3, 2, 2, F5))
    tamper(blob)
    code, out, err = run(capsys, ["verify", write_json(tmp_path / "cert.json", blob)])
    assert "Traceback" not in err
    return code, json.loads(out)


def shape_failure(report):
    assert report["passed"] is False
    [check] = report["checks"]
    assert check["name"] == "certificate shapes" and check["passed"] is False
    return check["detail"]


def test_verify_reports_too_few_codewords(tmp_path, capsys):
    code, report = verify_tampered(tmp_path, capsys, lambda b: b["X"].pop())
    assert code == 2
    assert "1 codewords" in shape_failure(report)


def test_verify_reports_too_many_codewords(tmp_path, capsys):
    code, report = verify_tampered(tmp_path, capsys, lambda b: b["X"].append(b["X"][0]))
    assert code == 2
    assert "3 codewords" in shape_failure(report)


def test_verify_reports_k_larger_than_the_blocks(tmp_path, capsys):
    def tamper(blob):
        blob["k"] = 3
        blob["X"].append(blob["X"][0])
        blob["row_blocks"].append([3])

    code, report = verify_tampered(tmp_path, capsys, tamper)
    assert code == 2
    assert "k = 3" in shape_failure(report)


def test_verify_reports_r_that_does_not_match_the_matrices(tmp_path, capsys):
    code, report = verify_tampered(tmp_path, capsys, lambda b: b.update(r=4))
    assert code == 2
    assert "expected 4x4" in shape_failure(report)


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("key, value, check", [
    ("zetas", [0, 3], "pair is the conjugated seed"),
    ("zetas", [0, 99], "pair is the conjugated seed"),
    ("alpha", 99, "pair is the conjugated seed"),
    ("alpha", None, "pair is the conjugated seed"),
    ("beta", 3, "pair is the conjugated seed"),
    ("gamma", 99, "indicator / full-support structure"),
])
def test_verify_ties_the_scalars_to_the_matrices(tmp_path, capsys, transposed, key, value, check):
    # a 3x2 certificate of dimension 2 has an alpha but no beta, in either
    # orientation; the transposed one comes from the 2x3 construction
    cert = construct_extremal(3, 2, F5) if transposed else construct_code(3, 2, 2, F5)
    assert cert.transposed is transposed
    assert (cert.alpha is None, cert.beta is None) == (False, True)
    code, report = verify_tampered(tmp_path, capsys, lambda b: b.update({key: value}), cert)
    assert code == 2 and report["passed"] is False
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [check]


def test_verify_rejects_transposed_as_a_string(tmp_path, capsys):
    blob = serialize.certificate_to_json(construct_code(3, 2, 2, F5))
    blob["transposed"] = "false"
    code, out, err = run(capsys, ["verify", write_json(tmp_path / "cert.json", blob)])
    assert code == 1 and out == ""
    assert "transposed" in err and "Traceback" not in err
