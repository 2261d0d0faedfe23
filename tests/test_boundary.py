"""The CLI boundary: malformed input files never end in a traceback.

Valid inputs of every subcommand that reads a file are mutated (values
replaced by huge, negative, boolean, null, string, float and nested values;
object keys and list items dropped or duplicated) and each command must exit
with a documented code, 0 to 3, print no traceback, and print the same bytes
when run again.  Files that cannot be decoded or parsed at all, a non-UTF-8
file and a JSON document nested too deep or holding an integer of too many
digits, exit 1 with a message naming the file.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from intertwine import FiniteField, Poly, construct_code, intertwiner_basis, serialize
from intertwine.cli import main

F5 = FiniteField(5)
CERT = construct_code(3, 2, 2, F5)
PAIR_B = serialize.matrix_to_json(CERT.B)

# subcommand -> (argv with "{doc}" for the mutated file and "{b}" for a
# valid right-hand matrix, the valid document)
COMMANDS = {
    "dim": (["dim", "{doc}", "{b}"], serialize.matrix_to_json(CERT.A)),
    "basis": (["basis", "{doc}", "{b}"], serialize.matrix_to_json(CERT.A)),
    "bounds": (["bounds", "{doc}", "{b}"], serialize.matrix_to_json(CERT.A)),
    "zero": (["zero", "{doc}", "{b}"], serialize.matrix_to_json(CERT.A)),
    "mindist": (["mindist", "{doc}"],
                serialize.code_to_json(intertwiner_basis([CERT.A], [CERT.B]))),
    "verify": (["verify", "{doc}"], serialize.certificate_to_json(CERT)),
    "factor": (["factor", "{doc}"],
               serialize.poly_to_json(Poly(F5, (2, 0, 4, 1, 0, 0, 1)))),
    "construct": (["construct", "3", "2", "2", "--field", "{doc}"],
                  serialize.field_to_json(FiniteField(3, 2))),
}

DEEP = b"[" * 100_000 + b"]" * 100_000
NOT_UTF8 = b'{"p": 5, "e": 1}\xff'
UTF16 = '{"p": 5, "e": 1}'.encode("utf-16")
LONG_INT = b'{"p": ' + b"7" * 5000 + b', "e": 1}'
RAW = {"deep": DEEP, "not-utf8": NOT_UTF8, "utf16": UTF16}
if hasattr(sys, "get_int_max_str_digits"):
    # interpreters without the digit limit parse the integer, and then the
    # field is too large: exit 2
    RAW["long-int"] = LONG_INT

REPLACEMENTS = st.sampled_from([
    0, 1, 2, 4, -1, 2**31, 2**64, -2**40, True, False, None, "", "2", 1.5, -0.0, 1e300,
    [], {}, [[0]], [[[[]]]], {"p": 2},
])


@st.composite
def mutated(draw, value):
    """value with one node replaced, dropped or duplicated."""
    if isinstance(value, (list, dict)) and value and draw(st.integers(0, 3)):
        keys = list(value) if isinstance(value, dict) else list(range(len(value)))
        key = draw(st.sampled_from(keys))
        out = dict(value) if isinstance(value, dict) else list(value)
        action = draw(st.sampled_from(("descend", "drop", "duplicate")))
        if action == "descend":
            out[key] = draw(mutated(value[key]))
        elif action == "drop":
            del out[key]
        elif isinstance(out, list):
            out.insert(key, value[key])
        else:
            # an object cannot hold a key twice: copy a sibling's value
            out[key] = value[draw(st.sampled_from(keys))]
        return out
    return draw(REPLACEMENTS)


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    doc = COMMANDS[command][1]
    for _ in range(draw(st.integers(1, 3))):
        doc = draw(mutated(doc))
    return command, json.dumps(doc).encode("utf-8")


def run(command, document):
    """(exit code, stdout, stderr) of the command on the document."""
    with tempfile.TemporaryDirectory() as tmp:
        doc, b = os.path.join(tmp, "doc.json"), os.path.join(tmp, "b.json")
        with open(doc, "wb") as fh:
            fh.write(document)
        with open(b, "w", encoding="utf-8") as fh:
            json.dump(PAIR_B, fh)
        argv = [a.format(doc=doc, b=b) for a in COMMANDS[command][0]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue().replace(doc, "doc.json")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_valid_inputs_pass(command):
    code, out, err = run(command, json.dumps(COMMANDS[command][1]).encode("utf-8"))
    assert code == 0, err
    assert out


@pytest.mark.parametrize("document", list(RAW.values()), ids=list(RAW))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_undecodable_files_exit_1_and_name_the_file(command, document):
    code, out, err = run(command, document)
    assert code == 1
    assert out == ""
    assert "doc.json" in err and "Traceback" not in err


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example(("factor", DEEP))
@example(("mindist", NOT_UTF8))
@example(("verify", UTF16))
@example(("construct", LONG_INT))
@example(("dim", DEEP))
def test_mutated_inputs_exit_cleanly(case):
    command, document = case
    code, out, err = run(command, document)
    assert 0 <= code <= 3, err
    assert "Traceback" not in err
    assert run(command, document) == (code, out, err)
