"""Command line behavior: exit codes, JSON schema conformance, text and
JSON agreement, file round trips."""

import collections
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import sys
import time
from pathlib import Path

import numpy
import pytest
from jsonschema import Draft202012Validator

from eigenforge import parser
from eigenforge.cli import main
from eigenforge.catalog import entry_path, list_entries
from eigenforge.conformality import FLAT_DATA, power_family, verify_flat_family
from eigenforge.degree2 import (PolynomialData, SubspaceType, TwistingData, construct_eigenpair,
                                data_from_json_dict, data_to_json_dict)
from eigenforge.parser import load_family, parse_family

from schemas import load, validator
from test_degree2 import rand_data


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def count_calls(monkeypatch, module, name):
    """Wrap module.name in every eigenforge namespace that holds it and
    return the list that collects each call's positional arguments."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("eigenforge") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def run_json(argv, schema_name):
    code, out, err = run(list(argv) + ["--json"])
    payload = json.loads(out)
    validator(schema_name).validate(payload)
    return code, payload


# -- integers past the interpreter's digit limit -----------------------

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer string limit")


@needs_digit_limit
def test_literal_over_the_digit_limit_is_a_parse_error(tmp_path):
    digits = DIGIT_LIMIT + 700
    path = tmp_path / "literal.efam"
    path.write_text(f"family lit\nframe complex z\nF = {'7' * digits}*z\n")
    code, out, err = run(["verify", path])
    assert code == 2 and out == ""
    assert err.strip() == (f"parse error: integer literal has {digits} digits, over the limit "
                           f"of {DIGIT_LIMIT} at line 3, column 5")


@needs_digit_limit
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_coefficient_over_the_digit_limit_exits_two(tmp_path, json_flag):
    # 2^e, written in a few characters, has digits > DIGIT_LIMIT decimal digits
    e = int((DIGIT_LIMIT + 200) / math.log10(2))
    digits = math.floor(e * math.log10(2)) + 1
    power = tmp_path / "power.efam"
    power.write_text(f"family big\nframe complex z\nF = (2*z)^{e}\n")
    pair = tmp_path / "pair.efam"
    pair.write_text(f"family bigpair\nframe complex z u v w\nF1 = 2^{e}*(z*v + u*w)\n"
                    f"F2 = 2^{e}*(z*conj(w) - u*conj(v))\n")
    for argv in (["construct", "power", power, "--d", "1", "--lambda", "0", "--mu", "0"],
                 ["deg2", "decompose", pair]):  # the data matrix A holds 2^e
        code, out, err = run(argv + json_flag)
        assert code == 2
        assert err == (f"error: a coefficient has {digits} digits, over the limit of "
                       f"{DIGIT_LIMIT} digits for printing an integer\n")


@needs_digit_limit
def test_text_output_over_the_digit_limit_prints_nothing(tmp_path):
    # each command decides its verdict before it meets the coefficient it cannot print
    e = int((DIGIT_LIMIT + 200) / math.log10(2))
    digits = math.floor(e * math.log10(2)) + 1
    power = tmp_path / "power.efam"
    power.write_text(f"family big\nframe complex z\nF = (2*z)^{e}\n")
    product = tmp_path / "product.efam"
    product.write_text(f"family bigproduct\nframe complex z u\nF = 2^{e}*z*u\n")
    data = tmp_path / "data.json"
    empty = {"rows": 0, "cols": 0, "entries": []}
    data.write_text(json.dumps({"type": {"n": 1, "k": 0, "delta": 0},
                                "poly": {"P1": f"2^{e}*z1^2", "P2": "z1^2",
                                         "A": {"rows": 1, "cols": 0, "entries": []}},
                                "twist": {"Y": empty, "C": empty, "v": []}}))
    for argv in (["construct", "power", power, "--d", "1", "--lambda", "0", "--mu", "0"],
                 ["reduce", product, "--coord", "u"], ["deg2", "construct", data],
                 ["deg2", "construct", data, "-o", tmp_path / "pair.efam"]):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err == (f"error: a coefficient has {digits} digits, over the limit of "
                       f"{DIGIT_LIMIT} digits for printing an integer\n")
    assert not (tmp_path / "pair.efam").exists()


@needs_digit_limit
def test_deg2_data_entry_over_the_digit_limit_names_its_field(tmp_path):
    t, pd, td = rand_data(random.Random(5), k=2)
    raw = data_to_json_dict(t, pd, td)
    digits = DIGIT_LIMIT + 701
    path = tmp_path / "data.json"
    for field, entries, index in (("poly.A entry 0", raw["poly"]["A"]["entries"], 0),
                                  ("twist.Y entry 1", raw["twist"]["Y"]["entries"], 1),
                                  ("twist.v entry 0", raw["twist"]["v"], 0)):
        saved = entries[index]
        entries[index] = ["1", "-" + "7" * digits] if index else ["7" * digits, "0"]
        path.write_text(json.dumps(raw))
        code, out, err = run(["deg2", "construct", path])
        entries[index] = saved
        assert (code, out) == (2, "")
        assert err == (f"error: {field}: integer literal has {digits} digits, over the limit "
                       f"of {DIGIT_LIMIT}\n")


# -- verify -----------------------------------------------------------


def test_verify_true_exit_zero():
    code, out, err = run(["verify", entry_path("pair-c4")])
    assert code == 0
    assert "eigenfamily: true" in out


def test_verify_false_exit_one_with_residual():
    code, out, err = run(["verify", entry_path("pair-c4-variant")])
    assert code == 1
    assert "eigenfamily: false" in out
    assert "kappa(F1, F2)" in out


def test_verify_text_prints_the_residuals_the_payload_formatted(monkeypatch, tmp_path):
    # text mode prints each failing residual from the payload's strings, so
    # it formats every residual once, as --json does
    path = tmp_path / "nonflat.efam"
    path.write_text("family nonflat\nframe complex z u\nF1 = z*conj(z)\n"
                    "F2 = z*u + conj(u)^2\n")
    calls = count_calls(monkeypatch, parser, "format_poly")
    code, payload = run_json(["verify", path], "verify")
    json_calls = len(calls)
    assert code == 1 and json_calls == 5  # 2 Laplacians and 3 brackets
    code, out, _ = run(["verify", path])
    assert code == 1 and len(calls) == 2 * json_calls
    failing = [f"laplacian({['F1', 'F2'][i]}) = {r}"
               for i, r in enumerate(payload["harmonic_residuals"]) if r != "0"]
    failing += [f"kappa(F{p['i'] + 1}, F{p['j'] + 1}) = {p['residual']}"
                for p in payload["conformal_pairs"] if p["residual"] != "0"]
    assert len(failing) == 4
    assert [line.strip() for line in out.splitlines()[2:]] == failing


def test_verify_json_matches_text_verdict():
    for name in ("pair-c4", "pair-c4-variant", "twisted-pair-r9"):
        code_t, out_t, _ = run(["verify", entry_path(name)])
        code_j, payload = run_json(["verify", entry_path(name)], "verify")
        assert code_t == code_j
        assert payload["verdict"] is (code_j == 0)
        assert (f"eigenfamily: {'true' if payload['verdict'] else 'false'}") in out_t


def test_verify_sphere_values():
    code, payload = run_json(["verify", entry_path("z1z2"), "--sphere"], "verify")
    assert code == 0
    assert payload["sphere"] == {"sphere_dim": 3, "lambda": "-8", "mu": "-4"}


def test_verify_explicit_zero_data_same_as_default():
    code, payload = run_json(
        ["verify", entry_path("pair-c4"), "--lambda", "0", "--mu", "0"], "verify")
    assert code == 0 and payload["verdict"]


def test_verify_nonzero_lambda_fails_on_flat_space():
    code, payload = run_json(
        ["verify", entry_path("z1z2"), "--lambda", "-8", "--mu", "-4"], "verify")
    assert code == 1
    assert not payload["verdict"]


@pytest.mark.parametrize("entry, data, code", [
    ("pair-c4", ["--lambda", "0", "--mu", "0"], 0),
    ("pair-c4", ["--lambda", "-16", "--mu", "-4"], 1),
    ("pair-c4", ["--mu", "-4"], 1),
    ("pair-c4-variant", ["--lambda", "0", "--mu", "0"], 1),
])
def test_verify_sphere_with_explicit_data(entry, data, code):
    # the exit code follows the (lambda, mu) report; the sphere section
    # is the closed form (-d(d+m-1), -d^2) for d = 2 on S^7 either way
    argv = ["verify", entry_path(entry), "--sphere"] + data
    got, payload = run_json(argv, "verify")
    assert got == code
    assert payload["sphere"] == {"sphere_dim": 7, "lambda": "-16", "mu": "-4"}
    got, out, err = run(argv)
    assert got == code
    assert "restricted to S^7: lambda = -16, mu = -4" in out


@pytest.mark.parametrize("command, extra", [(["verify"], []), (["construct", "power"], ["--d", "2"])])
@pytest.mark.parametrize("option", ["--lambda", "--mu"])
@pytest.mark.parametrize("value, error", [
    ("x", "undeclared identifier 'x' at column 1"),
    ("1/0", "division by zero at column 2"),
    ("1+", "expected a value at column 3"),
])
def test_bad_eigen_value_names_its_option(command, extra, option, value, error):
    # the value is no line of a file: the message names the option, not a line
    code, out, err = run(command + [entry_path("z1z2")] + extra + [option, value])
    assert (code, out) == (2, "")
    assert err == f"parse error: {option} {value!r}: {error}\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_verify_sphere_on_a_zero_family_exits_two(tmp_path, json_flag):
    p = tmp_path / "zero.efam"
    p.write_text("family zero\nframe complex z\nF = 0\n")
    code, out, err = run(["verify", str(p), "--sphere"] + json_flag)
    assert code == 2 and out == ""
    assert err == "error: a family of zero polynomials has no sphere data\n"


def test_verify_missing_file_exit_two():
    code, out, err = run(["verify", "/no/such/file.efam"])
    assert code == 2


def test_verify_parse_error_exit_two(tmp_path):
    p = tmp_path / "bad.efam"
    p.write_text("family bad\nframe complex z\nF = z +\n")
    code, out, err = run(["verify", str(p)])
    assert code == 2
    assert "parse error" in err


def test_a_name_outside_ascii_is_a_parse_error(tmp_path):
    # the name would print into a family object that fails docs/schemas/family.json
    p = tmp_path / "zeta.efam"
    p.write_text("family zeta\nframe complex ζ w\nF = ζ*conj(ζ)*w\n", encoding="utf-8")
    code, out, err = run(["construct", "defect", str(p), "--json"])
    assert (code, out) == (2, "")
    assert err == "parse error: unexpected character 'ζ' at line 2, column 15\n"


@pytest.mark.parametrize("body", ["(" * 495 + "z" + ")" * 495,
                                  "conj(" * 330 + "z" + ")" * 330,
                                  "-" * 990 + "z"], ids=["parentheses", "conj", "unary-minus"])
def test_deeply_nested_member_is_a_parse_error(tmp_path, body):
    p = tmp_path / "nested.efam"
    p.write_text("family nested\nframe complex z\nF = " + body + "\n")
    code, out, err = run(["verify", str(p)])
    assert code == 2 and out == ""
    assert err.startswith("parse error: expression nested deeper than ")
    assert "at line 3" in err and "Traceback" not in err


def test_usage_error_exit_two():
    code, out, err = run(["verify"])
    assert code == 2
    code, out, err = run(["no-such-command"])
    assert code == 2


# -- analyze ----------------------------------------------------------


def test_analyze_quartet():
    code, payload = run_json(["analyze", entry_path("cubic-quartet-c4")], "analyze")
    assert code == 0
    assert payload["uniformly_complex_type"] is False
    assert payload["witness"] is None
    assert payload["axis"]["certified"]["dim"] == 4
    assert payload["axis"]["theoretical_upper_bound"] == 4


def test_analyze_complex_type_witness():
    code, payload = run_json(["analyze", entry_path("z1z2")], "analyze")
    assert code == 0
    assert payload["uniformly_complex_type"] is True
    assert payload["witness"]["plane_dim"] == 4


def test_analyze_text_mentions_axis():
    code, out, err = run(["analyze", entry_path("pair-c4")])
    assert code == 0
    assert "certified axis dim: 4" in out
    assert "uniformly complex type: false" in out


def test_analyze_builds_the_gradient_span_once(monkeypatch):
    from eigenforge import holomorphy
    calls = count_calls(monkeypatch, holomorphy, "gradient_span")
    code, payload = run_json(["analyze", entry_path("glued-pairs-c6")], "analyze")
    assert code == 0
    assert len(calls) == 1


def test_failed_internal_check_exits_three(monkeypatch, tmp_path):
    # a radical vector that is isotropic but does not annihilate the
    # gradient span makes the certified axis fail its own check
    from eigenforge import holomorphy
    from eigenforge.linalg import Matrix
    from eigenforge.scalars import I, ONE
    row = Matrix([[ONE, I]])
    monkeypatch.setattr(holomorphy, "_isotropic_parts",
                        lambda W: (W.real_annihilator(), row, row, [], []))
    p = tmp_path / "f1.efam"
    p.write_text("family f1\nframe complex z\nF1 = z*conj(z)\n")
    for extra in ([], ["--json"]):
        code, out, err = run(["analyze", p] + extra)
        assert code == 3
        assert err == "internal check failed: certified axis fails the axis condition\n"
        assert "Traceback" not in out + err


def test_second_anisotropic_direction_exits_three(monkeypatch):
    # the delta-Lemma allows a full eigenpair one anisotropic direction, so
    # two planted values make the decomposition fail its own check
    from eigenforge import degree2
    from eigenforge.scalars import ONE
    parts = degree2._isotropic_parts

    def planted(W):
        K, isotropics, V, d, leftovers = parts(W)
        return K, isotropics, V, d + [ONE, ONE], leftovers
    monkeypatch.setattr(degree2, "_isotropic_parts", planted)
    for extra in ([], ["--json"]):
        code, out, err = run(["deg2", "decompose", entry_path("pair-c4")] + extra)
        assert code == 3
        assert err == "internal check failed: more than one anisotropic direction\n"
        assert out == ""


def write_pair(tmp_path, data):
    "The pair constructed from data, written as a family file."
    F1, F2 = construct_eigenpair(*data)
    p = tmp_path / "pair.efam"
    p.write_text(parser.format_family(
        parser.FamilySource("pair", F1.frame, {}, {"F1": F1, "F2": F2}, {})))
    return p


# this pair's coupling norms have no square root in Q(i): decomposing it takes the float tail
FLOAT_TAIL_DATA = rand_data(random.Random(0), n_max=3, k=2)


def test_invalid_decomposed_data_exits_three(monkeypatch, tmp_path):
    # the float tail recovers Y through _rational_matrix(..., antisym=True); a
    # zero Y fails TwistingData.validate, a check on computed data, not a verdict
    from eigenforge import degree2
    from eigenforge.linalg import Matrix
    p = write_pair(tmp_path, FLOAT_TAIL_DATA)
    recover = degree2._rational_matrix
    monkeypatch.setattr(degree2, "_rational_matrix", lambda Mf, antisym=False: (
        Matrix.zero(*Mf.shape) if antisym else recover(Mf)))
    for extra in ([], ["--json"]):
        code, out, err = run(["deg2", "decompose", p] + extra)
        assert code == 3
        assert err == "internal check failed: decomposed data is invalid: Y must be invertible\n"
        assert out == ""


# the annihilator's form diag(-3, 8/9) pairs only in floats, so the
# tolerance decides whether the numeric plane is reported
PLANES = ("family planes\nframe complex ; real s1 s2 s3 s4\n"
          "F1 = (2*i*s1 - s2)^2\nF2 = (1/3*i*s3 - s4)^2\n")


def test_analyze_text_reports_the_numeric_extension(tmp_path):
    p = tmp_path / "planes.efam"
    p.write_text(PLANES)
    code, out, err = run(["analyze", p])
    assert code == 0 and err == ""
    line, = (x for x in out.splitlines() if x.startswith("numeric extension [float]: "))
    assert line.startswith("numeric extension [float]: 2 vectors, residual ")
    assert float(line.rsplit(" ", 1)[1]) < 1e-9
    code, out, err = run(["analyze", p, "--tolerance=0"])
    assert code == 0 and "\nnumeric extension [float]: none\n" in out


def test_analyze_rejects_a_tolerance_that_is_not_finite_and_non_negative(tmp_path):
    p = tmp_path / "planes.efam"
    p.write_text(PLANES)
    code, payload = run_json(["analyze", p], "analyze")
    assert code == 0 and payload["axis"]["numeric"]["dim"] == 2
    for bad in ("nan", "inf", "-1"):
        code, out, err = run(["analyze", p, f"--tolerance={bad}"])
        assert code == 2 and out == ""
        assert err.startswith("error: tolerance must be finite and non-negative")


def test_analyze_deterministic():
    a = run(["analyze", entry_path("glued-pairs-c6"), "--json"])
    b = run(["analyze", entry_path("glued-pairs-c6"), "--json"])
    assert a == b


# -- reduce -----------------------------------------------------------


def test_reduce_writes_loadable_family(tmp_path):
    out_path = tmp_path / "reduced.efam"
    code, out, err = run(["reduce", entry_path("inflated-cubic-r7"),
                          "--coord", "u", "-o", str(out_path)])
    assert code == 0
    source = parse_family(out_path.read_text())
    assert source.name == "inflated-cubic-r7-reduced"
    assert source.frame.complex_names == ("z", "w")
    assert source.frame.real_names == ("t",)
    code2, out2, err2 = run(["verify", str(out_path)])
    assert code2 == 0


def test_output_file_is_written_with_or_without_json(tmp_path):
    # -o writes the same .efam bytes in both modes; --json prints the same
    # JSON with -o as without it, with no "wrote" line
    data = write_data(tmp_path, 8)
    for argv in (["reduce", entry_path("pair-c4"), "--coord", "u"],
                 ["deg2", "construct", data],
                 ["construct", "power", entry_path("z1z2"), "--d", "2"]):
        text, json_out = tmp_path / "text.efam", tmp_path / "json.efam"
        code, out, _ = run(argv + ["-o", text])
        assert code == 0 and out.endswith(f"\nwrote {text}\n")
        assert run(argv + ["--json", "-o", json_out]) == run(argv + ["--json"])
        assert json_out.read_bytes() == text.read_bytes() != b""
        text.unlink()
        json_out.unlink()


def test_reduce_json_reports_both_verdicts():
    code, payload = run_json(
        ["reduce", entry_path("inflated-cubic-r7"), "--coord", "u"], "reduce")
    assert code == 0
    assert payload["eigenfamily_before"] is True
    assert payload["eigenfamily_after"] is True


def test_reduce_substitutes_each_member_once(monkeypatch):
    from eigenforge import reduction
    calls = count_calls(monkeypatch, reduction, "reduce_along")
    path = entry_path("inflated-cubic-r7")
    members = len(parse_family(Path(path).read_text()).definitions)
    for argv in (["--json"], []):
        calls.clear()
        code, out, err = run(["reduce", path, "--coord", "u", *argv])
        assert code == 0
        assert len(calls) == members


def test_reduce_rejects_real_coordinate():
    code, out, err = run(["reduce", entry_path("inflated-cubic-r7"), "--coord", "t"])
    assert code == 2


def test_reduce_rejects_unknown_coordinate_by_name():
    code, out, err = run(["reduce", entry_path("z1z2"), "--coord", "q"])
    assert (code, out, err) == (2, "", "error: no complex coordinate 'q' to reduce along\n")


def test_reduce_rejects_nonholomorphic_coordinate():
    code, out, err = run(["reduce", entry_path("inflated-cubic-r7"), "--coord", "w"])
    assert code == 2
    assert "conj" in err


# -- deg2 -------------------------------------------------------------


def write_data(tmp_path, seed, n_max=3):
    t, pd, td = rand_data(random.Random(seed), n_max=n_max)
    p = tmp_path / f"data{seed}.json"
    p.write_text(json.dumps(data_to_json_dict(t, pd, td)))
    return p


def test_deg2_construct_and_decompose_files(tmp_path):
    data_path = write_data(tmp_path, 8)
    validator("deg2-data").validate(json.loads(data_path.read_text()))
    pair_path = tmp_path / "pair.efam"
    code, out, err = run(["deg2", "construct", str(data_path), "-o", str(pair_path)])
    assert code == 0
    assert run(["verify", str(pair_path)])[0] == 0
    code, payload = run_json(["deg2", "decompose", str(pair_path)], "deg2-decompose")
    assert code == 0
    validator("deg2-data").validate(payload["data"])
    if payload["exact"]:
        assert "isometry" in payload
    else:
        assert "isometry_numeric" in payload


# [re, im] strings p or p/q that docs/schemas/deg2-data.json and the reader both
# accept (True) or both refuse (False): a zero denominator is refused however written
FRACTIONS = [("0", True), ("-3", True), ("07", True), ("-0/1", True), ("1/007", True),
             ("12/34", True), ("1/0", False), ("3/00", False), ("-0/0", False), ("1/-2", False),
             ("1/", False), ("/2", False), ("+1", False), ("1.5", False), ("1e3", False),
             ("", False), ("--1", False), ("1/2/3", False), (" 1", False), ("١", False),
             ("1\n", False)]


def test_schema_and_reader_agree_on_fractions():
    t, pd, td = rand_data(random.Random(5), k=2, delta=1)
    for text, ok in FRACTIONS:
        raw = data_to_json_dict(t, pd, td)
        raw["twist"]["v"] = [[text, "1"], ["0", "0"]]  # nonzero whatever text reads as
        try:
            data_from_json_dict(raw)
            read = True
        except ValueError as exc:
            assert str(exc) == "twist.v entry 0: expected a [re, im] pair of strings p or p/q"
            read = False
        assert (read, validator("deg2-data").is_valid(raw)) == (ok, ok), text


# every pattern of docs/schemas, with strings it accepts and strings it refuses
SCHEMA_PATTERNS = {
    r"^-?[0-9]+(/0*[1-9][0-9]*)?(?!\n)$": (["0", "-3", "12/34"], ["1/0", "3/00"]),
    r"^[A-Za-z0-9_.-]+(?!\n)$": (["pair-c4", "a.b_1"], []),
    r"^[A-Za-z_][A-Za-z0-9_]*(?!\n)$": (["z", "F_1"], []),
    # a printed scalar's denominators follow the fraction's rule: never zero
    r"^-?(i|[0-9]+(/0*[1-9][0-9]*)?(\*i)?|[0-9]+(/0*[1-9][0-9]*)?[+-]"
    r"([0-9]+(/0*[1-9][0-9]*)?\*)?i)(?!\n)$":
        (["i", "-7", "-3/4*i", "1/2+3/2*i", "2-i", "1/007+5/01*i"],
         ["1/0", "3/00*i", "1/0+i", "1/2-3/0*i"]),
}


def keyword_values(node, keyword):
    "Every value of keyword in a schema."
    if isinstance(node, dict):
        for key, value in node.items():
            yield from [value] if key == keyword else keyword_values(value, keyword)
    elif isinstance(node, list):
        for value in node:
            yield from keyword_values(value, keyword)


def test_schema_patterns_refuse_a_trailing_newline():
    # the validator applies re.search, where a bare '$' also matches before a final "\n"
    found = {p for s in load()[0].values() for p in keyword_values(s, "pattern")}
    assert found == set(SCHEMA_PATTERNS)
    for pattern, (accepted, refused) in SCHEMA_PATTERNS.items():
        check = Draft202012Validator({"type": "string", "pattern": pattern})
        for text in accepted:
            assert check.is_valid(text) and not check.is_valid(text + "\n"), (pattern, text)
        for text in refused:
            assert not check.is_valid(text), (pattern, text)


def subschemas(node):
    "Every object in a schema, the schema itself included."
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    if isinstance(node, list):
        for value in node:
            yield from subschemas(value)


def definitions(schema):
    "A file's root, less its annotations and $defs, and each entry of its $defs."
    root = {k: v for k, v in schema.items()
            if k not in ("$schema", "$id", "title", "description", "$defs")}
    return [root, *schema.get("$defs", {}).values()]


def test_schema_files_are_one_registry_with_one_definition_per_type():
    all_schemas, registry = load()
    for name, s in all_schemas.items():
        Draft202012Validator.check_schema(s)
        assert s["$id"] == f"eigenforge/{name}.json"
        resolver = registry.resolver(base_uri=s["$id"])
        for ref in keyword_values(s, "$ref"):
            assert isinstance(resolver.lookup(ref).contents, dict), (name, ref)
    # a type shared by several outputs is defined once and reached by $ref:
    # no $defs entry or file root reappears inline, in its own file or in
    # another, and a type with a pattern is always a $defs entry
    seen = collections.Counter(json.dumps(node, sort_keys=True) for s in all_schemas.values()
                               for node in [*subschemas(s), definitions(s)[0]])
    for name, s in all_schemas.items():
        for node in definitions(s):
            assert seen[json.dumps(node, sort_keys=True)] == 1, (name, node)
        defined = [id(node) for node in s.get("$defs", {}).values()]
        for node in subschemas(s):
            assert "pattern" not in node or id(node) in defined, (name, node)


def test_deg2_construct_json(tmp_path, monkeypatch):
    data_path = write_data(tmp_path, 3)
    # the data is validated as it is read, and the pair is built with no second check
    calls = []
    for cls in (SubspaceType, PolynomialData, TwistingData):
        def counting(data, *args, original=cls.validate):
            calls.append(type(data).__name__)
            return original(data, *args)
        monkeypatch.setattr(cls, "validate", counting)
    code, payload = run_json(["deg2", "construct", str(data_path)], "deg2-construct")
    assert code == 0
    assert payload["verdict"] is True
    assert set(payload["family"]["members"]) == {"F1", "F2"}
    assert sorted(calls) == ["PolynomialData", "SubspaceType", "TwistingData"]


def test_deg2_reconstructed_data_constructs_again(tmp_path):
    data_path = write_data(tmp_path, 21)
    pair_path = tmp_path / "pair.efam"
    assert run(["deg2", "construct", str(data_path), "-o", str(pair_path)])[0] == 0
    code, payload = run_json(["deg2", "decompose", str(pair_path)], "deg2-decompose")
    assert code == 0
    second = tmp_path / "second.json"
    second.write_text(json.dumps(payload["data"]))
    code2, payload2 = run_json(["deg2", "construct", str(second)], "deg2-construct")
    assert code2 == 0 and payload2["verdict"] is True


def test_deg2_decompose_float_tail_output(tmp_path):
    p = write_pair(tmp_path, FLOAT_TAIL_DATA)
    m = 11  # 2n + 2k + delta for the type (3, 2, 1)
    code, out, err = run(["deg2", "decompose", p])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[:2] == ["subspace type: n = 3, k = 2, delta = 1",
                         "exact: false (numeric tail, data re-rationalized)"]
    rows = lines[lines.index("isometry [float]:") + 1:]
    assert len(rows) == m
    assert all(r.startswith("  [") and r.endswith("]") and len(r.split(", ")) == m for r in rows)
    code, payload = run_json(["deg2", "decompose", p], "deg2-decompose")
    assert code == 0 and payload["exact"] is False
    assert f"P1 = {payload['data']['poly']['P1']}" in lines
    numeric = payload["isometry_numeric"]
    assert (numeric["rows"], numeric["cols"]) == (m, m)
    iso = numpy.array(numeric["entries"])
    assert numpy.allclose(iso @ iso.T, numpy.eye(m))
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(payload["data"]))
    assert run(["deg2", "construct", data_path])[0] == 0


def test_deg2_decompose_text_without_coupling(tmp_path):
    # k = 0: the pair is P1(z), P2(z), and A, Y, C and v are empty
    p = write_pair(tmp_path, rand_data(random.Random(0), n_max=3, k=0))
    code, out, err = run(["deg2", "decompose", p])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[:2] == ["subspace type: n = 2, k = 0, delta = 0", "exact: true"]
    assert lines[4:] == ["A = []", "Y = []", "C = []", "v = ()"]


def test_deg2_decompose_not_full_exit_one(tmp_path):
    p = tmp_path / "thin.efam"
    p.write_text("family thin\nframe complex z u v\nF1 = z^2\nF2 = z*u\n")
    code, out, err = run(["deg2", "decompose", str(p)])
    assert code == 1
    assert "not full" in err


def test_deg2_decompose_needs_two_members(tmp_path):
    p = tmp_path / "one.efam"
    p.write_text("family one\nframe complex z\nF = z^2\n")
    code, out, err = run(["deg2", "decompose", str(p)])
    assert code == 2


def test_deg2_decompose_of_one_member_is_a_usage_error():
    # the file parses; the family is the wrong size
    code, out, err = run(["deg2", "decompose", entry_path("abb-r5")])
    assert code == 2 and out == ""
    assert err == "error: decomposition needs a family with exactly two members\n"


def test_deg2_construct_invalid_data_exit_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"type": {"n": 2, "k": 1, "delta": 0},
                             "poly": {"P1": "z1^2", "P2": "z1*z2",
                                      "A": {"rows": 2, "cols": 1,
                                            "entries": [["1", "0"], ["0", "0"]]}},
                             "twist": {"Y": {"rows": 1, "cols": 1, "entries": [["0", "0"]]},
                                       "C": {"rows": 1, "cols": 1, "entries": [["0", "0"]]},
                                       "v": [["0", "0"]]}}))
    code, out, err = run(["deg2", "construct", str(p)])
    assert code == 2
    assert "k must be even" in err


def test_deg2_construct_malformed_json_exit_two(tmp_path):
    p = tmp_path / "nonsense.json"
    p.write_text("{not json")
    code, out, err = run(["deg2", "construct", str(p)])
    assert code == 2


def test_deg2_construct_malformed_json_says_bad_json(tmp_path):
    p = tmp_path / "cut.json"
    p.write_text('{"type":\n')
    code, out, err = run(["deg2", "construct", str(p)])
    assert code == 2
    assert err.startswith("error: bad JSON input: ")


def test_deg2_construct_data_outside_the_schema_exit_two_naming_the_field(tmp_path):
    # valid JSON of the wrong shape or with values outside
    # docs/schemas/deg2-data.json: no traceback, no silent int() or Fraction()
    t, pd, td = rand_data(random.Random(5), k=2)

    def entry(value):
        return lambda d: d["poly"]["A"]["entries"].__setitem__(0, value)
    cases = [
        (lambda d: [d], "deg2 data: expected an object"),
        (lambda d: d["poly"].update(P1=5), "poly.P1: expected a nonempty string"),
        (lambda d: d["poly"].update(P1="z9^2"),
         "poly.P1: undeclared identifier 'z9' at line 1, column 1\n"),
        (lambda d: d["poly"].update(P2="z1^"),
         "poly.P2: exponent must be a nonnegative integer literal at line 1, column 4\n"),
        (lambda d: d["type"].update(n=d["type"]["n"] + 0.9), "type.n: expected a nonnegative"),
        (lambda d: d["type"].update(delta=bool(d["type"]["delta"])),
         "type.delta: expected a nonnegative"),
        (lambda d: d["poly"]["A"].update(rows=-1), "poly.A.rows: expected a nonnegative"),
        (entry([0.1, "0"]), "poly.A entry 0: expected a [re, im] pair"),
        (entry(["1e1", "0"]), "poly.A entry 0: expected a [re, im] pair"),
        (entry(["1", "0", "0"]), "poly.A entry 0: expected a [re, im] pair"),
        (entry(["1/0", "0"]), "poly.A entry 0: expected a [re, im] pair"),
        (lambda d: d["twist"].update(v="0"), "twist.v: expected a list"),
        (lambda d: d["type"].update(extra=1), "type: expected an object with the fields n, k, "),
        (lambda d: d.pop("twist") and None, "deg2 data: expected an object with the fields"),
    ]
    path = tmp_path / "data.json"
    for change, message in cases:
        raw = data_to_json_dict(t, pd, td)
        replaced = change(raw)
        path.write_text(json.dumps(raw if replaced is None else replaced))
        code, out, err = run(["deg2", "construct", path])
        assert (code, out) == (2, ""), message
        assert err.startswith(f"error: {message}"), err


# -- construct --------------------------------------------------------


def test_construct_pair_from_fibration_components(tmp_path):
    p = tmp_path / "fib.efam"
    p.write_text("family fib\n"
                 "frame complex z u\n"
                 "P1 = z*conj(z) - u*conj(u)\n"
                 "P2 = z*conj(u) + conj(z)*u\n"
                 "P3 = -i*(z*conj(u) - conj(z)*u)\n")
    code, payload = run_json(["construct", "pair", str(p)], "construct")
    assert code == 0
    assert payload["verdict"] is True
    assert len(payload["family"]["members"]) == 1  # odd component dropped


def test_construct_pair_rejects_non_morphism(tmp_path):
    p = tmp_path / "no.efam"
    p.write_text("family no\nframe complex z ; real s\nP1 = z*conj(z)\nP2 = s\n")
    code, out, err = run(["construct", "pair", str(p)])
    assert code == 1
    assert "not a harmonic morphism" in err


def test_construct_pair_checks_the_harmonic_morphism_once(tmp_path, monkeypatch):
    from eigenforge import cli, constructions
    calls = []

    def counted(P, check=constructions.verify_rn_hm):
        calls.append(P)
        return check(P)
    for module in (constructions, cli):
        monkeypatch.setattr(module, "verify_rn_hm", counted, raising=False)
    p = tmp_path / "map.efam"
    for body, code, message in (
            ("frame complex z u\nP1 = z*conj(z) - u*conj(u)\nP2 = z*conj(u) + conj(z)*u\n", 0, ""),
            ("frame complex z ; real s\nP1 = z*conj(z)\nP2 = s\n", 1,
             "not a harmonic morphism: some component pair fails conformality or harmonicity\n"),
            ("frame complex z\nP1 = z + conj(z)\n", 2,
             "error: need at least two components\n")):
        p.write_text("family map\n" + body)
        calls.clear()
        assert run(["construct", "pair", p])[::2] == (code, message)
        assert len(calls) == 1


def test_construct_defect_spans_quartet(tmp_path):
    out_path = tmp_path / "defects.efam"
    code, out, err = run(["construct", "defect", entry_path("quartic-defect-c4"),
                          "-o", str(out_path)])
    assert code == 0
    source = parse_family(out_path.read_text())
    assert len(source.definitions) >= 4
    assert run(["verify", str(out_path)])[0] == 0


def test_construct_defect_member_out_of_range():
    code, out, err = run(["construct", "defect", entry_path("quartic-defect-c4"),
                          "--member", "5"])
    assert code == 2


def test_construct_defect_member_out_of_range_is_a_usage_error():
    code, out, err = run(["construct", "defect", entry_path("abb-r5"), "--member", "3"])
    assert code == 2 and out == ""
    assert err == "error: --member must be in 0..0\n"


def test_construct_defect_of_holomorphic_poly_exit_one(tmp_path):
    p = tmp_path / "holo.efam"
    p.write_text("family holo\nframe complex z u\nF = z^2*u\n")
    code, out, err = run(["construct", "defect", str(p)])
    assert code == 1
    assert "complex type" in err


def test_construct_glue_requires_renaming():
    code, out, err = run(["construct", "glue", entry_path("pair-c4"),
                          entry_path("pair-c4")])
    assert code == 2
    assert "holomorphic along the shared block" in err


def test_construct_glue_renamed_copies(tmp_path):
    left = ("family left\nframe complex z u v1 w1\n"
            "P1 = z*v1 + u*w1\nQ1 = z*conj(w1) - u*conj(v1)\n")
    (tmp_path / "left.efam").write_text(left)
    (tmp_path / "right.efam").write_text(
        left.replace("left", "right").replace("1", "2"))
    code, payload = run_json(
        ["construct", "glue", str(tmp_path / "left.efam"),
         str(tmp_path / "right.efam")], "construct")
    assert code == 0
    assert payload["verdict"] is True
    assert payload["family"]["frame"]["complex"] == ["z", "u", "v1", "w1", "v2", "w2"]
    assert len(payload["family"]["members"]) == 4


def test_construct_augment_with_cubics(tmp_path):
    p = tmp_path / "cubes.efam"
    p.write_text("family cubes\nframe complex z u v w\n"
                 "H1 = z^3\nH2 = z^2*u\nH3 = z*u^2\nH4 = u^3\n")
    code, payload = run_json(
        ["construct", "augment", entry_path("cubic-quartet-c4"), str(p)], "construct")
    assert code == 0
    assert payload["verdict"] is True
    assert len(payload["family"]["members"]) == 8


def test_construct_augment_rejects_antiholomorphic(tmp_path):
    p = tmp_path / "bad.efam"
    p.write_text("family bad\nframe complex z u v w\nH = conj(z)\n")
    code, out, err = run(["construct", "augment", entry_path("cubic-quartet-c4"), str(p)])
    assert code == 2


def test_construct_power_derives_sphere_data():
    code, payload = run_json(
        ["construct", "power", entry_path("z1z2"), "--d", "3"], "construct")
    assert code == 0
    assert payload["lambda"] == "-48"
    assert payload["mu"] == "-36"
    assert payload["sphere_data_consistent"] is True
    assert payload["family"]["members"]["F1"] == "z1^3*z2^3"


def test_construct_power_computes_each_kappa_once(monkeypatch):
    from eigenforge import conformality
    calls = []
    bracket = conformality._Kernel.bracket

    def counting(kernel, f, g):
        calls.append((f.poly, g.poly))
        return bracket(kernel, f, g)

    def pairs(fs):
        return {(f, g) for i, f in enumerate(fs) for g in fs[i:]}
    monkeypatch.setattr(conformality._Kernel, "bracket", counting)
    code, payload = run_json(
        ["construct", "power", entry_path("pair-c4"), "--d", "2"], "construct")
    assert code == 0 and payload["sphere_data_consistent"] is True
    assert len(payload["family"]["members"]) == 3
    # the 3 base pairs; the flat base certifies the products, so no product pair
    assert len(calls) == len(set(calls)) == 3
    assert set(calls) == pairs(load_family(entry_path("pair-c4")).polys)
    # a base that fails: its 3 pairs, then the 6 product pairs, each once
    calls.clear()
    base = load_family(entry_path("pair-c4-variant")).polys
    products, _ = power_family(base, 2, FLAT_DATA)
    code, payload = run_json(["construct", "power", entry_path("pair-c4-variant"), "--d", "2",
                              "--lambda", "0", "--mu", "0"], "construct")
    assert code == 1 and payload["verdict"] is False and len(products) == 3
    assert len(calls) == len(set(calls)) == 9
    assert set(calls) == pairs(base) | pairs(products)


def check_power_certificate(monkeypatch, path, degrees):
    """Run construct power on path for each d in degrees, on the derived
    and the explicit path, in text and JSON, once with the Leibniz
    certificate and once with every product pair bracketed.  Both routes
    must print the same bytes, the certificate must be taken exactly when
    the base is flat, and the exit code must match the pairwise verdict.
    Returns whether the base is flat."""
    from eigenforge import cli
    base_flat = verify_flat_family(load_family(path).polys).verdict
    finish = cli._finish_constructed
    for d, data, json_flag in itertools.product(degrees, ([], ["--lambda", "0", "--mu", "0"]),
                                                ([], ["--json"])):
        argv = ["construct", "power", path, "--d", d] + data + json_flag
        seen, results = [], []
        for pairwise in (False, True):
            def route(*args, certified=False, _pairwise=pairwise):
                seen.append((args[2], certified))
                return finish(*args, certified=certified and not _pairwise)
            monkeypatch.setattr(cli, "_finish_constructed", route)
            results.append(run(argv))
        assert results[0] == results[1], argv
        code = results[0][0]
        if not seen:  # no sphere data: a base that fails or is not homogeneous
            assert not data and code in (1, 2)
            continue
        (products, certified), again = seen
        assert again == (products, certified) and certified == base_flat
        assert verify_flat_family(products).verdict == (code == 0)
        assert code == 0 or not certified
    return base_flat


@pytest.mark.parametrize("name", list_entries())
def test_construct_power_certificate_matches_bracketing_every_product(monkeypatch, name):
    check_power_certificate(monkeypatch, entry_path(name), range(1, 5))


def random_power_base(rng, kind):
    """Text of a family on C^3 of holomorphic members; kind "harmonic" adds
    z1 conj(z2) to one member and z2 to another, so a bracket fails, and
    "nonharmonic" adds z conj(z) to one member."""
    zs = ("z1", "z2", "z3")

    def term():
        c = rng.choice(["1", "-2", "3i", "1/2", "2-i", "-5/3"])
        mono = "*".join(f"{z}^{rng.randint(1, 2)}" for z in rng.sample(zs, rng.randint(1, 2)))
        return f"({c})*{mono}"
    members = [" + ".join(term() for _ in range(rng.randint(1, 3)))
               for _ in range(rng.randint(2, 3))]
    if kind == "nonharmonic":
        z = rng.choice(zs)
        members[rng.randrange(len(members))] += f" + {z}*conj({z})"
    elif kind == "harmonic":
        members[0] += " + z1*conj(z2)"
        members[-1] += " + z2"
    return "family rand\nframe complex z1 z2 z3\n" + "".join(
        f"F{i + 1} = {m}\n" for i, m in enumerate(members))


@pytest.mark.parametrize("seed", range(16))
def test_construct_power_certificate_on_random_bases(monkeypatch, tmp_path, seed):
    kind = ("flat", "nonharmonic", "flat", "harmonic")[seed % 4]
    path = tmp_path / "rand.efam"
    path.write_text(random_power_base(random.Random(seed), kind))
    assert check_power_certificate(monkeypatch, path, range(1, 4)) == (kind == "flat")


def test_verify_over_the_bracket_limit_exits_two(monkeypatch):
    from eigenforge import poly
    monkeypatch.setattr(poly, "PRODUCT_LIMIT", 3)
    start = time.perf_counter()
    # no product before the brackets takes more than 3 term products; the
    # first pair, (G1, G1), does: mu G1 G1 takes 2 x 2 products
    code, out, err = run(["verify", "--lambda", "-27", "--mu", "-9",
                          entry_path("cubic-quartet-c4")])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: bracket needs 4 term products, over the limit of 3\n"


def test_power_over_the_product_budget_exits_two(tmp_path):
    # (z + conj(z))^2000 stops inside the parser's power, at the first
    # product over the limit; ^1000 stays under it and verifies (false)
    path = tmp_path / "power.efam"
    path.write_text("family power\nframe complex z\nF = (z + conj(z))^2000\n")
    start = time.perf_counter()
    code, out, err = run(["verify", path])
    assert time.perf_counter() - start < 3.0
    assert code == 2 and out == ""
    assert err.startswith("error: product needs ")
    assert err.endswith("term products, over the limit of 1000000\n")
    path.write_text("family power\nframe complex z\nF = (z + conj(z))^1000\n")
    code, out, err = run(["verify", path])
    assert code == 1 and err == ""


def test_construct_power_of_high_degree():
    # the products are built layer by layer, so a degree-2000 power does
    # not recurse 1000 frames deep
    code, payload = run_json(
        ["construct", "power", entry_path("z1z2"), "--d", "1000"], "construct")
    assert code == 0
    assert payload["family"]["members"] == {"F1": "z1^1000*z2^1000"}
    # a bracket of the product would have degree 80000, past poly.MAX_DEGREE;
    # the flat base certifies the product, so none is taken
    code, payload = run_json(
        ["construct", "power", entry_path("z1z2"), "--d", "20000"], "construct")
    assert code == 0 and payload["verdict"] is True
    assert payload["family"]["members"] == {"F1": "z1^20000*z2^20000"}


def test_construct_power_over_the_family_budget_exits_two():
    # each product stays under poly.PRODUCT_LIMIT, but the family's
    # C(d + 3, 3) products together pass it
    for name, d in (("augmented-quartet-c4", 16), ("cubic-quartet-c4", 40)):
        start = time.perf_counter()
        code, out, err = run(["construct", "power", entry_path(name), "--d", d, "--json"])
        assert time.perf_counter() - start < 10.0
        assert code == 2 and out == ""
        assert err.startswith("error: power family needs ")
        assert err.endswith("term products, over the limit of 1000000\n")


def test_construct_power_with_explicit_data():
    code, payload = run_json(
        ["construct", "power", entry_path("z1z2"), "--d", "2",
         "--lambda", "-8", "--mu", "-4"], "construct")
    assert code == 0
    assert payload["lambda"] == "-24"
    assert payload["mu"] == "-16"
    assert "sphere_data_consistent" not in payload


def test_construct_power_rejects_other_explicit_data(tmp_path):
    # only the flat data and the base's sphere data have a transform the verdict speaks for
    z1z2 = entry_path("z1z2")
    for data, json_flag in itertools.product((["--lambda", "5", "--mu", "7"], ["--mu", "-4"]),
                                             ([], ["--json"])):
        code, out, err = run(["construct", "power", z1z2, "--d", "2"] + data + json_flag)
        assert (code, out) == (2, "")
        assert err.startswith("error: --lambda/--mu (lambda=")
        assert err.endswith(" must be the flat data (lambda=0, mu=0) or the base's sphere "
                            "data (lambda=-8, mu=-4)\n")
    mixed = tmp_path / "mixed.efam"
    mixed.write_text("family mixed\nframe complex z u\nF1 = z\nF2 = z*u\n")
    assert run(["construct", "power", mixed, "--d", "2", "--lambda", "1"]) == (
        2, "", "error: --lambda/--mu (lambda=1, mu=0) must be the flat data (lambda=0, mu=0) "
               "(the base has no sphere data)\n")
    assert run(["construct", "power", mixed, "--d", "2", "--lambda", "0"])[0] == 0


# -- catalog ----------------------------------------------------------


def test_catalog_list_json():
    code, payload = run_json(["catalog", "list"], "catalog-list")
    assert code == 0
    names = [e["name"] for e in payload["entries"]]
    assert names == sorted(names)
    assert "pair-c4" in names


def test_catalog_run_all_pass():
    code, payload = run_json(["catalog", "run"], "catalog-run")
    assert code == 0
    assert payload["ok"] is True
    assert all(o["ok"] for outs in payload["entries"].values() for o in outs)


def test_catalog_run_verifies_each_entry_once(monkeypatch):
    # eigenfamily, sphere_lambda and sphere_mu share one flat report
    from eigenforge import conformality
    calls = count_calls(monkeypatch, conformality, "verify_flat_family")
    code, payload = run_json(["catalog", "run"], "catalog-run")
    assert code == 0 and payload["ok"] is True
    families = [tuple(args[0]) for args in calls]
    assert len(families) == len(set(families)) <= len(payload["entries"])


def test_catalog_run_builds_each_gradient_span_once(monkeypatch, tmp_path):
    # uniformly_complex_type and certified_axis_at_least share one span
    for name in ("pair-c4", "cubic-quartet-c4"):
        (tmp_path / f"{name}.efam").write_text(Path(entry_path(name)).read_text())
    monkeypatch.setenv("EIGENFORGE_CATALOG", str(tmp_path))
    from eigenforge import holomorphy
    calls = count_calls(monkeypatch, holomorphy, "gradient_span")
    code, payload = run_json(["catalog", "run"], "catalog-run")
    assert code == 0 and payload["ok"] is True
    assert len(calls) == 2


def test_catalog_run_text_lines():
    code, out, err = run(["catalog", "run"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("pass")]
    assert len(lines) >= 30
    assert out.splitlines()[-1] == "catalog: all expectations hold"


def test_catalog_corrupted_entry_nonzero_exit(tmp_path, monkeypatch):
    text = Path(entry_path("pair-c4")).read_text()
    (tmp_path / "broken.efam").write_text(
        text.replace("z*conj(w) - u*conj(v)", "z*conj(w) + u*conj(v)"))
    monkeypatch.setenv("EIGENFORGE_CATALOG", str(tmp_path))
    code, out, err = run(["catalog", "run"])
    assert code == 1
    assert "FAIL" in out


def test_catalog_env_override_list(tmp_path, monkeypatch):
    (tmp_path / "only.efam").write_text(Path(entry_path("z1z2")).read_text())
    monkeypatch.setenv("EIGENFORGE_CATALOG", str(tmp_path))
    code, payload = run_json(["catalog", "list"], "catalog-list")
    assert code == 0
    assert [e["name"] for e in payload["entries"]] == ["only"]


# -- one process, many commands ---------------------------------------


def test_commands_in_sequence_share_one_parser():
    # main() builds the parser once; no option of one call leaks into the next
    from eigenforge.cli import build_parser
    assert build_parser() is build_parser()
    z1z2 = entry_path("z1z2")
    code, payload = run_json(["verify", z1z2, "--sphere"], "verify")
    assert code == 0 and payload["sphere"] == {"lambda": "-8", "mu": "-4", "sphere_dim": 3}
    code, out, err = run(["reduce", z1z2])
    assert code == 2 and "required: --coord" in err and out == ""
    code, payload = run_json(["verify", z1z2], "verify")
    assert code == 0 and payload["verdict"] is True and "sphere" not in payload
    code, out, err = run(["verify", entry_path("pair-c4-variant")])
    assert code == 1
    code, payload = run_json(["analyze", z1z2], "analyze")
    assert code == 0 and payload["command"] == "analyze"
    code, payload = run_json(["catalog", "list"], "catalog-list")
    assert code == 0 and "z1z2" in [e["name"] for e in payload["entries"]]
    code, out, err = run(["verify", z1z2])
    assert code == 0 and not out.lstrip().startswith("{")


# -- text mode, byte for byte -----------------------------------------
#
# The bench goldens hash --json output only.  These digests of the exit
# code and stdout of every catalog command in text mode were recorded
# before the parser, the bracket kernel and the printer moved to packed
# integers, and must not move.

TEXT_DIGESTS = Path(__file__).with_name("cli_text_digests.json")


def catalog_text_commands():
    """{key: argv} for every command that applies to a catalog entry, the
    key naming the entry where argv has its path."""
    commands = {"catalog list": ["catalog", "list"], "catalog run": ["catalog", "run"]}
    for name in list_entries():
        path = entry_path(name)
        forms = [["verify"], ["verify", "--sphere"], ["analyze"], ["deg2", "decompose"],
                 ["construct", "pair"], ["construct", "defect"],
                 ["construct", "power", "--d", "2"]]
        forms += [["reduce", "--coord", c]
                  for c in parse_family(Path(path).read_text()).frame.complex_names]
        for form in forms:
            commands[" ".join(form + [name])] = form + [path]
    return commands


def text_digests():
    out = {}
    for key, argv in catalog_text_commands().items():
        code, stdout, _ = run(argv)
        out[key] = hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()
    return out


def test_text_mode_output_of_every_catalog_command_is_unchanged():
    assert text_digests() == json.loads(TEXT_DIGESTS.read_text())


# -- output hygiene ---------------------------------------------------


def test_json_outputs_have_no_floats_outside_numeric_sections():
    code, payload = run_json(["verify", entry_path("z1z2"), "--sphere"], "verify")

    def walk(v):
        if isinstance(v, float):
            raise AssertionError(f"float {v} in exact payload")
        if isinstance(v, dict):
            for x in v.values():
                walk(x)
        if isinstance(v, list):
            for x in v:
                walk(x)

    walk(payload)


def test_written_families_round_trip(tmp_path):
    # format then parse is the identity on every catalog entry
    from eigenforge.parser import format_family
    from eigenforge.catalog import list_entries, load_entry
    for name in list_entries():
        source = load_entry(name)
        again = parse_family(format_family(source))
        assert again == source, name


def test_a_literal_power_past_the_bit_limit_exits_two(tmp_path):
    p = tmp_path / "big.efam"
    p.write_text("family big\nframe complex z\nF1 = 17^300000*z\n")
    for extra in ([], ["--json"]):
        code, out, err = run(["verify", p] + extra)
        assert code == 2 and out == ""
        assert ("power would have a coefficient of about 1226239 bits, over the limit of "
                "1048576") in err
        assert "Traceback" not in err


def test_a_literal_power_past_the_total_bit_limit_exits_two(tmp_path):
    p = tmp_path / "big.efam"
    p.write_text("family big\nframe complex z\nF1 = (z + 17^1000)^100\n")
    for extra in ([], ["--json"]):
        start = time.perf_counter()
        code, out, err = run(["verify", p] + extra)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert ("power would have coefficients of about 41283375 bits in all, over the limit "
                "of 8388608") in err
        assert "Traceback" not in err

