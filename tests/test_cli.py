"""Command line behavior: exit codes, JSON schema conformance, text and
JSON agreement, file round trips."""

import contextlib
import io
import json
import os
import random
import sys

import jsonschema
import pytest

from eigenforge.cli import main
from eigenforge.catalog import entry_path
from eigenforge.degree2 import data_to_json_dict
from eigenforge.parser import parse_family

from test_degree2 import rand_data

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "schemas")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def schema(name):
    with open(os.path.join(SCHEMA_DIR, name + ".json")) as fh:
        return json.load(fh)


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
    jsonschema.validate(payload, schema(schema_name))
    if "family" in payload:
        jsonschema.validate(payload["family"], schema("family"))
    return code, payload


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


def test_verify_missing_file_exit_two():
    code, out, err = run(["verify", "/no/such/file.efam"])
    assert code == 2


def test_verify_parse_error_exit_two(tmp_path):
    p = tmp_path / "bad.efam"
    p.write_text("family bad\nframe complex z\nF = z +\n")
    code, out, err = run(["verify", str(p)])
    assert code == 2
    assert "parse error" in err


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


def test_reduce_json_reports_both_verdicts():
    code, payload = run_json(
        ["reduce", entry_path("inflated-cubic-r7"), "--coord", "u"], "reduce")
    assert code == 0
    assert payload["eigenfamily_before"] is True
    assert payload["eigenfamily_after"] is True


def test_reduce_rejects_real_coordinate():
    code, out, err = run(["reduce", entry_path("inflated-cubic-r7"), "--coord", "t"])
    assert code == 2


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
    jsonschema.validate(json.loads(data_path.read_text()), schema("deg2-data"))
    pair_path = tmp_path / "pair.efam"
    code, out, err = run(["deg2", "construct", str(data_path), "-o", str(pair_path)])
    assert code == 0
    assert run(["verify", str(pair_path)])[0] == 0
    code, payload = run_json(["deg2", "decompose", str(pair_path)], "deg2-decompose")
    assert code == 0
    jsonschema.validate(payload["data"], schema("deg2-data"))
    if payload["exact"]:
        assert "isometry" in payload
    else:
        assert "isometry_numeric" in payload


def test_deg2_construct_json(tmp_path):
    data_path = write_data(tmp_path, 3)
    code, payload = run_json(["deg2", "construct", str(data_path)], "deg2-construct")
    assert code == 0
    assert payload["verdict"] is True
    assert set(payload["family"]["members"]) == {"F1", "F2"}


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
    calls = count_calls(monkeypatch, conformality, "kappa")
    code, payload = run_json(
        ["construct", "power", entry_path("pair-c4"), "--d", "2"], "construct")
    assert code == 0 and payload["sphere_data_consistent"] is True
    assert len(payload["family"]["members"]) == 3
    # 3 input pairs and 6 product pairs, each computed once
    assert len(calls) == len({args[:2] for args in calls}) == 9


def test_construct_power_with_explicit_data():
    code, payload = run_json(
        ["construct", "power", entry_path("z1z2"), "--d", "2",
         "--lambda", "-8", "--mu", "-4"], "construct")
    assert code == 0
    assert payload["lambda"] == "-24"
    assert payload["mu"] == "-16"
    assert "sphere_data_consistent" not in payload


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


def test_catalog_run_text_lines():
    code, out, err = run(["catalog", "run"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("pass")]
    assert len(lines) >= 30
    assert out.splitlines()[-1] == "catalog: all expectations hold"


def test_catalog_corrupted_entry_nonzero_exit(tmp_path, monkeypatch):
    text = open(entry_path("pair-c4")).read()
    (tmp_path / "broken.efam").write_text(
        text.replace("z*conj(w) - u*conj(v)", "z*conj(w) + u*conj(v)"))
    monkeypatch.setenv("EIGENFORGE_CATALOG", str(tmp_path))
    code, out, err = run(["catalog", "run"])
    assert code == 1
    assert "FAIL" in out


def test_catalog_env_override_list(tmp_path, monkeypatch):
    (tmp_path / "only.efam").write_text(open(entry_path("z1z2")).read())
    monkeypatch.setenv("EIGENFORGE_CATALOG", str(tmp_path))
    code, payload = run_json(["catalog", "list"], "catalog-list")
    assert code == 0
    assert [e["name"] for e in payload["entries"]] == ["only"]


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
