"""Differential tests of the command line on generated families.

Each generated family is written with format_family and run through
cli.main by verify, analyze, reduce and construct power, in text and
--json mode.  The exit code is 0, 1 or 2, never 3 or a traceback; every
--json payload validates against its schema; text and JSON give the same
verdict; the verdict is the one of the references in tests/oracles.py;
and a family written with -o parses back to the members the reference
computes."""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from eigenforge.conformality import FLAT_DATA
from eigenforge.degree2 import Deg2Form, from_form
from eigenforge.frames import VariableFrame
from eigenforge.parser import FamilySource, format_family, load_family, parse_poly
from eigenforge.poly import Poly

from oracles import (dot_bilinear, ref_gradient_span, ref_maximal_axis, ref_power_products,
                     ref_substitute, ref_verify_general_family)
from schemas import validator
from test_cli import run
from test_degree2 import anticommuting_cases
from test_parser import C4, PRINT_FRAMES, print_coefficients


@st.composite
def generated_families(draw):
    """One to three members on one frame: the quadratics of anticommuting_cases'
    matrices, homogeneous polynomials in no conj(z) slot, or printable_polys'
    monomials and coefficients."""
    kind = draw(st.sampled_from(["forms", "holomorphic", "printable"]))
    if kind == "forms":
        mats = draw(anticommuting_cases())
        frame = VariableFrame((), tuple(f"s{j}" for j in range(mats[0].nrows)))
        return [from_form(Deg2Form(frame, A)) for A in mats]
    frame = draw(st.sampled_from(PRINT_FRAMES + [C4]))
    if kind == "holomorphic":
        slots = [frame.z_slot(n) for n in frame.complex_names]
        slots += [frame.real_slot(n) for n in frame.real_names]
        degree = draw(st.integers(1, 3))
        monos = st.lists(st.sampled_from(slots), min_size=degree, max_size=degree).map(
            lambda used: tuple(used.count(s) for s in range(frame.num_slots)))
    else:
        monos = st.tuples(*[st.integers(0, 3)] * frame.num_slots)
    terms = st.dictionaries(monos, print_coefficients, max_size=4)
    return [Poly(frame, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]


def run_both(argv, schema, output=None):
    """(code, text lines, payload or None, stderr) of argv in text mode, with
    -o output when given, and in --json mode, which must agree on all but stdout."""
    code, out, err = run(argv + (["-o", output] if output else []))
    json_code, json_out, json_err = run(argv + ["--json"])
    assert code in (0, 1, 2) and json_code == code, (argv, code, json_code, err)
    assert json_err == err
    if code == 2:
        assert out == json_out == "" and err.startswith("error: "), (argv, err)
    payload = None
    if json_out:
        payload = json.loads(json_out)
        validator(schema).validate(payload)
    else:
        assert out == "", (argv, out)
    return code, out.splitlines(), payload, err


def flat(fs) -> bool:
    return ref_verify_general_family(fs, FLAT_DATA).verdict


def word(verdict: bool) -> str:
    return "true" if verdict else "false"


def members_of(payload, frame):
    return [parse_poly(text, frame) for text in payload["family"]["members"].values()]


def written(path):
    return list(load_family(path).definitions.values())


def one_degree_homogeneous(fs) -> bool:
    "The nonzero members share one degree and every term has it."
    return len({sum(mono) for f in fs for mono in f.terms}) <= 1


def check_verify(path, fs):
    code, lines, payload, _ = run_both(["verify", path], "verify")
    want = flat(fs)
    assert code == (0 if want else 1)
    assert payload["verdict"] is want
    assert f"eigenfamily: {word(want)}" in lines


def check_analyze(path, fs):
    code, lines, payload, _ = run_both(["analyze", path], "analyze")
    assert code == 0
    W = ref_gradient_span(fs)
    uniform = all(dot_bilinear(u, v) == 0 for u in W.basis for v in W.basis)
    assert payload["uniformly_complex_type"] is uniform
    assert f"uniformly complex type: {word(uniform)}" in lines
    assert payload["gradient_span_dim"] == W.dim
    axis = ref_maximal_axis(fs)
    assert payload["axis"]["certified"]["dim"] == axis.certified_dim
    assert payload["axis"]["theoretical_upper_bound"] == axis.theoretical_upper_bound


def check_reduce(path, fs, out):
    frame = fs[0].frame
    coord = (frame.complex_names or ("z",))[0]
    code, lines, payload, _ = run_both(["reduce", path, "--coord", coord], "reduce", out)
    if (coord not in frame.complex_names or not one_degree_homogeneous(fs)
            or any(mono[frame.zbar_slot(coord)] for f in fs for mono in f.terms)):
        assert code == 2
        return
    target = frame.drop_complex(coord)
    images = {frame.z_slot(coord): Poly.constant(target, 1)}
    for name in target.complex_names:
        images[frame.z_slot(name)] = Poly.variable(target, name)
        images[frame.zbar_slot(name)] = Poly.conj_variable(target, name)
    for name in target.real_names:
        images[frame.real_slot(name)] = Poly.variable(target, name)
    reduced = [ref_substitute(f, target, images) for f in fs]
    before, after = flat(fs), flat(reduced)
    assert code == (0 if before == after else 1)
    assert (payload["eigenfamily_before"], payload["eigenfamily_after"]) == (before, after)
    assert f"eigenfamily before: {word(before)}, after: {word(after)}" in lines
    assert written(out) == members_of(payload, target) == reduced


def check_power(path, fs, out, d, derived):
    argv = ["construct", "power", path, "--d", d] + ([] if derived else ["--lambda", "0", "--mu", "0"])
    code, lines, payload, err = run_both(argv, "construct", out)
    nonzero = [f for f in fs if f]
    if not nonzero:
        assert code == 2 and err.endswith(" has no sphere data\n" if derived else " has no powers\n")
        return
    if derived:
        if not one_degree_homogeneous(fs) or not sum(next(iter(nonzero[0].terms))):
            assert code == 2
            return
        if not flat(fs):
            assert code == 1 and payload is None
            assert err == "family does not verify; cannot derive sphere eigen data\n"
            return
    products = ref_power_products(fs, d)
    want = flat(products)
    assert code == (0 if want else 1)
    assert payload["verdict"] is want
    assert f"verdict: {word(want)}" in lines
    assert written(out) == members_of(payload, fs[0].frame) == products


@settings(max_examples=150, deadline=None)
@given(generated_families(), st.integers(1, 2), st.booleans())
# a frame with no coordinates (m = 0) and a base with no nonzero member
@example([Poly.zero(VariableFrame((), ()))], 1, False)
def test_cli_agrees_with_the_references_on_generated_families(fs, d, derived):
    source = FamilySource("generated", fs[0].frame, {},
                          {f"F{i + 1}": f for i, f in enumerate(fs)}, {})
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "family.efam", Path(tmp) / "out.efam"
        path.write_text(format_family(source))
        assert written(path) == fs
        check_verify(path, fs)
        check_analyze(path, fs)
        check_reduce(path, fs, out)
        check_power(path, fs, out, d, derived)
