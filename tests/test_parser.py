"""Lexer, expression grammar, family files, canonical round trips."""

import random
import time
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from eigenforge.scalars import I, ONE, scalar
from eigenforge.degree2 import Deg2Form, from_form
from eigenforge.frames import VariableFrame
from eigenforge.linalg import Matrix
from eigenforge.poly import Poly
from eigenforge.parser import (
    FamilySource,
    ParseError,
    format_family,
    format_poly,
    parse_family,
    parse_poly,
)

from oracles import ref_format_poly, ref_parse_poly

C4 = VariableFrame(("z", "u", "v", "w"), ())
C2T = VariableFrame(("z", "u"), ("t",))


def var(frame, name):
    return Poly.variable(frame, name)


def cvar(frame, name):
    return Poly.conj_variable(frame, name)


# ---------------------------------------------------------------------
# expressions


def test_parse_basic():
    p = parse_poly("z*v + u*w", C4)
    assert p == var(C4, "z") * var(C4, "v") + var(C4, "u") * var(C4, "w")
    assert parse_poly("0", C4) == Poly.zero(C4)
    assert parse_poly("conj(z)", C4) == cvar(C4, "z")
    assert parse_poly("z~", C4) == cvar(C4, "z")


def test_parse_with_parameter():
    g = scalar(Fraction(1, 2), 3)
    p = parse_poly("z^2*u + 2*g*z*t - g^2*conj(u)", C2T, params={"g": g})
    z, u, t = var(C2T, "z"), var(C2T, "u"), var(C2T, "t")
    assert p == z * z * u + 2 * g * z * t - g * g * cvar(C2T, "u")


def test_precedence():
    z, u = var(C4, "z"), var(C4, "u")
    assert parse_poly("2*z^2", C4) == 2 * z * z
    assert parse_poly("-z^2", C4) == -(z * z)
    assert parse_poly("z~^2", C4) == cvar(C4, "z") ** 2
    assert parse_poly("z - u - z", C4) == -u
    assert parse_poly("z - -u", C4) == z + u
    assert parse_poly("2*-z", C4) == -2 * z
    assert parse_poly("(z + u)^2", C4) == z * z + 2 * z * u + u * u
    assert parse_poly("z^0", C4) == 1


def test_numeric_literals():
    assert parse_poly("1/2 + 3i", C4) == scalar(Fraction(1, 2), 3)
    assert parse_poly("i*i", C4) == -1
    assert parse_poly("2i*2i", C4) == -4
    assert parse_poly("z/2", C4) == var(C4, "z") / 2
    assert parse_poly("z/(1+i)", C4) == var(C4, "z") / scalar(1, 1)


def test_conjugation_of_expression():
    p = parse_poly("(z + i*u)~", C4)
    assert p == cvar(C4, "z") - I * cvar(C4, "u")
    assert parse_poly("conj(z + i*u)", C4) == p
    assert parse_poly("conj(2i)", C4) == scalar(0, -2)


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_poly("z + q", C4)
    assert "undeclared identifier 'q'" in str(e.value)
    assert "column 5" in str(e.value)
    with pytest.raises(ParseError, match="real coordinate"):
        parse_poly("conj(t)", C2T)
    with pytest.raises(ParseError, match="real coordinate"):
        parse_poly("t~", C2T)
    with pytest.raises(ParseError, match="exponent"):
        parse_poly("z^-1", C4)
    with pytest.raises(ParseError, match="exponent"):
        parse_poly("z^u", C4)
    with pytest.raises(ParseError, match="division only by constants"):
        parse_poly("z/u", C4)
    with pytest.raises(ParseError, match="division by zero"):
        parse_poly("z/0", C4)
    with pytest.raises(ParseError, match="unexpected"):
        parse_poly("2 z", C4)  # no implicit multiplication
    with pytest.raises(ParseError):
        parse_poly("z +", C4)
    with pytest.raises(ParseError):
        parse_poly("(z", C4)


def test_conj_of_real_inside_larger_expression_is_fine():
    # only a bare real coordinate is rejected; (t+z)~ conjugates normally
    p = parse_poly("(t + z)~", C2T)
    assert p == var(C2T, "t") + cvar(C2T, "z")


# ---------------------------------------------------------------------
# agreement with the Poly-per-token parser
#
# parse_poly evaluates products of monomial factors as packed terms and
# sums into one numerator dict; ref_parse_poly (oracles.py) builds a Poly
# for every token.  Both must give the same Poly, or the same error text
# with the same column.

MIXED = VariableFrame(("z", "u"), ("t", "s"))
PARAMS = {"g": scalar(Fraction(1, 2), 3), "h": None, "k0": 0, "p2": scalar(0, -2)}


def parse_outcome(parse, text, frame=MIXED, params=PARAMS):
    try:
        return parse(text, frame, params)
    except ValueError as exc:  # ParseError, or a degree or product limit
        return type(exc), str(exc), getattr(exc, "col", None)


def assert_parsers_agree(text, frame=MIXED, params=PARAMS):
    got = parse_outcome(parse_poly, text, frame, params)
    assert got == parse_outcome(ref_parse_poly, text, frame, params), text
    return got


# the last rows are the shapes that stay one term: constant sums times
# monomials, powers of a coefficient times a monomial, conj of a constant sum
ATOMS = ["z", "u", "t", "s", "i", "0", "1", "2", "3i", "0i", "17", "g", "h", "k0", "p2", "q",
         "conj", "1/2", "t~", "z~", "z^0", "4294967296",
         "(1/2 + 3/4*i)*z*u", "(2 - i)*t^2", "(2*z)^3", "(3/2*t)^2", "(-1)^5", "conj(1/2 + 3i)"]


def _binary(parts):
    left, op, right = parts
    return left + op + right


expression_text = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", "-", "*", " / ", "+-", "*-", "/-", "/", " - "]),
                  inner).map(_binary),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"conj({e})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(inner.map(lambda e: f"({e})"), st.sampled_from(["~", "~~", ""]),
                  st.sampled_from(["", "^0", "^1", "^2", "^3", "^x", "^-1", "^2i", "^"])
                  ).map("".join)),
    max_leaves=10)

# blanks, operators, digits, names and characters outside ASCII: a
# numeral that is not a decimal digit, a decimal digit of another script,
# a letter, a no-break space and a tab
NOISE = " \t+-*/^~()=;#0123456789iztsuxq_²½١é\u00a0\n"


@st.composite
def mangled_text(draw):
    "A generated expression with a few characters inserted or deleted."
    text = draw(expression_text)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text)))
        if draw(st.booleans()) or not text:
            text = text[:k] + draw(st.sampled_from(NOISE)) + text[k:]
        else:
            text = text[:k] + text[k + 1:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.one_of(expression_text, mangled_text(), st.text(NOISE, max_size=12)))
def test_parser_agrees_with_poly_per_token_reference(text):
    # a literal exponent of three or more digits on a constant is unbounded
    # work for both parsers (no coefficient budget yet)
    assume(not re.search(r"\^[ \t]*\d{3}", text))
    assert_parsers_agree(text)


DEEP = 101  # one past parser.MAX_NESTING


@pytest.mark.parametrize("text", [
    # degree limits, in Poly's product and power wording
    "z^65535", "z^65536", "z^40000*z^30000", "z^40000*conj(z)^25535", "z^30000*(z^40000)~",
    "(z^40000 + u)*(z^30000 + u)", "(z^40000 + u)^2", "(z + 0)^65536", "(z - z)^70000",
    "0*z^65535*z^65535", "(0*z)^70000", "z^0^2", "0^0", "(2*z)^3/4", "(1+i)^2*z/2i",
    "(0*z)^" + "9" * 40, "(0*z/3)^5", "(0/7)^0", "(2i*z)^3", "i^4000", "1^" + "9" * 40,
    # the product limit, before anything multiplies
    "(" + " + ".join(f"z^{k}" for k in range(1001)) + ")*("
    + " + ".join(f"u^{k}" for k in range(1001)) + ")",
    # digits past the interpreter's limit, also as an imaginary literal
    "1" * 4301, "2*" + "9" * 5000 + "i", "z + 3*" + "7" * 4301 + "u",
    # powers of one term read in lowest terms, as a Poly's
    "(2/2)^9999999", "(1/2 + 1/2)^9999999", "(4*i/2)^300000", "(z + z - z)^65536",
    # nesting, also of factors after '*' or '/' and of the operands of '+' and '-'
    "(" * DEEP + "z" + ")" * DEEP, "-" * DEEP + "z", "conj(" * 60 + "z" + ")" * 60,
    "-" * 50 + "z", "(" * 40 + "-" * 40 + "z" + ")" * 40, "z*" + "-" * DEEP + "u",
    "z/" + "-" * 99 + "2", "z*" + "-" * 98 + "u", "z*(" * 60 + "u" + ")" * 60,
    "(" * 99 + "z*-u" + ")" * 99, "(" * 99 + "z+-u" + ")" * 99, "(" * 98 + "z+-u" + ")" * 98,
    "(" * 99 + "z*u" + ")" * 99, "(" * 100 + "z+u" + ")" * 100, "(" * 100 + "z" + ")" * 100,
    # conjugation of a real coordinate, bare or in disguise
    "t~", "conj(t)", "(t + 0)~", "(2*t/2)~", "conj(1*t)", "(t + z - z)~", "(-t)~",
    "(t*s)~", "(2*t)~", "t^1~", "conj(t)^2",
    # division
    "z/(z - z + 2)", "z/(u - u)", "z/(1 + u)", "z/0i", "z/(1+i)/(1-i)", "z/g/p2", "1/k0",
    # parameters and names
    "h*z", "g^3*t - k0", "q + z", "z + conj", "conj z", "i i", "2 z", "z +", "(z", "z)",
    "", "  ", "# only a comment", "z # then a comment", "z\t*\tu", "z\n", "z\r",
    "3 i", "3iz", "3i~", "²", "1²", "½", "z½", "١٢*z", "zé", "é", "z\u00a0",
])
def test_parser_agrees_on_limits_and_edges(text):
    assert_parsers_agree(text)


def test_parser_agrees_on_other_frames_and_lines():
    for frame in (C4, VariableFrame((), ("s", "t")), VariableFrame((), ())):
        for text in ("z*conj(v) - 2i*u~^2", "s~", "(s + t)~ * t/3", "i^3 - 1/2", "x"):
            assert_parsers_agree(text, frame, None)
    with pytest.raises(ParseError, match="at line 7, column 3"):
        parse_poly("z q", C4, line_no=7)


# ---------------------------------------------------------------------
# canonical printing


def test_format_examples():
    assert format_poly(var(C4, "z") * var(C4, "v") + var(C4, "u") * var(C4, "w")) == "z*v + u*w"
    assert format_poly(-I * cvar(C4, "z") ** 2) == "-i*conj(z)^2"
    assert format_poly(Poly.zero(C4)) == "0"
    assert format_poly(Poly.constant(C4, scalar(Fraction(1, 2), Fraction(3, 2)))) == "1/2+3/2*i"
    mixed = scalar(1, 1) * var(C4, "z")
    assert format_poly(mixed) == "(1+i)*z"
    assert parse_poly(format_poly(mixed), C4) == mixed


# Gaussian coefficients up to 2^90 over every slot kind: z, conj(z) and
# real slots, and frames without complex or without real coordinates
PRINT_FRAMES = [MIXED, VariableFrame(("w",), ()), VariableFrame((), ("s",))]
_big = st.integers(-2 ** 90, 2 ** 90)
_den = st.integers(1, 2 ** 90)
print_coefficients = st.one_of(
    st.sampled_from([ONE, -ONE, I, -I, scalar(1, 1), scalar(-1, 1), scalar(Fraction(1, 2)),
                     scalar(0, Fraction(-3, 4))]),
    st.builds(lambda a, b, c, d: scalar(Fraction(a, c), Fraction(b, d)), _big, _big, _den, _den),
    st.builds(lambda a, c: scalar(Fraction(a, c)), _big, _den))


@st.composite
def printable_polys(draw):
    frame = draw(st.sampled_from(PRINT_FRAMES))
    monos = st.tuples(*[st.integers(0, 3)] * frame.num_slots)
    return Poly(frame, draw(st.dictionaries(monos, print_coefficients, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(printable_polys())
def test_format_from_numerators_matches_term_view_and_round_trips(p):
    text = format_poly(p)
    assert text == ref_format_poly(p)
    assert parse_poly(text, p.frame) == p


def test_format_over_the_digit_limit_names_the_same_coefficient():
    huge = scalar(Fraction(2 ** 15000, 7), 3 ** 9000)
    for p in (Poly.constant(C4, huge), huge * var(C4, "z") + var(C4, "u"),
              var(C4, "z") ** 2 + Poly.constant(C4, scalar(0, 10 ** 5000))):
        with pytest.raises(ValueError) as got:
            format_poly(p)
        with pytest.raises(ValueError) as want:
            ref_format_poly(p)
        assert str(got.value) == str(want.value)


def rand_round_trip_poly(rng, frame):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        mono = [0] * frame.num_slots
        budget = rng.randint(0, 6)
        while budget > 0:
            slot = rng.randrange(frame.num_slots)
            mono[slot] += 1
            budget -= 1
        c = scalar(Fraction(rng.randint(-100, 100), rng.randint(1, 100)),
                   Fraction(rng.randint(-100, 100), rng.randint(1, 100)))
        if c:
            terms[tuple(mono)] = c
    return Poly(frame, terms)


def test_round_trip_random():
    rng = random.Random(2024)
    frames = [C4, C2T, VariableFrame(("z",), ("s", "t"))]
    for k in range(1000):
        frame = frames[k % len(frames)]
        p = rand_round_trip_poly(rng, frame)
        assert parse_poly(format_poly(p), frame) == p


# ---------------------------------------------------------------------
# family files


PAIR_TEXT = """\
# a degree-2 pair on C^4
family pair-c4
frame complex z u v w
F1 = z*v + u*w
F2 = z*conj(w) - u*conj(v)
expect eigenfamily = true
expect complex_type = false
"""


def test_family_round_trip_on_dense_forms():
    # dense degree-2 members with Gaussian-rational coefficients over many
    # denominators: each prints as (p/q + r/s*i)*x*y, a constant sum times a monomial
    rng = random.Random(34)
    frames = [VariableFrame(("z", "u"), ("s", "t", "r", "q")), VariableFrame(tuple("abcdef")),
              VariableFrame((), tuple(f"s{j}" for j in range(16)))]
    for frame in frames:
        m = frame.m
        members = {}
        for k in range(3):
            A = [[None] * m for _ in range(m)]
            for a in range(m):
                for b in range(a, m):
                    A[a][b] = A[b][a] = scalar(Fraction(rng.randint(-99, 99), rng.randint(1, 60)),
                                               Fraction(rng.randint(-99, 99), rng.randint(1, 60)))
            members[f"F{k}"] = from_form(Deg2Form(frame, Matrix(A, ncols=m)))
        fs = FamilySource(f"dense-{m}", frame, {}, members, {})
        assert parse_family(format_family(fs)) == fs


def test_parse_family():
    fs = parse_family(PAIR_TEXT)
    assert fs.name == "pair-c4"
    assert fs.frame == C4
    assert list(fs.definitions) == ["F1", "F2"]
    assert fs.definitions["F1"] == var(C4, "z") * var(C4, "v") + var(C4, "u") * var(C4, "w")
    assert fs.expects == {"eigenfamily": True, "complex_type": False}


def test_family_round_trip():
    fs = parse_family(PAIR_TEXT)
    assert parse_family(format_family(fs)) == fs


def test_family_with_params_and_bindings():
    text = """\
family abb-r5
frame complex z w ; real t
param g = 1
F = z^2*w + 2*g*z*t - g^2*conj(w)
expect lambda = 0
"""
    fs = parse_family(text)
    assert fs.params["g"] == scalar(1)
    z, w, t = (Poly.variable(fs.frame, n) for n in "zwt")
    assert fs.definitions["F"] == z * z * w + 2 * z * t - cvar(fs.frame, "w")

    gi = scalar(0, 1)
    fs2 = parse_family(text, bindings={"g": gi})
    assert fs2.params["g"] == gi
    assert fs2.definitions["F"] == z * z * w + 2 * gi * z * t + cvar(fs.frame, "w")
    assert parse_family(format_family(fs2)) == fs2

    with pytest.raises(ParseError, match="undeclared parameters"):
        parse_family(text, bindings={"h": 1})


def test_family_unbound_param_errors_at_use():
    text = "family f\nframe complex z\nparam g\nF = g*z\n"
    with pytest.raises(ParseError, match="no value"):
        parse_family(text)
    fs = parse_family(text, bindings={"g": 2})
    assert fs.definitions["F"] == 2 * var(fs.frame, "z")


def test_family_errors():
    with pytest.raises(ParseError, match="family"):
        parse_family("frame complex z\nF = z\n")
    with pytest.raises(ParseError, match="missing frame"):
        parse_family("family f\nF = 1\n")
    with pytest.raises(ParseError, match="duplicate definition"):
        parse_family("family f\nframe complex z\nF = z\nF = z\n")
    with pytest.raises(ParseError, match="duplicate frame"):
        parse_family("family f\nframe complex z\nframe complex w\nF = z\n")
    with pytest.raises(ParseError, match="no polynomials"):
        parse_family("family f\nframe complex z\n")
    with pytest.raises(ParseError, match="shadows"):
        parse_family("family f\nframe complex z\nz = z\n")
    with pytest.raises(ParseError, match="reserved"):
        parse_family("family f\nframe complex z\nparam conj = 1\nF = z\n")


def test_mutated_identifier_rejected():
    mutated = PAIR_TEXT.replace("u*w", "u*q")
    with pytest.raises(ParseError, match="undeclared identifier 'q'"):
        parse_family(mutated)


def test_multiline_definition():
    text = """\
family f
frame complex z u
F = (z*u
     + z^2)
"""
    for end in ("\n", "\r\n", "\r"):  # the line ends of the grammar
        fs = parse_family(text.replace("\n", end))
        z, u = var(fs.frame, "z"), var(fs.frame, "u")
        assert fs.definitions["F"] == z * u + z * z


def test_a_digit_that_is_not_decimal_is_an_unexpected_character():
    with pytest.raises(ParseError) as got:
        parse_poly("z + ²", MIXED)
    assert str(got.value) == "unexpected character '²' at line 1, column 5"
    with pytest.raises(ParseError) as got:
        parse_poly("z^2 + 1²", MIXED)
    assert str(got.value) == "unexpected character '²' at line 1, column 8"
    # a run of digits 0-9 past the limit keeps the digit-limit wording; a decimal
    # digit of another script is no digit of the grammar
    with pytest.raises(ParseError, match="^integer literal has 4301 digits, over the limit of "
                                         r"4300 at line 1, column 5$"):
        parse_poly("z + " + "7" * 4301, MIXED)
    with pytest.raises(ParseError) as got:
        parse_poly("z + " + "١" * 4301, MIXED)
    assert str(got.value) == "unexpected character '١' at line 1, column 5"


# The grammar's alphabet is ASCII: any other character of a statement is an
# unexpected character, alone, inside a name, after a literal or after an
# imaginary literal; a run of digits 0-9 past the interpreter's limit keeps
# the digit-limit wording.
OUTSIDE_ASCII = ["é", "ζ", "²", "½", "١", "\u00a0"]
ALPHABET_ERRORS = [
    *[(text, f"unexpected character {c!r} at line 1, column {col}")
      for c in OUTSIDE_ASCII
      for text, col in ((c, 1), (f"z{c}u", 2), (f"3{c}", 2), (f"3i{c}", 3))],
    ("١٢*z", "unexpected character '١' at line 1, column 1"),
    ("1" * 4301, "integer literal has 4301 digits, over the limit of 4300 at line 1, column 1"),
    ("2*" + "9" * 5000 + "i",
     "integer literal has 5000 digits, over the limit of 4300 at line 1, column 3"),
    ("1" * 4301 + "²",
     "integer literal has 4301 digits, over the limit of 4300 at line 1, column 1"),
]


@pytest.mark.parametrize("text, message", ALPHABET_ERRORS)
def test_a_character_outside_the_alphabet_is_unexpected(text, message):
    with pytest.raises(ParseError) as got:
        parse_poly(text, MIXED)
    assert str(got.value) == message


def test_a_comment_may_hold_any_character():
    assert parse_poly("z # " + "".join(OUTSIDE_ASCII), MIXED) == var(MIXED, "z")
    fs = parse_family("family f # ζ\nframe complex z # é\n# ١٢\nF = z # ²\n")
    assert fs.name == "f" and fs.definitions["F"] == var(fs.frame, "z")


def test_literal_powers_are_bounded_before_they_are_computed():
    for text in ("17^300000*z", "(17*i)^300000*z", "z/17^300000", "(1/17)^300000*z",
                 "(17 + z - z)^300000", "(17*z^0 + 0*u)^300000", "2^1048577",
                 "(z + 17^5000)^300", "(17^5000*z^2 + u)^300"):
        with pytest.raises(ParseError, match="power would have a coefficient of about "
                                             r"\d+ bits, over the limit of 1048576"):
            parse_poly(text, MIXED)
    # the estimate is a lower bound: 2^n needs n + 1 bits, and units and zero stay exact
    assert parse_poly("2^1048576", MIXED) == Poly.constant(MIXED, 2 ** 1048576)
    unit = scalar(Fraction(3, 5), Fraction(4, 5))
    assert parse_poly("((3 + 4i)/5)^40*z", MIXED) == unit ** 40 * var(MIXED, "z")
    for text in ("1^" + "9" * 40, "i^4000", "(0*z)^" + "9" * 40, "(-1)^" + "9" * 12):
        assert_parsers_agree(text)


def test_literal_powers_are_bounded_in_total_size():
    # each coefficient of (z + 17^1000)^100 is under MAX_POWER_BITS, but the
    # 101 of them would take about 4 * 10^7 bits: refused before it multiplies
    for text in ("(z + 17^1000)^100", "(17^1000*z + u)^100", "(z + u/17^1000)^60",
                 "(z + u + 17^300)^100"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=r"power would have coefficients of about \d+ bits in "
                                             r"all, over the limit of 8388608"):
            parse_poly(text, MIXED)
        assert time.perf_counter() - start < 0.5
    # small coefficients stay cheap however many terms the power has
    for text in ("(z + 17^1000)^20", "(z + 2*conj(z))^300", "(z + u + t)^40", "(3*z + i/5)^500"):
        assert_parsers_agree(text)
    # exponents past the float range: units stay exact, anything else is refused
    for text in ("1^" + "9" * 400, "i^" + "9" * 400, "(-1)^" + "9" * 400 + "*z"):
        assert_parsers_agree(text)
    for text in ("2^" + "9" * 400, "(2 + z - z)^" + "9" * 400):
        with pytest.raises(ParseError, match="power would have a coefficient of about"):
            parse_poly(text, MIXED)



# Input errors, each from the statement that raises it to its exact message,
# which names the line and column where the error carries them.
HEAD = "family f\nframe complex z ; real t\n"
ZT = VariableFrame(("z",), ("t",))
INPUT_ERRORS = [
    (HEAD + "F = z)\n", ParseError, "unbalanced ')' at line 3"),
    (HEAD + "F = (z\n", ParseError, "unclosed '(' at end of file at line 3"),
    ("# a comment\n\n", ParseError, "empty family file"),
    ("family f\nfamily g\n", ParseError, "duplicate family header at line 2"),
    ("family f g\n", ParseError,
     "family needs a name of letters, digits, '_', '-', '.' at line 1"),
    (HEAD + "param g = 1\nparam g = 2\n", ParseError, "duplicate parameter 'g' at line 4"),
    (HEAD + "param z = 1\n", ParseError, "parameter 'z' shadows a coordinate at line 3"),
    (HEAD + "expect degree = 2\nexpect degree = 3\n", ParseError,
     "duplicate expectation 'degree' at line 4"),
    (HEAD + "3 = z\n", ParseError, "cannot parse statement starting with '3' at line 3"),
    (HEAD + "conj = z\n", ParseError, "reserved name 'conj' at line 3"),
    ("family f\nexpect degree = 2\n", ParseError, "missing frame declaration"),
    ("family f\nframe real t\n", ParseError, "frame starts with 'complex' at line 2, column 7"),
    ("family f\nframe complex z ; t\n", ParseError,
     "expected 'real' after ';' at line 2, column 19"),
    ("family f\nframe complex z = u\n", ParseError,
     "unexpected '=' in frame at line 2, column 17"),
    ("family f\nframe complex z ; real z\n", ParseError,
     "duplicate coordinate name 'z' at line 2"),
    ("family f\nframe complex param\n", ParseError,
     "coordinate name 'param' is reserved at line 2"),
    (HEAD + "param = 1\n", ParseError, "param needs a name at line 3"),
    # names are ASCII, blanks are spaces and tabs, and lines end at \n, \r\n or \r only
    ("family f\nframe complex ζ w\n", ParseError,
     "unexpected character 'ζ' at line 2, column 15"),
    (HEAD + "\u00a0\nF = z\n", ParseError, "unexpected character '\\xa0' at line 3, column 1"),
    (HEAD + "\u3000\nF = z\n", ParseError, "unexpected character '\\u3000' at line 3, column 1"),
    (HEAD + "F = z\u2028+ t\n", ParseError, "unexpected character '\\u2028' at line 3, column 6"),
    (HEAD + "\f\nF = z\n", ParseError, "unexpected character '\\x0c' at line 3, column 1"),
    ("family\u00a0f\n", ParseError, "file must start with a 'family' header at line 1"),
    ("family f\u3000\n", ParseError,
     "family needs a name of letters, digits, '_', '-', '.' at line 1"),
    (HEAD + "param g 1\n", ParseError, "expected '=' in param at line 3, column 9"),
    (HEAD + "expect degree 2\n", ParseError, "expect syntax: expect <key> = <value> at line 3"),
    (lambda: parse_family(HEAD + "param g\nF = g*z\n", {"g": "1/2"}), TypeError,
     "binding for 'g' is not an exact scalar"),
    (lambda: parse_poly("g*z", ZT, {"g": 0.5}), TypeError,
     "parameter 'g' is not an exact scalar"),
    (lambda: VariableFrame(("1z",)), ValueError, "bad coordinate name '1z'"),
    (lambda: VariableFrame(("ζ",)), ValueError, "bad coordinate name 'ζ'"),
    (lambda: VariableFrame(("i",)), ValueError, "coordinate name 'i' is reserved"),
    (lambda: VariableFrame(("z",), ("z",)), ValueError, "duplicate coordinate name 'z'"),
    (lambda: ZT.kind_of("u"), KeyError, "no coordinate 'u' in VariableFrame(complex z; real t)"),
    (lambda: ZT.z_slot("t"), ValueError, "'t' is not a complex coordinate"),
    (lambda: ZT.real_slot("z"), ValueError, "'z' is not a real coordinate"),
    (lambda: ZT.insert_complex("u", 2), ValueError, "insertion index 2 out of range"),
]


@pytest.mark.parametrize("statement, error, message", INPUT_ERRORS)
def test_input_error_messages(statement, error, message):
    with pytest.raises(error) as got:
        statement() if callable(statement) else parse_family(statement)
    assert type(got.value) is error
    assert got.value.args == (message,)  # str() of a KeyError would quote it
