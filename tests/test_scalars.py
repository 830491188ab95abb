"""Field arithmetic in Q(i), exact square roots, canonical printing.

The integer kernel is checked against the Fraction-pair reference
scalar in tests/oracles.py, including coefficients far above machine
word size and negative denominators given as input.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eigenforge.scalars import (
    GaussRational,
    I,
    ONE,
    ZERO,
    _decimal_digits,
    as_scalar,
    format_scalar,
    rational_sqrt,
    scalar,
    sqrt_in_qi,
)
from oracles import RefGauss, dot_bilinear, dot_hermitian, ref_format, ref_sum_of_products

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
scalars = st.builds(GaussRational, rationals, rationals)


def test_basic_identities():
    assert I * I == -ONE
    assert (ONE + I) * (ONE - I) == scalar(2)
    assert scalar(3, 4).norm2() == 25
    assert scalar(3, 4).conjugate() == scalar(3, -4)
    assert complex(scalar(Fraction(1, 2), 1)) == 0.5 + 1j


def test_division_and_power():
    a = scalar(3, 4)
    assert a / a == ONE
    assert (ONE / a) * a == ONE
    assert a ** 0 == ONE
    assert a ** 3 == a * a * a
    assert (ONE + I) ** 2 == 2 * I


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_field_inverse(a):
    if a:
        assert a * (ONE / a) == ONE


@given(scalars, scalars)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_as_scalar_coercion():
    assert as_scalar(2) == scalar(2)
    assert as_scalar(Fraction(1, 3)) == scalar(Fraction(1, 3))
    assert as_scalar("nope") is None
    assert as_scalar(1.5) is None  # floats stay out of the exact layer


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(-1)) is None


def test_sqrt_in_qi_exact_cases():
    # -1 = i^2, 2i = (1+i)^2, -4 = (2i)^2
    assert sqrt_in_qi(scalar(-1)) in (I, -I)
    r = sqrt_in_qi(2 * I)
    assert r is not None and r * r == 2 * I
    r = sqrt_in_qi(scalar(-4))
    assert r is not None and r * r == scalar(-4)
    r = sqrt_in_qi(scalar(3, 4))
    assert r is not None and r * r == scalar(3, 4)


def test_sqrt_in_qi_negative_cases():
    assert sqrt_in_qi(scalar(2)) is None
    assert sqrt_in_qi(scalar(1, 1)) is None  # |1+i| irrational
    assert sqrt_in_qi(scalar(-2)) is None
    assert sqrt_in_qi(scalar(0)) is not None


@given(scalars)
def test_sqrt_in_qi_of_squares(a):
    r = sqrt_in_qi(a * a)
    assert r is not None and r * r == a * a


def test_format_scalar():
    assert format_scalar(scalar(0)) == "0"
    assert format_scalar(ONE) == "1"
    assert format_scalar(-ONE) == "-1"
    assert format_scalar(I) == "i"
    assert format_scalar(-I) == "-i"
    assert format_scalar(scalar(Fraction(1, 2))) == "1/2"
    assert format_scalar(scalar(0, Fraction(3, 2))) == "3/2*i"
    assert format_scalar(scalar(Fraction(1, 2), Fraction(-3, 2))) == "1/2-3/2*i"
    assert format_scalar(scalar(-2, 1)) == "-2+i"


@given(st.integers(1, 10 ** 600))
def test_decimal_digits_without_text(n):
    for k in (n, 10 ** (len(str(n)) - 1), 10 ** len(str(n)) - 1):
        assert _decimal_digits(k) == len(str(k))


# -- integer kernel vs the Fraction-pair reference -----------------------

BIG = 2 ** 90
nonzero_ints = st.integers(-BIG, BIG).filter(bool)
wide_rationals = st.one_of(
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), nonzero_ints),  # either sign of denominator
    st.builds(Fraction, st.integers(-5, 5), st.integers(-4, 4).filter(bool)),
)
pairs = st.tuples(wide_rationals, wide_rationals)


def both(pair):
    "The same value as (kernel scalar, reference scalar)."
    return GaussRational(*pair), RefGauss(*pair)


def agrees(x, ref):
    "x is canonical and equals the reference value part by part."
    assert isinstance(x, GaussRational)
    assert x._d > 0 and math.gcd(x._a, x._b, x._d) == 1
    assert (x.re, x.im) == (ref.re, ref.im)
    assert format_scalar(x) == ref_format(ref)
    assert x.norm2() == ref.norm2()
    assert complex(x) == complex(float(ref.re), float(ref.im))


@given(pairs, pairs)
def test_kernel_matches_reference(p, q):
    (x, rx), (y, ry) = both(p), both(q)
    agrees(x, rx)
    agrees(x + y, rx + ry)
    agrees(x - y, rx - ry)
    agrees(x * y, rx * ry)
    agrees(-x, -rx)
    agrees(x.conjugate(), rx.conjugate())
    if ry.norm2():
        agrees(x / y, rx / ry)
    assert (x == y) == (rx == ry)
    assert x == GaussRational(*p) and hash(x) == hash(GaussRational(*p))


@given(pairs, st.one_of(st.integers(-BIG, BIG), wide_rationals))
def test_kernel_mixed_operands_match_reference(p, c):
    x, rx = both(p)
    agrees(x + c, rx + c)
    agrees(c + x, rx + c)
    agrees(x - c, rx - c)
    agrees(c - x, RefGauss(c) - rx)
    agrees(x * c, rx * c)
    agrees(c * x, rx * c)
    if c:
        agrees(x / c, rx / c)
    if rx.norm2():
        agrees(c / x, RefGauss(c) / rx)
    assert (x == c) == (rx == c)


@given(pairs, st.integers(0, 6))
def test_kernel_power_matches_reference(p, n):
    x, rx = both(p)
    agrees(x ** n, rx ** n)


@given(pairs)
def test_hash_of_real_scalar_matches_fraction(p):
    x = GaussRational(p[0])
    assert x == Fraction(p[0]) and hash(x) == hash(Fraction(p[0]))


def test_scalar_hash_agrees_with_int_and_fraction():
    assert len({GaussRational(1), 1, Fraction(1)}) == 1
    assert len({GaussRational(Fraction(-3, 4)), Fraction(-3, 4)}) == 1
    assert len({ZERO, 0, Fraction(0), GaussRational(0, 0)}) == 1
    assert len({GaussRational(1, 1), GaussRational(1)}) == 2


def test_kernel_input_forms():
    assert GaussRational(Fraction(1, -2), "3/4") == GaussRational("-1/2", Fraction(-3, -4))
    assert GaussRational(True) == ONE
    assert GaussRational(2 ** 100, -(2 ** 100)) * GaussRational(Fraction(1, 2 ** 100)) == 1 - I
    assert GaussRational(Fraction(2, 4), Fraction(1, 6)).im == Fraction(1, 6)
    for bad in (1.5, 1j, None):
        with pytest.raises(TypeError):
            GaussRational(bad)


vectors = st.lists(pairs, max_size=7)


@given(vectors, vectors)
def test_fused_dots_match_termwise_reference(u, v):
    n = min(len(u), len(v))
    ku, kv = [GaussRational(*p) for p in u[:n]], [GaussRational(*p) for p in v[:n]]
    ru, rv = [RefGauss(*p) for p in u[:n]], [RefGauss(*p) for p in v[:n]]
    agrees(dot_bilinear(ku, kv), ref_sum_of_products(ru, rv))
    agrees(dot_hermitian(ku, kv), ref_sum_of_products(ru, rv, conjugate_first=True))
