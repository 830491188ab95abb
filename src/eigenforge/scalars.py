"""Exact complex rational scalars: the field Q(i) over Python integers.

A scalar is stored as (a + b*i)/d with integers a, b, d, where d > 0 and
gcd(a, b, d) = 1.  That form is canonical, so two scalars are equal
exactly when their triples are equal.  Each operator is the plain
formula on the triples, and each result costs one gcd to bring it to
that form.  The real and imaginary parts are exposed as Fractions for
code that reads them.

Scalar arithmetic serves constants, eigen data and the read-only
coefficient views of polynomials and matrices.  Their kernels run on
Gaussian-integer numerators over one denominator, canonical in the same
way, and meet scalars only at their edges; no floating point enters the
symbolic paths.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

_gcd = math.gcd


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def _coerced(op):
    "The binary operator op with its second operand coerced to a scalar, or NotImplemented."
    @functools.wraps(op)
    def binary(self, other):
        other = as_scalar(other)
        return NotImplemented if other is None else op(self, other)
    return binary


class GaussRational:
    """A number a + b*i with a, b exact rationals.

    Immutable: the integer triple lives in private slots and `re`/`im`
    are read-only.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _frac(re), _frac(im)
        rd, id_ = re.denominator, im.denominator
        # over the lcm of two reduced denominators the triple is already canonical
        d = rd * id_ // _gcd(rd, id_)
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // id_)
        self._d = d

    # -- basic protocol ------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._d))
        # a real scalar hashes like the equal int / Fraction
        return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))

    @_coerced
    def __eq__(self, other):
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __bool__(self):
        return bool(self._a or self._b)

    # -- arithmetic ----------------------------------------------------

    @_coerced
    def __add__(self, other):
        d1, d2 = self._d, other._d
        return _reduce(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _reduce(-self._a, -self._b, self._d)

    @_coerced
    def __sub__(self, other):
        return self + -other

    @_coerced
    def __rsub__(self, other):
        return other + -self

    @_coerced
    def __mul__(self, other):
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduce(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # x / y = x * conj(y) * d_y / (d_x * |d_y y|^2)
        k = other._d
        return _reduce((a1 * a2 + b1 * b2) * k, (b1 * a2 - a1 * b2) * k, self._d * n)

    @_coerced
    def __rtruediv__(self, other):
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        a, b = 1, 0
        base_a, base_b = self._a, self._b
        k = n
        while k:
            if k & 1:
                a, b = a * base_a - b * base_b, a * base_b + b * base_a
            base_a, base_b = base_a * base_a - base_b * base_b, 2 * base_a * base_b
            k >>= 1
        return _reduce(a, b, self._d ** n)

    # -- structure -----------------------------------------------------

    def conjugate(self) -> "GaussRational":
        return _reduce(self._a, -self._b, self._d)

    def norm2(self) -> Fraction:
        "Squared modulus, an exact nonnegative rational."
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def is_real(self) -> bool:
        return not self._b

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)


_new = object.__new__


def _reduce(a: int, b: int, d: int) -> GaussRational:
    "A scalar from any triple with d > 0: one gcd brings it to canonical form."
    g = _gcd(d, a, b)  # d first: gcd stops early once it reaches 1
    r = _new(GaussRational)
    if g == 1:
        r._a, r._b, r._d = a, b, d
    else:
        r._a, r._b, r._d = a // g, b // g, d // g
    return r


# -- integer views -------------------------------------------------------
#
# For integer kernels outside this module (polynomial substitution, the
# isometry pull-back): scalars as integer triples and numerators.


def triple(c: GaussRational):
    "The canonical integers (a, b, d) of c = (a + b*i)/d."
    return c._a, c._b, c._d


from_triple = _reduce


def common_numerators(cs):
    """(D, [(a, b), ...]): the scalars cs as Gaussian-integer numerators
    a + b*i over D, the lcm of their denominators."""
    cs = list(cs)
    D = math.lcm(*[c._d for c in cs])
    return D, [(c._a * (D // c._d), c._b * (D // c._d)) for c in cs]


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


def as_scalar(x):
    "Coerce ints, Fractions and GaussRationals; return None when impossible."
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, int):
        return _reduce(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _reduce(x.numerator, 0, x.denominator)
    return None


def scalar(x, im=0) -> GaussRational:
    s = as_scalar(x)
    if s is None:
        raise TypeError(f"not a scalar: {x!r}")
    if im:
        s = s + GaussRational(0, im)
    return s


# -- exact square roots ------------------------------------------------
#
# Needed for the isotropic-vector searches: to split a hyperbolic pair one
# must solve s^2 = c exactly, and the search degrades to floating point
# only when c has no square root inside Q(i).


def rational_sqrt(q: Fraction):
    "Exact square root of a nonnegative rational, or None if irrational."
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def sqrt_in_qi(c: GaussRational):
    """Exact square root of c in Q(i), or None when none exists.

    For c = x + yi a root p + qi must satisfy p^2 - q^2 = x and 2pq = y,
    which forces |c| rational and (x + |c|)/2 a rational square.
    """
    x, y = c.re, c.im
    if y == 0:
        if x >= 0:
            r = rational_sqrt(x)
            return None if r is None else GaussRational(r)
        r = rational_sqrt(-x)
        return None if r is None else GaussRational(0, r)
    mod = rational_sqrt(x * x + y * y)
    if mod is None:
        return None
    p = rational_sqrt((x + mod) / 2)
    if p is None or p == 0:
        return None
    return GaussRational(p, y / (2 * p))


# -- printing ----------------------------------------------------------


def _decimal_digits(n: int) -> int:
    "The number of decimal digits of n > 0, without converting it to text."
    d = int(n.bit_length() * 0.30102999566398120) + 1  # at most one too many
    return d - (n < 10 ** (d - 1))


def format_ratio(n: int, d: int) -> str:
    """n/d for d > 0 in lowest terms, as p or p/q; a ValueError naming the digit
    count when a part has more digits than the interpreter converts to text."""
    g = _gcd(n, d)
    n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        digits = _decimal_digits(max(abs(n), d))
        raise ValueError(f"a coefficient has {digits} digits, over the limit of "
                         f"{sys.get_int_max_str_digits()} digits for printing an integer") from None


def format_triple(a: int, b: int, d: int) -> str:
    "Canonical text of (a + b*i)/d, d > 0: rationals as p/q, the unit as i, mixed as p/q+r/s*i."
    if not b:
        return format_ratio(a, d)
    if b == d:
        imtxt = "i"
    elif b == -d:
        imtxt = "-i"
    else:
        imtxt = format_ratio(b, d) + "*i"
    if not a:
        return imtxt
    return format_ratio(a, d) + ("" if imtxt[0] == "-" else "+") + imtxt


def format_scalar(c: GaussRational) -> str:
    """Canonical text form: rationals as p/q, the unit as i, mixed as p/q+r/s*i."""
    return format_triple(c._a, c._b, c._d)
