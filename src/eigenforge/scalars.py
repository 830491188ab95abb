"""Exact complex rational scalars: the field Q(i) over Python integers.

A scalar is stored as (a + b*i)/d with integers a, b, d, where d > 0 and
gcd(a, b, d) = 1.  That form is canonical, so two scalars are equal
exactly when their triples are equal, and each operation costs a few
integer multiplications and at most one gcd.  The real and imaginary
parts are exposed as Fractions for code that reads them.

Polynomials and matrices store Gaussian-integer numerators over one
denominator in the same canonical way, and read their coefficients out
as GaussRational values; no floating point enters the symbolic paths.
"""

from __future__ import annotations

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


class GaussRational:
    """A number a + b*i with a, b exact rationals.

    Immutable: the integer triple lives in private slots and `re`/`im`
    are read-only.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
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

    def __eq__(self, other):
        if type(other) is not GaussRational:
            other = as_scalar(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __bool__(self):
        return bool(self._a or self._b)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussRational:
            other = as_scalar(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            if d1 == 1:
                return _make(self._a + other._a, self._b + other._b, 1)
            return _reduce(self._a + other._a, self._b + other._b, d1)
        g = _gcd(d1, d2)
        if g == 1:
            # coprime denominators: the sum is canonical as it stands
            return _make(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)
        # only primes of g can divide the sum's content (as in Fraction.__add__)
        s, t = d1 // g, d2 // g
        a = self._a * t + other._a * s
        b = self._b * t + other._b * s
        g = _gcd(g, a, b)
        if g == 1:
            return _make(a, b, s * d2)
        return _make(a // g, b // g, s * (d2 // g))

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not GaussRational:
            other = as_scalar(other)
            if other is None:
                return NotImplemented
        return self + _make(-other._a, -other._b, other._d)

    def __rsub__(self, other):
        other = as_scalar(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussRational:
            other = as_scalar(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if d == 1:
            return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 1)
        return _reduce(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussRational:
            other = as_scalar(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # x / y = x * conj(y) * d_y / (d_x * |d_y y|^2)
        k = other._d
        return _reduce((a1 * a2 + b1 * b2) * k, (b1 * a2 - a1 * b2) * k, self._d * n)

    def __rtruediv__(self, other):
        other = as_scalar(other)
        if other is None:
            return NotImplemented
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
        return _make(self._a, -self._b, self._d)

    def norm2(self) -> Fraction:
        "Squared modulus, an exact nonnegative rational."
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def is_real(self) -> bool:
        return not self._b

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussRational:
    "A scalar from a triple that is already canonical (d > 0, gcd(a, b, d) = 1)."
    r = _new(GaussRational)
    r._a, r._b, r._d = a, b, d
    return r


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
        return _make(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator)
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
