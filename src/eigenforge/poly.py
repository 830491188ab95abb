"""Sparse polynomials over Q(i) in the variables (z_j, conj(z_j), t_k).

A polynomial stores its frame and a dict {packed monomial: (a, b)} of
Gaussian-integer numerators a + b*i over one positive denominator.
Slot s's exponent is the EXP_BITS-wide field at bit s * EXP_BITS, so a
monomial product is one integer addition (packed exponent vectors,
Monagan and Pearce, CASC 2007).  The form is canonical: no zero
numerators, gcd 1 across all numerators and the denominator, and total
degree at most MAX_DEGREE, so no field carries into the next and equal
polynomials have equal storage.  The same bound gives each term's total
degree without unpacking: 2^EXP_BITS = 1 (mod MAX_DEGREE), so a key
sum e_s 2^(EXP_BITS s) is sum e_s modulo MAX_DEGREE, and a degree of at
most MAX_DEGREE is that residue, read as MAX_DEGREE when it is 0 on a
nonzero key.  Ring operations, slot derivatives, conjugation (a swap of
the z and conj(z) fields), substitution and the conformality bracket
all run on this form, and so do the parser, the printer, the defect
family and evaluation; `terms`, a read-only view {exponent tuple:
GaussRational} built on first use, is kept for readers outside the
package.  The quadratic codec maps slot pairs {(s, u): (a, b)} of
Gaussian-integer numerators over a denominator to sum (a + b i)
slot_s slot_u and back (`quadratic_from_numerators` /
`quadratic_numerators`), reading each pair off its key's top bits with
no unpacking.  A product whose degree would pass MAX_DEGREE, or whose
term products would pass PRODUCT_LIMIT, raises ValueError before it
multiplies.  A square, one numerator dict on both sides (p * p, each
step of a power, the bracket's d_s f d_s f), takes each unordered pair
of terms once; its term products still count as the full product's.

Conjugate variables are ordinary slots, so p is holomorphic in z
exactly when no term touches the conj(z) slot.  The real gradient
follows z = x + iy through the frame's table slot_axes, so
d/dx = d/dz + d/dconj(z) and d/dy = i (d/dz - d/dconj(z));
`gradient_rows` reads it per monomial as integer rows.
No normalization or floating point happens here.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain
from math import gcd, lcm, prod
from operator import or_
from struct import Struct, error as StructError
from types import MappingProxyType

from .frames import VariableFrame
from .scalars import GaussRational, ZERO, as_scalar, common_numerators, from_triple, triple

# Bits per slot exponent (one unsigned short, so that struct converts
# packed monomials to exponent tuples), and the largest total degree.
EXP_BITS = 16
MAX_DEGREE = (1 << EXP_BITS) - 1

# Term products one `*` (so one step of a power), one substitution, one
# power family or one conformality bracket may take: seconds and hundreds
# of MB at the limit.
PRODUCT_LIMIT = 1_000_000


def check_degree(degree: int, what: str):
    if degree > MAX_DEGREE:
        raise ValueError(f"{what} would have degree {degree}, over the limit of {MAX_DEGREE}")


def check_products(count: int, what: str):
    if count > PRODUCT_LIMIT:
        raise ValueError(f"{what} needs {count} term products, over the limit of {PRODUCT_LIMIT}")


# ---------------------------------------------------------------------
# monomials: dense exponent tuples in the API, packed integers inside


def mono_order_key(a):
    # graded lex, used descending: higher degree first, then lex-larger tuple
    return (-sum(a), tuple(-e for e in a))


@lru_cache(maxsize=None)
def _fields(width: int) -> Struct:
    "The bytes of a packed monomial of `width` slots, read as exponents."
    return Struct(f"<{width}H")


@lru_cache(maxsize=None)
def _unpacker(width: int):
    "The function from a packed monomial to its exponent tuple."
    unpack, size = _fields(width).unpack, 2 * width
    return lambda key: unpack(key.to_bytes(size, "little"))


def _graded(keys, width: int) -> list:
    "Packed monomials of `width` slots in mono_order_key order: higher degree first."
    unpack = _unpacker(width)
    return sorted(keys, key=lambda k: mono_order_key(unpack(k)))


def _degrees(p):
    """The total degree of each term of p, in storage order: the key
    modulo MAX_DEGREE, where a residue 0 on a nonzero key is MAX_DEGREE."""
    top = MAX_DEGREE
    return [k % top or (k and top) for k in p.nums]


class FrameMismatch(ValueError):
    pass


def common_frame(fs, what="family"):
    "The one frame of a nonempty family; FrameMismatch when members differ."
    frames = {f.frame for f in fs}
    if len(frames) != 1:
        raise FrameMismatch(f"{what} members live on different frames")
    return fs[0].frame


_new = object.__new__
_set = object.__setattr__


class Poly:
    __slots__ = ("frame", "nums", "den", "_terms")

    def __init__(self, frame: VariableFrame, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                c = as_scalar(coeff)
                if c is None:
                    raise TypeError(f"bad coefficient {coeff!r}")
                if c:
                    prev = clean.get(mono)
                    clean[mono] = c if prev is None else prev + c
            clean = {m: c for m, c in clean.items() if c}
        if clean:
            check_degree(max(map(sum, clean)), "monomial")
        pack = _fields(frame.num_slots).pack
        try:
            keys = [int.from_bytes(pack(*mono), "little") for mono in clean]
        except StructError:
            raise ValueError(f"monomials need {frame.num_slots} nonnegative integer "
                             "exponents") from None
        # numerators over the lcm of canonical denominators have content 1
        den, nums = common_numerators(clean.values()) if clean else (1, [])
        _init(self, frame, dict(zip(keys, nums)), den, MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, frame):
        return _poly(frame, {}, 1)

    @classmethod
    def constant(cls, frame, c):
        s = as_scalar(c)
        if s is None:
            raise TypeError(f"bad coefficient {c!r}")
        a, b, d = triple(s)
        return _poly(frame, {0: (a, b)}, d) if s else Poly.zero(frame)

    @classmethod
    def variable(cls, frame, name):
        kind, _ = frame.kind_of(name)
        slot = frame.z_slot(name) if kind == "c" else frame.real_slot(name)
        return _poly(frame, {1 << slot * EXP_BITS: (1, 0)}, 1)

    @classmethod
    def conj_variable(cls, frame, name):
        return _poly(frame, {1 << frame.zbar_slot(name) * EXP_BITS: (1, 0)}, 1)

    @property
    def terms(self):
        "Read-only {dense exponent tuple: GaussRational} view of the terms."
        view = self._terms
        if view is None:
            unpack, den = _unpacker(self.frame.num_slots), self.den
            view = MappingProxyType({unpack(key): from_triple(a, b, den)
                                     for key, (a, b) in self.nums.items()})
            _set(self, "_terms", view)
        return view

    # -- protocol ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (self.frame == other.frame and self.den == other.den
                    and self.nums == other.nums)
        c = as_scalar(other)
        if c is None:
            return NotImplemented
        a, b, d = triple(c)
        return self.den == d and self.nums == ({0: (a, b)} if c else {})

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())  # equal to that scalar, so hash like it
        return hash((self.frame, self.den, frozenset(self.nums.items())))

    def __bool__(self):
        return bool(self.nums)

    def __repr__(self):
        return f"<Poly {self}>"

    def __str__(self):
        from .parser import format_poly
        return format_poly(self)

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.frame != self.frame:
                raise FrameMismatch("polynomials live on different frames")
            return other
        c = as_scalar(other)
        if c is None:
            return None
        return Poly.constant(self.frame, c)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.den, other.den
        den = d1 if d1 == d2 else lcm(d1, d2)
        parts = [((den // d1, 0), self.nums), ((den // d2, 0), other.nums)]
        if len(other.nums) > len(self.nums):
            parts.reverse()  # copy the larger side
        return _reduced(self.frame, _gauss_sum(parts), den)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1, 0, 1)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = as_scalar(other)
            if c is None:
                return NotImplemented
            return self._scaled(*triple(c)) if c else Poly.zero(self.frame)
        other = self._coerce(other)
        check_products(len(self.nums) * len(other.nums), "product")
        check_degree(self.degree() + other.degree(), "product")
        return _reduced(self.frame, _nonzero(_gauss_mul(self.nums, other.nums, {})),
                        self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = as_scalar(other)
        if c is None and isinstance(other, Poly) and other.is_constant():
            c = other.constant_value()
        if c is None:
            return NotImplemented
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        # 1/c = d (a - b i) / (a^2 + b^2) for c = (a + b i)/d
        a, b, d = triple(c)
        return self._scaled(d * a, -d * b, a * a + b * b)

    def _scaled(self, a, b, d):
        "self (a + b i) / d for a nonzero Gaussian integer a + b i and d > 0."
        return _reduced(self.frame, _gauss_sum([((a, b), self.nums)]), self.den * d)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if self.nums:
            check_degree(self.degree() * n, "power")
        out, base = None, self  # out starts at the power for the lowest set bit
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return Poly.constant(self.frame, 1) if out is None else out

    # -- structure -----------------------------------------------------

    def is_constant(self) -> bool:
        return not self.nums or (len(self.nums) == 1 and 0 in self.nums)

    def constant_value(self) -> GaussRational:
        ab = self.nums.get(0)
        return ZERO if ab is None else from_triple(*ab, self.den)

    def degree(self) -> int:
        "Total degree; -1 for the zero polynomial."
        return max(_degrees(self), default=-1)

    def is_homogeneous(self) -> bool:
        return len(set(_degrees(self))) <= 1

    def homogeneous_parts(self):
        "Dict degree -> homogeneous Poly; sums back to self."
        parts = {}
        for (key, ab), d in zip(self.nums.items(), _degrees(self)):
            parts.setdefault(d, {})[key] = ab
        return {d: _reduced(self.frame, t, self.den) for d, t in sorted(parts.items())}

    def conjugate(self) -> "Poly":
        return _poly(self.frame, _conjugated(self.nums, self.frame.n), self.den)

    def is_real_valued(self) -> bool:
        return self == self.conjugate()

    def uses_slot(self, slot: int) -> bool:
        return slot in _used_slots([self.nums])

    def is_holomorphic_in(self, name: str) -> bool:
        "No conj(name) slot appears; name must be a complex coordinate."
        return not self.uses_slot(self.frame.zbar_slot(name))

    # -- calculus ------------------------------------------------------

    def _slot_derivative(self, slot: int) -> "Poly":
        return _reduced(self.frame, _derivative(self.nums, slot), self.den)

    def wirtinger(self, name: str, conjugate: bool = False) -> "Poly":
        "d/dz_name, or d/dconj(z_name) when conjugate is set."
        slot = self.frame.zbar_slot(name) if conjugate else self.frame.z_slot(name)
        return self._slot_derivative(slot)

    def real_partial(self, name: str) -> "Poly":
        "d/dt for a real coordinate."
        return self._slot_derivative(self.frame.real_slot(name))

    # -- evaluation ----------------------------------------------------

    def evaluate(self, point) -> GaussRational:
        """Exact evaluation.  point maps coordinate names to scalars; a
        complex coordinate takes one value, its conjugate slot gets the
        conjugate automatically."""
        return self._evaluate(point, False)

    def evaluate_float(self, point) -> complex:
        return self._evaluate(point, True)

    def _evaluate(self, point, numeric):
        frame = self.frame
        values = []
        for name in frame.complex_names + frame.real_names:
            if name not in point:
                raise KeyError(f"no value for coordinate {name!r}")
            v = complex(point[name]) if numeric else as_scalar(point[name])
            if v is None:
                raise TypeError(f"value for {name!r} is not exact")
            if frame.kind_of(name)[0] == "c":
                values += [v, v.conjugate()]
            elif numeric or v.is_real():
                values.append(v)
            else:
                raise ValueError(f"real coordinate {name!r} needs a real value")
        unpack, den = _unpacker(frame.num_slots), self.den
        total = 0j if numeric else ZERO
        for key, (a, b) in self.nums.items():
            # int true division is correctly rounded, so this is complex() of the coefficient
            term = complex(a / den, b / den) if numeric else from_triple(a, b, den)
            for v, e in zip(values, unpack(key)):
                if e:
                    term = term * v ** e
            total = total + term
        return total

    # -- substitution --------------------------------------------------

    def substitute(self, target_frame: VariableFrame, images) -> "Poly":
        """Map into target_frame sending slot s of this frame to the
        polynomial images[s].  Every slot used by self must have an image
        and conjugate slots are substituted independently: the caller is
        responsible for keeping images conjugate-consistent.

        Image s is numerators over its denominator D_s; the term with
        numerator c_alpha expands as c_alpha prod_s (image s numerators)
        ** alpha_s over D prod_s D_s ** alpha_s, every term is brought to
        the lcm of those denominators, and the output is reduced once."""
        exps = list(map(_unpacker(self.frame.num_slots), self.nums))
        top = [max(col) for col in zip(*exps)]  # highest exponent of each slot
        used = {}
        for s, e in enumerate(top):
            if e:
                img = images.get(s)
                if img is None:
                    raise KeyError(f"no image for slot {self.frame.slot_label(s)}")
                if img.frame != target_frame:
                    raise FrameMismatch("image lives on another frame")
                used[s] = img
        check_degree(self.degree() * max([img.degree() for img in used.values()] + [0]),
                     "substitution")
        spent = 0

        def mul(p, q, out):
            nonlocal spent
            spent += len(p) * len(q)
            check_products(spent, "substitution")
            return _gauss_mul(p, q, out)

        powers = {}  # powers[s, e]: numerators of images[s] ** e over D_s ** e
        for s, img in used.items():
            powers[s, 1] = img.nums
            for e in range(2, top[s] + 1):
                powers[s, e] = mul(powers[s, e - 1], img.nums, {})
        dens = [prod(used[s].den ** e for s, e in enumerate(mono) if e) for mono in exps]
        D = lcm(*dens)
        acc = {}
        for (a, b), mono, d in zip(self.nums.values(), exps, dens):
            k = D // d
            part = {0: (a * k, b * k)}
            factors = [powers[s, e] for s, e in enumerate(mono) if e] or [{0: (1, 0)}]
            for f in factors[:-1]:
                part = mul(part, f, {})
            mul(part, factors[-1], acc)
        return _reduced(target_frame, _nonzero(acc), self.den * D)


# ---------------------------------------------------------------------
# the packed kernels: numerators are {packed monomial: (a, b)} dicts of
# Gaussian integers over a denominator kept by the caller


def _init(p, frame, nums, den, terms=None):
    _set(p, "frame", frame)
    _set(p, "nums", nums)
    _set(p, "den", den)
    _set(p, "_terms", terms)


def _poly(frame, nums, den) -> Poly:
    "A Poly over canonical numerators: no zeros, content 1 with den."
    p = _new(Poly)
    _init(p, frame, nums, den)
    return p


def _nonzero(acc):
    "The entries of an accumulator that are not zero, as (a, b) pairs."
    return {k: (a, b) for k, (a, b) in acc.items() if a or b}


def _reduced(frame, nums, den) -> Poly:
    "The Poly nums / den for numerators with no zero entries: the common content divided out."
    if den != 1:
        g = gcd(den, *chain.from_iterable(nums.values()))
        if g != 1:
            nums = {k: (a // g, b // g) for k, (a, b) in nums.items()}
            den //= g
    return _poly(frame, nums, den)


def linear_form(frame, coeffs, den) -> Poly:
    "sum_s (a_s + b_s i) slot_s / den for Gaussian-integer pairs coeffs[s]."
    return _reduced(frame, _nonzero({1 << s * EXP_BITS: ab for s, ab in enumerate(coeffs)}), den)


def quadratic_from_numerators(frame, den, pairs) -> Poly:
    """sum (a + b i) slot_s slot_u / den over a {(s, u): (a, b)} dict of
    Gaussian-integer numerators and an integer den > 0, the inverse of
    quadratic_numerators: (s, u) and (u, s) add up, and pairs that cancel
    drop out."""
    width, acc = frame.num_slots, {}
    for (s, u), (a, b) in pairs.items():
        if not (0 <= s < width and 0 <= u < width):
            raise ValueError(f"slot pair {(s, u)} is outside a frame of {width} slots")
        ab = acc.setdefault((1 << s * EXP_BITS) + (1 << u * EXP_BITS), [0, 0])
        ab[0] += a
        ab[1] += b
    return _reduced(frame, _nonzero(acc), den)


def quadratic_numerators(p: Poly):
    """(den, {(s, u): (a, b)}), s <= u, of a homogeneous quadratic
    p = sum (a + b i) slot_s slot_u / den.  A key of total degree 2 (its
    residue modulo MAX_DEGREE) is 2^(EXP_BITS s) + 2^(EXP_BITS u), so its
    top bit names u and the top bit of the rest names s."""
    out = {}
    for key, ab in p.nums.items():
        if key % MAX_DEGREE != 2:
            raise ValueError("quadratic form needs a homogeneous degree-2 polynomial")
        u = (key.bit_length() - 1) // EXP_BITS
        out[((key - (1 << u * EXP_BITS)).bit_length() - 1) // EXP_BITS, u] = ab
    return p.den, out


def _gauss_sum(parts):
    """sum w p over a list of (w, p) pairs of Gaussian-integer weights w = (a, b)
    and numerators p with no zero entries; entries that cancel are dropped.  A lone
    part of weight 1 is p itself, so the sum is read only, as every numerator dict
    is; another lone part is scaled in one pass, and a leading part of weight 1 is copied."""
    if len(parts) == 1:
        (a, b), p = parts[0]
        if a == 1 and not b:
            return p
        return {k: (a * x - b * y, a * y + b * x) for k, (x, y) in p.items()} if a or b else {}
    out = {}
    get = out.get
    for (a, b), p in parts:
        if not (a or b):
            continue
        if not out and a == 1 and not b:
            out = dict(p)
            get = out.get
            continue
        for k, (x, y) in p.items():
            if b or a != 1:
                x, y = a * x - b * y, a * y + b * x
            prev = get(k)
            if prev is None:
                out[k] = (x, y)
            else:
                x += prev[0]
                y += prev[1]
                if x or y:
                    out[k] = (x, y)
                else:
                    del out[k]
    return out


def _gauss_mul(p, q, out):
    """Add the product of two numerator dicts into out, an accumulator
    of [re, im] lists, and return out.  A square (p is q) takes each
    unordered pair of terms once: a term times itself, then, doubled,
    times each later term."""
    right = list(q.items())
    get = out.get
    square = p is q
    for i, (k1, (a1, b1)) in enumerate(right if square else p.items()):
        rest = right
        if square:
            prev = out.setdefault(k1 + k1, [0, 0])
            prev[0] += a1 * a1 - b1 * b1
            prev[1] += 2 * a1 * b1
            a1, b1, rest = 2 * a1, 2 * b1, right[i + 1:]
        for k2, (a2, b2) in rest:
            re = a1 * a2 - b1 * b2
            im = a1 * b2 + b1 * a2
            k = k1 + k2
            prev = get(k)
            if prev is None:
                out[k] = [re, im]
            else:
                prev[0] += re
                prev[1] += im
    return out


def _conjugated(nums, n: int):
    "Conjugate numerators on n complex coordinates: z and conj(z) fields swap, real slots stay."
    low = 2 * n * EXP_BITS
    z = MAX_DEGREE * ((1 << low) - 1) // ((1 << 2 * EXP_BITS) - 1)  # fields 0, 2, ..., 2n - 2
    return {(k & z) << EXP_BITS | k >> EXP_BITS & z | k >> low << low: (a, -b)
            for k, (a, b) in nums.items()}


def _used_slots(numerators) -> set:
    "The slots some key of the numerator dicts uses: field s of the keys' bitwise or is nonzero."
    used = reduce(or_, chain.from_iterable(numerators), 0)
    return {s for s in range(-(-used.bit_length() // EXP_BITS)) if used >> s * EXP_BITS & MAX_DEGREE}


def _derivative(nums, slot: int):
    "d/dslot of numerators, over the same denominator."
    shift = slot * EXP_BITS
    one = 1 << shift
    out = {}
    for key, (a, b) in nums.items():
        e = key >> shift & MAX_DEGREE
        if e:
            out[key - one] = (a * e, b * e)
    return out


# ---------------------------------------------------------------------


def same_name_images(frame: VariableFrame, target: VariableFrame, skip=None) -> dict:
    "Substitution images sending each slot of frame, but skip's, to target's slot of that name."
    images = {}
    for name in frame.complex_names:
        if name != skip:
            images[frame.z_slot(name)] = Poly.variable(target, name)
            images[frame.zbar_slot(name)] = Poly.conj_variable(target, name)
    for name in frame.real_names:
        images[frame.real_slot(name)] = Poly.variable(target, name)
    return images


def rename_onto(p: Poly, target: VariableFrame) -> Poly:
    """Reinterpret p on a frame containing all of p's coordinates under
    the same names (used when enlarging frames for glue / augment)."""
    for name in p.frame.complex_names:
        if name not in target.complex_names:
            raise FrameMismatch(f"target frame has no complex coordinate {name!r}")
    for name in p.frame.real_names:
        if name not in target.real_names:
            raise FrameMismatch(f"target frame has no real coordinate {name!r}")
    return p.substitute(target, same_name_images(p.frame, target))


def gradient_rows(p: Poly) -> dict:
    """The real gradient by monomial, {key: (re, im)} for integer rows of
    length m: component a is sum (re[a] + im[a] i) mono_key / p.den.  The
    slot derivatives go through the chain rule of frame.slot_axes, an
    invertible table, so no row is zero."""
    m, rows = p.frame.m, {}
    for s, entries in enumerate(p.frame.slot_axes()):
        for key, (x, y) in _derivative(p.nums, s).items():
            re, im = rows.setdefault(key, ([0] * m, [0] * m))
            for a, u, v in entries:
                re[a] += u * x - v * y
                im[a] += u * y + v * x
    return rows


def real_gradient(p: Poly) -> tuple:
    """Gradient with respect to the m real coordinates, as a tuple of m
    polynomials on p's frame.

    Component order matches the frame's real axes: (Re z_j, Im z_j)
    pairs first, then the real coordinates: entry a of gradient_rows.
    """
    frame, rows = p.frame, gradient_rows(p)
    return tuple(_reduced(frame, {k: (re[a], im[a]) for k, (re, im) in rows.items()
                                  if re[a] or im[a]}, p.den)
                 for a in range(frame.m))
