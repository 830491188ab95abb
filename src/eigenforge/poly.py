"""Sparse polynomials over Q(i) in the variables (z_j, conj(z_j), t_k).

A polynomial keeps its frame and a dict mapping dense exponent tuples
(one entry per slot) to nonzero GaussRational coefficients.  Conjugate
variables are ordinary slots, so p is holomorphic in z exactly when no
term touches the conj(z) slot.

The real gradient follows the convention z = x + iy, so

    d/dx = d/dz + d/dconj(z)        d/dy = i (d/dz - d/dconj(z))

and gradient components are polynomials again (complex valued in
general).  No normalization or floating point happens here.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .frames import VariableFrame
from .scalars import GaussRational, ZERO, ONE, I, as_scalar

# ---------------------------------------------------------------------
# monomials = dense exponent tuples


def mono_degree(a):
    return sum(a)

def mono_order_key(a):
    # graded lex, used descending: higher degree first, then lex-larger tuple
    return (-mono_degree(a), tuple(-e for e in a))


class FrameMismatch(ValueError):
    pass


class Poly:
    __slots__ = ("frame", "terms")

    def __init__(self, frame: VariableFrame, terms=None):
        object.__setattr__(self, "frame", frame)
        clean = {}
        if terms:
            width = frame.num_slots
            for mono, coeff in terms.items():
                if len(mono) != width:
                    raise ValueError("monomial width does not match frame")
                c = as_scalar(coeff)
                if c is None:
                    raise TypeError(f"bad coefficient {coeff!r}")
                if c:
                    clean[tuple(mono)] = clean.get(tuple(mono), ZERO) + c
            clean = {m: c for m, c in clean.items() if c}
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, frame, terms):
        """A Poly over a dict that is already clean: full-width tuple
        monomials, GaussRational coefficients, none of them zero."""
        p = object.__new__(cls)
        object.__setattr__(p, "frame", frame)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, frame):
        return cls(frame, {})

    @classmethod
    def constant(cls, frame, c):
        return cls(frame, {(0,) * frame.num_slots: c})

    @classmethod
    def variable(cls, frame, name):
        kind, _ = frame.kind_of(name)
        slot = frame.z_slot(name) if kind == "c" else frame.real_slot(name)
        mono = [0] * frame.num_slots
        mono[slot] = 1
        return cls(frame, {tuple(mono): ONE})

    @classmethod
    def conj_variable(cls, frame, name):
        mono = [0] * frame.num_slots
        mono[frame.zbar_slot(name)] = 1
        return cls(frame, {tuple(mono): ONE})

    # -- protocol ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.frame == other.frame and self.terms == other.terms
        c = as_scalar(other)
        if c is not None:
            return self == Poly.constant(self.frame, c)
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())  # equal to that scalar, so hash like it
        return hash((self.frame, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        from .parser import format_poly
        return f"<Poly {format_poly(self)}>"

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
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            prev = terms.get(mono)
            if prev is None:
                terms[mono] = coeff
            else:
                acc = prev + coeff
                if acc:
                    terms[mono] = acc
                else:
                    del terms[mono]
        return Poly._trusted(self.frame, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.frame, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        get = terms.get
        right = list(other.terms.items())
        for ma, ca in self.terms.items():
            for mb, cb in right:
                m = tuple(map(add, ma, mb))
                prev = get(m)
                # a product of nonzero scalars is nonzero; only sums can cancel
                terms[m] = ca * cb if prev is None else prev + ca * cb
        return Poly._trusted(self.frame, {m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = as_scalar(other)
        if c is None and isinstance(other, Poly):
            if other.is_constant():
                c = other.constant_value()
        if c is None:
            return NotImplemented
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        inv = ONE / c
        return Poly(self.frame, {m: k * inv for m, k in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.constant(self.frame, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure -----------------------------------------------------

    def is_constant(self) -> bool:
        return all(mono_degree(m) == 0 for m in self.terms)

    def constant_value(self) -> GaussRational:
        zero_mono = (0,) * self.frame.num_slots
        return self.terms.get(zero_mono, ZERO)

    def degree(self) -> int:
        "Total degree; -1 for the zero polynomial."
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_parts(self):
        "Dict degree -> homogeneous Poly; sums back to self."
        parts = {}
        for mono, coeff in self.terms.items():
            parts.setdefault(mono_degree(mono), {})[mono] = coeff
        return {d: Poly(self.frame, t) for d, t in sorted(parts.items())}

    def conjugate(self) -> "Poly":
        n2 = 2 * self.frame.n
        terms = {}
        for mono, coeff in self.terms.items():
            flipped = list(mono)
            for j in range(0, n2, 2):
                flipped[j], flipped[j + 1] = flipped[j + 1], flipped[j]
            terms[tuple(flipped)] = coeff.conjugate()
        return Poly._trusted(self.frame, terms)

    def is_real_valued(self) -> bool:
        return self == self.conjugate()

    def uses_slot(self, slot: int) -> bool:
        return any(m[slot] for m in self.terms)

    def is_holomorphic_in(self, name: str) -> bool:
        "No conj(name) slot appears; name must be a complex coordinate."
        return not self.uses_slot(self.frame.zbar_slot(name))

    def sorted_terms(self):
        "Terms in the canonical (graded lex, descending) order."
        return sorted(self.terms.items(), key=lambda kv: mono_order_key(kv[0]))

    # -- calculus ------------------------------------------------------

    def _slot_derivative(self, slot: int) -> "Poly":
        # distinct monomials stay distinct after lowering one slot, and a
        # nonzero coefficient times a positive exponent is nonzero
        terms = {}
        for mono, coeff in self.terms.items():
            e = mono[slot]
            if e:
                terms[mono[:slot] + (e - 1,) + mono[slot + 1:]] = coeff * e
        return Poly._trusted(self.frame, terms)

    def wirtinger(self, name: str, conjugate: bool = False) -> "Poly":
        "d/dz_name, or d/dconj(z_name) when conjugate is set."
        slot = self.frame.zbar_slot(name) if conjugate else self.frame.z_slot(name)
        return self._slot_derivative(slot)

    def real_partial(self, name: str) -> "Poly":
        "d/dt for a real coordinate."
        return self._slot_derivative(self.frame.real_slot(name))

    # -- evaluation ----------------------------------------------------

    def _slot_values(self, point, numeric=False):
        frame = self.frame
        values = []
        for name in frame.complex_names:
            if name not in point:
                raise KeyError(f"no value for coordinate {name!r}")
            v = point[name]
            if numeric:
                v = complex(v)
                values.extend([v, v.conjugate()])
            else:
                s = as_scalar(v)
                if s is None:
                    raise TypeError(f"value for {name!r} is not exact")
                values.extend([s, s.conjugate()])
        for name in frame.real_names:
            if name not in point:
                raise KeyError(f"no value for coordinate {name!r}")
            v = point[name]
            if numeric:
                values.append(complex(v))
            else:
                s = as_scalar(v)
                if s is None:
                    raise TypeError(f"value for {name!r} is not exact")
                if s.im != 0:
                    raise ValueError(f"real coordinate {name!r} needs a real value")
                values.append(s)
        return values

    def evaluate(self, point) -> GaussRational:
        """Exact evaluation.  point maps coordinate names to scalars; a
        complex coordinate takes one value, its conjugate slot gets the
        conjugate automatically."""
        values = self._slot_values(point)
        total = ZERO
        for mono, coeff in self.terms.items():
            term = coeff
            for slot, e in enumerate(mono):
                if e:
                    term = term * values[slot] ** e
            total = total + term
        return total

    def evaluate_float(self, point) -> complex:
        values = self._slot_values(point, numeric=True)
        total = 0j
        for mono, coeff in self.terms.items():
            term = complex(coeff)
            for slot, e in enumerate(mono):
                if e:
                    term *= values[slot] ** e
            total += term
        return total

    # -- substitution --------------------------------------------------

    def substitute(self, target_frame: VariableFrame, images) -> "Poly":
        """Map into target_frame sending slot s of this frame to the
        polynomial images[s].  Every slot used by self must have an image
        and conjugate slots are substituted independently: the caller is
        responsible for keeping images conjugate-consistent."""
        out = Poly.zero(target_frame)
        powers = {}  # (slot, e) -> images[slot] ** e
        for mono, coeff in self.terms.items():
            term = Poly.constant(target_frame, coeff)
            for slot, e in enumerate(mono):
                if not e:
                    continue
                power = powers.get((slot, e))
                if power is None:
                    img = images.get(slot)
                    if img is None:
                        raise KeyError(f"no image for slot {self.frame.slot_label(slot)}")
                    power = powers[slot, e] = img ** e
                term = term * power
            out = out + term
        return out


# ---------------------------------------------------------------------


def rename_onto(p: Poly, target: VariableFrame) -> Poly:
    """Reinterpret p on a frame containing all of p's coordinates under
    the same names (used when enlarging frames for glue / augment)."""
    for name in p.frame.complex_names:
        if name not in target.complex_names:
            raise FrameMismatch(f"target frame has no complex coordinate {name!r}")
    for name in p.frame.real_names:
        if name not in target.real_names:
            raise FrameMismatch(f"target frame has no real coordinate {name!r}")
    images = {}
    for name in p.frame.complex_names:
        images[p.frame.z_slot(name)] = Poly.variable(target, name)
        images[p.frame.zbar_slot(name)] = Poly.conj_variable(target, name)
    for name in p.frame.real_names:
        images[p.frame.real_slot(name)] = Poly.variable(target, name)
    return p.substitute(target, images)


class PolyVector:
    """A length-m vector of polynomials, indexed by the frame's real axes."""

    __slots__ = ("frame", "components")

    def __init__(self, frame: VariableFrame, components):
        components = tuple(components)
        if len(components) != frame.m:
            raise ValueError(f"expected {frame.m} components, got {len(components)}")
        for c in components:
            if c.frame != frame:
                raise FrameMismatch("component frame mismatch")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("PolyVector is immutable")

    def __getitem__(self, k):
        return self.components[k]

    def __len__(self):
        return len(self.components)

    def __eq__(self, other):
        if not isinstance(other, PolyVector):
            return NotImplemented
        return self.frame == other.frame and self.components == other.components

    def dot(self, other: "PolyVector") -> Poly:
        "Bilinear product sum_k a_k b_k, no conjugation."
        if not isinstance(other, PolyVector) or other.frame != self.frame:
            raise FrameMismatch("dot needs two vectors on one frame")
        total = Poly.zero(self.frame)
        for a, b in zip(self.components, other.components):
            total = total + a * b
        return total


def slot_axes(frame: VariableFrame) -> list:
    """The slot <-> axis table of z = x + iy: entry s lists the pairs
    (a, c) with slot_s = sum c x_a.  Read the other way it is the chain
    rule d/dx_a = sum c d/dslot_s over the entries naming axis a."""
    out = []
    for j in range(frame.n):
        out.append(((2 * j, ONE), (2 * j + 1, I)))
        out.append(((2 * j, ONE), (2 * j + 1, -I)))
    for k in range(frame.r):
        out.append(((2 * frame.n + k, ONE),))
    return out


def real_gradient(p: Poly) -> PolyVector:
    """Gradient with respect to the m real coordinates, as polynomials.

    Component order matches the frame's real axes: (Re z_j, Im z_j)
    pairs first, then the real coordinates.
    """
    frame = p.frame
    comps = [Poly.zero(frame)] * frame.m
    for s, entries in enumerate(slot_axes(frame)):
        d = p._slot_derivative(s)
        for a, c in entries:
            comps[a] = comps[a] + (d if c == ONE else c * d)
    return PolyVector(frame, comps)


def axis_polynomials(frame) -> list:
    "The real coordinate functions (Re z, Im z, ..., t) as polynomials."
    half = GaussRational(Fraction(1, 2))
    neg_half_i = GaussRational(0, Fraction(-1, 2))
    out = []
    for name in frame.complex_names:
        z = Poly.variable(frame, name)
        zb = Poly.conj_variable(frame, name)
        out.append(half * (z + zb))
        out.append(neg_half_i * (z - zb))
    for name in frame.real_names:
        out.append(Poly.variable(frame, name))
    return out
