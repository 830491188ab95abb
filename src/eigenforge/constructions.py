"""Operators that build new flat eigenfamilies from old ones.

A polynomial map R^m -> R^n is a harmonic morphism exactly when each
pair of components j < k combines into a horizontally conformal
harmonic function P_j + i P_k.  Pairing consecutive components of such
a map then gives a flat (0,0)-eigenfamily.  The other operators here
turn one polynomial into a family of complex defects, glue two families
that overlap in a block of coordinates both are holomorphic in, adjoin
holomorphic functions of such a block, and compare complex coefficient
spans exactly, optionally after precomposing with a real isometry.
Quaternion multiplication in two and three factors supplies concrete
input maps for all of this.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussRational, I
from .frames import VariableFrame
from .poly import (Poly, FrameMismatch, _graded, _reduced, common_frame, gradient_rows,
                   real_gradient, rename_onto)
from .conformality import laplacian, verify_flat_family
from .linalg import Matrix, _dots, _eliminate
from .holomorphy import _pull_back

HALF = GaussRational(Fraction(1, 2))
NEG_HALF_I = GaussRational(0, Fraction(-1, 2))


class RealMap:
    """A polynomial map into R^n, stored componentwise.

    Every component must be real valued (equal to its own conjugate);
    complex valued maps enter through from_complex, which interleaves
    real and imaginary parts.
    """

    __slots__ = ("frame", "components")

    def __init__(self, frame: VariableFrame, components):
        components = tuple(components)
        for p in components:
            if p.frame != frame:
                raise FrameMismatch("component lives on a different frame")
            if not p.is_real_valued():
                raise ValueError("component is not real valued")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("RealMap is immutable")

    @property
    def n(self) -> int:
        return len(self.components)

    def __repr__(self):
        return f"RealMap(n={self.n}, frame={self.frame!r})"

    @classmethod
    def from_complex(cls, fs) -> "RealMap":
        "Interleave Re and Im of complex valued polynomials."
        fs = list(fs)
        if not fs:
            raise ValueError("need at least one complex component")
        frame = common_frame(fs, "component")
        comps = []
        for f in fs:
            fb = f.conjugate()
            comps.append(HALF * (f + fb))
            comps.append(NEG_HALF_I * (f - fb))
        return cls(frame, comps)


def verify_rn_hm(P: RealMap) -> bool:
    """True when the map is a harmonic morphism: every P_j + i P_k is
    harmonic with self-conformality zero.  As the components are real
    valued, kappa(P_j + i P_k, P_j + i P_k) = kappa(P_j, P_j) - kappa(P_k, P_k)
    + 2i kappa(P_j, P_k) vanishes exactly when kappa(P_j, P_k) = 0 and
    kappa(P_j, P_j) = kappa(P_k, P_k): one flat report, once all are harmonic."""
    if P.n < 2:
        raise ValueError("need at least two components")
    if any(laplacian(p) for p in P.components):
        return False
    brackets = verify_flat_family(P.components).conformal_pairs
    return (len({brackets[j, j] for j in range(P.n)}) == 1
            and not any(r for (j, k), r in brackets.items() if j != k))


class NotHarmonicMorphism(ValueError):
    "The map handed to pair_components fails verify_rn_hm."


def pair_components(P: RealMap):
    """The family {P_1 + i P_2, P_3 + i P_4, ...}; an odd trailing
    component is dropped.  Always a flat eigenfamily; NotHarmonicMorphism
    when verify_rn_hm fails."""
    if not verify_rn_hm(P):
        raise NotHarmonicMorphism("not a harmonic morphism")
    return [P.components[2 * k] + I * P.components[2 * k + 1] for k in range(P.n // 2)]


# -- complex defects --------------------------------------------------


def complex_defect(F: Poly, y) -> Poly:
    """The defect of F at the exact point y: the polynomial
    x -> grad F(x) . grad F(y), taken over the real gradient."""
    out = Poly.zero(F.frame)
    for comp in real_gradient(F):
        c = comp.evaluate(y)
        if c:
            out = out + c * comp
    return out


def defect_family(F: Poly):
    """A finite exact spanning set of {defect of F at y : y real}.

    grad F(y) depends polynomially on y and distinct monomials are
    linearly independent as functions of a real point, so collecting
    sum_a coeff(g_a, mono) g_a over all monomials mono appearing in the
    gradient components g_a spans the same space as the defects: row mono
    of R R^T over den^2, for the rows R of poly.gradient_rows."""
    rows = gradient_rows(F)
    keys = _graded(rows, F.frame.num_slots)
    re, im = ([tuple(rows[k][part]) for k in keys] for part in (0, 1))
    out = []
    for x, y in zip(*_dots(re, im, re, im)):
        nums = {k: (a, b) for k, a, b in zip(keys, x, y) if a or b}
        if nums:
            out.append(_reduced(F.frame, nums, F.den * F.den))
    return out


# -- gluing and augmenting -------------------------------------------


def glue(fs, gs):
    """Join two flat eigenfamilies whose frames overlap in complex
    coordinates only, all of which both sides are holomorphic in.  The
    joint frame keeps the shared block and concatenates the rest."""
    fs = list(fs)
    gs = list(gs)
    if not fs or not gs:
        raise ValueError("glue needs two nonempty families")
    fa = common_frame(fs, "left family")
    ga = common_frame(gs, "right family")
    shared = [name for name in fa.complex_names if name in ga.complex_names]
    for name in fa.complex_names:
        if name in ga.real_names:
            raise ValueError(f"{name!r} is complex on one side and real on the other")
    for name in fa.real_names:
        if name in ga.complex_names:
            raise ValueError(f"{name!r} is complex on one side and real on the other")
        if name in ga.real_names:
            raise ValueError(f"real coordinate {name!r} appears on both sides")
    for name in shared:
        for p in fs + gs:
            if not p.is_holomorphic_in(name):
                raise ValueError(f"conj({name}) appears; families must be "
                                 "holomorphic along the shared block")
    if not verify_flat_family(fs).verdict:
        raise ValueError("left family is not a flat eigenfamily")
    if not verify_flat_family(gs).verdict:
        raise ValueError("right family is not a flat eigenfamily")
    joint_complex = list(fa.complex_names)
    joint_complex += [n for n in ga.complex_names if n not in shared]
    joint = VariableFrame(joint_complex, fa.real_names + ga.real_names)
    return ([rename_onto(f, joint) for f in fs]
            + [rename_onto(g, joint) for g in gs])


def _lift_holomorphic(g: Poly, target: VariableFrame) -> Poly:
    "Place a purely holomorphic polynomial onto target by name."
    gframe = g.frame
    for name in gframe.real_names:
        if g.uses_slot(gframe.real_slot(name)):
            raise ValueError(f"adjoined function uses real coordinate {name!r}")
    images = {}
    for name in gframe.complex_names:
        if g.uses_slot(gframe.zbar_slot(name)):
            raise ValueError(f"conj({name}) appears in an adjoined function")
        zs = gframe.z_slot(name)
        if g.uses_slot(zs):
            if name not in target.complex_names:
                raise FrameMismatch(f"base frame has no complex coordinate {name!r}")
            images[zs] = Poly.variable(target, name)
    return g.substitute(target, images)


def augment(fs, gs):
    """Adjoin holomorphic functions to a flat eigenfamily.  Each adjoined
    function may only use complex coordinates the whole base family is
    holomorphic in; the result spans the sum and is again a flat
    eigenfamily."""
    fs = list(fs)
    gs = list(gs)
    if not fs:
        raise ValueError("need a nonempty base family")
    frame = common_frame(fs, "base family")
    if not verify_flat_family(fs).verdict:
        raise ValueError("base family is not a flat eigenfamily")
    out = list(fs)
    for g in gs:
        lifted = _lift_holomorphic(g, frame)
        for name in g.frame.complex_names:
            if not g.uses_slot(g.frame.z_slot(name)):
                continue
            for f in fs:
                if not f.is_holomorphic_in(name):
                    raise ValueError(f"base family is not holomorphic in {name!r}")
        out.append(lifted)
    return out


# -- span comparison --------------------------------------------------


def span_equal(fs, gs) -> bool:
    """Exact equality of complex coefficient spans on a shared frame: rank F =
    rank G = rank (F; G) for rows of each member's Gaussian-integer numerators,
    over the packed monomials in first-seen order (order does not change a rank)."""
    fs = list(fs)
    gs = list(gs)
    both = fs + gs
    if both:
        common_frame(both, "compared families")
    cols = {key: i for i, key in enumerate(dict.fromkeys(k for p in both for k in p.nums))}
    n = len(cols)
    rows = []
    for p in both:
        re, im = [0] * n, [0] * n
        for key, (a, b) in p.nums.items():
            re[cols[key]], im[cols[key]] = a, b
        rows.append((re, im))
    return (len(_eliminate(rows[:len(fs)], n)[1]) == len(_eliminate(rows[len(fs):], n)[1])
            == len(_eliminate(rows, n)[1]))


def congruent_under(fs, gs, phi: Matrix) -> bool:
    """True when span(fs) equals span(g o phi : g in gs) for the real
    orthogonal matrix phi acting on the coordinates of fs's frame."""
    fs = list(fs)
    gs = list(gs)
    if not fs or not gs:
        raise ValueError("congruence needs two nonempty families")
    frame = common_frame(fs, "left family")
    common_frame(gs, "right family")
    return span_equal(fs, _pull_back(gs, phi.transpose(), frame))


# -- quaternions ------------------------------------------------------

# A quaternion is a pair (a, b) of complex quantities standing for
# a + b j with j c = conj(c) j.  The same product works for exact
# scalars and for polynomials since both carry conjugate().


def quaternion_product(p, q):
    a, b = p
    c, d = q
    return (a * c - b * d.conjugate(), a * d + b * c.conjugate())


def _pair_variables(frame, n1, n2):
    return (Poly.variable(frame, n1), Poly.variable(frame, n2))


def quaternion_multiplication_family():
    """The two complex components of quaternion multiplication on
    H (+) H, as degree 2 polynomials on C^4."""
    frame = VariableFrame(("z1", "z2", "w1", "w2"))
    p = _pair_variables(frame, "z1", "z2")
    q = _pair_variables(frame, "w1", "w2")
    return list(quaternion_product(p, q))


def quaternion_triple_family():
    """The two complex components of the product of three quaternions,
    as degree 3 polynomials on C^6."""
    frame = VariableFrame(("z1", "z2", "u1", "u2", "w1", "w2"))
    p = _pair_variables(frame, "z1", "z2")
    q = _pair_variables(frame, "u1", "u2")
    r = _pair_variables(frame, "w1", "w2")
    return list(quaternion_product(quaternion_product(p, q), r))
