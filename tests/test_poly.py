"""Polynomial ring and Wirtinger calculus.

Oracle: central finite differences on the float evaluation.  With step
h the error is O(h^2), so 1e-5 steps leave plenty of margin at 1e-6
tolerances for the coefficient sizes used here.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eigenforge.scalars import GaussRational, I, ONE, scalar
from eigenforge.frames import VariableFrame
from eigenforge.poly import FrameMismatch, Poly, real_gradient, rename_onto

F2 = VariableFrame(("z", "u"), ("t",))


def zvar(name, frame=F2):
    return Poly.variable(frame, name)


def zbar(name, frame=F2):
    return Poly.conj_variable(frame, name)


def rand_poly(rng, frame, max_terms=5, max_deg=3):
    p = Poly.zero(frame)
    names = list(frame.complex_names) + list(frame.real_names)
    for _ in range(rng.randint(1, max_terms)):
        term = Poly.constant(frame, scalar(rng.randint(-3, 3), rng.randint(-3, 3)))
        for _ in range(rng.randint(0, max_deg)):
            name = rng.choice(names)
            if frame.kind_of(name)[0] == "c" and rng.random() < 0.5:
                term = term * zbar(name, frame)
            else:
                term = term * zvar(name, frame)
        p = p + term
    return p


def rand_point(rng, frame):
    pt = {}
    for name in frame.complex_names:
        pt[name] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    for name in frame.real_names:
        pt[name] = rng.uniform(-1, 1)
    return pt


def fd_wirtinger(p, name, point, conjugate=False, h=1e-5):
    "Central-difference d/dz or d/dzbar at a point."
    def shifted(delta):
        q = dict(point)
        q[name] = q[name] + delta
        return p.evaluate_float(q)
    dx = (shifted(h) - shifted(-h)) / (2 * h)
    dy = (shifted(1j * h) - shifted(-1j * h)) / (2 * h)
    if conjugate:
        return 0.5 * (dx + 1j * dy)
    return 0.5 * (dx - 1j * dy)


def fd_real_partial(p, name, point, h=1e-5):
    def shifted(delta):
        q = dict(point)
        q[name] = q[name] + delta
        return p.evaluate_float(q)
    return (shifted(h) - shifted(-h)) / (2 * h)


# ---------------------------------------------------------------------


def test_ring_basics():
    z, u, t = zvar("z"), zvar("u"), Poly.variable(F2, "t")
    p = z * u + 2 * t
    assert p - p == Poly.zero(F2)
    assert p * 0 == Poly.zero(F2)
    assert (z + u) * (z - u) == z * z - u * u
    assert p ** 2 == p * p
    assert (p / 2) * 2 == p


def test_equality_with_scalars():
    p = Poly.constant(F2, scalar(3, 1))
    assert p == scalar(3, 1)
    assert Poly.zero(F2) == 0
    assert zvar("z") != 0


def test_frame_mismatch_rejected():
    other = VariableFrame(("w",), ())
    with pytest.raises(FrameMismatch):
        zvar("z") + Poly.variable(other, "w")


def test_division_restrictions():
    with pytest.raises(ZeroDivisionError):
        zvar("z") / 0
    with pytest.raises(TypeError):
        zvar("z") / zvar("u")


def test_degree_and_homogeneity():
    z, u = zvar("z"), zvar("u")
    t = Poly.variable(F2, "t")
    assert Poly.zero(F2).degree() == -1
    assert (z * u * t).degree() == 3
    assert (z * zbar("z")).is_homogeneous()
    assert not (z + z * u).is_homogeneous()
    parts = (z + z * u + 3).homogeneous_parts()
    assert set(parts) == {0, 1, 2}
    total = Poly.zero(F2)
    for q in parts.values():
        total = total + q
    assert total == z + z * u + 3


def test_conjugation():
    z = zvar("z")
    p = I * z * z + zbar("u")
    q = p.conjugate()
    assert q == -I * zbar("z") * zbar("z") + zvar("u")
    assert q.conjugate() == p
    assert (z * zbar("z")).is_real_valued()
    assert not p.is_real_valued()


def test_holomorphic_predicate():
    z = zvar("z")
    assert (z * z * zvar("u")).is_holomorphic_in("z")
    assert not (z * zbar("z")).is_holomorphic_in("z")
    assert zvar("u").is_holomorphic_in("z")


def test_wirtinger_exact_cases():
    z = zvar("z")
    p = z * z * zbar("z")
    assert p.wirtinger("z") == 2 * z * zbar("z")
    assert p.wirtinger("z", conjugate=True) == z * z
    t = Poly.variable(F2, "t")
    assert (t * t).real_partial("t") == 2 * t
    assert (t * t).wirtinger("z") == 0


def test_wirtinger_against_finite_differences():
    rng = random.Random(42)
    for _ in range(20):
        p = rand_poly(rng, F2)
        pt = rand_point(rng, F2)
        for name in F2.complex_names:
            for conj in (False, True):
                exact = p.wirtinger(name, conjugate=conj).evaluate_float(pt)
                approx = fd_wirtinger(p, name, pt, conjugate=conj)
                assert abs(exact - approx) < 1e-6 * max(1.0, abs(exact))
        for name in F2.real_names:
            exact = p.real_partial(name).evaluate_float(pt)
            approx = fd_real_partial(p, name, pt)
            assert abs(exact - approx) < 1e-6 * max(1.0, abs(exact))


def test_wirtinger_product_rule():
    rng = random.Random(5)
    for _ in range(10):
        p = rand_poly(rng, F2)
        q = rand_poly(rng, F2)
        lhs = (p * q).wirtinger("z")
        rhs = p.wirtinger("z") * q + p * q.wirtinger("z")
        assert lhs == rhs


def test_wirtinger_conjugation_symmetry():
    rng = random.Random(6)
    for _ in range(10):
        p = rand_poly(rng, F2)
        assert p.conjugate().wirtinger("z", conjugate=True) == p.wirtinger("z").conjugate()


def test_real_gradient_matches_finite_differences():
    rng = random.Random(9)
    for _ in range(10):
        p = rand_poly(rng, F2)
        pt = rand_point(rng, F2)
        grad = real_gradient(p)
        assert len(grad.components) == F2.m
        # axis order: Re z, Im z, Re u, Im u, t
        labels = F2.axis_labels()
        for slot, label in enumerate(labels):
            exact = grad.components[slot].evaluate_float(pt)
            if label.startswith("Re("):
                name = label[3:-1]
                approx = fd_wirtinger(p, name, pt) + fd_wirtinger(p, name, pt, conjugate=True)
            elif label.startswith("Im("):
                name = label[3:-1]
                approx = 1j * (fd_wirtinger(p, name, pt) - fd_wirtinger(p, name, pt, conjugate=True))
            else:
                approx = fd_real_partial(p, label, pt)
            assert abs(exact - approx) < 1e-6 * max(1.0, abs(exact))


def test_evaluate_exact():
    z, u = zvar("z"), zvar("u")
    p = z * zbar("z") + u
    val = p.evaluate({"z": scalar(1, 2), "u": scalar(0, 1), "t": Fraction(0)})
    assert val == scalar(5) + scalar(0, 1)


def test_evaluate_rejects_complex_real_coordinate():
    t = Poly.variable(F2, "t")
    with pytest.raises(ValueError):
        t.evaluate({"z": scalar(0), "u": scalar(0), "t": scalar(0, 1)})


def test_substitute_restriction():
    # restrict z -> 1 on frame (z,u) landing in frame (u)
    src = VariableFrame(("z", "u"), ())
    dst = VariableFrame(("u",), ())
    p = Poly.variable(src, "z") * Poly.variable(src, "u") + Poly.conj_variable(src, "z")
    images = {
        src.z_slot("z"): Poly.constant(dst, ONE),
        src.zbar_slot("z"): Poly.constant(dst, ONE),
        src.z_slot("u"): Poly.variable(dst, "u"),
        src.zbar_slot("u"): Poly.conj_variable(dst, "u"),
    }
    q = p.substitute(dst, images)
    assert q == Poly.variable(dst, "u") + 1


def test_rename_onto_enlarges_frame():
    small = VariableFrame(("z",), ())
    p = Poly.variable(small, "z") ** 2
    big = VariableFrame(("w", "z"), ("t",))
    q = rename_onto(p, big)
    assert q == Poly.variable(big, "z") ** 2
    with pytest.raises(FrameMismatch):
        rename_onto(p, VariableFrame(("w",), ()))


# -- clean-dict invariant of the ring operations ---------------------------
#
# Sums, products, powers, derivatives and substitutions build their term
# dicts directly instead of passing them through Poly.__init__.  The
# result must be exactly what __init__ would make of it: full-width tuple
# monomials and nonzero GaussRational coefficients.

# coefficients from a small set, so sums cancel often
coeffs = st.sampled_from([scalar(1), scalar(-1), I, -I, scalar(Fraction(1, 2)),
                          scalar(Fraction(-1, 2), 3), scalar(0)])
monos = st.tuples(*[st.integers(0, 2)] * F2.num_slots)
polys = st.dictionaries(monos, coeffs, max_size=5).map(lambda t: Poly(F2, t))


def assert_clean(p):
    assert Poly(p.frame, p.terms).terms == p.terms
    for mono, c in p.terms.items():
        assert type(mono) is tuple and len(mono) == p.frame.num_slots
        assert isinstance(c, GaussRational) and c


@given(polys, polys, st.integers(0, 3))
def test_ring_results_are_clean(p, q, k):
    for r in (p + q, p - q, p * q, p - p, p + (-p), p * (q - q), p ** k, -p, p.conjugate()):
        assert_clean(r)


@given(polys)
def test_derivatives_are_clean(p):
    for name in F2.complex_names:
        assert_clean(p.wirtinger(name))
        assert_clean(p.wirtinger(name, conjugate=True))
    assert_clean(p.real_partial("t"))
    for comp in real_gradient(p).components:
        assert_clean(comp)


@given(polys, st.lists(polys, min_size=F2.num_slots, max_size=F2.num_slots))
def test_substitute_is_clean_and_matches_expansion(p, imgs):
    images = dict(enumerate(imgs))
    sub = p.substitute(F2, images)
    assert_clean(sub)
    expected = Poly.zero(F2)
    for mono, c in p.terms.items():
        term = Poly.constant(F2, c)
        for slot, e in enumerate(mono):
            for _ in range(e):
                term = term * images[slot]
        expected = expected + term
    assert sub == expected


def test_poly_hash_agrees_with_scalars():
    assert len({Poly.constant(F2, 2), 2}) == 1
    assert len({Poly.zero(F2), 0, scalar(0)}) == 1
    assert len({Poly.constant(F2, scalar(1, 2)), scalar(1, 2)}) == 1
    assert hash(zvar("z") * 2) == hash(zvar("z") + zvar("z"))
