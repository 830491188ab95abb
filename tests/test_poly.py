"""Polynomial ring and Wirtinger calculus.

Oracle: central finite differences on the float evaluation.  With step
h the error is O(h^2), so 1e-5 steps leave plenty of margin at 1e-6
tolerances for the coefficient sizes used here.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from eigenforge import poly
from eigenforge.scalars import GaussRational, I, ONE, scalar
from eigenforge.frames import VariableFrame
from eigenforge.poly import MAX_DEGREE, FrameMismatch, Poly, real_gradient, rename_onto
from eigenforge.linalg import Matrix

from oracles import (axis_labels, quadratic, quadratic_pairs, ref_add, ref_conjugate, ref_degrees,
                     ref_evaluate, ref_mul, ref_neg, ref_pow, ref_real_gradient, ref_slot_derivative,
                     ref_sub, ref_substitute)

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
        assert len(grad) == F2.m
        # axis order: Re z, Im z, Re u, Im u, t
        labels = axis_labels(F2)
        for slot, label in enumerate(labels):
            exact = grad[slot].evaluate_float(pt)
            if label.startswith("Re("):
                name = label[3:-1]
                approx = fd_wirtinger(p, name, pt) + fd_wirtinger(p, name, pt, conjugate=True)
            elif label.startswith("Im("):
                name = label[3:-1]
                approx = 1j * (fd_wirtinger(p, name, pt) - fd_wirtinger(p, name, pt, conjugate=True))
            else:
                approx = fd_real_partial(p, label, pt)
            assert abs(exact - approx) < 1e-6 * max(1.0, abs(exact))


def test_slot_axis_table_read_forward_then_inverse_is_the_identity():
    # slot = D x and x = T slot for the tables slot_axes and axis_slots (over 2)
    for n in range(4):
        for r in range(3):
            frame = VariableFrame(tuple(f"z{j}" for j in range(n)),
                                  tuple(f"t{k}" for k in range(r)))
            m = frame.m
            tables = []
            for table, den in ((frame.slot_axes(), 1), (frame.axis_slots(), 2)):
                re, im = [[0] * m for _ in range(m)], [[0] * m for _ in range(m)]
                for i, entries in enumerate(table):
                    for j, p, q in entries:
                        re[i][j], im[i][j] = p, q
                tables.append(Matrix.from_numerators(re, im, den, m))
            D, T = tables
            assert all(p * p + q * q == 1 for e in frame.slot_axes() for _, p, q in e)
            assert T * D == D * T == Matrix.identity(m)


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
# Sums, products, powers, derivatives and substitutions build their packed
# numerators directly instead of passing through Poly.__init__.  Their term
# view must be exactly what __init__ would make of it: full-width tuple
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
    for comp in real_gradient(p):
        assert_clean(comp)


_H, _W = scalar(Fraction(1, 2)), scalar(Fraction(-1, 2), 3)


# a degree-10 p and five images with 15 562 output terms: the largest
# expansion this test runs
@given(polys, st.lists(polys, min_size=F2.num_slots, max_size=F2.num_slots))
@example(Poly(F2, {(2, 2, 2, 2, 2): 1, (2, 0, 2, 2, 0): _W, (1, 2, 0, 2, 0): 1,
                   (0, 2, 2, 2, 0): -I}),
         [Poly(F2, {(1, 2, 2, 0, 1): -I}),
          Poly(F2, {(2, 0, 2, 1, 2): -1, (2, 2, 0, 0, 1): -I, (1, 0, 2, 1, 1): -I}),
          Poly(F2, {(1, 0, 0, 1, 1): _W, (2, 2, 0, 0, 0): _H, (1, 2, 1, 2, 1): -1,
                    (0, 1, 0, 0, 2): 1, (1, 1, 2, 1, 0): -I}),
          Poly(F2, {(0, 2, 1, 2, 0): -I, (1, 2, 0, 0, 0): I, (2, 2, 0, 2, 0): _W,
                    (1, 1, 1, 1, 0): _W, (0, 0, 1, 1, 0): _H}),
          Poly(F2, {(1, 1, 2, 2, 2): I, (2, 1, 2, 2, 0): _W, (1, 2, 2, 2, 0): -1,
                    (2, 0, 1, 1, 2): _W, (0, 1, 1, 1, 0): -1})])
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


def test_constructor_stores_coefficients_as_given():
    # no scalar arithmetic on monomials that occur once; zeros dropped
    c = scalar(Fraction(3, 4), 1)
    mono, zero = (1, 0, 2, 0, 0), (0,) * F2.num_slots
    p = Poly(F2, {mono: c, zero: 0, (0, 1, 0, 0, 0): Fraction(1, 2)})
    assert p.terms == {mono: c, (0, 1, 0, 0, 0): scalar(Fraction(1, 2))}
    assert p.terms[mono] is c


def test_poly_hash_agrees_with_scalars():
    assert len({Poly.constant(F2, 2), 2}) == 1
    assert len({Poly.zero(F2), 0, scalar(0)}) == 1
    assert len({Poly.constant(F2, scalar(1, 2)), scalar(1, 2)}) == 1
    assert hash(zvar("z") * 2) == hash(zvar("z") + zvar("z"))


# -- packed storage against the tuple-dict reference -------------------------
#
# Poly stores Gaussian-integer numerators over one denominator with packed
# monomials; every ring operation must give term for term what the
# scalar-by-scalar loops on the exponent-tuple view give.

fractional = st.builds(lambda a, b, d: scalar(Fraction(a, d), Fraction(b, d)),
                       st.integers(-6, 6), st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 9]))
dense = st.dictionaries(monos, st.one_of(coeffs, fractional), max_size=6).map(
    lambda t: Poly(F2, t))


@given(dense, dense, st.integers(0, 3), st.one_of(coeffs, fractional))
def test_ring_operations_match_reference(p, q, k, c):
    assert (p + q).terms == ref_add(p, q).terms
    assert (p - q).terms == ref_sub(p, q).terms
    assert (-p).terms == ref_neg(p).terms
    assert (p * q).terms == ref_mul(p, q).terms
    assert (p * p).terms == ref_mul(p, p).terms  # one object on both sides: a square
    assert (c * p).terms == (p * c).terms == ref_mul(c, p).terms
    assert (p + c).terms == ref_add(p, c).terms
    assert (p ** k).terms == ref_pow(p, k).terms
    assert p.conjugate().terms == ref_conjugate(p).terms
    for slot in range(F2.num_slots):
        assert p._slot_derivative(slot).terms == ref_slot_derivative(p, slot).terms
    if c:
        assert (p / c).terms == ref_mul(p, ONE / c).terms


def test_power_starts_from_the_base(monkeypatch):
    # p ** n starts at the power for its lowest set bit: no product with the
    # constant 1, and a square passes one numerator dict twice
    calls = []
    original = poly._gauss_mul

    def spy(p, q, out):
        calls.append(p is q)
        return original(p, q, out)
    monkeypatch.setattr(poly, "_gauss_mul", spy)
    rng = random.Random(7)
    for _ in range(5):
        p = rand_poly(rng, F2)
        for n in range(7):
            calls.clear()
            power = p ** n
            assert n > 3 or calls == [[], [], [True], [True, False]][n], (p, n)
            assert power.terms == ref_pow(p, n).terms, (p, n)  # the n-fold product


gauss_nums = st.dictionaries(st.integers(0, 40), st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                             .filter(any), max_size=8)


# (1 + (1 + i) x - i x^2)^2: the x^2 terms 2 (-i) + (1 + i)^2 cancel
@given(gauss_nums, gauss_nums)
@example({0: (1, 0), 1: (1, 1), 2: (0, -1)}, {})
@example({0: (1, 0), 1: (1, 1), 2: (0, -1)}, {2: (5, 0)})
def test_square_matches_the_product_with_a_copy(nums, start):
    # _gauss_mul(p, p, out) walks the upper triangle; the product with a
    # copy of p walks every ordered pair; both add into a started out
    square = poly._gauss_mul(nums, nums, {k: list(ab) for k, ab in start.items()})
    full = poly._gauss_mul(nums, dict(nums), {k: list(ab) for k, ab in start.items()})
    assert square == full


@given(dense)
def test_real_gradient_matches_reference(p):
    grad = real_gradient(p)
    assert isinstance(grad, tuple)
    assert list(grad) == ref_real_gradient(p)


@given(dense, dense)
def test_equality_and_hash_do_not_depend_on_construction(p, q):
    r = (p + q) - q
    assert r == p and hash(r) == hash(p)
    rebuilt = Poly(F2, dict(p.terms))
    assert rebuilt == p and hash(rebuilt) == hash(p)
    assert p * q - q * p == 0
    c = p.constant_value()
    const = (p - p) + c
    assert const == c and hash(const) == hash(c)


def test_exponent_too_wide_raises():
    with pytest.raises(ValueError, match="over the limit"):
        Poly(F2, {(MAX_DEGREE, 1, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        Poly(F2, {(-1, 0, 0, 0, 0): 1})
    top = Poly(F2, {(MAX_DEGREE, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError, match="product would have degree"):
        top * zvar("u")
    with pytest.raises(ValueError, match="power would have degree"):
        zvar("z") ** (MAX_DEGREE + 1)
    images = {s: zvar("z") ** 2 for s in range(F2.num_slots)}
    with pytest.raises(ValueError, match="substitution would have degree"):
        (zvar("u") ** (MAX_DEGREE // 2 + 1)).substitute(F2, images)
    assert (top * 1).degree() == MAX_DEGREE


# exponents up to MAX_DEGREE // 5 on the five slots of F2, so total degrees
# reach MAX_DEGREE itself, where the key's residue is 0
wide_monos = st.tuples(*[st.integers(0, MAX_DEGREE // F2.num_slots)] * F2.num_slots)


@given(st.dictionaries(st.one_of(wide_monos, st.tuples(*[st.integers(0, 3)] * F2.num_slots)),
                       st.integers(-3, 3), max_size=6))
@example({(MAX_DEGREE // 5,) * 5: 1, (0,) * 5: 2})
@example({(MAX_DEGREE, 0, 0, 0, 0): 1, (0, 0, 0, 0, MAX_DEGREE): -1})
def test_term_degrees_match_the_unpacked_sums(terms):
    p = Poly(F2, terms)
    degrees = poly._degrees(p)
    assert degrees == ref_degrees(p)
    assert p.degree() == max(degrees, default=-1)
    assert p.is_homogeneous() == (len(set(degrees)) <= 1)
    assert sorted(p.homogeneous_parts()) == sorted(set(degrees))


def test_degree_at_the_limit_is_read_off_a_zero_residue():
    z, zb = zvar("z"), zbar("z")
    for top in (z ** MAX_DEGREE, z ** 65000 * zb ** 535, Poly(F2, {(1, 0, 2, 0, MAX_DEGREE - 3): 5})):
        assert next(iter(top.nums)) % MAX_DEGREE == 0
        assert top.degree() == MAX_DEGREE
        assert top.is_homogeneous()
        assert list(top.homogeneous_parts()) == [MAX_DEGREE]
        assert (top + top * I).homogeneous_parts() == {MAX_DEGREE: top * (1 + I)}
        mixed_degrees = top + zvar("u") + 1
        assert not mixed_degrees.is_homogeneous()
        assert mixed_degrees.homogeneous_parts() == {0: Poly.constant(F2, 1), 1: zvar("u"),
                                                     MAX_DEGREE: top}


def test_products_over_the_budget_raise_before_multiplying(monkeypatch):
    p = zvar("z") + zvar("u") + 1  # three terms
    monkeypatch.setattr(poly, "PRODUCT_LIMIT", 9)
    q = p * p  # 3 x 3 = 9 term products: at the limit
    assert q.terms == ref_mul(p, p).terms and len(q.terms) == 6
    monkeypatch.setattr(poly, "_gauss_mul", None)  # any product would fail
    with pytest.raises(ValueError, match="product needs 18 term products, over the limit of 9"):
        p * q
    with pytest.raises(ValueError, match="product needs 36 term products"):
        q ** 2
    monkeypatch.setattr(poly, "PRODUCT_LIMIT", 2)
    with pytest.raises(ValueError, match="substitution needs 9 term products"):
        q.substitute(F2, {s: p for s in range(F2.num_slots)})


# -- Gaussian-integer substitution against the term-by-term reference -------
#
# Substitution expands over integer numerators with packed monomials; the
# result must be term for term what the reference arithmetic gives.

DST = VariableFrame(("w",), ("s", "r"))

# real and imaginary parts over distinct denominators, so terms and
# images mix denominators
mixed = st.builds(lambda a, b, d, e: scalar(Fraction(a, d), Fraction(b, e)),
                  st.integers(-9, 9), st.integers(-9, 9),
                  st.sampled_from([1, 2, 3, 5, 12]), st.sampled_from([1, 2, 7]))


def mixed_polys(frame, max_exp, max_size=5):
    monos = st.tuples(*[st.integers(0, max_exp)] * frame.num_slots)
    return st.dictionaries(monos, mixed, max_size=max_size).map(lambda t: Poly(frame, t))


# constant (and zero) images next to inhomogeneous ones
images_st = st.lists(st.one_of(mixed_polys(DST, 0, 1), mixed_polys(DST, 2, 4)),
                     min_size=F2.num_slots, max_size=F2.num_slots)


@given(mixed_polys(F2, 3), images_st)
def test_substitute_matches_poly_reference(p, imgs):
    images = dict(enumerate(imgs))
    assert p.substitute(DST, images).terms == ref_substitute(p, DST, images).terms


@given(mixed_polys(F2, 2), images_st, st.integers(0, F2.num_slots - 1))
def test_substitute_missing_image(p, imgs, slot):
    images = dict(enumerate(imgs))
    del images[slot]
    if p.uses_slot(slot):
        with pytest.raises(KeyError):
            p.substitute(DST, images)
        with pytest.raises(KeyError):
            ref_substitute(p, DST, images)
    else:
        assert p.substitute(DST, images).terms == ref_substitute(p, DST, images).terms


def test_substitute_rejects_image_on_another_frame():
    images = {s: Poly.constant(DST, 1) for s in range(F2.num_slots)}
    images[0] = Poly.variable(F2, "z")
    with pytest.raises(FrameMismatch):
        zvar("z").substitute(DST, images)


# -- the slot-pair codec for quadratic forms ---------------------------------
#
# quadratic_from_numerators (through the scalar quadratic oracle) builds
# sum c slot_s slot_u straight into packed storage; it must store exactly
# what the ring operations store for the same sum, and
# quadratic_numerators (through the quadratic_pairs oracle) must read the
# pairs back.

def slot_polys(frame):
    "Slot s of the frame as a polynomial, in slot order."
    out = []
    for name in frame.complex_names:
        out += [Poly.variable(frame, name), Poly.conj_variable(frame, name)]
    return out + [Poly.variable(frame, name) for name in frame.real_names]


def ring_quadratic(frame, pairs):
    slots = slot_polys(frame)
    out = Poly.zero(frame)
    for (s, u), c in pairs.items():
        out = out + c * slots[s] * slots[u]
    return out


def storage(p):
    return p.frame, p.den, p.nums


def test_quadratic_diagonal_merged_and_real_slots():
    z, zb, u, ub, t = slot_polys(F2)
    c = scalar(Fraction(2, 3), -1)
    assert storage(quadratic(F2, {(0, 0): c})) == storage(c * z * z)
    # (s, u) and (u, s) add up
    q = quadratic(F2, {(0, 2): Fraction(1, 2), (2, 0): I, (1, 1): 3})
    assert storage(q) == storage((Fraction(1, 2) + I) * z * u + 3 * zb * zb)
    # real slots, on their own and paired with complex ones
    q = quadratic(F2, {(4, 4): Fraction(1, 4), (3, 4): -I, (4, 0): 2})
    assert storage(q) == storage(Fraction(1, 4) * t * t - I * ub * t + 2 * z * t)
    real = VariableFrame((), ("x", "y"))
    x, y = slot_polys(real)
    assert storage(quadratic(real, {(0, 1): 6, (1, 0): -4, (1, 1): 1})) == \
        storage(2 * x * y + y * y)
    assert quadratic_pairs(2 * x * y + y * y) == {(0, 1): scalar(2), (1, 1): ONE}


def test_quadratic_cancellation_and_empty():
    zero = storage(Poly.zero(F2))
    assert storage(quadratic(F2, {})) == zero
    assert storage(quadratic(F2, {(0, 1): Fraction(1, 3), (1, 0): Fraction(-1, 3)})) == zero
    assert storage(quadratic(F2, {(2, 2): 0})) == zero
    # a partial cancellation leaves the content divided out
    q = quadratic(F2, {(0, 1): Fraction(1, 6), (1, 0): Fraction(1, 3), (2, 3): Fraction(1, 2),
                            (3, 2): Fraction(-1, 2)})
    assert storage(q) == storage(Fraction(1, 2) * zvar("z") * zbar("z"))
    assert quadratic_pairs(Poly.zero(F2)) == {}


def test_quadratic_rejects_bad_input():
    with pytest.raises(ValueError):
        quadratic(F2, {(0, F2.num_slots): 1})
    with pytest.raises(ValueError):
        quadratic(F2, {(-1, 0): 1})
    with pytest.raises(TypeError):
        quadratic(F2, {(0, 0): 0.5})
    for p in (zvar("z"), zvar("z") ** 3, zvar("z") ** 2 + 1, Poly.constant(F2, 2)):
        with pytest.raises(ValueError):
            quadratic_pairs(p)


pair_dicts = st.dictionaries(st.tuples(st.integers(0, F2.num_slots - 1),
                                       st.integers(0, F2.num_slots - 1)),
                             st.one_of(coeffs, fractional), max_size=8)


@given(pair_dicts)
def test_quadratic_matches_ring_sum_and_reads_back(pairs):
    q = quadratic(F2, pairs)
    assert storage(q) == storage(ring_quadratic(F2, pairs))
    back = quadratic_pairs(q)
    assert all(s <= u and c for (s, u), c in back.items())
    assert storage(quadratic(F2, back)) == storage(q)
    assert storage(poly.quadratic_from_numerators(F2, *poly.quadratic_numerators(q))) == storage(q)


# wide coefficients, whose float parts are rounded from long integers
wide = st.builds(lambda a, b, d: scalar(Fraction(a, d), Fraction(b, d)),
                 st.integers(-2 ** 80, 2 ** 80), st.integers(-2 ** 80, 2 ** 80),
                 st.integers(1, 3 ** 50))
exact_values = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=7), fractional)
float_values = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


@given(st.dictionaries(monos, st.one_of(coeffs, fractional, wide), max_size=6).map(
           lambda t: Poly(F2, t)),
       st.tuples(exact_values, exact_values, st.fractions(-3, 3, max_denominator=7)),
       st.tuples(float_values, float_values, st.floats(-4, 4)))
def test_evaluation_from_numerators_matches_the_term_view(p, exact, numeric):
    point = dict(zip(("z", "u", "t"), exact))
    assert p.evaluate(point) == ref_evaluate(p, point, False)
    point = dict(zip(("z", "u", "t"), numeric))
    got, want = p.evaluate_float(point), ref_evaluate(p, point, True)
    assert repr(got) == repr(want)  # the same floats, signed zeros included
