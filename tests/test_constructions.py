"""Tests for component pairing, defects, gluing, augmenting, span
comparison and the quaternion families."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eigenforge import poly
from eigenforge.scalars import GaussRational, ZERO, scalar
from eigenforge.frames import VariableFrame
from eigenforge.poly import Poly, FrameMismatch, real_gradient
from eigenforge.parser import parse_poly
from eigenforge.conformality import kappa, laplacian, verify_flat_family
from eigenforge.linalg import Matrix, RealSubspace, cayley_orthogonal
from eigenforge.holomorphy import (apply_real_isometry, is_axis,
                                   is_uniformly_complex_type, maximal_axis)
from eigenforge.degree2 import to_form
from eigenforge.constructions import (RealMap, verify_rn_hm, pair_components,
                                      complex_defect, defect_family, glue,
                                      augment, span_equal, congruent_under,
                                      quaternion_product,
                                      quaternion_multiplication_family,
                                      quaternion_triple_family)

from oracles import axis_polynomials, ref_defect_family, ref_span_equal, ref_verify_rn_hm

C4 = VariableFrame(("z", "u", "v", "w"))


def quartet_family():
    "The four-parameter cubic family on C^4, one generator per parameter."
    return [parse_poly(s, C4) for s in (
        "z^2*w + z*u*conj(v)",
        "z*u*conj(w) - z^2*v",
        "u^2*conj(v) + z*u*w",
        "u^2*conj(w) - z*u*v",
    )]


def quartic_product():
    return parse_poly("z^2*v*w - u^2*conj(v*w) + z*u*(v*conj(v) - w*conj(w))", C4)


def exact_point(rng, frame, span=3, den=5):
    pt = {}
    for name in frame.complex_names:
        pt[name] = GaussRational(Fraction(rng.randint(-span, span), rng.randint(1, den)),
                                 Fraction(rng.randint(-span, span), rng.randint(1, den)))
    for name in frame.real_names:
        pt[name] = Fraction(rng.randint(-span, span), rng.randint(1, den))
    return pt


def rand_rational_rotation(rng, m):
    S = [[Fraction(0)] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            S[a][b] = c
            S[b][a] = -c
    return cayley_orthogonal(Matrix(S))


# -- RealMap and component pairing -----------------------------------


def test_real_map_rejects_complex_valued_component():
    fr = VariableFrame(("z",))
    with pytest.raises(ValueError):
        RealMap(fr, [parse_poly("z", fr)])
    with pytest.raises(FrameMismatch):
        RealMap(fr, [parse_poly("t", VariableFrame((), ("t",)))])
    m = RealMap(fr, [parse_poly("z*conj(z)", fr)])
    assert m.n == 1


def test_identity_plane_is_harmonic_morphism():
    fr = VariableFrame((), ("x", "y"))
    P = RealMap(fr, [parse_poly("x", fr), parse_poly("y", fr)])
    assert verify_rn_hm(P)
    fam = pair_components(P)
    assert fam == [parse_poly("x + i*y", fr)]


def test_unequal_gradient_lengths_fail():
    # kappa(x^2 + i y, same) = 4x^2 - 1, not zero
    fr = VariableFrame((), ("x", "y"))
    P = RealMap(fr, [parse_poly("x^2", fr), parse_poly("y", fr)])
    f = parse_poly("x^2 + i*y", fr)
    assert kappa(f, f) == parse_poly("4*x^2 - 1", fr)
    assert not verify_rn_hm(P)
    with pytest.raises(ValueError):
        pair_components(P)


def test_single_component_rejected():
    fr = VariableFrame((), ("x", "y"))
    with pytest.raises(ValueError):
        verify_rn_hm(RealMap(fr, [parse_poly("x", fr)]))


def test_odd_component_count_drops_the_last():
    # cone over the classical fibration C^2 -> R^3
    fr = VariableFrame(("z", "u"))
    comps = [parse_poly("z*conj(z) - u*conj(u)", fr),
             parse_poly("z*conj(u) + conj(z)*u", fr),
             parse_poly("-i*(z*conj(u) - conj(z)*u)", fr)]
    P = RealMap(fr, comps)
    assert verify_rn_hm(P)
    fam = pair_components(P)
    assert len(fam) == 1
    assert fam[0] == comps[0] + scalar(0, 1) * comps[1]
    assert verify_flat_family(fam).verdict


def test_from_complex_round_trips_through_pairing():
    fs = quaternion_multiplication_family()
    P = RealMap.from_complex(fs)
    assert P.n == 4
    for p in P.components:
        assert p.is_real_valued()
    assert verify_rn_hm(P)
    assert pair_components(P) == fs


def test_eigenfamily_need_not_come_from_a_real_morphism():
    # pairing is one way: the family only constrains kappa(F_i, F_j),
    # never kappa(F_i, conj(F_j)), so the interleaved real map of a
    # perfectly good eigenfamily can fail horizontal conformality.
    fs = quartet_family()
    assert verify_flat_family(fs).verdict
    assert not verify_rn_hm(RealMap.from_complex(fs))


def random_real_map(rng, kind):
    """A RealMap and whether it is a harmonic morphism: Re and Im of a random
    holomorphic f on C^2, or the four components of quaternion multiplication
    mixed by a rational rotation of R^4, both harmonic morphisms.  For the first
    two coordinates z and u, kind "mixed" adds z conj(u) + conj(z) u to one
    component (harmonic, not conformal), "nonharmonic" adds z conj(z) and
    "skew" doubles it."""
    if rng.random() < 0.5:
        fr = VariableFrame(("z", "u"))
        f = sum((scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-3, 3))
                 * parse_poly(rng.choice(["z", "u", "z^2", "z*u", "u^3", "z^2*u"]), fr)
                 for _ in range(rng.randint(1, 4))), Poly.zero(fr))
        f = f + parse_poly("z*u", fr)  # never constant
        comps = list(RealMap.from_complex([f]).components)
    else:
        base = RealMap.from_complex(quaternion_multiplication_family()).components
        fr, O = base[0].frame, rand_rational_rotation(rng, 4)
        comps = [sum((O[a, b] * base[b] for b in range(4)), Poly.zero(fr)) for a in range(4)]
    j = rng.randrange(len(comps))
    z, u = fr.complex_names[:2]
    extra = {"mixed": f"{z}*conj({u}) + conj({z})*{u}", "nonharmonic": f"{z}*conj({z})"}.get(kind)
    if extra:
        comps[j] = comps[j] + parse_poly(extra, fr)
    elif kind == "skew":
        comps[j] = scalar(2) * comps[j]
    return RealMap(fr, comps), kind == "morphism"


@pytest.mark.parametrize("seed", range(24))
def test_harmonic_morphism_test_matches_the_pairwise_reference(seed):
    kind = ("morphism", "mixed", "morphism", "nonharmonic", "morphism", "skew")[seed % 6]
    P, morphism = random_real_map(random.Random(seed), kind)
    assert verify_rn_hm(P) == ref_verify_rn_hm(P) == morphism


def test_nonharmonic_map_fails_before_any_bracket(monkeypatch):
    P, _ = random_real_map(random.Random(3), "nonharmonic")
    monkeypatch.setattr(poly, "PRODUCT_LIMIT", 0)  # any bracket would raise
    assert not verify_rn_hm(P)


# -- complex defects --------------------------------------------------


def test_defect_of_degree2_is_4xA2y():
    rng = random.Random(11)
    fr = VariableFrame(("z",), ("s", "t"))
    axes = axis_polynomials(fr)
    for _ in range(25):
        A = Matrix([[scalar(rng.randint(-2, 2), rng.randint(-2, 2))
                     for _ in range(fr.m)] for _ in range(fr.m)])
        A = A + A.transpose()
        p = Poly.zero(fr)
        for a in range(fr.m):
            for b in range(fr.m):
                if A[a, b]:
                    p = p + A[a, b] * axes[a] * axes[b]
        assert to_form(p).A == A
        y = exact_point(rng, fr)
        yvals = [ax.evaluate(y) for ax in axes]
        A2 = A * A
        expect = Poly.zero(fr)
        for a in range(fr.m):
            c = sum((A2[a, b] * yvals[b] for b in range(fr.m)), scalar(0))
            expect = expect + scalar(4) * c * axes[a]
        assert complex_defect(p, y) == expect


def test_defect_of_holomorphic_vanishes():
    rng = random.Random(12)
    f = parse_poly("z^3 + (2+i)*z*u^2 - u^3", C4)
    assert defect_family(f) == []
    for _ in range(5):
        y = exact_point(rng, C4)
        assert complex_defect(f, y) == 0


def test_defect_family_spans_sampled_defects():
    rng = random.Random(13)
    F = quartic_product()
    fam = defect_family(F)
    for _ in range(10):
        y = exact_point(rng, C4)
        d = complex_defect(F, y)
        assert span_equal(fam, fam + [d])


# rational and Gaussian coefficients over several denominators, so the
# gradient components carry different denominators
_defect_coeffs = st.builds(lambda a, b, d, e: scalar(Fraction(a, d), Fraction(b, e)),
                           st.integers(-9, 9), st.integers(-9, 9),
                           st.sampled_from([1, 2, 3, 12]), st.sampled_from([1, 5, 7]))


@st.composite
def defect_inputs(draw):
    frame = draw(st.sampled_from([C4, VariableFrame(("z",), ("t",)),
                                  VariableFrame((), ("s", "t"))]))
    monos = st.tuples(*[st.integers(0, 3)] * frame.num_slots).filter(lambda t: sum(t) <= 4)
    return Poly(frame, draw(st.dictionaries(monos, _defect_coeffs, max_size=5)))


@settings(max_examples=150, deadline=None)
@given(defect_inputs())
def test_defect_family_matches_term_view_reference(F):
    # the same members in the same (mono_order_key) order as the term-view build
    assert defect_family(F) == ref_defect_family(F)


def test_quartic_defects_span_the_cubic_quartet():
    F = quartic_product()
    assert verify_flat_family([F]).verdict
    fam = defect_family(F)
    assert verify_flat_family(fam).verdict
    quartet = quartet_family()
    assert span_equal(fam, quartet)


def test_degree3_defects_are_degree2_conformal():
    rng = random.Random(14)
    members = quartet_family() + quaternion_triple_family()
    for F in members:
        assert laplacian(F) == 0 and kappa(F, F) == 0
        for _ in range(4):
            y = exact_point(rng, F.frame)
            d = complex_defect(F, y)
            if d == 0:
                continue
            assert d.degree() == 2 and d.is_homogeneous()
            assert laplacian(d) == 0
            assert kappa(d, d) == 0


# -- gluing -----------------------------------------------------------


def glued_pair_inputs():
    f1 = VariableFrame(("z", "u", "v1", "w1"))
    f2 = VariableFrame(("z", "u", "v2", "w2"))
    fs = [parse_poly("z*v1 + u*w1", f1), parse_poly("z*conj(w1) - u*conj(v1)", f1)]
    gs = [parse_poly("z*v2 + u*w2", f2), parse_poly("z*conj(w2) - u*conj(v2)", f2)]
    return fs, gs


def test_glue_two_copies_of_the_pair():
    fs, gs = glued_pair_inputs()
    glued = glue(fs, gs)
    assert len(glued) == 4
    joint = glued[0].frame
    assert joint.complex_names == ("z", "u", "v1", "w1", "v2", "w2")
    assert verify_flat_family(glued).verdict
    # the shared C^2 block stays an axis of the glued family
    plane = RealSubspace(joint.m, [[1 if a == b else 0 for a in range(joint.m)]
                                   for b in range(4)])
    assert is_axis(glued, plane)
    assert maximal_axis(glued).certified_dim >= 4


def test_glue_needs_holomorphy_along_shared_names():
    pair = [parse_poly("z*v + u*w", C4), parse_poly("z*conj(w) - u*conj(v)", C4)]
    with pytest.raises(ValueError):
        glue(pair, pair)


def test_glue_rejects_overlapping_real_names():
    a = VariableFrame(("z",), ("t",))
    b = VariableFrame(("z",), ("t",))
    with pytest.raises(ValueError):
        glue([parse_poly("z", a)], [parse_poly("z", b)])
    c = VariableFrame(("z", "t"))
    with pytest.raises(ValueError):
        glue([parse_poly("z", a)], [parse_poly("z", c)])


def test_glue_rejects_non_eigenfamily():
    fr = VariableFrame(("z",))
    other = VariableFrame(("z", "q"))
    with pytest.raises(ValueError):
        glue([parse_poly("z*conj(z)", fr)], [parse_poly("z*q", other)])


# each refusal, from the call to its exact message
NOT_FLAT = parse_poly("u*conj(u)", VariableFrame(("u",)))
FLAT = parse_poly("w^2", VariableFrame(("w",)))
REFUSALS = [
    (lambda: glue([], [FLAT]), "glue needs two nonempty families"),
    (lambda: glue([FLAT], []), "glue needs two nonempty families"),
    (lambda: glue([parse_poly("q", VariableFrame(("q",)))],
                  [parse_poly("q", VariableFrame((), ("q",)))]),
     "'q' is complex on one side and real on the other"),
    (lambda: glue([NOT_FLAT], [FLAT]), "left family is not a flat eigenfamily"),
    (lambda: glue([FLAT], [NOT_FLAT]), "right family is not a flat eigenfamily"),
    (lambda: augment([], [FLAT]), "need a nonempty base family"),
    (lambda: augment([NOT_FLAT], []), "base family is not a flat eigenfamily"),
    (lambda: congruent_under([], [FLAT], Matrix.identity(2)),
     "congruence needs two nonempty families"),
    (lambda: RealMap.from_complex([]), "need at least one complex component"),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_construction_refusals(call, message):
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == message


def test_glue_with_holomorphic_only_side_matches_augment():
    quartet = quartet_family()
    small = VariableFrame(("z", "u"))
    gs = [parse_poly("z^3 - u^3", small)]
    assert glue(quartet, gs) == augment(quartet, gs)


# -- augmenting -------------------------------------------------------


def test_augment_with_cubics_in_the_holomorphic_block():
    quartet = quartet_family()
    small = VariableFrame(("z", "u"))
    cubes = [parse_poly(s, small) for s in ("z^3", "z^2*u", "z*u^2", "u^3")]
    out = augment(quartet, cubes)
    assert len(out) == 8
    assert verify_flat_family(out).verdict
    assert all(f.degree() == 3 for f in out)


def test_augment_empty_addition_is_identity():
    quartet = quartet_family()
    assert augment(quartet, []) == quartet


def test_augment_rejects_bad_additions():
    quartet = quartet_family()
    small = VariableFrame(("z", "u"))
    with pytest.raises(ValueError):
        augment(quartet, [parse_poly("conj(z)*z^2", small)])
    with pytest.raises(ValueError):
        augment(quartet, [parse_poly("v^3", C4)])
    mixed = VariableFrame(("z",), ("t",))
    with pytest.raises(ValueError):
        augment(quartet, [parse_poly("z*t", mixed)])
    with pytest.raises(FrameMismatch):
        augment(quartet, [parse_poly("q^2", VariableFrame(("q",)))])


# -- span comparison and congruence ----------------------------------


def test_span_equal_basics():
    fr = VariableFrame(("z", "u"))
    z = parse_poly("z", fr)
    u = parse_poly("u", fr)
    assert span_equal([z], [parse_poly("(2+i)*z", fr)])
    assert span_equal([z, u], [z + u, z - u])
    assert not span_equal([z], [z, u])
    assert not span_equal([z], [u])
    assert span_equal([], [Poly.zero(fr)])
    with pytest.raises(FrameMismatch):
        span_equal([z], [parse_poly("q", VariableFrame(("q",)))])


def test_span_equal_is_an_equivalence():
    fams = [quartet_family(),
            [sum(quartet_family(), Poly.zero(C4))],
            defect_family(quartic_product())]
    for fs in fams:
        assert span_equal(fs, fs)
    for fs in fams:
        for gs in fams:
            assert span_equal(fs, gs) == span_equal(gs, fs)
    a, b, c = fams
    if span_equal(a, b) and span_equal(b, c):
        assert span_equal(a, c)
    assert span_equal(a, c)


SPAN_FRAMES = [VariableFrame(("z",)), VariableFrame(("z", "u")), VariableFrame(("z",), ("t",)),
               VariableFrame((), ("s", "t"))]

small_coeff = st.builds(lambda a, b, d, e: scalar(Fraction(a, d), Fraction(b, e)),
                        st.integers(-9, 9), st.integers(-9, 9),
                        st.sampled_from([1, 2, 3, 12]), st.sampled_from([1, 5, 7]))
# nonzero, with large and distinct denominators
large_coeff = st.builds(lambda a, b, d, e: scalar(Fraction(a, d), Fraction(b, e)),
                        st.integers(1, 10 ** 12), st.integers(-10 ** 12, 10 ** 12),
                        st.integers(1, 10 ** 15), st.integers(1, 10 ** 15))


@st.composite
def span_pairs(draw):
    """(fs, gs): gs holds scaled members and combinations of fs, zero
    members and unrelated polys, so both equal and unequal spans occur."""
    frame = draw(st.sampled_from(SPAN_FRAMES))
    monos = st.tuples(*[st.integers(0, 2)] * frame.num_slots).filter(lambda t: sum(t) <= 3)
    member = st.dictionaries(monos, small_coeff, max_size=4).map(lambda t: Poly(frame, t))
    fs = draw(st.lists(member, max_size=4))
    gs = [draw(large_coeff) * f for f in fs if draw(st.booleans())]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["combination", "zero", "other"]))
        if kind == "combination":
            gs.append(sum((draw(st.one_of(st.just(ZERO), large_coeff)) * f for f in fs),
                          Poly.zero(frame)))
        elif kind == "zero":
            gs.append(Poly.zero(frame))
        else:
            gs.append(draw(member))
    if fs and draw(st.booleans()):
        fs.append(fs[-1] * draw(large_coeff) + fs[0])  # a dependent member
    return draw(st.permutations(fs)), draw(st.permutations(gs))


@settings(max_examples=200, deadline=None)
@given(span_pairs())
def test_span_equal_matches_reference(case):
    fs, gs = case
    assert span_equal(fs, gs) == ref_span_equal(fs, gs)
    assert span_equal(gs, fs) == ref_span_equal(gs, fs)
    assert span_equal(fs, fs + gs) == ref_span_equal(fs, fs + gs)
    assert span_equal(fs, [g for g in gs if g] + fs) == ref_span_equal(fs, [g for g in gs if g] + fs)


def test_congruent_under_rotation():
    rng = random.Random(15)
    quartet = quartet_family()
    assert congruent_under(quartet, quartet, Matrix.identity(C4.m))
    for _ in range(3):
        phi = rand_rational_rotation(rng, C4.m)
        moved = [apply_real_isometry(g, phi.transpose(), C4) for g in quartet]
        assert verify_flat_family(moved).verdict
        assert congruent_under(moved, quartet, phi)
        assert congruent_under(quartet, moved, phi.transpose())


def test_orthogonality_check_runs_once_across_transposes(monkeypatch):
    # for a square Q, Q Q^T = I exactly when Q^T Q = I, so Q and its
    # transposes share one check, whichever is made first, and
    # congruent_under does not redo it on phi^T
    quartet = quartet_family()
    rotation = rand_rational_rotation(random.Random(3), C4.m)
    phi = rotation.transpose()  # made before the check, as bench/workloads.py's rotated ops do
    moved = [apply_real_isometry(g, rotation, C4) for g in quartet]
    products = []
    original = Matrix.__mul__

    def counted(A, B):
        products.append((A, B))
        return original(A, B)
    monkeypatch.setattr(Matrix, "__mul__", counted)
    assert phi.is_orthogonal() and phi.transpose().transpose().is_orthogonal()
    assert congruent_under(moved, quartet, phi)
    assert congruent_under(quartet, moved, rotation)
    assert not products
    # a rejected matrix stays rejected, with the same message, across transposes
    sheared = Matrix([[scalar(1) if a == b or (a, b) == (0, 1) else scalar(0)
                       for b in range(C4.m)] for a in range(C4.m)])
    for M in (sheared, sheared.transpose(), sheared.transpose().transpose()):
        for _ in range(2):
            with pytest.raises(ValueError, match="matrix rows are not orthonormal"):
                congruent_under(quartet, quartet, M)
            with pytest.raises(ValueError, match="matrix rows are not orthonormal"):
                apply_real_isometry(quartet[0], M.transpose(), C4)
    assert not sheared.is_orthogonal() and not sheared.transpose().is_orthogonal()


def test_congruent_under_rejects_bad_matrices():
    quartet = quartet_family()
    with pytest.raises(ValueError):
        congruent_under(quartet, quartet, Matrix.identity(C4.m).scale(scalar(2)))
    J = Matrix([[scalar(0, 1) if a == b else scalar(0) for a in range(C4.m)]
                for b in range(C4.m)])
    with pytest.raises(ValueError):
        congruent_under(quartet, quartet, J)


def test_congruent_under_rejects_what_the_pull_back_rejects():
    # a multi-member family reports the first bad property, as one
    # apply_real_isometry call per member did
    quartet = quartet_family()
    m = C4.m
    eye = Matrix.identity(m)
    J = Matrix([[scalar(0, 1) if a == b else scalar(0) for a in range(m)] for b in range(m)])
    sheared = Matrix([[scalar(1) if a == b or (a, b) == (0, 1) else scalar(0) for b in range(m)]
                      for a in range(m)])
    for phi, message in ((J, "isometry entries must be real"),
                         (eye.scale(scalar(2)), "matrix rows are not orthonormal"),
                         (sheared, "matrix rows are not orthonormal"),
                         (Matrix.identity(m - 1), "isometry shape does not match the frames"),
                         (Matrix([[scalar(1)] * (m + 1)] * m), "isometry shape does not match")):
        with pytest.raises(ValueError, match=message):
            congruent_under(quartet, quartet, phi)
        with pytest.raises(ValueError, match=message):
            apply_real_isometry(quartet[0], phi.transpose(), C4)


# -- quaternions ------------------------------------------------------


def rand_quaternion(rng):
    return (scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                   Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
            scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                   Fraction(rng.randint(-4, 4), rng.randint(1, 3))))


def test_quaternion_table_associativity_and_norm():
    rng = random.Random(16)
    one = (scalar(1), scalar(0))
    for _ in range(50):
        p = rand_quaternion(rng)
        q = rand_quaternion(rng)
        r = rand_quaternion(rng)
        assert quaternion_product(quaternion_product(p, q), r) \
            == quaternion_product(p, quaternion_product(q, r))
        a, b = quaternion_product(p, q)
        assert a.norm2() + b.norm2() \
            == (p[0].norm2() + p[1].norm2()) * (q[0].norm2() + q[1].norm2())
        assert quaternion_product(p, one) == p
        assert quaternion_product(one, p) == p
    # j * i = -i * j
    i = (scalar(0, 1), scalar(0))
    j = (scalar(0), scalar(1))
    assert quaternion_product(j, i) == (scalar(0), scalar(0, -1))
    assert quaternion_product(i, j) == (scalar(0), scalar(0, 1))


def test_multiplication_family_on_two_factors():
    fam = quaternion_multiplication_family()
    fr = fam[0].frame
    assert fam == [parse_poly("z1*w1 - z2*conj(w2)", fr),
                   parse_poly("z1*w2 + z2*conj(w1)", fr)]
    assert verify_flat_family(fam).verdict
    ok, _ = is_uniformly_complex_type(fam)
    assert not ok


def test_triple_product_family():
    fam = quaternion_triple_family()
    fr = fam[0].frame
    expect = [
        parse_poly("z1*(u1*w1 - u2*conj(w2)) - z2*(conj(u1*w2) + conj(u2)*w1)", fr),
        parse_poly("z1*(u1*w2 + u2*conj(w1)) + z2*(conj(u1*w1) - conj(u2)*w2)", fr),
    ]
    assert fam == expect
    assert verify_flat_family(fam).verdict
    assert all(f.degree() == 3 and f.is_homogeneous() for f in fam)
    P = RealMap.from_complex(fam)
    assert pair_components(P) == fam
