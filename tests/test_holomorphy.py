"""Gradient spans, complex type witnesses, axes of holomorphy, and the
maximal axis search."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import eigenforge

from eigenforge.frames import VariableFrame
from eigenforge.poly import Poly, real_gradient
from eigenforge.scalars import GaussRational, ZERO, ONE, scalar
from eigenforge.linalg import (
    ComplexSubspace,
    Matrix,
    RealSubspace,
    _gram_orthogonal,
    cayley_orthogonal,
    vec,
)
from eigenforge.conformality import kappa, laplacian, verify_flat_family
from eigenforge.holomorphy import (
    AxisReport,
    _isotropic_parts,
    _pull_back,
    apply_real_isometry,
    gradient_span,
    is_axis,
    is_uniformly_complex_type,
    maximal_axis,
    span_is_axis,
    separable_check,
)

from oracles import (dot_bilinear, rational_point, ref_apply_real_isometry, ref_gradient_span,
                     ref_hermitian_complement_within, ref_isotropic_annihilator_seeds,
                     ref_maximal_axis, ref_real_points, ref_span_is_axis, ref_sum,
                     ref_witness_j_squared)

C1 = VariableFrame(("z",), ())
C2 = VariableFrame(("z", "u"), ())


def gr(a, b=0):
    return GaussRational(Fraction(a), Fraction(b))


def test_gradient_span_examples():
    z = Poly.variable(C1, "z")
    W = gradient_span([z])
    assert W.dim == 1
    assert W.contains(vec([gr(1), gr(0, 1)]))
    W2 = gradient_span([z * z.conjugate()])
    assert W2.dim == 2
    zz = Poly.variable(C2, "z")
    uu = Poly.variable(C2, "u")
    assert gradient_span([zz * uu]).dim == 2
    assert gradient_span([Poly.zero(C1)]).dim == 0
    with pytest.raises(ValueError):
        gradient_span([])


# frames with real slots, and polys whose coefficients mix denominators
SPAN_FRAMES = [VariableFrame(("z",), ()), C2, VariableFrame((), ("s", "t")),
               VariableFrame(("z",), ("t",)), VariableFrame(("z", "u"), ("t",))]

span_coeff = st.builds(lambda a, b, d, e: scalar(Fraction(a, d), Fraction(b, e)),
                       st.integers(-9, 9), st.integers(-9, 9),
                       st.sampled_from([1, 2, 3, 12, 10 ** 9 + 7]), st.sampled_from([1, 5, 7]))


@st.composite
def span_families(draw):
    frame = draw(st.sampled_from(SPAN_FRAMES))
    monos = st.tuples(*[st.integers(0, 2)] * frame.num_slots).filter(lambda t: sum(t) <= 3)
    member = st.dictionaries(monos, span_coeff, max_size=5).map(lambda t: Poly(frame, t))
    fs = draw(st.lists(member, min_size=1, max_size=3))
    if draw(st.booleans()):
        fs.append(fs[0] * draw(span_coeff) + Poly.zero(frame))  # a dependent member
    return fs


@settings(max_examples=120, deadline=None)
@given(span_families())
def test_gradient_span_basis_is_the_references(fs):
    W, ref = gradient_span(fs), ref_gradient_span(fs)
    assert type(W) is ComplexSubspace
    assert (W.ambient, W.basis) == (ref.ambient, ref.basis)


def test_complex_type_holomorphic_true():
    z = Poly.variable(C2, "z")
    u = Poly.variable(C2, "u")
    flag, witness = is_uniformly_complex_type([z * u])
    assert flag
    witness.check()
    # J fixes the gradient span as multiplication by -i
    W = gradient_span([z * u])
    minus_i = gr(0, -1)
    for g in W.basis:
        assert witness.J.apply(g) == tuple(minus_i * x for x in g)


def test_complex_type_mixed_false():
    z = Poly.variable(C1, "z")
    flag, witness = is_uniformly_complex_type([z * z.conjugate()])
    assert not flag
    assert witness is None


def test_complex_type_witness_from_fractional_pairs():
    # J x = y for x = (1/2, 0), y = (0, 1/2): rows x / |x|^2 read the Gram denominator
    from eigenforge.holomorphy import ComplexTypeWitness
    half = Fraction(1, 2)
    w = ComplexTypeWitness(2, [((half, 0), (0, half))])
    assert w.J == Matrix([[ZERO, -ONE], [ONE, ZERO]])
    assert w.check()


def test_complex_type_witness_rotates_differentials():
    # dF(Jv) = i dF(v) for every direction v, checked at random points
    rng = random.Random(17)
    z = Poly.variable(C2, "z")
    u = Poly.variable(C2, "u")
    F = z * z * u + 2 * z * u * u
    flag, witness = is_uniformly_complex_type([F])
    assert flag
    Jf = witness.J.to_float()
    m = C2.m
    for _ in range(20):
        point = rational_point(rng, C2)
        grad = [c.evaluate_float(point) for c in real_gradient(F)]
        for _ in range(3):
            v = [rng.uniform(-1, 1) for _ in range(m)]
            jv = Jf.real @ v
            lhs = sum(g * x for g, x in zip(grad, jv))
            rhs = 1j * sum(g * x for g, x in zip(grad, v))
            assert abs(lhs - rhs) < 1e-9


def test_complex_type_witness_squares_to_minus_the_plane_projector():
    # check() tests J^2 = -P_plane; it must equal -Id + P_ker, with kernel
    # dim (analyze's kernel_dim) m - plane_dim, from an empty plane span to
    # an empty kernel
    import test_degree2 as t2
    from eigenforge import catalog
    from eigenforge.degree2 import Deg2Form, from_form

    C2T = VariableFrame(("z", "u"), ("t",))
    R16 = VariableFrame((), tuple(f"s{j}" for j in range(16)))
    z = Poly.variable(C2T, "z")
    families = [fs for fs in (catalog.load_entry(name).polys for name in catalog.list_entries())
                if is_uniformly_complex_type(fs)[0]]
    assert len(families) == 1  # z1z2
    families += [[Poly.constant(C2, 3)], [z, 2 * z],
                 [from_form(Deg2Form(R16, A)) for A in t2.anticommuting_family(random.Random(5), 16)]]
    dims = []
    for fs in families:
        flag, witness = is_uniformly_complex_type(fs)
        assert flag and witness.check()
        assert witness.J * witness.J == ref_witness_j_squared(witness)
        kernel_dim = witness.plane_span.orthogonal_complement().dim
        assert witness.ambient - witness.plane_span.dim == kernel_dim
        dims.append((witness.plane_span.dim, kernel_dim))
    assert dims == [(4, 0), (0, 4), (2, 3), (6, 10)]


def worked_pair():
    frame = VariableFrame(("z", "u", "v", "w"), ())
    z = Poly.variable(frame, "z")
    u = Poly.variable(frame, "u")
    v = Poly.variable(frame, "v")
    w = Poly.variable(frame, "w")
    return z * v + u * w, z * w.conjugate() - u * v.conjugate()


def test_known_pair_not_uniformly_complex_but_members_are():
    F1, F2 = worked_pair()
    assert verify_flat_family([F1, F2]).verdict
    flag, _ = is_uniformly_complex_type([F1, F2])
    assert not flag
    assert is_uniformly_complex_type([F1])[0]
    assert is_uniformly_complex_type([F2])[0]


def test_is_axis_examples():
    F1, F2 = worked_pair()
    m = F1.frame.m
    e = lambda j: [ONE if a == j else ZERO for a in range(m)]
    zu_plane = RealSubspace(m, [e(0), e(1), e(2), e(3)])
    assert is_axis([F1, F2], zu_plane)
    # subspaces of an axis are axes
    assert is_axis([F1, F2], RealSubspace(m, [e(0), e(1)]))
    assert is_axis([F1, F2], RealSubspace(m, []))
    # the v-plane is not an axis for the pair
    assert not is_axis([F1, F2], RealSubspace(m, [e(4), e(5)]))
    # zero-dimensional and full-space checks on a mixed singleton
    z = Poly.variable(C1, "z")
    assert not is_axis([z * z.conjugate()], RealSubspace(2, [e(0)[:2]]))
    # a plain list of vectors is taken as a basis: it must be independent
    assert is_axis([F1, F2], [e(0), [Fraction(1, 2)] + e(1)[1:]])
    with pytest.raises(ValueError, match="dependent basis"):
        is_axis([F1, F2], [e(0), e(1), [2, 3] + [0] * (m - 2)])
    # floats and strings never reach an exact verdict
    for inexact in ([(0.5, 0.5)], [("1/2", "1/2")]):
        for check in (is_axis, lambda fs, V: separable_check(fs[0], V)):
            with pytest.raises(TypeError, match="bad vector entry"):
                check([z], inexact)


def test_span_is_axis_matches_the_projector_reference_in_every_dimension():
    # real V of every dimension 0..m: random ones, and a certified axis cut
    # down or filled up with random vectors, so both verdicts occur
    import test_degree2 as t2
    from eigenforge.degree2 import Deg2Form, from_form

    rng = random.Random(67)
    frame = VariableFrame((), tuple(f"s{j}" for j in range(6)))
    z, u = Poly.variable(C2, "z"), Poly.variable(C2, "u")
    # a rotated pair has axes whose RREF bases are not orthonormal
    pair = list(worked_pair())
    Q = t2.rand_cayley(rng, pair[0].frame.m)
    families = [[z * u], [z * u.conjugate() + u * u], pair, [Poly.zero(C2)],
                [apply_real_isometry(F, Q, F.frame) for F in pair],
                [from_form(Deg2Form(frame, A)) for A in t2.anticommuting_family(rng, 6)]]
    verdicts = set()
    for fs in families:
        W = gradient_span(fs)
        m = W.ambient
        axis = list(maximal_axis(fs, W=W).certified_axis.basis)
        for d in range(m + 1):
            for start in ([], axis[:d]):
                vectors = list(start)
                while RealSubspace(m, vectors).dim < d:
                    vectors.append([scalar(rng.choice([0, 0, 1, -1, 2])) for _ in range(m)])
                V = RealSubspace(m, vectors)
                assert V.dim == d
                verdict = span_is_axis(W, V)
                assert verdict == ref_span_is_axis(W, V)
                verdicts.add((d == m, verdict))
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


def test_axis_checks_take_a_complex_subspace_with_a_real_basis():
    frame = VariableFrame(("z", "u"), ())
    z, u = Poly.variable(frame, "z"), Poly.variable(frame, "u")
    e0 = [ONE, ZERO, ZERO, ZERO]
    line = ComplexSubspace(4, [e0])
    assert is_axis([z * u], line) == is_axis([z * u], RealSubspace(4, [e0]))
    assert separable_check(z * u, line) == separable_check(z * u, RealSubspace(4, [e0]))
    complex_line = ComplexSubspace(4, [[ONE, scalar(0, 1), ZERO, ZERO]])
    with pytest.raises(ValueError, match="axis must be a real subspace"):
        is_axis([z * u], complex_line)
    with pytest.raises(ValueError, match="axis must be a real subspace"):
        separable_check(z * u, complex_line)
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        is_axis([z * u], ComplexSubspace(2, [[ONE, ZERO]]))


def test_axis_additivity_orthogonal_sum():
    frame = VariableFrame(("z", "u"), ())
    z = Poly.variable(frame, "z")
    u = Poly.variable(frame, "u")
    fam = [z * u]
    a1 = RealSubspace(4, [[ONE, ZERO, ZERO, ZERO], [ZERO, ONE, ZERO, ZERO]])
    a2 = RealSubspace(4, [[ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, ONE]])
    assert is_axis(fam, a1) and is_axis(fam, a2)
    assert is_axis(fam, RealSubspace(4, a1.basis + a2.basis))


def test_one_dim_extension_from_real_annihilator():
    frame = VariableFrame(("z1", "z2"), ())
    z1 = Poly.variable(frame, "z1")
    fam = [z1 * z1]
    # Re(z2) annihilates every gradient, so its line is an axis
    line = RealSubspace(4, [[ZERO, ZERO, ONE, ZERO]])
    assert is_axis(fam, line)


def test_separable_check_examples():
    frame = VariableFrame(("z",), ("t",))
    z = Poly.variable(frame, "z")
    t = Poly.variable(frame, "t")
    z_plane = RealSubspace(3, [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]])
    assert separable_check(z * z, z_plane)
    assert not separable_check(z * t, z_plane)
    assert not separable_check(z + t, z_plane)


def test_projected_operators_match_full_ones():
    frame = VariableFrame(("z",), ("t",))
    z = Poly.variable(frame, "z")
    t = Poly.variable(frame, "t")
    f = z * z * t + t * t * z
    eye = Matrix.identity(3)
    assert kappa(f, f, eye) == kappa(f, f)
    assert laplacian(f, eye) == laplacian(f)


def diagonalized(vectors, m):
    "The bilinear diagonalization of vectors in C^m as (row, value) pairs, 0 on the radical."
    V, d = _gram_orthogonal(Matrix(vectors, ncols=m))
    return list(zip(V.rows, d + [ZERO] * (V.nrows - len(d))))


def test_symmetric_diagonalize_properties():
    rng = random.Random(23)
    for _ in range(30):
        m = rng.randint(2, 5)
        count = rng.randint(1, m)
        vectors = []
        for _ in range(count):
            vectors.append(vec([GaussRational(Fraction(rng.randint(-2, 2)),
                                              Fraction(rng.randint(-2, 2)))
                                for _ in range(m)]))
        out = diagonalized(vectors, m)
        for a in range(len(out)):
            va, da = out[a]
            assert dot_bilinear(va, va) == da
            for b in range(a + 1, len(out)):
                assert dot_bilinear(va, out[b][0]) == ZERO
        # span is preserved
        from eigenforge.linalg import ComplexSubspace
        assert ComplexSubspace(m, [v for v, _ in out]) == ComplexSubspace(m, vectors)


def test_symmetric_diagonalize_cross_only():
    # both self-products vanish, only the cross term is nonzero
    v1 = vec([gr(1), gr(0, 1), gr(0)])
    v2 = vec([gr(1), gr(0, -1), gr(0)])
    out = diagonalized([v1, v2], 3)
    assert sum(1 for _, d in out if d != ZERO) == 2


def test_maximal_axis_single_holomorphic_coordinate():
    z = Poly.variable(C1, "z")
    report = maximal_axis([z])
    assert report.certified_dim == 2
    assert report.theoretical_upper_bound == 2
    assert report.numeric_dim == 0


def test_maximal_axis_isotropic_free_family():
    z = Poly.variable(C1, "z")
    report = maximal_axis([z * z.conjugate()])
    assert report.certified_dim == 0
    assert report.theoretical_upper_bound == 0


def test_maximal_axis_holomorphic_product_is_whole_space():
    z = Poly.variable(C2, "z")
    u = Poly.variable(C2, "u")
    report = maximal_axis([z * u])
    assert report.certified_dim == 4
    assert report.theoretical_upper_bound == 4


def test_maximal_axis_on_known_pair_is_tight():
    F1, F2 = worked_pair()
    report = maximal_axis([F1, F2])
    assert report.certified_dim == 4
    assert report.theoretical_upper_bound == 4
    m = F1.frame.m
    e = lambda j: [ONE if a == j else ZERO for a in range(m)]
    zu_plane = RealSubspace(m, [e(0), e(1), e(2), e(3)])
    assert report.certified_axis.contains_subspace(zu_plane)


def test_maximal_axis_numeric_extension():
    # the annihilator carries the form diag(-3, 8/9); the ratio 27/8 has
    # no square root in Q(i), so the plane can only be paired in floats
    frame = VariableFrame((), ("s1", "s2", "s3", "s4"))
    s1 = Poly.variable(frame, "s1")
    s2 = Poly.variable(frame, "s2")
    s3 = Poly.variable(frame, "s3")
    s4 = Poly.variable(frame, "s4")
    iu = gr(0, 2)
    f1 = (iu * s1 - s2) * (iu * s1 - s2)
    third_i = gr(0, Fraction(1, 3))
    f2 = (third_i * s3 - s4) * (third_i * s3 - s4)
    report = maximal_axis([f1, f2])
    assert report.certified_dim == 0
    assert report.theoretical_upper_bound == 2
    assert report.numeric_dim == 2
    assert report.numeric_residual is not None and report.numeric_residual < 1e-9


def test_axis_subspaces_of_an_anticommuting_family_match_the_reference_chain():
    # three rotated isotropic vectors span W in C^16; six real conditions leave dim K = 10
    import test_degree2 as t2
    from eigenforge.degree2 import Deg2Form, from_form

    rng = random.Random(61)
    frame = VariableFrame((), tuple(f"s{j}" for j in range(16)))
    polys = [from_form(Deg2Form(frame, A)) for A in t2.anticommuting_family(rng, 16)]
    W = gradient_span(polys)
    A = W.bilinear_annihilator()
    K = W.real_annihilator()
    assert (W.dim, K.dim) == (3, 10)
    assert K.basis_matrix == ref_real_points(A).basis_matrix
    assert (W.annihilator_in_real_span().basis_matrix
            == ref_sum(W, K).bilinear_annihilator().basis_matrix
            == ref_hermitian_complement_within(K, A).basis_matrix)
    assert maximal_axis(polys, W=W).certified_axis.contains_subspace(K)


def test_maximal_axis_certified_on_quadratic_seeds():
    # anticommuting quadratic families always certify at least a plane
    import test_degree2 as t2
    from eigenforge.degree2 import Deg2Form, from_form, is_eigenfamily_deg2

    rng = random.Random(47)
    frame = VariableFrame((), tuple(f"s{j}" for j in range(6)))
    done = 0
    while done < 10:
        mats = t2.anticommuting_family(rng, 6)
        polys = [from_form(Deg2Form(frame, A)) for A in mats]
        if any(p == 0 for p in polys):
            continue
        assert is_eigenfamily_deg2(polys)
        report = maximal_axis(polys)
        assert report.certified_dim >= 2
        done += 1


# -- the axis read off W alone against the seeded, greedy, summed search ---


_SMALL_COEFFS = [GaussRational(a, b) for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1), (0, 2), (2, 0))]


def _random_real_family(rng, m):
    """One to three linear or quadratic members on R^m with few terms and
    unit-like coefficients, so repeated norms split pairs exactly in Q(i)."""
    frame = VariableFrame((), tuple(f"s{j}" for j in range(m)))
    xs = [Poly.variable(frame, name) for name in frame.real_names]
    monos = ([(a,) for a in range(m)] if rng.random() < 0.5
             else [(a, b) for a in range(m) for b in range(a, m)])
    fs = []
    for _ in range(rng.randint(1, 3)):
        f = Poly.zero(frame)
        for mono in rng.sample(monos, rng.randint(1, min(3, len(monos)))):
            term = Poly.constant(frame, rng.choice(_SMALL_COEFFS))
            for a in mono:
                term = term * xs[a]
            f = f + term
        fs.append(f)
    return fs


def _quadratic_families(rng):
    """Anticommuting families at m = 2..16 and a construction of every
    subspace type (n, k, delta) with n <= 4 and k in {0, 2}."""
    import test_degree2 as t2
    from eigenforge.degree2 import Deg2Form, construct_eigenpair, from_form

    families = []
    for m in range(2, 17):
        frame = VariableFrame((), tuple(f"s{j}" for j in range(m)))
        families.append([from_form(Deg2Form(frame, A)) for A in t2.anticommuting_family(rng, m)])
    types = set()
    while len(types) < 10:
        t, pd, td = t2.rand_data(rng)
        types.add(t)
        families.append(list(construct_eigenpair(t, pd, td)))
    return families


def test_maximal_axis_matches_the_seeded_reference():
    from eigenforge import catalog

    rng = random.Random(71)
    families = [catalog.load_entry(name).polys for name in catalog.list_entries()]
    families += _quadratic_families(rng)
    families += [_random_real_family(rng, m) for m in range(2, 8) for _ in range(100)]
    splits = numeric = radical = 0
    for fs in families:
        report = maximal_axis(fs)
        assert report.to_json_dict() == ref_maximal_axis(fs).to_json_dict()
        K, _, V, d, _ = _isotropic_parts(report.W)
        rad = V.nrows - len(d)
        radical += bool(rad)
        splits += report.certified_dim > K.dim + 2 * rad
        numeric += report.numeric_dim > 0
    assert min(splits, numeric, radical) > 0, (splits, numeric, radical)


def test_degree2_seeds_lie_in_the_radical_span():
    from eigenforge import catalog

    rng = random.Random(73)
    families = [catalog.load_entry(name).polys for name in catalog.list_entries()]
    seeds = 0
    for fs in families + _quadratic_families(rng):
        W = gradient_span(fs)
        _, _, V, d, _ = _isotropic_parts(W)
        span = ComplexSubspace(W.ambient, V.rows[len(d):])
        for w in ref_isotropic_annihilator_seeds(fs):
            assert span.contains(w)
            seeds += 1
    assert seeds > 0


def test_axis_report_json_shape():
    z = Poly.variable(C1, "z")
    d = maximal_axis([z]).to_json_dict()
    assert set(d) == {"certified", "numeric", "theoretical_upper_bound"}
    assert d["certified"]["dim"] == 2
    assert isinstance(d["certified"]["basis"], list)
    assert d["numeric"]["dim"] == 0


def test_apply_real_isometry_preserves_structure():
    rng = random.Random(53)
    F1, F2 = worked_pair()
    m = F1.frame.m
    S = [[ZERO] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            q = GaussRational(Fraction(rng.randint(-1, 1), 2))
            S[a][b] = q
            S[b][a] = -q
    Q = cayley_orthogonal(Matrix(S, ncols=m))
    target = VariableFrame(("a", "b", "c", "d"), ())
    G1 = apply_real_isometry(F1, Q, target)
    G2 = apply_real_isometry(F2, Q, target)
    assert kappa(G1, G2) == 0
    assert laplacian(G1) == 0 and laplacian(G2) == 0
    assert verify_flat_family([G1, G2]).verdict
    flag, _ = is_uniformly_complex_type([G1, G2])
    assert not flag


def test_apply_real_isometry_rejects_non_orthogonal():
    z = Poly.variable(C1, "z")
    bad = Matrix([[ONE, ONE], [ZERO, ONE]], ncols=2)
    with pytest.raises(ValueError):
        apply_real_isometry(z, bad, C1)


# -- the integer pull-back against the term-by-term reference ----------

# (complex names, real names): r = 0, n = 0 and mixed frames
ISO_FRAMES = [(("z",), ()), (("z", "u"), ()), ((), ("s", "t", "v")), ((), ("s",)),
              (("z",), ("t",)), (("z", "u"), ("t",))]

iso_coeff = st.builds(lambda a, b, d, e: scalar(Fraction(a, d), Fraction(b, e)),
                      st.integers(-5, 5), st.integers(-5, 5),
                      st.sampled_from([1, 2, 3, 10]), st.sampled_from([1, 4, 7]))


@st.composite
def isometry_cases(draw):
    """(family, Q, target): the target splits the m axes into complex
    pairs and real lines independently of the source (C^2 -> R^4,
    R^4 -> C^2, C x R^2 -> C^2, ...), and each member touches only a
    drawn subset of the slots, so some slots go unused."""
    names, real = draw(st.sampled_from(ISO_FRAMES))
    frame = VariableFrame(names, real)
    m = frame.m
    tn = draw(st.integers(0, m // 2))
    target = VariableFrame(tuple(f"x{j}" for j in range(tn)),
                           tuple(f"y{k}" for k in range(m - 2 * tn)))
    entry = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                             Fraction(-1, 3), Fraction(2)])
    S = [[ZERO] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            q = draw(entry)
            S[a][b], S[b][a] = scalar(q), scalar(-q)
    Q = cayley_orthogonal(Matrix(S, ncols=m))
    # inhomogeneous, degree up to 3, mixed denominators
    family = []
    for _ in range(draw(st.integers(1, 3))):
        live = draw(st.sets(st.integers(0, frame.num_slots - 1)))
        monos = st.tuples(*[st.integers(0, 2) if s in live else st.just(0)
                            for s in range(frame.num_slots)]).filter(lambda t: sum(t) <= 3)
        family.append(Poly(frame, draw(st.dictionaries(monos, iso_coeff, max_size=4))))
    return family, Q, target


@settings(max_examples=80, deadline=None)
@given(isometry_cases())
def test_apply_real_isometry_matches_poly_reference(case):
    family, Q, target = case
    want = [ref_apply_real_isometry(p, Q, target).terms for p in family]
    assert [apply_real_isometry(p, Q, target).terms for p in family] == want
    assert [p.terms for p in _pull_back(family, Q, target)] == want


@settings(max_examples=30, deadline=None)
@given(isometry_cases(), st.data())
def test_apply_real_isometry_rejects_what_the_reference_rejects(case, data):
    (p, *_), Q, target = case
    m = Q.nrows
    a, b = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    rows = [list(r) for r in Q.rows]
    rows[a][b] = rows[a][b] + data.draw(st.sampled_from([scalar(1), scalar(Fraction(-1, 3))]))
    for bad in (Matrix(rows, ncols=m), Q.scale(scalar(0, 1))):
        with pytest.raises(ValueError):
            apply_real_isometry(p, bad, target)
        with pytest.raises(ValueError):
            ref_apply_real_isometry(p, bad, target)
    with pytest.raises(ValueError, match="not orthonormal"):
        apply_real_isometry(p, Matrix(rows, ncols=m), target)


def test_pull_back_cases_cover_split_changes_and_unused_slots():
    # the generator reaches frames whose complex/real split differs from the
    # target's and members that leave some of the used slots to others
    seen = set()

    @settings(max_examples=150, deadline=None, database=None)
    @given(isometry_cases())
    def collect(case):
        family, Q, target = case
        frame = family[0].frame
        slots = [{s for s in range(frame.num_slots) if p.uses_slot(s)} for p in family]
        used = set().union(*slots)
        if (frame.n, frame.r) != (target.n, target.r):
            seen.add("split")
        if used and any(s != used for s in slots):
            seen.add("partial")
    collect()
    assert seen == {"split", "partial"}


def test_apply_real_isometry_rejects_complex_orthogonal():
    # Q Q^T = I holds bilinearly, the entries are not real
    Q = Matrix([[scalar(Fraction(5, 4)), scalar(0, Fraction(3, 4))],
                [scalar(0, Fraction(-3, 4)), scalar(Fraction(5, 4))]])
    z = Poly.variable(C1, "z")
    for pull_back in (apply_real_isometry, ref_apply_real_isometry):
        with pytest.raises(ValueError, match="must be real"):
            pull_back(z, Q, C1)


def test_isometry_is_checked_once_and_bad_ones_raise_on_every_call(monkeypatch):
    # the orthogonality check (one product Q Q^T) is kept on the immutable Q,
    # so pulling a family back member by member checks Q once
    Q = cayley_orthogonal(Matrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]))
    z, u = Poly.variable(C1, "z"), Poly.conj_variable(C1, "z")
    family = [z, u, z * u]
    want = [ref_apply_real_isometry(p, Q, C1) for p in family]
    products = []
    original = Matrix.__mul__

    def counted(A, B):
        products.append((A, B))
        return original(A, B)
    monkeypatch.setattr(Matrix, "__mul__", counted)
    assert [apply_real_isometry(p, Q, C1) for p in family] == want
    assert len(products) == 1
    bad = [(Q.scale(scalar(0, 1)), "must be real"), (Q.scale(2), "not orthonormal"),
           (Matrix([[1, 1], [0, 1]]), "not orthonormal")]
    for M, message in bad:
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                apply_real_isometry(z, M, C1)


# Each case breaks one invariant that guards a printed result, or hands
# apply_real_isometry a matrix it must reject; the checks must fire even
# under python -O, which strips assert statements.
_BROKEN_INVARIANTS = r"""
import sys
from fractions import Fraction
from eigenforge import catalog, degree2, holomorphy
from eigenforge.frames import VariableFrame
from eigenforge.linalg import Matrix
from eigenforge.poly import Poly
from eigenforge.scalars import I, ONE, ZERO, scalar

C1, C2 = VariableFrame(("z",), ()), VariableFrame(("z", "u"), ())
z = Poly.variable(C1, "z")


def valid_witness():
    return holomorphy.is_uniformly_complex_type(
        [Poly.variable(C2, "z") * Poly.variable(C2, "u")])[1]


def bad_j(J):
    w = valid_witness()
    w.J = J
    return w


def non_axis_radical():
    # (1, i) is isotropic but does not annihilate the span of |z|^2
    parts = holomorphy._isotropic_parts
    row = Matrix([[ONE, I]])
    holomorphy._isotropic_parts = lambda W: (W.real_annihilator(), row, row, [], [])
    try:
        holomorphy.maximal_axis([z * z.conjugate()])
    finally:
        holomorphy._isotropic_parts = parts


def decompose_pair_c4(decompose, extra_aniso=()):
    # extra_aniso: anisotropic directions too many for the dimension count
    F1, F2 = catalog.load_entry("pair-c4").polys
    M1, M2 = degree2.to_form(F1).A, degree2.to_form(F2).A
    _, radical, _, aniso, _ = holomorphy._isotropic_parts(holomorphy.gradient_span([F1, F2]))
    decompose(F1.frame, M1, M2, radical, aniso + list(extra_aniso))


def float_tail_with_zero_y():
    # the float tail recovers Y through _rational_matrix(..., antisym=True)
    recover = degree2._rational_matrix
    degree2._rational_matrix = lambda Mf, antisym=False: (
        Matrix.zero(*Mf.shape) if antisym else recover(Mf))
    try:
        decompose_pair_c4(degree2._decompose_float)
    finally:
        degree2._rational_matrix = recover


# Q Q^T = I in the bilinear sense, but the entries are not real
complex_orthogonal = Matrix([[scalar(Fraction(5, 4)), scalar(0, Fraction(3, 4))],
                             [scalar(0, Fraction(-3, 4)), scalar(Fraction(5, 4))]])
print("optimize", sys.flags.optimize)
cases = [
    lambda: holomorphy.ComplexTypeWitness(2, [((1, 0), (0, 2))]).check(),
    lambda: holomorphy.ComplexTypeWitness(2, [((1, 0), (1, 0))]).check(),
    lambda: bad_j(Matrix.identity(4)).check(),
    lambda: bad_j(Matrix.zero(4, 4)).check(),
    non_axis_radical,
    lambda: decompose_pair_c4(degree2._decompose_exact, [None]),
    lambda: decompose_pair_c4(degree2._decompose_float, [None]),
    float_tail_with_zero_y,
    lambda: holomorphy.apply_real_isometry(z, Matrix([[ONE, ONE], [ZERO, ONE]]), C1),
    lambda: holomorphy.apply_real_isometry(z, complex_orthogonal, C1),
]
for case in cases:
    try:
        case()
        print("silent")
    except (AssertionError, ValueError) as exc:
        print(f"fired {type(exc).__name__}:", exc)
"""


def test_no_assert_statement_in_the_package():
    # result guards are explicit raises, which python -O keeps; and, as no
    # linter runs offline, every name a module imports is used or exported
    import ast
    import pathlib
    package = pathlib.Path(eigenforge.__file__).parent
    found, unused = [], []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {c.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
                 for c in node.value.elts}
        unused += [f"{path.name}:{node.lineno} {name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (name := (alias.asname or alias.name).split(".")[0]) not in used]
    assert len(list(package.rglob("*.py"))) > 10
    assert found == []
    assert unused == []


def test_each_package_module_imports_alone():
    # a fresh interpreter per module: no import order hides a cycle, and
    # numpy, which only the numeric fallbacks use, is not imported at startup
    import pathlib
    package = pathlib.Path(eigenforge.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        code = f"import sys, {name}; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout == "False\n", f"importing {name} imports numpy"


def test_result_checks_fire_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(eigenforge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_INVARIANTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize 1",
        "fired AssertionError: witness pair has unequal norms",
        "fired AssertionError: witness pair is not orthogonal",
        "fired AssertionError: witness J is not antisymmetric",
        "fired AssertionError: witness J^2 is not -Id + P_ker",
        "fired AssertionError: certified axis fails the axis condition",
        "fired AssertionError: dimension count disagrees with the anisotropic part",
        "fired AssertionError: dimension count disagrees with the anisotropic part",
        "fired AssertionError: decomposed data is invalid: Y must be invertible",
        "fired ValueError: matrix rows are not orthonormal",
        "fired ValueError: isometry entries must be real",
    ]
