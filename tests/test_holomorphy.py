"""Gradient spans, complex type witnesses, axes of holomorphy, and the
maximal axis search."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import eigenforge

from eigenforge.frames import VariableFrame
from eigenforge.poly import Poly, real_gradient
from eigenforge.scalars import GaussRational, ZERO, ONE
from eigenforge.linalg import (
    Matrix,
    RealSubspace,
    cayley_orthogonal,
    dot_bilinear,
    vec,
)
from eigenforge.conformality import kappa, laplacian, verify_flat_family
from eigenforge.holomorphy import (
    AxisReport,
    apply_real_isometry,
    gradient_span,
    is_axis,
    is_uniformly_complex_type,
    maximal_axis,
    separable_check,
    symmetric_diagonalize,
)

from oracles import rational_point

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
        grad = [c.evaluate_float(point) for c in real_gradient(F).components]
        for _ in range(3):
            v = [rng.uniform(-1, 1) for _ in range(m)]
            jv = Jf.real @ v
            lhs = sum(g * x for g, x in zip(grad, jv))
            rhs = 1j * sum(g * x for g, x in zip(grad, v))
            assert abs(lhs - rhs) < 1e-9


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


def test_axis_additivity_orthogonal_sum():
    frame = VariableFrame(("z", "u"), ())
    z = Poly.variable(frame, "z")
    u = Poly.variable(frame, "u")
    fam = [z * u]
    a1 = RealSubspace(4, [[ONE, ZERO, ZERO, ZERO], [ZERO, ONE, ZERO, ZERO]])
    a2 = RealSubspace(4, [[ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, ONE]])
    assert is_axis(fam, a1) and is_axis(fam, a2)
    assert is_axis(fam, a1.sum(a2))


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
        out = symmetric_diagonalize(vectors)
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
    out = symmetric_diagonalize([v1, v2])
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


# Each case breaks one invariant that guards a printed result; the
# checks must fire even under python -O, which strips assert statements.
_BROKEN_INVARIANTS = r"""
import sys
from eigenforge import holomorphy
from eigenforge.frames import VariableFrame
from eigenforge.linalg import Matrix, vec
from eigenforge.poly import Poly
from eigenforge.scalars import I, ONE

C1, C2 = VariableFrame(("z",), ()), VariableFrame(("z", "u"), ())
z = Poly.variable(C1, "z")


def valid_witness():
    return holomorphy.is_uniformly_complex_type(
        [Poly.variable(C2, "z") * Poly.variable(C2, "u")])[1]


def bad_j(J):
    w = valid_witness()
    w.J = J
    return w


def non_axis_seed():
    # (1, i) is isotropic but does not annihilate the span of |z|^2
    holomorphy._deg2_seeds = lambda fs: [vec([ONE, I])]
    holomorphy.maximal_axis([z * z.conjugate()])


print("optimize", sys.flags.optimize)
cases = [
    lambda: holomorphy.ComplexTypeWitness(2, [((1, 0), (0, 2))]).check(),
    lambda: holomorphy.ComplexTypeWitness(2, [((1, 0), (1, 0))]).check(),
    lambda: bad_j(Matrix.identity(4)).check(),
    lambda: bad_j(Matrix.zero(4, 4)).check(),
    non_axis_seed,
]
for case in cases:
    try:
        case()
        print("silent")
    except AssertionError as exc:
        print("fired:", exc)
"""


def test_result_checks_fire_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(eigenforge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_INVARIANTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize 1",
        "fired: witness pair has unequal norms",
        "fired: witness pair is not orthogonal",
        "fired: witness J is not antisymmetric",
        "fired: witness J^2 is not -Id + P_ker",
        "fired: certified axis fails the axis condition",
    ]
