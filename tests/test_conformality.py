"""Bracket, Laplacian, eigen verification, sphere data, invariance.

Two independent checks back the bracket: the real-gradient dot product
code path and a finite-difference oracle.
"""

import random
from fractions import Fraction

import pytest

from eigenforge.scalars import I, ZERO, scalar
from eigenforge.frames import VariableFrame
from eigenforge.linalg import Matrix, RealSubspace
from eigenforge.poly import Poly, real_gradient
from eigenforge.conformality import (
    EigenData,
    FLAT_DATA,
    cross_lambda_mu,
    invariance_predicates,
    is_biinvariant,
    is_even_degree,
    is_su2_invariant,
    kappa,
    laplacian,
    norm_squared,
    power_family,
    sphere_eigen_data,
    su2_derivative,
    verify_flat_family,
    verify_general_family,
)

from oracles import (fd_kappa, fd_laplacian, rational_point, ref_projected_kappa,
                     ref_projected_laplacian)
from test_poly import rand_poly, rand_point

C1 = VariableFrame(("z",), ())
C2 = VariableFrame(("z", "u"), ())
C2T = VariableFrame(("z", "u"), ("t",))
C4 = VariableFrame(("z", "u", "v", "w"), ())


def var(frame, name):
    return Poly.variable(frame, name)


def cvar(frame, name):
    return Poly.conj_variable(frame, name)


# ---------------------------------------------------------------------
# bracket and Laplacian


def test_kappa_base_cases():
    z = var(C1, "z")
    assert kappa(z, z) == 0
    assert kappa(z, cvar(C1, "z")) == 2
    t = var(C2T, "t")
    assert kappa(t, t) == 1
    assert laplacian(var(C1, "z") * cvar(C1, "z")) == 4
    assert laplacian(t * t) == 2
    zz = var(C2, "z")
    assert laplacian(zz * zz * var(C2, "u")) == 0


def test_kappa_symmetry_bilinearity():
    rng = random.Random(3)
    for _ in range(8):
        f = rand_poly(rng, C2T)
        g = rand_poly(rng, C2T)
        h = rand_poly(rng, C2T)
        assert kappa(f, g) == kappa(g, f)
        a, b = scalar(2, 1), scalar(0, -3)
        assert kappa(a * f + b * g, h) == a * kappa(f, h) + b * kappa(g, h)


def test_product_rules():
    rng = random.Random(4)
    for _ in range(8):
        f = rand_poly(rng, C2T)
        g = rand_poly(rng, C2T)
        h = rand_poly(rng, C2T)
        assert kappa(f * g, h) == f * kappa(g, h) + g * kappa(f, h)
        assert laplacian(f * g) == f * laplacian(g) + g * laplacian(f) + 2 * kappa(f, g)


def test_kappa_equals_gradient_dot():
    rng = random.Random(5)
    for _ in range(10):
        f = rand_poly(rng, C2T)
        g = rand_poly(rng, C2T)
        assert kappa(f, g) == real_gradient(f).dot(real_gradient(g))


def test_kappa_power_identity():
    rng = random.Random(6)
    for _ in range(6):
        f = rand_poly(rng, C2T, max_terms=3, max_deg=2)
        for d in (2, 3):
            lhs = kappa(f ** d, f ** d)
            rhs = scalar(d * d) * f ** (2 * d - 2) * kappa(f, f)
            assert lhs == rhs


def test_kappa_against_finite_differences():
    rng = random.Random(7)
    for _ in range(6):
        f = rand_poly(rng, C2T)
        g = rand_poly(rng, C2T)
        for _ in range(3):
            pt = rational_point(rng, C2T)
            exact = kappa(f, g).evaluate_float(pt)
            approx = fd_kappa(f, g, pt)
            assert abs(exact - approx) <= 1e-6 * max(1.0, abs(exact))


def test_laplacian_against_finite_differences():
    rng = random.Random(8)
    for _ in range(6):
        f = rand_poly(rng, C2T)
        pt = rational_point(rng, C2T)
        exact = laplacian(f).evaluate_float(pt)
        approx = fd_laplacian(f, pt)
        assert abs(exact - approx) <= 1e-5 * max(1.0, abs(exact))


def rand_projector(rng, m):
    "Orthogonal projector onto the span of random rational vectors."
    vectors = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
               for _ in range(rng.randint(1, m))]
    return RealSubspace(m, vectors).projector()


def test_kappa_and_laplacian_through_P_match_real_gradient_reference():
    rng = random.Random(9)
    for frame in (C2T, VariableFrame(("z",), ("s", "t")), VariableFrame((), ("s", "t"))):
        m = frame.m
        eye = Matrix.identity(m)
        Ps = [eye, Matrix.zero(m, m)] + [rand_projector(rng, m) for _ in range(3)]
        for _ in range(4):
            f, g = rand_poly(rng, frame), rand_poly(rng, frame)
            assert kappa(f, g, eye) == kappa(f, g)
            assert laplacian(f, eye) == laplacian(f)
            for P in Ps:
                assert kappa(f, g, P) == ref_projected_kappa(f, g, P)
                assert kappa(f, f, P) == ref_projected_kappa(f, f, P)
                assert laplacian(f, P) == ref_projected_laplacian(f, P)
        with pytest.raises(ValueError):
            kappa(f, g, Matrix.identity(m + 1))


# ---------------------------------------------------------------------
# family verification


def degree2_pair():
    z, u, v, w = (var(C4, n) for n in "zuvw")
    f1 = z * v + u * w
    f2 = z * cvar(C4, "w") - u * cvar(C4, "v")
    return [f1, f2]


def test_verify_flat_family_pair():
    report = verify_flat_family(degree2_pair())
    assert report.verdict
    assert report.data == FLAT_DATA
    assert report.degree == 2
    assert report.failures() == []


def test_verify_flat_family_counterexample():
    z = var(C1, "z")
    report = verify_flat_family([z, cvar(C1, "z")])
    assert not report.verdict
    assert report.harmonic
    assert report.conformal_pairs[(0, 1)] == 2
    kinds = [k for k, _, _ in report.failures()]
    assert "kappa" in kinds


def test_verify_zero_and_empty():
    assert verify_flat_family([Poly.zero(C1)]).verdict
    empty = verify_flat_family([])
    assert empty.verdict and empty.warning


def test_verify_general_family():
    z = var(C1, "z")
    ok = verify_general_family([z], EigenData(ZERO, ZERO))
    assert ok.verdict
    bad = verify_general_family([z], EigenData(ZERO, scalar(1)))
    assert not bad.verdict
    assert bad.conformal_pairs[(0, 0)] == -(z * z)
    with pytest.raises(TypeError):
        verify_general_family([z], EigenData("1/z", ZERO))


def test_report_json_shape():
    report = verify_flat_family(degree2_pair())
    d = report.to_json_dict(name="pair")
    assert d["verdict"] is True
    assert d["lambda"] == "0" and d["mu"] == "0"
    assert len(d["conformal_pairs"]) == 3
    assert all(p["residual"] == "0" for p in d["conformal_pairs"])


# ---------------------------------------------------------------------
# sphere restriction


def test_sphere_eigen_data_examples():
    z1z2 = var(C2, "z") * var(C2, "u")
    data, report = sphere_eigen_data([z1z2])
    assert report.verdict
    assert data == EigenData(scalar(-8), scalar(-4))

    data, _ = sphere_eigen_data([var(C1, "z")])
    assert data == EigenData(scalar(-1), scalar(-1))


def test_sphere_eigen_data_errors():
    z = var(C2, "z")
    u = var(C2, "u")
    with pytest.raises(ValueError):
        sphere_eigen_data([z * z, z])  # mixed degrees
    with pytest.raises(ValueError):
        sphere_eigen_data([z + z * u])  # inhomogeneous
    with pytest.raises(ValueError):
        sphere_eigen_data([])


def test_norm_squared():
    p = norm_squared(C2T)
    pt = {"z": scalar(1, 2), "u": scalar(0, 1), "t": 2}
    assert p.evaluate(pt) == scalar(5 + 1 + 4)


# ---------------------------------------------------------------------
# power families


def test_power_family_identity_and_flat():
    fam = degree2_pair()
    out, data = power_family(fam, 1, FLAT_DATA)
    assert out == fam and data == FLAT_DATA
    out, data = power_family(fam, 3, FLAT_DATA)
    assert data == FLAT_DATA
    assert len(out) == 4  # multisets of size 3 from 2 members
    assert verify_flat_family(out).verdict


def test_power_family_sphere_consistency():
    # {z} on S^1 has data (-1,-1); its d-th power is {z^d}
    z = var(C1, "z")
    base, _ = sphere_eigen_data([z])
    for d in (2, 3, 4):
        fam, predicted = power_family([z], d, base)
        direct, report = sphere_eigen_data(fam)
        assert report.verdict
        assert predicted == direct


def test_power_family_errors():
    with pytest.raises(ValueError):
        power_family([var(C1, "z")], 0, FLAT_DATA)
    with pytest.raises(ValueError):
        power_family([], 2, FLAT_DATA)


# ---------------------------------------------------------------------
# invariance predicates and quotient tables


def test_even_and_biinvariant():
    z1 = var(C2, "z")
    z2 = var(C2, "u")
    assert is_biinvariant(z1 * cvar(C2, "u"))
    assert not is_biinvariant(z1 * z1)
    assert is_even_degree(z1 * z1)
    assert not is_even_degree(z1 * z2 * z2)
    assert is_even_degree(Poly.zero(C2))


def test_su2_invariance_norm():
    # |q|^2 = z conj(z) + u conj(u) is invariant under right sp(1)
    q2 = var(C2, "z") * cvar(C2, "z") + var(C2, "u") * cvar(C2, "u")
    for u in ("i", "j", "k"):
        assert su2_derivative(q2, u) == 0
    assert is_su2_invariant(q2)
    assert not is_su2_invariant(var(C2, "z"))


def test_su2_requires_quaternionic_frame():
    with pytest.raises(ValueError):
        is_su2_invariant(var(C1, "z"))
    with pytest.raises(ValueError):
        is_su2_invariant(var(C2T, "z"))
    preds = invariance_predicates(var(C1, "z"))
    assert preds["su2_invariant"] is None


def test_invariance_predicates_dict():
    q2 = var(C2, "z") * cvar(C2, "z") + var(C2, "u") * cvar(C2, "u")
    preds = invariance_predicates(q2)
    assert preds == {"even_degree": True, "biinvariant": True, "su2_invariant": True}


def test_cross_tables():
    assert cross_lambda_mu("RP", 3, 2) == EigenData(scalar(-2 * 2 * (3 - 1 + 4)), scalar(-16))
    assert cross_lambda_mu("CP", 2, 1) == EigenData(scalar(-12), scalar(-4))
    assert cross_lambda_mu("HP", 1, 1) == EigenData(scalar(-16), scalar(-4))
    with pytest.raises(ValueError):
        cross_lambda_mu("OP", 1, 1)
    with pytest.raises(ValueError):
        cross_lambda_mu("CP", 0, 1)


def test_cp_table_against_sphere_restriction():
    # (z_1 conj(z_2))^d on C^(m+1) is biinvariant, homogeneous of total
    # degree 2d, and its sphere data must equal the CP table entry.
    for m in range(1, 5):
        frame = VariableFrame(tuple(f"z{k}" for k in range(m + 1)), ())
        base = Poly.variable(frame, "z0") * Poly.conj_variable(frame, "z1")
        for d in range(1, 4):
            f = base ** d
            assert is_biinvariant(f)
            data, report = sphere_eigen_data([f])
            assert report.verdict
            assert data == cross_lambda_mu("CP", m, d)
