"""Bracket, Laplacian, eigen verification, sphere data, invariance.

Independent checks back the bracket: the real gradients' dot product
summed in Poly arithmetic, a finite-difference oracle, and the term-by-term
references that the packed integer kernel replaced.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from eigenforge import conformality
from eigenforge.scalars import I, ZERO, scalar
from eigenforge.frames import VariableFrame
from eigenforge.linalg import Matrix, RealSubspace
from eigenforge.poly import FrameMismatch, Poly, _derivative, real_gradient
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
    power_family,
    sphere_data,
    sphere_eigen_data,
    su2_derivative,
    verify_flat_family,
    verify_general_family,
)

from oracles import (fd_kappa, fd_laplacian, rational_point, ref_kappa, ref_laplacian,
                     ref_power_products, ref_projected_kappa, ref_projected_laplacian,
                     ref_verify_general_family)
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
    with pytest.raises(FrameMismatch, match="shared frame"):
        kappa(z, t)
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
        dot = Poly.zero(C2T)
        for a, b in zip(real_gradient(f), real_gradient(g)):
            dot = dot + a * b
        assert kappa(f, g) == dot


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


# -- the packed integer kernel against the term-by-term references --------
#
# kappa, laplacian and verify_general_family run on Gaussian-integer
# numerators with packed monomials; every residual must be term for term
# what the reference arithmetic in oracles.py gives.

# n = 0, r = 0, both, and mixed frames, and a wide frame on which the
# members leave most slots unused
KERNEL_FRAMES = [VariableFrame((), ()), VariableFrame(("z",), ()), C2,
                 VariableFrame((), ("s", "t")), C2T, VariableFrame(("z", "u", "v"), ("s", "t"))]

# real and imaginary parts over distinct denominators
mixed = st.builds(lambda a, b, d, e: scalar(Fraction(a, d), Fraction(b, e)),
                  st.integers(-9, 9), st.integers(-9, 9),
                  st.sampled_from([1, 2, 3, 5, 12]), st.sampled_from([1, 2, 7]))


def kernel_polys(frame, max_size=5):
    """Inhomogeneous, degree up to 4, zero included, on a drawn set of
    slots: members of one family use all, some, overlapping or disjoint
    slot sets."""
    def on_slots(used):
        monos = st.tuples(*[st.integers(0, 2) if s in used else st.just(0)
                            for s in range(frame.num_slots)]).filter(lambda t: sum(t) <= 4)
        return st.dictionaries(monos, mixed, max_size=max_size).map(lambda t: Poly(frame, t))
    every = frozenset(range(frame.num_slots))
    return st.one_of(st.just(every), st.sets(st.sampled_from(sorted(every)) if every
                                              else st.nothing())).flatmap(on_slots)


@st.composite
def symmetric_forms(draw, m):
    """None, identity, zero, a projector, or a symmetric rational or Gaussian-rational
    matrix with non-unit denominators."""
    kind = draw(st.sampled_from(["none", "identity", "zero", "projector", "symmetric", "complex"]))
    if kind == "none":
        return None
    if kind == "identity":
        return Matrix.identity(m)
    if kind == "zero":
        return Matrix.zero(m, m)
    if kind == "projector":
        if m == 0:
            return Matrix.zero(0, 0)
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
        vectors = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1,
                                max_size=m))
        return RealSubspace(m, vectors).projector()
    rows = [[ZERO] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            q = scalar(Fraction(draw(st.integers(-5, 5)), draw(st.sampled_from([1, 2, 3, 6]))),
                       draw(st.integers(-2, 2)) if kind == "complex" else 0)
            rows[a][b] = rows[b][a] = q
    return Matrix(rows, ncols=m)


@st.composite
def bracket_cases(draw):
    frame = draw(st.sampled_from(KERNEL_FRAMES))
    return (draw(kernel_polys(frame)), draw(kernel_polys(frame)),
            draw(symmetric_forms(frame.m)))


RS = VariableFrame((), ("s", "t"))


@settings(max_examples=150, deadline=None)
@given(bracket_cases())
# a diagonal P over a denominator: self-pairs squared, products grouped by weight
@example((Poly(RS, {(2, 1): scalar(1, 3), (1, 0): 2, (0, 2): I}), Poly(RS, {(1, 1): -1}),
          Matrix([[scalar(Fraction(1, 2)), ZERO], [ZERO, scalar(3)]], ncols=2)))
def test_kernel_matches_poly_reference(case):
    f, g, P = case
    assert kappa(f, g, P).terms == ref_kappa(f, g, P).terms
    assert kappa(f, f, P).terms == ref_kappa(f, f, P).terms
    assert laplacian(f, P).terms == ref_laplacian(f, P).terms
    if P is None:
        assert kappa(f, g).terms == ref_kappa(f, g).terms
        assert laplacian(g).terms == ref_laplacian(g).terms


@settings(max_examples=30, deadline=None)
@given(bracket_cases(), st.integers(1, 2))
def test_kernel_rejects_a_wrong_shape_P(case, extra):
    f, g, _ = case
    m = f.frame.m
    bads = [Matrix.identity(m + extra), Matrix.zero(m, m + extra)]
    if m >= 2:
        # one entry in the top right corner, none in the bottom left
        bads.append(Matrix([[scalar(int(a == 0 and b == m - 1)) for b in range(m)]
                            for a in range(m)], ncols=m))
    for bad in bads:
        for call in (lambda: kappa(f, g, bad), lambda: laplacian(f, bad),
                     lambda: ref_kappa(f, g, bad), lambda: ref_laplacian(f, bad)):
            with pytest.raises(ValueError):
                call()


def test_slot_form_of_the_identity_is_the_flat_form():
    # D D^T for the table D of z = x + iy: 2 on (z, conj(z)), 1 on (t, t)
    for frame in KERNEL_FRAMES:
        flat = {(2 * j, 2 * j + 1): scalar(2) for j in range(frame.n)}
        flat.update({(s, s): scalar(1) for s in range(2 * frame.n, frame.m)})
        for den, full, _ in (conformality._slot_rows(frame, Matrix.identity(frame.m)),
                             conformality._slot_rows(frame)):
            form = {(s, u): scalar(Fraction(a, den), Fraction(b, den))
                    for s, row in full.items() for u, (a, b) in row if s <= u}
            assert form == flat


def test_kappa_of_f_with_itself_squares_the_real_slot_row(monkeypatch):
    # the real slot t has the upper row [(t, 1)], whose weighted sum over f is
    # d_t f itself: _gauss_mul gets one dict on both sides, a square
    frame = VariableFrame(("z",), ("t",))
    f = var(frame, "z") * var(frame, "t") + var(frame, "t") ** 2 + cvar(frame, "z") * 3
    calls = []
    mul = conformality._gauss_mul

    def spy(p, q, out):
        calls.append((p, q))
        return mul(p, q, out)

    monkeypatch.setattr(conformality, "_gauss_mul", spy)
    assert kappa(f, f) == ref_kappa(f, f)
    assert [p for p, q in calls if p is q] == [_derivative(f.nums, frame.real_slot("t"))]


def test_fractional_eigen_data_keeps_the_real_slot_square(monkeypatch):
    # mu = 1/2 puts the residuals over twice the form's denominator; the rows
    # keep their weights, so the t row still pairs d_t f with itself
    frame = VariableFrame(("z",), ("t",))
    f = var(frame, "z") * var(frame, "t") + var(frame, "t") ** 2
    data = EigenData(ZERO, scalar(Fraction(1, 2)))
    calls = []
    mul = conformality._gauss_mul

    def spy(p, q, out):
        calls.append((p, q))
        return mul(p, q, out)

    monkeypatch.setattr(conformality, "_gauss_mul", spy)
    got = verify_general_family([f], data)
    assert [p for p, q in calls if p is q] == [_derivative(f.nums, frame.real_slot("t"))]
    want = ref_verify_general_family([f], data)
    assert (got.harmonic_residuals, got.conformal_pairs) == (want.harmonic_residuals,
                                                             want.conformal_pairs)


def test_fractional_eigen_data_matches_poly_reference():
    rng = random.Random(34)
    for frame in KERNEL_FRAMES[1:]:
        for _ in range(4):
            fs = [rand_poly(rng, frame) for _ in range(rng.randint(1, 3))]
            lam, mu = (scalar(Fraction(rng.randint(-9, 9), rng.choice([2, 3, 10])),
                              Fraction(rng.randint(-9, 9), rng.choice([1, 7])))
                       for _ in range(2))
            data = EigenData(lam, mu)
            got, want = verify_general_family(fs, data), ref_verify_general_family(fs, data)
            assert got.harmonic_residuals == want.harmonic_residuals
            assert got.conformal_pairs == want.conformal_pairs


gaussian = st.one_of(st.just(ZERO), mixed)


@st.composite
def family_cases(draw):
    frame = draw(st.sampled_from(KERNEL_FRAMES))
    fs = draw(st.lists(kernel_polys(frame), max_size=4))
    if fs and draw(st.booleans()):
        fs.append(fs[0])  # the same member twice
    return fs, EigenData(draw(gaussian), draw(gaussian))


@settings(max_examples=120, deadline=None)
@given(family_cases())
# real slots (self-pairs squared) and data whose denominators rescale the form
@example(([Poly(RS, {(2, 0): scalar(1, 3), (1, 1): 2, (0, 1): I}),
           Poly(RS, {(1, 1): scalar(Fraction(1, 2)), (0, 2): -1})],
          EigenData(scalar(Fraction(3, 2)), scalar(Fraction(-1, 3), Fraction(2, 7)))))
def test_verify_general_family_matches_poly_reference(case):
    fs, data = case
    got, want = verify_general_family(fs, data), ref_verify_general_family(fs, data)
    assert [r.terms for r in got.harmonic_residuals] == [r.terms for r in want.harmonic_residuals]
    assert ({ij: r.terms for ij, r in got.conformal_pairs.items()}
            == {ij: r.terms for ij, r in want.conformal_pairs.items()})
    assert (got.verdict, got.data, got.degree, got.warning) == (
        want.verdict, want.data, want.degree, want.warning)


def test_verify_sphere_families_match_poly_reference():
    # powers of a flat pair: zero residuals for the flat data, dense ones
    # for their sphere data and for Gaussian data
    for d in (1, 2, 3):
        fs, _ = power_family(degree2_pair(), d, FLAT_DATA)
        for data in (FLAT_DATA, sphere_data(fs),
                     EigenData(scalar(-3, 1), scalar(Fraction(2, 7), Fraction(-5, 7)))):
            got, want = verify_general_family(fs, data), ref_verify_general_family(fs, data)
            assert got.harmonic_residuals == want.harmonic_residuals
            assert got.conformal_pairs == want.conformal_pairs
            assert got.verdict == (data == FLAT_DATA)


def test_verify_prepares_each_member_once(monkeypatch):
    prepared = []
    original = conformality._Kernel.prepare

    def counting(kernel, f):
        prepared.append(f)
        return original(kernel, f)
    monkeypatch.setattr(conformality._Kernel, "prepare", counting)
    fs, _ = power_family(degree2_pair(), 3, FLAT_DATA)
    assert len(fs) == 4
    assert verify_flat_family(fs).verdict
    assert prepared == fs


def test_bracket_over_the_limit_raises_before_multiplying(monkeypatch):
    f1, f2 = degree2_pair()
    monkeypatch.setattr(conformality, "_gauss_mul", None)  # any product would fail
    monkeypatch.setattr(conformality, "BRACKET_LIMIT", 1)
    # kappa(f1, f2) pairs d_v f1 = z with 2 d_vbar f2 = -2u and d_w f1 = u
    # with 2 d_wbar f2 = 2z; every other slot pairing has an empty side
    with pytest.raises(ValueError, match="bracket needs 2 term products, over the limit of 1"):
        kappa(f1, f2)
    with pytest.raises(ValueError, match="over the limit of 1"):
        verify_flat_family([f1, f2])


def test_quadratic_verdict_skips_the_limit_in_degree_two_only(monkeypatch):
    f1, f2 = degree2_pair()
    monkeypatch.setattr(conformality, "BRACKET_LIMIT", 1)
    assert conformality.quadratic_verdict([f1, f2])
    # a nonzero Laplacian ends the verdict before any bracket
    assert not conformality.quadratic_verdict([f1, f1 * f1.conjugate()])
    with pytest.raises(ValueError, match="over the limit of 1"):
        conformality.quadratic_verdict([f1 * f1, f2 * f2])


@st.composite
def projected_quadratic_cases(draw):
    "(family, P): one to three members of degree at most 2 on a kernel frame, and a P."
    frame = draw(st.sampled_from(KERNEL_FRAMES))
    monos = st.tuples(*[st.integers(0, 2)] * frame.num_slots).filter(lambda t: sum(t) <= 2)
    member = st.dictionaries(monos, mixed, max_size=4).map(lambda t: Poly(frame, t))
    return draw(st.lists(member, min_size=1, max_size=3)), draw(symmetric_forms(frame.m))


@settings(max_examples=100, deadline=None)
@given(projected_quadratic_cases())
# (s + i t)^2 has its gradient on the isotropic w = (1, i), and P = w w^T
@example(([Poly(RS, {(2, 0): 1, (1, 1): 2 * I, (0, 2): -1})], Matrix([[1, I], [I, -1]], ncols=2)))
@example(([Poly(RS, {(0, 2): 1}), Poly(RS, {(0, 1): 3})], Matrix([[1, 0], [0, 0]], ncols=2)))
def test_quadratic_verdict_through_p_matches_the_references(case):
    fs, P = case
    want = (not any(ref_laplacian(f, P) for f in fs)
            and not any(ref_kappa(f, g, P) for i, f in enumerate(fs) for g in fs[i:]))
    assert conformality.quadratic_verdict(fs, P) == want


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
    with pytest.raises(ValueError, match="^a family of zero polynomials has no sphere data$"):
        sphere_data([Poly.zero(C2), Poly.zero(C2)])


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


def test_power_family_keeps_the_depth_first_order():
    from eigenforge import catalog
    for name in ("cubic-quartet-c4", "glued-pairs-c6"):
        fs = catalog.load_entry(name).polys
        assert len(fs) == 4
        for d in range(1, 5):
            assert power_family(fs, d, FLAT_DATA)[0] == ref_power_products(fs, d)


def test_power_family_errors():
    with pytest.raises(ValueError):
        power_family([var(C1, "z")], 0, FLAT_DATA)
    with pytest.raises(ValueError):
        power_family([], 2, FLAT_DATA)


def test_power_family_spends_one_budget_over_the_family(monkeypatch):
    # on {z, u} every product has one term, and each extends by the members
    # from its last index on: layers of 1 + 1, 2 + 1 and 2 + 1 + 1 products,
    # 9 in all by degree 3, while no single product passes the limit
    from eigenforge import poly
    fs = [var(C2, "z"), var(C2, "u")]
    monkeypatch.setattr(poly, "PRODUCT_LIMIT", 8)
    assert len(power_family(fs, 2, FLAT_DATA)[0]) == 3
    with pytest.raises(ValueError, match="^power family needs 9 term products, over the limit of 8$"):
        power_family(fs, 3, FLAT_DATA)


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
