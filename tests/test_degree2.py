"""Quadratic families: form extraction, the anticommutation criterion,
axis search, and the construct/decompose correspondence."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eigenforge.frames import VariableFrame
from eigenforge.poly import FrameMismatch, Poly
from eigenforge.scalars import GaussRational, I, ZERO, ONE, scalar
from eigenforge.linalg import Matrix, _annihilator, _real_rows, cayley_orthogonal, vec
from eigenforge.conformality import verify_flat_family, kappa
from eigenforge.holomorphy import (apply_real_isometry, gradient_span, is_axis,
                                  is_uniformly_complex_type)
from eigenforge import degree2
from eigenforge.degree2 import (
    Deg2Form,
    PolynomialData,
    SubspaceType,
    TwistingData,
    construct_eigenpair,
    data_from_json_dict,
    data_to_json_dict,
    decompose_eigenpair,
    default_frame,
    find_axis_deg2,
    from_form,
    is_eigenfamily_deg2,
    to_form,
    twist_x_matrix,
)

from oracles import (dot_bilinear, ref_annihilating_product, ref_construct_eigenpair,
                     ref_decompose_exact, ref_find_axis_deg2, ref_from_form, ref_matmul,
                     ref_maximal_axis_radical, ref_row_basis, ref_to_form, vec_is_zero)
from test_linalg import _entries, matrices

C1 = VariableFrame(("z",), ())
R2 = VariableFrame((), ("x", "t"))


def gr(a, b=0):
    return GaussRational(Fraction(a), Fraction(b))


def test_to_form_z_squared():
    z = Poly.variable(C1, "z")
    A = to_form(z * z).A
    i = gr(0, 1)
    assert A == Matrix([[ONE, i], [i, -ONE]], ncols=2)


def test_to_form_xt():
    x = Poly.variable(R2, "x")
    t = Poly.variable(R2, "t")
    A = to_form(x * t).A
    h = gr(Fraction(1, 2))
    assert A == Matrix([[ZERO, h], [h, ZERO]], ncols=2)


def test_to_form_rejects_wrong_degree():
    z = Poly.variable(C1, "z")
    with pytest.raises(ValueError):
        to_form(z * z * z)
    with pytest.raises(ValueError):
        to_form(z + z * z)


def rand_form_matrix(rng, m, span=2):
    rows = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            c = GaussRational(Fraction(rng.randint(-span, span), rng.randint(1, 2)),
                              Fraction(rng.randint(-span, span), rng.randint(1, 2)))
            rows[a][b] = c
            rows[b][a] = c
    return Matrix(rows, ncols=m)


def test_form_round_trip():
    rng = random.Random(5)
    frames = [C1, VariableFrame(("z", "u"), ("t",)), VariableFrame((), ("s", "t"))]
    for _ in range(40):
        frame = rng.choice(frames)
        A = rand_form_matrix(rng, frame.m)
        f = Deg2Form(frame, A)
        p = from_form(f)
        assert to_form(p).A == A
        assert to_form(from_form(to_form(p))) == to_form(p)


def storage(p):
    "The canonical packed form of p: equal polynomials have equal storage."
    return p.frame, p.den, p.nums


def test_from_form_matches_ring_reference_storage():
    rng = random.Random(8)
    frames = [C1, R2, VariableFrame(("z", "u"), ("t",)), VariableFrame((), ("s", "t", "r"))]
    for _ in range(40):
        frame = rng.choice(frames)
        A = rand_form_matrix(rng, frame.m)
        if rng.random() < 0.5:  # x^T A x for a non-symmetric A too
            A = Matrix([[rand_gauss(rng) for _ in range(frame.m)] for _ in range(frame.m)],
                       ncols=frame.m)
        f = Deg2Form(frame, A)
        assert storage(from_form(f)) == storage(ref_from_form(f))
    zero = Deg2Form(R2, Matrix.zero(2, 2))
    assert storage(from_form(zero)) == storage(Poly.zero(R2))


def test_to_form_matches_double_hessian_reference():
    rng = random.Random(6)
    for frame in (C1, R2, VariableFrame(("z", "u"), ("t",))):
        slots = ([Poly.variable(frame, n) for n in frame.complex_names + frame.real_names]
                 + [Poly.conj_variable(frame, n) for n in frame.complex_names])
        for _ in range(15):
            p = Poly.zero(frame)
            for _ in range(rng.randint(1, 5)):
                p = p + rand_gauss(rng) * rng.choice(slots) * rng.choice(slots)
            assert to_form(p).A == ref_to_form(p)


def test_gradient_span_is_the_span_of_the_form_rows():
    # grad(x^T A x) = 2 A x: the rows of the forms span the gradient span
    from eigenforge.holomorphy import gradient_span
    from eigenforge.linalg import ComplexSubspace
    rng = random.Random(7)
    for frame in (C1, R2, VariableFrame(("z", "u"), ("t",)), VariableFrame(("z", "u", "v"), ())):
        slots = ([Poly.variable(frame, n) for n in frame.complex_names + frame.real_names]
                 + [Poly.conj_variable(frame, n) for n in frame.complex_names])
        for _ in range(12):
            fs = []
            for _ in range(rng.randint(1, 3)):
                p = Poly.zero(frame)
                for _ in range(rng.randint(1, 4)):
                    p = p + rand_gauss(rng) * rng.choice(slots) * rng.choice(slots)
                fs.append(p)
            rows = [row for p in fs for row in to_form(p).A.rows]
            assert gradient_span(fs) == ComplexSubspace(frame.m, rows)


def test_anticommutation_matches_verification():
    # the matrix criterion and the differential one agree on random
    # quadratic families, eigen or not
    rng = random.Random(11)
    frames = [VariableFrame(("z",), ("t",)), VariableFrame(("z", "u"), ())]
    agree = 0
    for _ in range(500):
        frame = rng.choice(frames)
        size = rng.choice([1, 2])
        polys = []
        for _ in range(size):
            A = rand_form_matrix(rng, frame.m, span=1)
            polys.append(from_form(Deg2Form(frame, A)))
        if any(p == 0 for p in polys):
            continue
        by_matrix = is_eigenfamily_deg2(polys)
        by_kappa = verify_flat_family(polys).verdict
        assert by_matrix == by_kappa
        agree += 1
    assert agree > 400


def test_non_symmetric_form_gets_the_verdict_of_its_polynomial():
    # x^T A x = x t for A = [[0, 1], [0, 0]], although A A = 0
    form = Deg2Form(R2, Matrix([[0, 1], [0, 0]]))
    assert from_form(form) == Poly.variable(R2, "x") * Poly.variable(R2, "t")
    assert not verify_flat_family([from_form(form)]).verdict
    assert not is_eigenfamily_deg2([form])
    with pytest.raises(ValueError, match="not a quadratic eigenfamily"):
        find_axis_deg2([form])


def test_empty_family_verifies_vacuously_but_has_no_axis():
    assert is_eigenfamily_deg2([]) and verify_flat_family([]).verdict
    with pytest.raises(ValueError, match="empty family"):
        find_axis_deg2([])


def test_form_matrix_must_match_its_frame():
    form = Deg2Form(R2, Matrix.identity(3))
    for call in (from_form, lambda f: is_eigenfamily_deg2([f]), lambda f: find_axis_deg2([f])):
        with pytest.raises(ValueError, match="form matrix is 3x3, not 2x2"):
            call(form)


def test_members_are_checked_in_order_then_their_frames():
    # a bad member raises before any later member and before the frames are compared
    x, z = Poly.variable(R2, "x"), Poly.variable(C1, "z")
    for call in (is_eigenfamily_deg2, find_axis_deg2):
        with pytest.raises(TypeError, match="got str"):
            call([z * z, "x", x ** 3])
        with pytest.raises(ValueError, match="quadratic form needs"):
            call([z * z, x ** 3, "x"])
        with pytest.raises(FrameMismatch, match="form members"):
            call([z * z, x * x])


@st.composite
def anticommuting_cases(draw):
    "Square matrices of one size, some built from isotropic vectors so that they anticommute."
    n = draw(st.integers(0, 4))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        if n == 4 and draw(st.booleans()):
            # (a, ia, b, ib) . (c, ic, d, id) = 0: u u^T, v v^T and u v^T + v u^T anticommute
            a, b, c, d = (draw(_entries) for _ in range(4))
            u, v = vec([a, I * a, b, I * b]), vec([c, I * c, d, I * d])
            U, V = Matrix([u], ncols=4), Matrix([v], ncols=4)
            mats.append(draw(st.sampled_from([U.transpose() * U, V.transpose() * V,
                                              U.transpose() * V + V.transpose() * U])))
        elif n >= 2 and draw(st.booleans()):
            # one entry above the diagonal: A A = 0, but its symmetric part squares to nonzero
            i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                        unique=True)))
            rows = [[ZERO] * n for _ in range(n)]
            rows[i][j] = scalar(draw(st.integers(1, 3)))
            mats.append(Matrix(rows, ncols=n))
        elif draw(st.booleans()):
            M = draw(matrices(n, n))
            mats.append(M + M.transpose())
        else:
            mats.append(draw(matrices(n, n)))
    return mats


@settings(max_examples=100, deadline=None)
@given(anticommuting_cases())
def test_eigenfamily_verdict_is_the_flat_verdict_of_the_polynomials(mats):
    # and, for the symmetric parts S of the matrices, all S_i S_j + S_j S_i vanish
    frame = VariableFrame((), tuple(f"s{j}" for j in range(mats[0].nrows)))
    forms = [Deg2Form(frame, A) for A in mats]
    sym = [(A + A.transpose()).scale(Fraction(1, 2)) for A in mats]
    want = all((ref_matmul(A, B) + ref_matmul(B, A)).is_zero()
               for i, A in enumerate(sym) for B in sym[i:])
    assert is_eigenfamily_deg2(forms) == verify_flat_family([from_form(f) for f in forms]).verdict
    assert is_eigenfamily_deg2(forms) == want


def test_nilpotency_matches_complex_type_for_singletons():
    # for one quadratic form the gradient span is the column span, so
    # bilinear isotropy of the span is exactly A A = 0
    rng = random.Random(13)
    frame = VariableFrame(("z", "u"), ())
    checked = 0
    for _ in range(500):
        if rng.random() < 0.4:
            # nilpotent by construction: A = w w^T for isotropic w
            w = vec([gr(1), gr(0, 1), gr(rng.randint(-1, 1)), gr(0, rng.randint(-1, 1))])
            s = dot_bilinear(w, w)
            if s != ZERO:
                continue
            A = Matrix([[w[a] * w[b] for b in range(4)] for a in range(4)], ncols=4)
        else:
            A = rand_form_matrix(rng, 4, span=1)
        p = from_form(Deg2Form(frame, A))
        if p == 0:
            continue
        flag, _ = is_uniformly_complex_type([p])
        assert flag == (A * A).is_zero()
        checked += 1
    assert checked > 350


def worked_pair(names=("z", "u", "v", "w")):
    t = SubspaceType(2, 2, 0)
    zf = VariableFrame(("z1", "z2"), ())
    pz = Poly.zero(zf)
    pd = PolynomialData(pz, pz, Matrix.identity(2))
    Y = Matrix([[ZERO, ONE], [-ONE, ZERO]], ncols=2)
    td = TwistingData(Y, Matrix.zero(2, 2), (ZERO, ZERO))
    return construct_eigenpair(t, pd, td, names=names)


def test_construct_matches_known_pair():
    from eigenforge.parser import format_poly
    F1, F2 = worked_pair()
    assert format_poly(F1) == "z*v + u*w"
    assert format_poly(F2) == "z*conj(w) - u*conj(v)"
    assert verify_flat_family([F1, F2]).verdict


def test_construct_with_linear_time_coupling():
    from eigenforge.parser import format_poly
    t = SubspaceType(2, 2, 1)
    zf = VariableFrame(("z1", "z2"), ())
    pz = Poly.zero(zf)
    pd = PolynomialData(pz, pz, Matrix.identity(2))
    Y = Matrix([[ZERO, ONE], [-ONE, ZERO]], ncols=2)
    td = TwistingData(Y, Matrix.zero(2, 2), (gr(2), ZERO))
    G1, G2 = construct_eigenpair(t, pd, td, names=("z", "u", "v", "w"))
    assert format_poly(G1) == "z*v + u*w"
    assert format_poly(G2) == "z*w + z*conj(w) + 2*i*z*t - u*conj(v)"
    assert verify_flat_family([G1, G2]).verdict


def test_printed_variant_is_not_an_eigenfamily():
    # the plausible-looking variant z*conj(w) - z*conj(v) fails: its
    # pairing with z*v + u*w does not vanish
    frame = VariableFrame(("z", "u", "v", "w"), ())
    z = Poly.variable(frame, "z")
    u = Poly.variable(frame, "u")
    v = Poly.variable(frame, "v")
    w = Poly.variable(frame, "w")
    F1 = z * v + u * w
    bad = z * w.conjugate() - z * v.conjugate()
    assert kappa(F1, bad) != 0
    assert not is_eigenfamily_deg2([F1, bad])
    assert not verify_flat_family([F1, bad]).verdict


def test_twist_x_matrix_relation():
    # X Y = C - v v^T / 4 by construction
    Y = Matrix([[ZERO, gr(3)], [gr(-3), ZERO]], ncols=2)
    C = Matrix([[ZERO, gr(1, 2)], [gr(-1, -2), ZERO]], ncols=2)
    v = (gr(2), gr(0, 2))
    td = TwistingData(Y, C, v)
    X = twist_x_matrix(td)
    vvt = Matrix([[v[a] * v[b] for b in range(2)] for a in range(2)], ncols=2)
    assert X * Y == C - vvt.scale(scalar(Fraction(1, 4)))


def test_data_validation_errors():
    zf = VariableFrame(("z1", "z2"), ())
    pz = Poly.zero(zf)
    good_Y = Matrix([[ZERO, ONE], [-ONE, ZERO]], ncols=2)
    with pytest.raises(ValueError):
        SubspaceType(1, 2, 0).validate()  # n < k
    with pytest.raises(ValueError):
        SubspaceType(2, 1, 0).validate()  # odd k
    with pytest.raises(ValueError):
        SubspaceType(2, 2, 2).validate()
    t = SubspaceType(2, 2, 0)
    with pytest.raises(ValueError):
        PolynomialData(pz, pz, Matrix.zero(2, 2)).validate(t)  # rank
    with pytest.raises(ValueError):
        z1 = Poly.variable(zf, "z1")
        PolynomialData(z1 * z1.conjugate(), pz, Matrix.identity(2)).validate(t)
    with pytest.raises(ValueError):
        TwistingData(Matrix.zero(2, 2), Matrix.zero(2, 2), (ZERO, ZERO)).validate(t)  # singular Y
    with pytest.raises(ValueError):
        TwistingData(Matrix.identity(2), Matrix.zero(2, 2), (ZERO, ZERO)).validate(t)  # not antisym
    with pytest.raises(ValueError):
        TwistingData(good_Y, Matrix.zero(2, 2), (gr(1), ZERO)).validate(t)  # v vs delta
    t1 = SubspaceType(2, 2, 1)
    with pytest.raises(ValueError):
        TwistingData(good_Y, Matrix.zero(2, 2), (ZERO, ZERO)).validate(t1)


def rand_gauss(rng, span=2, den=3):
    return GaussRational(Fraction(rng.randint(-span, span), rng.randint(1, den)),
                         Fraction(rng.randint(-span, span), rng.randint(1, den)))


def rand_data(rng, n_max=4, k=None, n=None, delta=None):
    k = rng.choice([0, 2]) if k is None else k
    n = rng.randint(max(k, 1), n_max) if n is None else n
    delta = (rng.choice([0, 1]) if k else 0) if delta is None else delta
    t = SubspaceType(n, k, delta)
    zf = VariableFrame(tuple(f"z{i+1}" for i in range(n)), ())
    zs = [Poly.variable(zf, name) for name in zf.complex_names]
    P1 = Poly.zero(zf)
    P2 = Poly.zero(zf)
    for i in range(n):
        for j in range(i, n):
            P1 = P1 + rand_gauss(rng) * zs[i] * zs[j]
            P2 = P2 + rand_gauss(rng) * zs[i] * zs[j]
    while True:
        A = Matrix([[rand_gauss(rng) for _ in range(k)] for _ in range(n)], ncols=k)
        if A.rank() == k:
            break
    if k:
        while True:
            y = rand_gauss(rng)
            if y:
                break
        Y = Matrix([[ZERO, y], [-y, ZERO]], ncols=2)
        c = rand_gauss(rng)
        C = Matrix([[ZERO, c], [-c, ZERO]], ncols=2)
        if delta:
            while True:
                v = (rand_gauss(rng), rand_gauss(rng))
                if not vec_is_zero(vec(v)):
                    break
        else:
            v = (ZERO, ZERO)
    else:
        Y = Matrix([], ncols=0)
        C = Matrix([], ncols=0)
        v = ()
    return t, PolynomialData(P1, P2, A), TwistingData(Y, C, v)


def test_random_construction_always_verifies():
    rng = random.Random(29)
    for _ in range(30):
        t, pd, td = rand_data(rng)
        F1, F2 = construct_eigenpair(t, pd, td)
        report = verify_flat_family([F1, F2])
        assert report.verdict, (t, report.failures())


def test_construct_matches_ring_reference_storage():
    rng = random.Random(30)
    cases = [rand_data(rng) for _ in range(30)]
    ks = {t.k for t, _, _ in cases}
    assert ks == {0, 2} and any(t.delta for t, _, _ in cases)
    t, pd, td = rand_data(random.Random(4))
    cases.append((t, pd._replace(P1=Poly.zero(pd.P1.frame)), td))
    for t, pd, td in cases:
        for names in (None, tuple(f"q{j}" for j in range(t.n + t.k))):
            built = construct_eigenpair(t, pd, td, names=names)
            expect = ref_construct_eigenpair(t, pd, td, names=names)
            assert list(map(storage, built)) == list(map(storage, expect))


def test_decomposed_polynomials_are_canonical():
    # P1 and P2 come out of the exact tail and the float tail in the
    # storage that the constructor gives their terms
    rng = random.Random(32)
    exact = set()
    for _ in range(12):
        F1, F2 = construct_eigenpair(*rand_data(rng))
        dec = decompose_eigenpair(F1, F2)
        exact.add(dec.exact)
        for p in (dec.poly_data.P1, dec.poly_data.P2):
            assert storage(p) == storage(Poly(p.frame, p.terms))
    assert exact == {True, False}


def test_decompose_recovers_aligned_data():
    F1, F2 = worked_pair(names=None)
    dec = decompose_eigenpair(F1, F2)
    assert dec.exact
    assert tuple(dec.subspace_type) == (2, 2, 0)
    assert dec.poly_data.A == Matrix.identity(2)
    assert dec.twist_data.Y == Matrix([[ZERO, ONE], [-ONE, ZERO]], ncols=2)
    assert dec.twist_data.C == Matrix.zero(2, 2)
    R1, R2 = dec.reconstruct()
    assert verify_flat_family([R1, R2]).verdict


def test_round_trip_validates_the_data_twice(monkeypatch):
    # construct_eigenpair validates its input and the decomposition its
    # recovered data; reconstruct builds from that data with no third check
    calls = []
    for cls in (PolynomialData, TwistingData):
        def counting(data, t, original=cls.validate):
            calls.append(type(data).__name__)
            return original(data, t)
        monkeypatch.setattr(cls, "validate", counting)
    F1, F2 = construct_eigenpair(*rand_data(random.Random(5), k=2))
    R1, R2 = decompose_eigenpair(F1, F2).reconstruct()
    assert sorted(calls) == ["PolynomialData"] * 2 + ["TwistingData"] * 2
    assert verify_flat_family([R1, R2]).verdict


def test_decomposition_of_invalid_data_raises_at_construction():
    t, pd, td = rand_data(random.Random(5), k=2)
    cases = [(SubspaceType(t.n, 1, t.delta), pd, td, "k must be even"),
             (t, PolynomialData(pd.P1, pd.P2, Matrix.identity(t.n + 1)), td, "A must be"),
             (t, pd, TwistingData(td.Y, td.C, td.v[:1]), "v must have length")]
    for st_, pd_, td_, message in cases:
        with pytest.raises(ValueError, match=message):
            degree2.Deg2Decomposition(st_, pd_, td_, Matrix.identity(2 * (t.n + t.k)), True)


def test_invalid_decomposed_data_is_an_internal_error():
    # the tails leave every rule of the data to its validators; data that a
    # tail computed and that fails one is a failed check, not a bad input
    t, pd, td = rand_data(random.Random(5), n=3, k=2, delta=1)
    one = Matrix.identity(1)

    def decompose(delta, A, td):
        Z = Matrix.zero(A.nrows, A.nrows)
        return degree2._decomposition(delta, Z, Z, A, td, Matrix.identity(11), True)
    assert decompose(1, pd.A, td).subspace_type == t
    cases = [(1, Matrix.zero(3, 2), td, "A must have full column rank"),
             (1, pd.A, td._replace(Y=Matrix.zero(2, 2)), "Y must be invertible"),
             (1, pd.A, td._replace(Y=Matrix.identity(2)), "Y must be antisymmetric"),
             (1, pd.A, td._replace(C=Matrix.identity(2)), "C must be antisymmetric"),
             (1, pd.A, td._replace(v=(ZERO, ZERO)), "v = 0 exactly when delta = 0"),
             (2, pd.A, td, "delta must be 0 or 1"),
             (0, Matrix([[ONE]] * 3, ncols=1), TwistingData(one, one, (ZERO,)), "k must be even"),
             (0, Matrix([[ONE, ZERO]], ncols=2), td._replace(v=(ZERO, ZERO)), "need n >= k")]
    for delta, A, td_, message in cases:
        with pytest.raises(AssertionError, match=f"^decomposed data is invalid: {message}"):
            decompose(delta, A, td_)


def rand_cayley(rng, m, span=1, den=2):
    S = [[ZERO] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            q = GaussRational(Fraction(rng.randint(-span, span), rng.randint(1, den)))
            S[a][b] = q
            S[b][a] = -q
    return cayley_orthogonal(Matrix(S, ncols=m))


def rotated(F1, F2, rng):
    m = F1.frame.m
    Q = rand_cayley(rng, m)
    n_c = F1.frame.n
    names = tuple(f"a{j+1}" for j in range(n_c))
    target = VariableFrame(names, F1.frame.real_names)
    return apply_real_isometry(F1, Q, target), apply_real_isometry(F2, Q, target), Q


def test_decompose_round_trip_rotated():
    import numpy

    rng = random.Random(31)
    done = 0
    while done < 8:
        t, pd, td = rand_data(rng, n_max=3)
        if t.k == 0:
            continue
        F1, F2 = construct_eigenpair(t, pd, td)
        G1, G2 = rotated(F1, F2, rng)[:2]
        dec = decompose_eigenpair(G1, G2)
        assert tuple(dec.subspace_type) == tuple(t)
        R1, R2 = dec.reconstruct()
        assert verify_flat_family([R1, R2]).verdict
        # span of the quadratic forms matches through the recorded isometry
        T = numpy.asarray(dec.isometry if not dec.exact else dec.isometry.to_float().real,
                          dtype=float)
        def span_projector(mats):
            V = numpy.array([M.flatten() for M in mats]).T
            Qm, _ = numpy.linalg.qr(V)
            return Qm @ Qm.conj().T
        orig = span_projector([to_form(G1).A.to_float(), to_form(G2).A.to_float()])
        rec = span_projector([T.T @ to_form(R1).A.to_float() @ T,
                              T.T @ to_form(R2).A.to_float() @ T])
        assert numpy.linalg.norm(orig - rec) < 1e-8
        done += 1


# SHA-256 over the printed data, the tail taken and the isometry of 96
# seeded decompositions (every third pair under a Cayley rotation), and
# the messages of the pairs it refuses on the way; any change to what
# decompose_eigenpair returns changes it
DECOMPOSITION_DIGEST = "e55f4c1fc33453ad65eef3af3047a74ed3cd3bc885f8e355bbae32eeaead1019"


def decomposition_digest(count=96):
    rng = random.Random(96)
    h, tails = hashlib.sha256(), []
    while len(tails) < count:
        F1, F2 = construct_eigenpair(*rand_data(rng))
        if len(tails) % 3 == 2:
            F1, F2 = rotated(F1, F2, rng)[:2]
        try:
            dec = decompose_eigenpair(F1, F2)
        except ValueError as e:  # a zero member, or a pair that is not full
            h.update(str(e).encode())
            continue
        data = data_to_json_dict(dec.subspace_type, dec.poly_data, dec.twist_data)
        h.update(json.dumps(data, sort_keys=True).encode())
        h.update(b"exact" if dec.exact else b"float")
        iso = dec.isometry
        h.update(repr((iso.den, iso.re, iso.im) if dec.exact else iso.shape).encode())
        if not dec.exact:
            h.update(iso.tobytes())
        tails.append(dec.exact)
    return h.hexdigest(), tails


def test_decompositions_are_byte_identical_to_the_recorded_digest():
    digest, tails = decomposition_digest()
    assert True in tails and False in tails
    assert digest == DECOMPOSITION_DIGEST


# every subspace type (n, k, delta) with n <= 4 and k in {0, 2}
TYPES = [(n, k, delta) for n in range(1, 5) for k in (0, 2) if k <= n
         for delta in ((0, 1) if k else (0,))]


def exact_tail_inputs(t, seed, rotate):
    """(frame, M1, M2, radical, aniso) of a constructed pair of type t, or
    None when the pair is not full (a zero member, say); the shared isotropic
    step gives the decomposition the same radical and aniso as the reference."""
    rng = random.Random(seed)
    F1, F2 = construct_eigenpair(*rand_data(rng, k=t[1], n=t[0], delta=t[2]))
    if rotate:
        F1, F2 = rotated(F1, F2, rng)[:2]
    if F1 == 0 or F2 == 0:
        return None
    M1, M2 = to_form(F1).A, to_form(F2).A
    try:
        radical, aniso = ref_maximal_axis_radical(M1, M2)
    except ValueError:
        return None
    _, isotropics, _, d, _ = degree2._isotropic_parts(gradient_span([F1, F2]))
    assert (isotropics, d) == (radical, aniso)
    return F1.frame, M1, M2, radical, aniso


def tail_outcome(tail, *args):
    "The data a tail returns, or the type and message of what it raises."
    try:
        dec = tail(*args)
    except (degree2._NeedsFloat, AssertionError) as exc:
        return type(exc).__name__, exc.args
    return (dec.subspace_type, dec.poly_data, dec.twist_data, dec.isometry, dec.exact)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(TYPES), st.integers(0, 2 ** 32), st.booleans())
def test_exact_tail_matches_the_projector_reference(t, seed, rotate):
    args = exact_tail_inputs(t, seed, rotate)
    if args is None:
        return
    got = tail_outcome(degree2._decompose_exact, *args)
    assert got == tail_outcome(ref_decompose_exact, *args)
    if got[0] != "_NeedsFloat":  # no guard fires on a constructed pair
        assert got[0] == SubspaceType(*t) and got[4] is True


def test_both_exact_tails_reject_a_planted_pure_complement_block():
    # N = C^T Z C, for rows C spanning the axis complement, keeps M1 + N
    # holomorphic in the axis coordinates (C U^T = 0) and is its own pure
    # complement block
    rng, rejected = random.Random(97), 0
    for _ in range(40):
        t = rng.choice([t for t in TYPES if t[1] or t[2]])
        args = exact_tail_inputs(t, rng.randrange(2 ** 32), False)
        if args is None:
            continue
        frame, M1, M2, radical, aniso = args
        if tail_outcome(degree2._decompose_exact, *args) == ("_NeedsFloat", ("axis norm",)):
            continue  # the check comes after the axis norms
        C = _annihilator(_real_rows(radical))  # the axis rows are Re and Im of radical's, scaled
        c = C.nrows
        Z = Matrix([[rand_gauss(rng) if a <= b else ZERO for b in range(c)] for a in range(c)],
                   ncols=c)
        Z = Z + Z.transpose()
        if Z.is_zero():
            continue
        N = C.transpose() * Z * C
        for M1x, M2x in ((M1 + N, M2), (M1, M2 + N)):
            for tail in (degree2._decompose_exact, ref_decompose_exact):
                assert tail_outcome(tail, frame, M1x, M2x, radical, aniso) == \
                    ("AssertionError", ("nonzero pure complement block",))
        rejected += 1
    assert rejected >= 10


def test_decompose_rejects_bad_input():
    frame = VariableFrame(("z", "u"), ())
    z = Poly.variable(frame, "z")
    u = Poly.variable(frame, "u")
    with pytest.raises(ValueError):
        decompose_eigenpair(z, u)  # degree 1
    with pytest.raises(ValueError):
        decompose_eigenpair(z * z.conjugate(), u * u)  # not eigen
    # not full: an unused real direction remains
    wide = VariableFrame(("z", "u"), ("t",))
    zw = Poly.variable(wide, "z")
    uw = Poly.variable(wide, "u")
    with pytest.raises(ValueError):
        decompose_eigenpair(zw * zw, zw * uw)
    with pytest.raises(FrameMismatch, match="^pair must share a frame$"):
        decompose_eigenpair(z * u, zw * uw)


def test_find_axis_on_known_pair():
    F1, F2 = worked_pair()
    axis, degenerate = find_axis_deg2([F1, F2])
    assert not degenerate
    assert axis.dim >= 2
    from eigenforge.holomorphy import is_axis
    assert is_axis([F1, F2], axis)


def test_find_axis_degenerate_family():
    frame = VariableFrame(("z",), ())
    axis, degenerate = find_axis_deg2([Poly.zero(frame)])
    assert degenerate
    assert axis.dim == frame.m


def test_find_axis_rejects_non_eigen():
    frame = VariableFrame(("z",), ())
    z = Poly.variable(frame, "z")
    with pytest.raises(ValueError):
        find_axis_deg2([z * z.conjugate()])
    with pytest.raises(ValueError):
        find_axis_deg2([])


def anticommuting_family(rng, m, count=2, rotate=True, Q=None):
    """Quadratic forms built from a common isotropic column span; all
    pairwise anticommutators vanish because every inner product of the
    generating vectors is zero.  Without the rotation the forms live on
    the first six coordinates, so their products have zero columns.  Q,
    if given, replaces the rotation: its first six columns need only be
    orthogonal and of one norm."""
    if Q is None:
        Q = rand_cayley(rng, m) if rotate else Matrix.identity(m)
    pairs = m // 2
    ws = []
    for j in range(min(pairs, 3)):
        col = [ZERO] * m
        col[2 * j] = ONE
        col[2 * j + 1] = GaussRational(0, 1)
        ws.append(Q.apply(vec(col)))
    mats = []
    for _ in range(count):
        A = Matrix.zero(m, m)
        for a in range(len(ws)):
            for b in range(a, len(ws)):
                c = rand_gauss(rng, span=1, den=2)
                if not c:
                    continue
                wa, wb = ws[a], ws[b]
                B = Matrix([[wa[x] * wb[y] + wb[x] * wa[y] for y in range(m)]
                            for x in range(m)], ncols=m)
                A = A + B.scale(c)
        mats.append(A)
    return mats


def test_find_axis_on_generated_anticommuting_families():
    rng = random.Random(37)
    frames = {4: VariableFrame((), tuple(f"s{j}" for j in range(4))),
              6: VariableFrame((), tuple(f"s{j}" for j in range(6)))}
    done = 0
    while done < 20:
        m = rng.choice([4, 6])
        mats = anticommuting_family(rng, m)
        polys = [from_form(Deg2Form(frames[m], A)) for A in mats]
        if any(p == 0 for p in polys):
            continue
        assert is_eigenfamily_deg2(polys)
        axis, degenerate = find_axis_deg2(polys)
        assert not degenerate
        assert axis.dim >= 2
        from eigenforge.holomorphy import is_axis
        assert is_axis(polys, axis)
        done += 1


def test_find_axis_matches_the_gram_schmidt_reference():
    # products of rank at most 3 have dependent columns, and unrotated ones
    # zero columns too; a family of zero forms is degenerate
    rng = random.Random(59)
    for m in range(4, 17):
        frame = VariableFrame((), tuple(f"s{j}" for j in range(m)))
        families = [[from_form(Deg2Form(frame, A)) for A in anticommuting_family(rng, m, rotate=r)]
                    for r in (True, False)]
        for polys in families + [[Poly.zero(frame)] * 2]:
            assert find_axis_deg2(polys) == ref_find_axis_deg2(polys)


def frames_of_dimension(m):
    "R^m, and C^n x R^(m - 2n) for the largest n and, for even m, one less."
    n = m // 2
    return [VariableFrame((), tuple(f"s{j}" for j in range(m)))] + [
        VariableFrame(tuple(f"z{j}" for j in range(k)), tuple(f"t{j}" for j in range(m - 2 * k)))
        for k in sorted({n, (m - 1) // 2}, reverse=True)]


def low_rank_forms(rng, m, count=2):
    """count forms W C W^T for the columns of W: up to two isotropic w (as in
    anticommuting_family) and one or two random Gaussian columns v, which are not
    isotropic.  Each C is either supported on the w block, so that the forms
    anticommute, or a random symmetric matrix on all of W, so that they
    usually do not."""
    Q = rand_cayley(rng, m)
    ws = [Q.apply(vec([ONE if x == 2 * j else I if x == 2 * j + 1 else ZERO for x in range(m)]))
          for j in range(rng.randint(1, 2))]
    W = Matrix(ws + [[rand_gauss(rng, span=1, den=2) for _ in range(m)]
                     for _ in range(rng.randint(1, 2))], ncols=m).transpose()
    k, block = W.ncols, rng.random() < 0.5
    mats = []
    for _ in range(count):
        C = [[ZERO] * k for _ in range(k)]
        for a in range(k):
            for b in range(a, k):
                if not block or b < len(ws):
                    C[a][b] = C[b][a] = rand_gauss(rng, span=1, den=2)
        mats.append(W * Matrix(C, ncols=k) * W.transpose())
    return mats


def test_find_axis_rejects_exactly_the_non_eigenfamilies_of_low_rank():
    # compressed coordinates have r = rank W < m; the verdict on them is the flat one
    rng = random.Random(89)
    verdicts = set()
    for m in range(4, 13):
        for frame in frames_of_dimension(m):
            polys = [from_form(Deg2Form(frame, A)) for A in low_rank_forms(rng, m)]
            verdict = verify_flat_family(polys).verdict
            verdicts.add(verdict)
            if not verdict:
                with pytest.raises(ValueError, match="not a quadratic eigenfamily"):
                    find_axis_deg2(polys)
                continue
            axis, degenerate = find_axis_deg2(polys)
            assert (axis, degenerate) == ref_find_axis_deg2(polys)
            assert degenerate or is_axis(polys, axis)
    assert verdicts == {True, False}


def test_find_axis_matches_the_reference_on_complex_frames():
    rng = random.Random(97)
    for m in range(4, 13):
        for frame in frames_of_dimension(m)[1:]:
            polys = [from_form(Deg2Form(frame, A)) for A in anticommuting_family(rng, m)]
            assert find_axis_deg2(polys) == ref_find_axis_deg2(polys)


def test_find_axis_matches_the_reference_on_constructed_pairs():
    # full k = 2 pairs mostly have M2 M1 != 0, so the product search goes a layer deeper
    rng = random.Random(71)
    nonzero = 0
    for _ in range(30):
        F1, F2 = construct_eigenpair(*rand_data(rng, k=2))
        M1, M2 = to_form(F1).A, to_form(F2).A
        nonzero += not (M2 * M1).is_zero()
        assert find_axis_deg2([F1, F2]) == ref_find_axis_deg2([F1, F2])
    assert nonzero >= 10


def block_diagonal(A, B):
    "diag(A, B) for square A and B."
    a, b = A.nrows, B.nrows
    return Matrix([list(r) + [ZERO] * b for r in A.rows] + [[ZERO] * a + list(r) for r in B.rows],
                  ncols=a + b)


def block_family(rng):
    """(forms, pair): diag(M1, N1), diag(M2, 0) and diag(0, N2) as forms, for the
    forms of two constructed k = 2 pairs, and the first pair.  They anticommute;
    the last nonzero layer holds {0, 1} and {0, 2}, whose products live on
    different blocks, so the first index set in order decides the axis."""
    F1, F2 = construct_eigenpair(*rand_data(rng, k=2))
    M1, M2, N1, N2 = (to_form(F).A for F in (F1, F2) + construct_eigenpair(*rand_data(rng, k=2)))
    Z, Y = Matrix.zero(M1.nrows, M1.nrows), Matrix.zero(N1.nrows, N1.nrows)
    frame = VariableFrame((), tuple(f"s{j}" for j in range(M1.nrows + N1.nrows)))
    blocks = [block_diagonal(M1, N1), block_diagonal(M2, Y), block_diagonal(Z, N2)]
    return [Deg2Form(frame, A) for A in blocks], (F1, F2)


ORDERS = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1))


def test_find_axis_matches_the_reference_on_three_member_families():
    # F1 + F2 and F1 - i F2 anticommute with F1 and F2 as well
    rng = random.Random(73)
    i = scalar(0, 1)
    for _ in range(8):
        blocks, (F1, F2) = block_family(rng)
        for forms in [[blocks[j] for j in order] for order in ORDERS] + [
                [F1, F2, F1 + F2], [F2, F1 - i * F2, F1], [F1, Poly.zero(F1.frame), F2]]:
            assert is_eigenfamily_deg2(forms)
            assert find_axis_deg2(forms) == ref_find_axis_deg2(forms)
    for m in (4, 6, 8):
        frame = VariableFrame((), tuple(f"s{j}" for j in range(m)))
        polys = [from_form(Deg2Form(frame, A)) for A in anticommuting_family(rng, m, count=3)]
        assert find_axis_deg2(polys) == ref_find_axis_deg2(polys)


def test_annihilating_product_is_the_references_up_to_sign():
    from eigenforge.degree2 import _annihilating_product
    rng = random.Random(79)
    for _ in range(5):
        blocks, _ = block_family(rng)
        for order in ORDERS:
            mats = [blocks[j].A for j in order]
            want = ref_annihilating_product(mats)
            m = mats[0].nrows
            assert _annihilating_product(mats, Matrix.identity(m)) in (want, -want)
            # in compressed coordinates: A_j = B^T C_j B for the RREF basis B of their rows
            R, pivots = Matrix([row for A in mats for row in A.rows], ncols=m).rref()
            B = Matrix(R.rows[:len(pivots)], ncols=m)
            middles = [Matrix([[A[p, q] for q in pivots] for p in pivots], ncols=len(pivots))
                       for A in mats]
            assert all(B.transpose() * C * B == A for C, A in zip(middles, mats))
            S = _annihilating_product(middles, B * B.transpose())
            assert B.transpose() * S * B in (want, -want)


def test_find_axis_on_a_zero_product_multiplies_once(monkeypatch):
    # one r x r step product per index set: C2 G C1 = 0 ends the search, with no
    # identity factors; besides it, G = B B^T, one step matrix C_j G per member
    # and the axis rows S^T B are formed once each
    from eigenforge import degree2
    rng = random.Random(83)
    frame = VariableFrame((), tuple(f"s{j}" for j in range(6)))
    forms = [Deg2Form(frame, A) for A in anticommuting_family(rng, 6)]
    assert not any(f.A.is_zero() for f in forms) and (forms[1].A * forms[0].A).is_zero()
    find_axis_deg2(forms)  # caches the bracket's slot table for this family's G
    calls, searches = [], []
    mul, search = Matrix.__mul__, degree2._annihilating_product

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    def recorded(mats, G):
        searches.append((mats, G))
        return search(mats, G)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    monkeypatch.setattr(degree2, "_annihilating_product", recorded)
    axis, degenerate = find_axis_deg2(forms)
    assert not degenerate and axis.dim >= 2
    (mats, G), = searches
    r = G.nrows
    assert r < 6 and len(mats) == 2 and len(calls) == 5
    assert sum(other is G for other in calls) == len(mats)
    assert len([o for o in calls if o is not G and o.nrows == o.ncols == r]) == 1


def test_each_span_route_runs(monkeypatch):
    # a catalog gradient span (25% nonzero) takes the Bareiss elimination; the
    # dense rows of an anticommuting family's forms, and of its gradient span,
    # take the left-looking route, which never calls _eliminate
    from eigenforge import catalog, linalg
    from eigenforge.holomorphy import gradient_span
    from eigenforge.poly import gradient_rows
    sparse = catalog.load_entry("cubic-quartet-c4").polys
    forms = anticommuting_family(random.Random(1), 12)
    dense = [from_form(Deg2Form(VariableFrame((), tuple(f"s{j}" for j in range(12))), A))
             for A in forms]
    rows = [row for A in forms for row in zip(A.re, A.im)]
    want = [ref_row_basis([row for f in fs for row in gradient_rows(f).values()], fs[0].frame.m)
            for fs in (sparse, dense)] + [ref_row_basis(rows, 12)]
    calls, eliminate = [], linalg._eliminate

    def counted(rows, ncols):
        calls.append(ncols)
        return eliminate(rows, ncols)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert gradient_span(sparse).basis_matrix == want[0] and calls == [8]
    calls.clear()
    assert gradient_span(dense).basis_matrix == want[1] and calls == []
    B = linalg._row_basis(rows, 12)
    assert B == want[2] and 0 < B.nrows < 12 and calls == []


def test_find_axis_on_dense_forms_past_the_bracket_limit():
    # Walsh columns (-1)^popcount(a & k) are orthogonal, of one norm and dense, so
    # each form is dense with small entries, and one bracket of a pair takes
    # ~m^3 term products, past poly.PRODUCT_LIMIT; the degree-2 verdict has no limit
    m = 104
    walsh = Matrix([[(-1) ** bin(a & k).count("1") if k < 6 else 0 for k in range(m)]
                    for a in range(m)])
    frame = VariableFrame((), tuple(f"s{j}" for j in range(m)))
    forms = [Deg2Form(frame, A) for A in anticommuting_family(random.Random(5), m, Q=walsh)]
    polys = [from_form(f) for f in forms]
    with pytest.raises(ValueError, match="over the limit of 1000000"):
        verify_flat_family(polys)
    assert is_eigenfamily_deg2(forms)
    axis, degenerate = find_axis_deg2(forms)
    assert not degenerate and axis.dim >= 2 and is_axis(polys, axis)


def test_json_round_trip():
    rng = random.Random(43)
    for _ in range(10):
        t, pd, td = rand_data(rng, n_max=3)
        d = data_to_json_dict(t, pd, td)
        t2, pd2, td2 = data_from_json_dict(d)
        assert t2 == t
        assert pd2.P1 == pd.P1 and pd2.P2 == pd.P2 and pd2.A == pd.A
        assert td2.Y == td.Y and td2.C == td.C and tuple(td2.v) == tuple(td.v)


def test_default_frame_names():
    t = SubspaceType(2, 2, 1)
    frame = default_frame(t)
    assert frame.complex_names == ("z1", "z2", "w1", "w2")
    assert frame.real_names == ("t",)
    with pytest.raises(ValueError):
        default_frame(t, names=("a", "b"))
