"""Quadratic families: form extraction, the anticommutation criterion,
axis search, and the construct/decompose correspondence."""

import random
from fractions import Fraction

import pytest

from eigenforge.frames import VariableFrame
from eigenforge.poly import Poly
from eigenforge.scalars import GaussRational, ZERO, ONE, scalar
from eigenforge.linalg import Matrix, cayley_orthogonal, vec, vec_is_zero, dot_bilinear
from eigenforge.conformality import verify_flat_family, kappa
from eigenforge.holomorphy import apply_real_isometry, is_uniformly_complex_type
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
    is_full,
    to_form,
    twist_x_matrix,
)

from oracles import (ref_annihilating_product, ref_construct_eigenpair, ref_find_axis_deg2,
                     ref_from_form, ref_to_form)

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


def rand_data(rng, n_max=4, k=None):
    k = rng.choice([0, 2]) if k is None else k
    n = rng.randint(max(k, 1), n_max)
    delta = rng.choice([0, 1]) if k else 0
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


def test_is_full_examples():
    F1, F2 = worked_pair()
    assert is_full([F1, F2])
    assert not is_full([])
    frame = VariableFrame(("z1", "z2"), ())
    z1 = Poly.variable(frame, "z1")
    assert not is_full([z1 * z1])  # z2 plane is annihilated
    small = VariableFrame(("z",), ())
    z = Poly.variable(small, "z")
    assert is_full([z * z])
    assert is_full([z * z.conjugate()])


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


def anticommuting_family(rng, m, count=2, rotate=True):
    """Quadratic forms built from a common isotropic column span; all
    pairwise anticommutators vanish because every inner product of the
    generating vectors is zero.  Without the rotation the forms live on
    the first six coordinates, so their products have zero columns."""
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
            assert _annihilating_product(mats) in (want, -want)


def test_find_axis_on_a_zero_product_multiplies_once(monkeypatch):
    # one product per index set: A2 A1 = 0 ends the search, with no identity factors
    rng = random.Random(83)
    frame = VariableFrame((), tuple(f"s{j}" for j in range(6)))
    forms = [Deg2Form(frame, A) for A in anticommuting_family(rng, 6)]
    assert not any(f.A.is_zero() for f in forms) and (forms[1].A * forms[0].A).is_zero()
    calls = []
    mul = Matrix.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    axis, degenerate = find_axis_deg2(forms)
    assert not degenerate and axis.dim >= 2
    assert len(calls) == 1


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
