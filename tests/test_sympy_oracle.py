"""An independent exact oracle for the symbolic calculus: sympy.

Each eigenforge result is read back through `Poly.terms` and expanded in
sympy over real symbols, with z = x + iy and conj(z) = x - iy, and
compared with the same quantity computed by sympy from the raw input
data: derivatives along the real axes, sums and products of expanded
expressions.  The sympy side calls no eigenforge arithmetic, so an error
shared by eigenforge and its own references (tests/oracles.py) still
shows here.  Matrix row reduction, determinants and inverses are checked
the same way against sympy.Matrix.  Skipped when sympy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sp = pytest.importorskip("sympy")

from eigenforge.conformality import kappa, laplacian  # noqa: E402
from eigenforge.frames import VariableFrame  # noqa: E402
from eigenforge.holomorphy import apply_real_isometry  # noqa: E402
from eigenforge.linalg import Matrix  # noqa: E402
from eigenforge.poly import Poly, real_gradient  # noqa: E402
from eigenforge.scalars import scalar  # noqa: E402

# n = 0, r = 0 and mixed frames, small enough for sympy
FRAMES = [VariableFrame(("z",), ()), VariableFrame(("z", "u"), ()),
          VariableFrame((), ("s", "t")), VariableFrame(("z",), ("t",))]


def axes(frame):
    "Real symbols of the frame's axes: (Re z, Im z) pairs, then the real coordinates."
    out = []
    for name in frame.complex_names:
        out += [sp.Symbol(f"x_{name}", real=True), sp.Symbol(f"y_{name}", real=True)]
    out += [sp.Symbol(f"t_{name}", real=True) for name in frame.real_names]
    return out


def slot_exprs(frame):
    "Each slot as an expression in the axes: z = x + iy, conj(z) = x - iy, t."
    xs = axes(frame)
    out = []
    for j in range(frame.n):
        x, y = xs[2 * j], xs[2 * j + 1]
        out += [x + sp.I * y, x - sp.I * y]
    return out + xs[2 * frame.n:]


def to_sympy(c):
    "An exact scalar (GaussRational or Fraction) as a sympy number."
    if isinstance(c, Fraction):
        return sp.Rational(c.numerator, c.denominator)
    return to_sympy(c.re) + sp.I * to_sympy(c.im)


def from_raw(raw, slots):
    "The expanded expression of raw {monomial: (re, im)} data over slot expressions."
    out = sp.Integer(0)
    for mono, (re, im) in raw.items():
        term = to_sympy(re) + sp.I * to_sympy(im)
        for s, e in enumerate(mono):
            term *= slots[s] ** e
        out += term
    return sp.expand(out)


def read_back(p, slots):
    "An eigenforge result, read term by term, as an expanded expression."
    return from_raw({mono: (c.re, c.im) for mono, c in p.terms.items()}, slots)


def same(a, b):
    return sp.expand(a - b) == 0


fracs = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))


def raw_polys(frame, max_deg=3, max_size=4):
    monos = st.tuples(*[st.integers(0, 2)] * frame.num_slots).filter(lambda t: sum(t) <= max_deg)
    return st.dictionaries(monos, st.tuples(fracs, fracs), max_size=max_size)


def to_poly(frame, raw):
    return Poly(frame, {mono: scalar(re, im) for mono, (re, im) in raw.items()})


@st.composite
def bracket_cases(draw):
    frame = draw(st.sampled_from(FRAMES))
    m = frame.m
    P = None
    if draw(st.booleans()):
        P = [[Fraction(0)] * m for _ in range(m)]
        for a in range(m):
            for b in range(a, m):
                P[a][b] = P[b][a] = draw(fracs)
    return frame, draw(raw_polys(frame)), draw(raw_polys(frame)), P


@settings(max_examples=20, deadline=None)
@given(bracket_cases())
def test_kappa_and_laplacian_match_sympy(case):
    frame, raw_f, raw_g, P = case
    f, g = to_poly(frame, raw_f), to_poly(frame, raw_g)
    slots, xs = slot_exprs(frame), axes(frame)
    F, G = from_raw(raw_f, slots), from_raw(raw_g, slots)
    m = frame.m
    W = sp.eye(m) if P is None else sp.Matrix(m, m, lambda a, b: to_sympy(P[a][b]))
    grad_f = [sp.diff(F, x) for x in xs]
    grad_g = [sp.diff(G, x) for x in xs]
    want_kappa = sum((W[a, b] * grad_f[a] * grad_g[b] for a in range(m) for b in range(m)),
                     sp.Integer(0))
    want_lap = sum((W[a, b] * sp.diff(grad_f[a], xs[b]) for a in range(m) for b in range(m)),
                   sp.Integer(0))
    PM = None if P is None else Matrix([[scalar(q) for q in row] for row in P], ncols=m)
    assert same(read_back(kappa(f, g, PM), slots), want_kappa)
    assert same(read_back(laplacian(f, PM), slots), want_lap)
    want_self = sum((W[a, b] * grad_f[a] * grad_f[b] for a in range(m) for b in range(m)),
                    sp.Integer(0))
    assert same(read_back(kappa(f, f, PM), slots), want_self)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(FRAMES).flatmap(lambda fr: st.tuples(st.just(fr), raw_polys(fr))))
def test_real_gradient_matches_sympy(case):
    frame, raw = case
    slots, xs = slot_exprs(frame), axes(frame)
    F = from_raw(raw, slots)
    comps = real_gradient(to_poly(frame, raw))
    assert len(comps) == len(xs)
    for comp, x in zip(comps, xs):
        assert same(read_back(comp, slots), sp.diff(F, x))


SRC = VariableFrame(("z",), ("t",))
DST = VariableFrame(("w",), ("s",))


@settings(max_examples=20, deadline=None)
@given(raw_polys(SRC), st.lists(raw_polys(DST, max_deg=2, max_size=3),
                                min_size=SRC.num_slots, max_size=SRC.num_slots))
def test_substitute_matches_sympy(raw, raw_images):
    # slots of the source are independent symbols, replaced by the images
    free = sp.symbols(f"v0:{SRC.num_slots}")
    dst_slots = slot_exprs(DST)
    images = [from_raw(r, dst_slots) for r in raw_images]
    want = sp.expand(from_raw(raw, free).subs(dict(zip(free, images)), simultaneous=True))
    got = to_poly(SRC, raw).substitute(
        DST, {s: to_poly(DST, r) for s, r in enumerate(raw_images)})
    assert same(read_back(got, dst_slots), want)


ISO_FRAMES = [VariableFrame(("z",), ()), VariableFrame((), ("s", "t", "v")),
              VariableFrame(("z",), ("t",))]


@st.composite
def isometry_cases(draw):
    frame = draw(st.sampled_from(ISO_FRAMES))
    m = frame.m
    S = sp.zeros(m, m)
    for a in range(m):
        for b in range(a + 1, m):
            q = to_sympy(draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2),
                                               Fraction(2)])))
            S[a, b], S[b, a] = q, -q
    Q = (sp.eye(m) - S) * (sp.eye(m) + S).inv()  # Cayley: a rational rotation
    return frame, draw(raw_polys(frame)), Q


@settings(max_examples=20, deadline=None)
@given(isometry_cases())
def test_apply_real_isometry_matches_sympy(case):
    frame, raw, Q = case
    m = frame.m
    target = VariableFrame(tuple(f"x{j}" for j in range(frame.n)),
                           tuple(f"y{k}" for k in range(frame.r)))
    xs, new = axes(frame), axes(target)
    # p'(x') = p(x) with x = Q^T x'
    back = {xs[a]: sum((Q[b, a] * new[b] for b in range(m)), sp.Integer(0)) for a in range(m)}
    want = sp.expand(from_raw(raw, slot_exprs(frame)).subs(back, simultaneous=True))
    QM = Matrix([[scalar(Fraction(int(Q[a, b].p), int(Q[a, b].q))) for b in range(m)]
                 for a in range(m)], ncols=m)
    got = apply_real_isometry(to_poly(frame, raw), QM, target)
    assert same(read_back(got, slot_exprs(target)), want)


# -- exact linear algebra -------------------------------------------------
#
# rref, det and inverse of Gaussian-rational matrices against sympy.Matrix
# built from the raw entries with sympy.I.


@st.composite
def raw_matrices(draw, square=False):
    n = draw(st.integers(1, 4))
    m = n if square else draw(st.integers(1, 4))
    rows = [[draw(st.tuples(fracs, fracs)) for _ in range(m)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):  # a dependent row
        c = draw(fracs)
        rows[-1] = [(c * re, c * im) for re, im in rows[0]]
    return rows


def both(rows):
    "The raw entries as an eigenforge Matrix and a sympy Matrix."
    M = Matrix([[scalar(re, im) for re, im in row] for row in rows], ncols=len(rows[0]))
    S = sp.Matrix([[to_sympy(re) + sp.I * to_sympy(im) for re, im in row] for row in rows])
    return M, S


def same_matrix(M, S):
    return (M.nrows, M.ncols) == S.shape and all(
        sp.simplify(to_sympy(M[a, b]) - S[a, b]) == 0
        for a in range(M.nrows) for b in range(M.ncols))


@settings(max_examples=30, deadline=None)
@given(raw_matrices())
def test_rref_matches_sympy(rows):
    M, S = both(rows)
    R, pivots = M.rref()
    want, want_pivots = S.rref(simplify=True)
    assert tuple(pivots) == tuple(want_pivots)
    assert same_matrix(R, want)


@settings(max_examples=30, deadline=None)
@given(raw_matrices(square=True))
def test_det_and_inverse_match_sympy(rows):
    M, S = both(rows)
    d = sp.simplify(S.det())
    assert sp.simplify(to_sympy(M.det()) - d) == 0
    if d == 0:
        with pytest.raises(ValueError):
            M.inverse()
    else:
        assert same_matrix(M.inverse(), S.inv())
