"""Degree-2 families as symmetric matrices: verification, axis search,
and the construct/decompose correspondence for full eigenpairs.

A homogeneous degree-2 polynomial is x^T A x for a complex symmetric
matrix A in the real coordinates of its frame.  A family is an
eigenfamily exactly when all anticommutators A_i A_j + A_j A_i vanish
(including i = j).  Products of distinct members then have totally
isotropic range inside every kernel, which yields axes of holomorphy.

Full eigenpairs {F1, F2} are classified by data
((n, k, delta), (P1, P2, A), (Y, C, v)): on C^n + C^k + R^delta,

    F1 = P1(z) + sum_ij z_i A_ij w_j
    F2 = P2(z) + sum_ij z_i A_ij (sum_l X_jl w_l + sum_l Y_jl conj(w_l)
                                  + i v_j t)

with X = (C - vv^T/4) Y^{-1}.  With that scaling (note the factor i on
the t coupling) the construction verifies exactly on the standard
metric and reproduces the known worked examples; kappa(F2, F2) = 0 is
equivalent to XY = C - vv^T/4, kappa(F1, F2) = 0 to antisymmetry of Y.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .scalars import GaussRational, ZERO, ONE, as_scalar, rational_sqrt, scalar
from .frames import VariableFrame
from .poly import Poly, axis_polynomials, slot_axes
from .linalg import (
    Matrix,
    RealSubspace,
    dot_bilinear,
    dot_hermitian,
    gram_schmidt_hermitian,
    vec,
    vec_add,
    vec_conj,
    vec_im,
    vec_is_zero,
    vec_re,
    vec_scale,
    vec_sub,
    vec_zero,
)


class Deg2Form(NamedTuple):
    "A quadratic form x^T A x on a frame's real coordinates."
    frame: VariableFrame
    A: Matrix


def to_form(p: Poly) -> Deg2Form:
    """Half the constant Hessian; p must be homogeneous of degree 2 (or 0).
    A term c slot_s slot_u adds the symmetric part of c D_s D_u^T, for
    the slot <-> axis table D of poly.slot_axes."""
    if p != 0 and (not p.is_homogeneous() or p.degree() != 2):
        raise ValueError("quadratic form needs a homogeneous degree-2 polynomial")
    m = p.frame.m
    table = slot_axes(p.frame)
    A = [[ZERO] * m for _ in range(m)]
    for mono, c in p.terms.items():
        s, u = [slot for slot, e in enumerate(mono) for _ in range(e)]
        for a, ca in table[s]:
            for b, cb in table[u]:
                x = c * ca * cb / 2
                A[a][b] = A[a][b] + x
                A[b][a] = A[b][a] + x
    return Deg2Form(p.frame, Matrix(A, ncols=m))


def from_form(f: Deg2Form) -> Poly:
    axes = axis_polynomials(f.frame)
    out = Poly.zero(f.frame)
    for a in range(f.A.nrows):
        for b in range(f.A.ncols):
            c = f.A[a, b]
            if c:
                out = out + c * axes[a] * axes[b]
    return out


def _coerce_forms(forms):
    out = []
    for f in forms:
        if isinstance(f, Deg2Form):
            out.append(f)
        elif isinstance(f, Poly):
            out.append(to_form(f))
        else:
            raise TypeError(f"expected Poly or Deg2Form, got {type(f).__name__}")
    frames = {f.frame for f in out}
    if len(frames) > 1:
        from .poly import FrameMismatch
        raise FrameMismatch("forms live on different frames")
    return out


def is_eigenfamily_deg2(forms) -> bool:
    "All anticommutators A_i A_j + A_j A_i vanish, including i = j."
    forms = _coerce_forms(forms)
    for i in range(len(forms)):
        for j in range(i, len(forms)):
            Ai, Aj = forms[i].A, forms[j].A
            if not (Ai * Aj + Aj * Ai).is_zero():
                return False
    return True


# ---------------------------------------------------------------------
# axis search via annihilating products


def _annihilating_product(mats):
    """A nonzero product A_{i1}...A_{il} over distinct indices killed by
    every A_j, or None.  Products over a maximal nonzero index set
    qualify since extending by any j gives zero (up to sign)."""
    m = mats[0].nrows
    layers = {frozenset(): Matrix.identity(m)}
    best = None
    while layers:
        nxt = {}
        for used, P in layers.items():
            for j in range(len(mats)):
                if j in used:
                    continue
                Q = mats[j] * P
                if not Q.is_zero():
                    nxt[used | {j}] = Q
        if not nxt:
            break
        # deterministic representative: smallest index set in sorted order
        layers = dict(sorted(nxt.items(), key=lambda kv: sorted(kv[0])))
        best = next(iter(layers.values()))
    return best


def isotropic_annihilator_seeds(fs):
    """Exact isotropic vectors annihilating the gradient span of a
    quadratic eigenfamily (empty when the family is not one)."""
    forms = _coerce_forms(fs)
    mats = [f.A for f in forms if not f.A.is_zero()]
    if not mats or not is_eigenfamily_deg2(forms):
        return []
    P = _annihilating_product(mats)
    if P is None:
        return []
    return [c for j in range(P.ncols) if not vec_is_zero(c := P.col(j))]


def find_axis_deg2(forms):
    """(axis, degenerate).  The axis spans Re/Im of the columns of an
    annihilating product; its dimension is at least min(2, m) for
    nonzero eigenfamilies.  A family of zero forms is degenerate and
    returns the whole space."""
    forms = _coerce_forms(forms)
    if not forms:
        raise ValueError("empty family")
    if not is_eigenfamily_deg2(forms):
        raise ValueError("not a quadratic eigenfamily")
    m = forms[0].A.nrows
    mats = [f.A for f in forms if not f.A.is_zero()]
    if not mats:
        return RealSubspace(m, Matrix.identity(m).rows), True
    P = _annihilating_product(mats)
    assert P is not None  # the last nonzero layer always qualifies
    cols = gram_schmidt_hermitian([P.col(j) for j in range(P.ncols)
                                   if not vec_is_zero(P.col(j))])
    vectors = []
    for w in cols:
        vectors.append(vec([GaussRational(q) for q in vec_re(w)]))
        vectors.append(vec([GaussRational(q) for q in vec_im(w)]))
    return RealSubspace(m, vectors), False


def is_full(fs) -> bool:
    "No nonzero real direction annihilates the gradient span."
    fs = list(fs)
    if not fs:
        return False
    from .holomorphy import gradient_span
    W = gradient_span(fs)
    return W.bilinear_annihilator().real_points().dim == 0


# ---------------------------------------------------------------------
# classification data


class SubspaceType(NamedTuple):
    n: int
    k: int
    delta: int

    def validate(self):
        if not (self.n >= self.k >= 0):
            raise ValueError("need n >= k >= 0")
        if self.k % 2 != 0:
            raise ValueError("k must be even")
        if self.delta not in (0, 1):
            raise ValueError("delta must be 0 or 1")
        return self


class PolynomialData(NamedTuple):
    P1: Poly
    P2: Poly
    A: Matrix

    def validate(self, t: SubspaceType):
        frame = self.P1.frame
        if self.P2.frame != frame:
            raise ValueError("P1 and P2 must share a frame")
        if frame.n != t.n or frame.r != 0:
            raise ValueError(f"P1, P2 must live on C^{t.n}")
        for p in (self.P1, self.P2):
            if p != 0 and (not p.is_homogeneous() or p.degree() != 2):
                raise ValueError("P1, P2 must be homogeneous of degree 2")
            for name in frame.complex_names:
                if not p.is_holomorphic_in(name):
                    raise ValueError("P1, P2 must be holomorphic")
        if self.A.nrows != t.n or self.A.ncols != t.k:
            raise ValueError(f"A must be {t.n}x{t.k}")
        if self.A.rank() != t.k:
            raise ValueError("A must have full column rank")
        return self


class TwistingData(NamedTuple):
    Y: Matrix
    C: Matrix
    v: tuple

    def validate(self, t: SubspaceType):
        k = t.k
        for M, name in ((self.Y, "Y"), (self.C, "C")):
            if M.nrows != k or M.ncols != k:
                raise ValueError(f"{name} must be {k}x{k}")
            if not M.is_antisymmetric():
                raise ValueError(f"{name} must be antisymmetric")
        if len(self.v) != k:
            raise ValueError(f"v must have length {k}")
        if k and self.Y.det() == ZERO:
            raise ValueError("Y must be invertible")
        v_zero = vec_is_zero(vec(self.v))
        if v_zero != (t.delta == 0):
            raise ValueError("v = 0 exactly when delta = 0")
        return self


def default_frame(t: SubspaceType, names=None) -> VariableFrame:
    if names is None:
        names = tuple(f"z{i+1}" for i in range(t.n)) + tuple(f"w{j+1}" for j in range(t.k))
    names = tuple(names)
    if len(names) != t.n + t.k:
        raise ValueError(f"need {t.n + t.k} coordinate names")
    real = ("t",) if t.delta else ()
    return VariableFrame(names, real)


def twist_x_matrix(td: TwistingData) -> Matrix:
    "X = (C - vv^T/4) Y^{-1}; kappa(F2, F2) = 0 is equivalent to this."
    k = td.Y.nrows
    if k == 0:
        return Matrix([], ncols=0)
    v = vec(td.v)
    vvt = Matrix([[v[a] * v[b] for b in range(k)] for a in range(k)], ncols=k)
    quarter = scalar(Fraction(1, 4))
    return (td.C - vvt.scale(quarter)) * td.Y.inverse()


def construct_eigenpair(t: SubspaceType, pd: PolynomialData, td: TwistingData,
                        names=None):
    """Build the eigenpair (F1, F2) for valid data.  The output always
    passes verify_flat_family."""
    t.validate()
    pd.validate(t)
    td.validate(t)
    frame = default_frame(t, names)
    n, k = t.n, t.k
    z = [Poly.variable(frame, frame.complex_names[i]) for i in range(n)]
    w = [Poly.variable(frame, frame.complex_names[n + j]) for j in range(k)]
    wb = [Poly.conj_variable(frame, frame.complex_names[n + j]) for j in range(k)]
    t_poly = Poly.variable(frame, "t") if t.delta else Poly.zero(frame)
    X = twist_x_matrix(td)

    def lift(p):
        images = {}
        for i, name in enumerate(p.frame.complex_names):
            images[p.frame.z_slot(name)] = z[i]
            images[p.frame.zbar_slot(name)] = z[i].conjugate()
        return p.substitute(frame, images)

    F1 = lift(pd.P1)
    F2 = lift(pd.P2)
    iunit = scalar(0, 1)
    for i in range(n):
        for j in range(k):
            a = pd.A[i, j]
            if not a:
                continue
            F1 = F1 + a * z[i] * w[j]
            twist = Poly.zero(frame)
            for l in range(k):
                twist = twist + X[j, l] * w[l] + td.Y[j, l] * wb[l]
            twist = twist + iunit * td.v[j] * t_poly
            F2 = F2 + a * z[i] * twist
    return F1, F2


# ---------------------------------------------------------------------
# decomposition


class Deg2Decomposition:
    """Result of decomposing a full eigenpair: the classifying data,
    the recorded isometry (rows = orthonormal basis adapted to the
    maximal axis), and proof witnesses.  exact is False when a needed
    square root left Q(i) and the tail ran in floating point; the data
    is then a rational recovery whose reconstruction still verifies
    exactly."""

    def __init__(self, subspace_type, poly_data, twist_data, isometry, exact,
                 witnesses):
        self.subspace_type = subspace_type
        self.poly_data = poly_data
        self.twist_data = twist_data
        self.isometry = isometry
        self.exact = exact
        self.witnesses = witnesses

    def reconstruct(self, names=None):
        return construct_eigenpair(self.subspace_type, self.poly_data,
                                   self.twist_data, names=names)


class _NeedsFloat(Exception):
    pass


def _maximal_axis_radical(F1, F2):
    """Hermitian-orthogonal isotropic vectors spanning the maximal axis
    of a full eigenpair: the radical of the bilinear form on the
    annihilator of the gradient span (exact), plus the anisotropic
    leftover dimension (0 or 1)."""
    from .holomorphy import gradient_span, symmetric_diagonalize
    W = gradient_span([F1, F2])
    A = W.bilinear_annihilator()
    if A.real_points().dim != 0:
        raise ValueError("not full")
    diag = symmetric_diagonalize(list(A.basis))
    radical = [v for v, d in diag if d == ZERO]
    aniso = [(v, d) for v, d in diag if d != ZERO]
    assert len(aniso) <= 1  # delta-Lemma: at most one anisotropic direction
    return gram_schmidt_hermitian(radical), aniso


def decompose_eigenpair(F1: Poly, F2: Poly) -> Deg2Decomposition:
    for F in (F1, F2):
        if F == 0 or not F.is_homogeneous() or F.degree() != 2:
            raise ValueError("decomposition needs nonzero homogeneous degree-2 polynomials")
    if F1.frame != F2.frame:
        from .poly import FrameMismatch
        raise FrameMismatch("pair must share a frame")
    M1 = to_form(F1).A
    M2 = to_form(F2).A
    if not is_eigenfamily_deg2([Deg2Form(F1.frame, M1), Deg2Form(F1.frame, M2)]):
        raise ValueError("not a quadratic eigenfamily")
    radical, aniso = _maximal_axis_radical(F1, F2)  # raises "not full"
    try:
        return _decompose_exact(F1.frame, M1, M2, radical, aniso)
    except _NeedsFloat:
        return _decompose_float(F1.frame, M1, M2, radical, aniso)


def _gs_track(vectors):
    "Hermitian Gram-Schmidt tracking coefficients over the inputs."
    basis = []
    coeffs = []
    for idx, v in enumerate(vectors):
        w = v
        c = [ZERO] * len(vectors)
        c[idx] = ONE
        for b, cb in zip(basis, coeffs):
            f = dot_hermitian(b, w) / dot_hermitian(b, b)
            w = vec_sub(w, vec_scale(f, b))
            c = [x - f * y for x, y in zip(c, cb)]
        if not vec_is_zero(w):
            basis.append(w)
            coeffs.append(c)
    return basis, coeffs


def _decompose_exact(frame, M1, M2, radical, aniso):
    m = frame.m
    n = len(radical)
    # holomorphic selectors c_i = (u_i/|u_i| - i v_i/|v_i|)/2
    selectors = []
    axis_rows = []
    for r in radical:
        u = vec([GaussRational(q) for q in vec_re(r)])
        v = vec([GaussRational(q) for q in vec_im(r)])
        norm = rational_sqrt(dot_bilinear(u, u).re)
        if norm is None:
            raise _NeedsFloat
        inv = scalar(Fraction(1, 1) / norm)
        half = scalar(Fraction(1, 2))
        iunit = scalar(0, 1)
        selectors.append(vec_scale(half * inv, vec_sub(u, vec_scale(iunit, v))))
        axis_rows.append(vec_scale(inv, u))
        axis_rows.append(vec_scale(inv, v))
    axis = RealSubspace(m, [vec_re(row) for row in axis_rows])
    Q = Matrix.identity(m) - axis.projector()

    # every conj selector must annihilate both forms (holomorphy)
    for c in selectors:
        for M in (M1, M2):
            if not vec_is_zero(M.apply(vec_conj(c))):
                raise AssertionError("axis coordinates are not holomorphic")

    def couplings(M):
        return [Q.apply(vec_scale(scalar(2), M.apply(c))) for c in selectors]

    xi = couplings(M1)
    eta = couplings(M2)

    # pure complement blocks must vanish (no s^T B s part)
    for M in (M1, M2):
        if not (Q * M * Q).is_zero():
            raise AssertionError("nonzero pure complement block")

    h_basis, h_coeffs = _gs_track(xi)
    k = len(h_basis)
    if k % 2 != 0 or n < k:
        raise AssertionError("inconsistent subspace type")
    e_basis = []
    e_coeffs = []
    for h, c in zip(h_basis, h_coeffs):
        norm2 = dot_hermitian(h, h).re
        root = rational_sqrt(norm2 / 2)
        if root is None:
            raise _NeedsFloat
        inv = scalar(Fraction(1, 1) / root)
        e_basis.append(vec_scale(inv, h))
        e_coeffs.append([inv * x for x in c])

    delta = m - 2 * n - 2 * k
    assert delta == len(aniso) and delta in (0, 1)
    d_vec = None
    if delta:
        plane_vectors = list(axis.basis)
        for e in e_basis:
            plane_vectors.append(vec_re(e))
            plane_vectors.append(vec_im(e))
        comp = RealSubspace(m, plane_vectors).orthogonal_complement()
        assert comp.dim == 1
        d_raw = vec([GaussRational(q) for q in comp.basis[0]])
        norm = rational_sqrt(dot_bilinear(d_raw, d_raw).re)
        if norm is None:
            raise _NeedsFloat
        d_vec = vec_scale(scalar(Fraction(1, 1) / norm), d_raw)

    phi = [None] * k
    for j in range(k):
        img = vec_zero(m)
        for c, h in zip(e_coeffs[j], eta):
            img = vec_add(img, vec_scale(c, h))
        phi[j] = img
    # well-definedness: eta_i must expand through phi of the e-basis
    for i in range(n):
        expect = vec_zero(m)
        for j in range(k):
            coeff = dot_hermitian(e_basis[j], xi[i]) / 2
            expect = vec_add(expect, vec_scale(coeff, phi[j]))
        assert expect == eta[i], "coupling map is not well defined"

    A_mat = Matrix([[dot_hermitian(e_basis[j], xi[i]) / 2 for j in range(k)]
                    for i in range(n)], ncols=k)
    X = Matrix([[dot_hermitian(e_basis[l], phi[j]) / 2 for l in range(k)]
                for j in range(k)], ncols=k)
    Y = Matrix([[dot_bilinear(e_basis[l], phi[j]) / 2 for l in range(k)]
                for j in range(k)], ncols=k)
    v = tuple(-scalar(0, 1) * dot_bilinear(d_vec, phi[j]) if delta else ZERO
              for j in range(k))
    # phi antisymmetry in the bilinear pairing
    for a in range(k):
        for b in range(k):
            assert dot_bilinear(e_basis[a], phi[b]) == -dot_bilinear(phi[a], e_basis[b])
    assert not Y.is_zero() or k == 0
    if k and Y.det() == ZERO:
        raise AssertionError("twisting matrix is singular")
    vmat = Matrix([[v[a] * v[b] for b in range(k)] for a in range(k)], ncols=k) if k else Matrix([], ncols=0)
    C = X * Y + vmat.scale(scalar(Fraction(1, 4)))
    assert C.is_antisymmetric()

    zframe = VariableFrame(tuple(f"z{i+1}" for i in range(n)), ())
    P1 = _z_part(zframe, selectors, M1)
    P2 = _z_part(zframe, selectors, M2)

    st = SubspaceType(n, k, delta).validate()
    pd = PolynomialData(P1, P2, A_mat).validate(st)
    td = TwistingData(Y, C, v).validate(st)
    isometry_rows = list(axis_rows)
    for e in e_basis:
        isometry_rows.append(vec([GaussRational(q) for q in vec_re(e)]))
        isometry_rows.append(vec([GaussRational(q) for q in vec_im(e)]))
    if delta:
        isometry_rows.append(d_vec)
    isometry = Matrix(isometry_rows, ncols=m)
    witnesses = {"xi": xi, "eta": eta, "e_basis": e_basis, "d": d_vec, "X": X}
    return Deg2Decomposition(st, pd, td, isometry, True, witnesses)


def _z_part(zframe, selectors, M):
    out = Poly.zero(zframe)
    zs = [Poly.variable(zframe, name) for name in zframe.complex_names]
    for i in range(len(selectors)):
        Mi = M.apply(selectors[i])
        for j in range(i, len(selectors)):
            coeff = dot_bilinear(selectors[j], Mi)
            if j == i:
                term = coeff * zs[i] * zs[i]
            else:
                term = 2 * coeff * zs[i] * zs[j]
            out = out + term
    return out


def _decompose_float(frame, M1, M2, radical, aniso):
    import numpy

    m = frame.m
    n = len(radical)
    M1f = M1.to_float()
    M2f = M2.to_float()
    selectors = []
    axis_rows = []
    for r in radical:
        rf = numpy.array([complex(x) for x in r])
        u, v = rf.real, rf.imag
        norm = numpy.linalg.norm(u)
        selectors.append((u - 1j * v) / (2 * norm))
        axis_rows.append(u / norm)
        axis_rows.append(v / norm)
    P_axis = sum(numpy.outer(row, row) for row in axis_rows)
    Qp = numpy.eye(m) - P_axis

    xi = [Qp @ (2 * M1f @ c) for c in selectors]
    eta = [Qp @ (2 * M2f @ c) for c in selectors]

    basis = []
    coeffs = []
    for idx, w in enumerate(xi):
        c = numpy.zeros(n, dtype=complex)
        c[idx] = 1.0
        for b, cb in zip(basis, coeffs):
            f = numpy.vdot(b, w) / numpy.vdot(b, b)
            w = w - f * b
            c = c - f * cb
        if numpy.linalg.norm(w) > 1e-9:
            basis.append(w)
            coeffs.append(c)
    k = len(basis)
    assert k % 2 == 0 and n >= k
    e_basis = []
    e_coeffs = []
    for h, c in zip(basis, coeffs):
        inv = numpy.sqrt(2.0) / numpy.linalg.norm(h)
        e_basis.append(h * inv)
        e_coeffs.append(c * inv)

    delta = m - 2 * n - 2 * k
    assert delta == len(aniso) and delta in (0, 1)
    d_vec = None
    if delta:
        used = axis_rows + [e.real for e in e_basis] + [e.imag for e in e_basis]
        U = numpy.array(used)
        # any unit vector orthogonal to all rows
        _, _, vh = numpy.linalg.svd(U)
        d_vec = vh[-1].real
        d_vec = d_vec / numpy.linalg.norm(d_vec)

    phi = [sum(c * h for c, h in zip(e_coeffs[j], eta)) for j in range(k)]
    A_f = numpy.array([[numpy.vdot(e_basis[j], xi[i]) / 2 for j in range(k)]
                       for i in range(n)]) if k else numpy.zeros((n, 0))
    X_f = numpy.array([[numpy.vdot(e_basis[l], phi[j]) / 2 for l in range(k)]
                       for j in range(k)]) if k else numpy.zeros((0, 0))
    Y_f = numpy.array([[e_basis[l] @ phi[j] / 2 for l in range(k)]
                       for j in range(k)]) if k else numpy.zeros((0, 0))
    v_f = numpy.array([-1j * (d_vec @ phi[j]) for j in range(k)]) if delta else numpy.zeros(k, dtype=complex)

    def z_part_f(Mf):
        P = numpy.zeros((n, n), dtype=complex)
        for i in range(n):
            Mi = Mf @ selectors[i]
            for j in range(n):
                P[i, j] = selectors[j] @ Mi
        return P

    P1_f = z_part_f(M1f)
    P2_f = z_part_f(M2f)

    # rational recovery; Fraction(float) is exact, antisymmetry restored exactly
    def rat(x):
        return GaussRational(Fraction(float(numpy.real(x))), Fraction(float(numpy.imag(x))))

    def rat_matrix(Mf, nrows, ncols, antisym=False):
        rows = [[rat(Mf[a, b]) for b in range(ncols)] for a in range(nrows)]
        M = Matrix(rows, ncols=ncols)
        if antisym:
            M = (M - M.transpose()).scale(scalar(Fraction(1, 2)))
        return M

    Y = rat_matrix(Y_f, k, k, antisym=True)
    A_mat = rat_matrix(A_f, n, k)
    v = tuple(rat(x) for x in v_f)
    if delta and vec_is_zero(vec(v)):
        raise AssertionError("delta = 1 needs a nonzero twisting vector")
    X = rat_matrix(X_f, k, k)
    vmat = Matrix([[v[a] * v[b] for b in range(k)] for a in range(k)], ncols=k) if k else Matrix([], ncols=0)
    C = X * Y + vmat.scale(scalar(Fraction(1, 4)))
    C = (C - C.transpose()).scale(scalar(Fraction(1, 2)))

    zframe = VariableFrame(tuple(f"z{i+1}" for i in range(n)), ())
    zs = [Poly.variable(zframe, name) for name in zframe.complex_names]
    def z_poly(Pf):
        out = Poly.zero(zframe)
        for i in range(n):
            for j in range(i, n):
                coeff = rat(Pf[i, j])
                if j > i:
                    coeff = coeff + rat(Pf[j, i])
                out = out + coeff * zs[i] * zs[j]
        return out

    st = SubspaceType(n, k, delta).validate()
    pd = PolynomialData(z_poly(P1_f), z_poly(P2_f), A_mat).validate(st)
    td = TwistingData(Y, C, v).validate(st)
    isometry = numpy.array(axis_rows
                           + [r for e in e_basis for r in (e.real, e.imag)]
                           + ([d_vec] if delta else []))
    witnesses = {"xi": xi, "eta": eta, "e_basis": e_basis, "d": d_vec, "X": X}
    return Deg2Decomposition(st, pd, td, isometry, False, witnesses)


# ---------------------------------------------------------------------
# serialization


def _scalar_pair(c: GaussRational):
    return [str(c.re), str(c.im)]


def _pair_scalar(pair):
    return GaussRational(Fraction(pair[0]), Fraction(pair[1]))


def _matrix_json(M: Matrix):
    return {"rows": M.nrows, "cols": M.ncols,
            "entries": [_scalar_pair(M[a, b]) for a in range(M.nrows) for b in range(M.ncols)]}


def _json_matrix(d):
    rows, cols = d["rows"], d["cols"]
    entries = [_pair_scalar(p) for p in d["entries"]]
    if len(entries) != rows * cols:
        raise ValueError("matrix entry count mismatch")
    return Matrix([entries[r * cols:(r + 1) * cols] for r in range(rows)], ncols=cols)


def data_to_json_dict(t: SubspaceType, pd: PolynomialData, td: TwistingData):
    from .parser import format_poly
    return {
        "type": {"n": t.n, "k": t.k, "delta": t.delta},
        "poly": {"P1": format_poly(pd.P1), "P2": format_poly(pd.P2),
                 "A": _matrix_json(pd.A)},
        "twist": {"Y": _matrix_json(td.Y), "C": _matrix_json(td.C),
                  "v": [_scalar_pair(as_scalar(x)) for x in td.v]},
    }


def data_from_json_dict(d):
    from .parser import parse_poly
    t = SubspaceType(int(d["type"]["n"]), int(d["type"]["k"]),
                     int(d["type"]["delta"])).validate()
    zframe = VariableFrame(tuple(f"z{i+1}" for i in range(t.n)), ())
    pd = PolynomialData(parse_poly(d["poly"]["P1"], zframe),
                        parse_poly(d["poly"]["P2"], zframe),
                        _json_matrix(d["poly"]["A"])).validate(t)
    td = TwistingData(_json_matrix(d["twist"]["Y"]),
                      _json_matrix(d["twist"]["C"]),
                      tuple(_pair_scalar(p) for p in d["twist"]["v"])).validate(t)
    return t, pd, td
