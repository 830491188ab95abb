"""Degree-2 families as symmetric matrices: verification, axis search,
and the construct/decompose correspondence for full eigenpairs.

A homogeneous degree-2 polynomial is x^T A x for a complex symmetric
matrix A in the real coordinates of its frame.  A family is an
eigenfamily exactly when all anticommutators A_i A_j + A_j A_i vanish
(including i = j).  Products of distinct members then have totally
isotropic range inside every kernel, which yields axes of holomorphy.

Full eigenpairs {F1, F2} are classified by data
((n, k, delta), (P1, P2, A), (Y, C, v)): on C^n + C^k + R^delta,

    F1 = P1(z) + z^T A w
    F2 = P2(z) + z^T A (X w + Y conj(w) + i v t)

with X = (C - vv^T/4) Y^{-1}: the z_i w_l, z_i conj(w_l) and z_i t
coefficients of F2 are row i of A X, A Y and i A v, built as matrix
entries by the slot-pair codec poly.quadratic.  With that scaling (note
the factor i on the t coupling) the construction verifies exactly on
the standard metric and reproduces the known worked examples;
kappa(F2, F2) = 0 is equivalent to XY = C - vv^T/4, kappa(F1, F2) = 0
to antisymmetry of Y.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

from .scalars import (GaussRational, ZERO, as_scalar, format_fraction, rational_sqrt, scalar,
                      triple)
from .frames import VariableFrame
from .poly import (Poly, axis_slots, quadratic, quadratic_numerators, quadratic_pairs,
                   slot_axes)
from .linalg import (
    ComplexSubspace,
    Matrix,
    RealSubspace,
    anticommuting,
    dot_bilinear,
    dot_hermitian,
    gram_schmidt_hermitian,
    vec,
    vec_conj,
    vec_im,
    vec_is_zero,
    vec_re,
    vec_scale,
)


class Deg2Form(NamedTuple):
    "A quadratic form x^T A x on a frame's real coordinates."
    frame: VariableFrame
    A: Matrix


def to_form(p: Poly) -> Deg2Form:
    """Half the constant Hessian; p must be homogeneous of degree 2 (or 0).
    A term c slot_s slot_u adds the symmetric part of c D_s D_u^T, for
    the slot <-> axis table D of poly.slot_axes."""
    m = p.frame.m
    # the table's coefficients are units 1, i, -i: Gaussian integers
    table = [[(a, *triple(c)[:2]) for a, c in entries] for entries in slot_axes(p.frame)]
    den, pairs = quadratic_numerators(p)
    re = [[0] * m for _ in range(m)]
    im = [[0] * m for _ in range(m)]
    for (s, u), (ca, cb) in pairs.items():
        for a, xa, xb in table[s]:
            for b, ya, yb in table[u]:
                ua, ub = xa * ya - xb * yb, xa * yb + xb * ya
                x, y = ca * ua - cb * ub, ca * ub + cb * ua
                re[a][b] += x
                im[a][b] += y
                re[b][a] += x
                im[b][a] += y
    return Deg2Form(p.frame, Matrix.from_numerators(re, im, 2 * den, m))


def from_form(f: Deg2Form) -> Poly:
    """x^T A x in the slots: entry A_ab adds c_s c_u A_ab to the pair
    (s, u) for x_a = sum c_s slot_s and x_b = sum c_u slot_u."""
    table = axis_slots(f.frame)
    pairs = {}
    for a, row in enumerate(f.A.rows):
        for b, c in enumerate(row):
            if c:
                for s, cs in table[a]:
                    for u, cu in table[b]:
                        pairs[s, u] = pairs.get((s, u), ZERO) + c * cs * cu
    return quadratic(f.frame, pairs)


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
    return anticommuting([f.A for f in _coerce_forms(forms)])


# ---------------------------------------------------------------------
# axis search via annihilating products


def _annihilating_product(mats):
    """A nonzero product over distinct indices killed by every A_j of nonzero
    anticommuting mats: that of the first index set of the last nonzero layer.
    As the A_j anticommute and square to zero, a product is fixed up to sign by
    its index set and every subset of a nonzero set is nonzero, so each set is
    formed once, from its largest index, and layers stay in lexicographic order."""
    layer = [((j,), A) for j, A in enumerate(mats)]
    while True:
        nxt = [(used + (j,), Q) for used, P in layer for j in range(used[-1] + 1, len(mats))
               if not (Q := mats[j] * P).is_zero()]
        if not nxt:
            return layer[0][1]
        layer = nxt


def find_axis_deg2(forms):
    """(axis, degenerate).  The axis is the real span of Re/Im of the columns
    of an annihilating product; its dimension is at least min(2, m) for
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
    T, zero = _annihilating_product(mats).transpose(), (0,) * m
    return RealSubspace._spanned(m, [(x, zero) for x in T.re + T.im]), False


def is_full(fs) -> bool:
    "No nonzero real direction annihilates the gradient span: its real kernel is zero."
    fs = list(fs)
    if not fs:
        return False
    from .holomorphy import gradient_span
    return gradient_span(fs).real_annihilator().dim == 0


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
    return (td.C - _outer(td.v).scale(Fraction(1, 4))) * td.Y.inverse()


def _outer(v) -> Matrix:
    "v v^T for a vector v."
    V = Matrix([v], ncols=len(v))
    return V.transpose() * V


def construct_eigenpair(t: SubspaceType, pd: PolynomialData, td: TwistingData,
                        names=None):
    """Build the eigenpair (F1, F2) for valid data from coefficient
    matrices: P1 and P2 keep their slot pairs (z_i has slot 2i in both
    frames), F1 adds A_il on (z_i, w_l), and F2 adds row i of A X on
    (z_i, w_l), of A Y on (z_i, conj(w_l)) and of i A v on (z_i, t).  The
    output always passes verify_flat_family."""
    t.validate()
    pd.validate(t)
    td.validate(t)
    frame = default_frame(t, names)
    n, k = t.n, t.k
    AX = pd.A * twist_x_matrix(td)
    AY = pd.A * td.Y
    iAv = vec_scale(scalar(0, 1), pd.A.apply(vec(td.v)))
    pairs1 = quadratic_pairs(pd.P1)
    pairs2 = quadratic_pairs(pd.P2)
    for i in range(n):
        for l in range(k):
            w = 2 * (n + l)  # slot of w_l; conj(w_l) is the next one
            pairs1[2 * i, w] = pd.A[i, l]
            pairs2[2 * i, w] = AX[i, l]
            pairs2[2 * i, w + 1] = AY[i, l]
        if t.delta:
            pairs2[2 * i, 2 * (n + k)] = iAv[i]
    return quadratic(frame, pairs1), quadratic(frame, pairs2)


# ---------------------------------------------------------------------
# decomposition


class Deg2Decomposition:
    """Result of decomposing a full eigenpair: the classifying data and
    the recorded isometry (rows = orthonormal basis adapted to the
    maximal axis).  exact is False when a needed square root left Q(i)
    and the tail ran in floating point; the data is then a rational
    recovery whose reconstruction still verifies exactly."""

    def __init__(self, subspace_type, poly_data, twist_data, isometry, exact):
        self.subspace_type = subspace_type
        self.poly_data = poly_data
        self.twist_data = twist_data
        self.isometry = isometry
        self.exact = exact

    def reconstruct(self, names=None):
        return construct_eigenpair(self.subspace_type, self.poly_data,
                                   self.twist_data, names=names)


class _NeedsFloat(Exception):
    pass


def _maximal_axis_radical(M1, M2):
    """Hermitian-orthogonal isotropic vectors spanning the maximal axis
    of a full eigenpair with forms M1, M2: the radical of the bilinear
    form on the annihilator of the gradient span (exact), plus the
    anisotropic leftover dimension (0 or 1).  The gradient of x^T M x
    is 2 M x, so the rows of M1 and M2 span the gradient span W.  The
    parts are maximal_axis's; full means W's real kernel K is 0."""
    from .holomorphy import _isotropic_parts
    W = ComplexSubspace._spanned(M1.nrows, zip(M1.re + M2.re, M1.im + M2.im))
    K, radical, aniso = _isotropic_parts(W)
    if K.dim != 0:
        raise ValueError("not full")
    if len(aniso) > 1:  # delta-Lemma: at most one anisotropic direction
        raise AssertionError("more than one anisotropic direction")
    return gram_schmidt_hermitian(radical), aniso


def decompose_eigenpair(F1: Poly, F2: Poly) -> Deg2Decomposition:
    for F in (F1, F2):
        if F == 0 or not F.is_homogeneous() or F.degree() != 2:
            raise ValueError("decomposition needs nonzero homogeneous degree-2 polynomials")
    if F1.frame != F2.frame:
        from .poly import FrameMismatch
        raise FrameMismatch("pair must share a frame")
    M1, M2 = to_form(F1).A, to_form(F2).A
    if not anticommuting([M1, M2]):
        raise ValueError("not a quadratic eigenfamily")
    radical, aniso = _maximal_axis_radical(M1, M2)  # raises "not full"
    try:
        return _decompose_exact(F1.frame, M1, M2, radical, aniso)
    except _NeedsFloat:
        return _decompose_float(F1.frame, M1, M2, radical, aniso)


def _decompose_exact(frame, M1, M2, radical, aniso):
    """The exact data, or _NeedsFloat when a square root leaves Q(i).  Q M is
    formed once per form M, for Q the projector onto the axis complement: the
    couplings 2 (Q M) S^T and the pure complement block (Q M) Q both read it."""
    m = frame.m
    n = len(radical)
    # holomorphic selectors c_i = (u_i/|u_i| - i v_i/|v_i|)/2 = conj(r_i)/(2|u_i|),
    # the rows of S, for r_i = u_i + i v_i
    selectors, axis_rows = [], []
    for r in radical:
        u, v = vec_re(r), vec_im(r)
        norm = rational_sqrt(dot_bilinear(u, u).re)
        if norm is None:
            raise _NeedsFloat
        inv = scalar(Fraction(1, 1) / norm)
        selectors.append(vec_scale(inv / 2, vec_conj(r)))
        axis_rows += [vec_scale(inv, u), vec_scale(inv, v)]
    # the axis rows are orthonormal, so B^T B projects onto the axis
    B = Matrix(axis_rows, ncols=m)
    Q = Matrix.identity(m) - B.transpose() * B
    S = Matrix(selectors, ncols=m)

    # every conj selector must annihilate both forms (holomorphy)
    if not all((M * S.conj_transpose()).is_zero() for M in (M1, M2)):
        raise AssertionError("axis coordinates are not holomorphic")

    # the couplings xi_i = 2 Q M1 c_i and eta_i = 2 Q M2 c_i, the rows of Xi and Eta
    QM = [Q * M for M in (M1, M2)]
    Xi, Eta = ((P * S.transpose()).scale(2).transpose() for P in QM)
    if not all((P * Q).is_zero() for P in QM):
        raise AssertionError("nonzero pure complement block")

    h_basis = gram_schmidt_hermitian(Xi.rows)
    k = len(h_basis)
    if k % 2 != 0 or n < k:
        raise AssertionError("inconsistent subspace type")
    e_basis = []
    for h in h_basis:
        norm2 = dot_hermitian(h, h).re
        root = rational_sqrt(norm2 / 2)
        if root is None:
            raise _NeedsFloat
        e_basis.append(vec_scale(scalar(Fraction(1, 1) / root), h))

    delta = m - 2 * n - 2 * k
    if delta != len(aniso) or delta not in (0, 1):
        raise AssertionError("dimension count disagrees with the anisotropic part")
    e_parts = [p for e in e_basis for p in (vec_re(e), vec_im(e))]
    d_vec = None
    if delta:
        comp = RealSubspace(m, axis_rows + e_parts).orthogonal_complement()
        if comp.dim != 1:
            raise AssertionError("anisotropic complement is not a line")
        d_raw = comp.basis[0]
        norm = rational_sqrt(dot_bilinear(d_raw, d_raw).re)
        if norm is None:
            raise _NeedsFloat
        d_vec = vec_scale(scalar(Fraction(1, 1) / norm), d_raw)

    E = Matrix(e_basis, ncols=m)
    # phi_j is e_j under the coupling map xi_i -> eta_i, read through any
    # expansion of e_j over the xi_i (the check below fails for every one
    # when the map is not well defined)
    Phi = Matrix([Xi.transpose().solve(e) for e in e_basis], ncols=n) * Eta
    phi = Phi.rows
    half = Fraction(1, 2)
    A_mat = (Xi * E.conj_transpose()).scale(half)
    # well-definedness: eta_i must expand through phi of the e-basis
    if A_mat * Phi != Eta:
        raise AssertionError("coupling map is not well defined")
    X = (Phi * E.conj_transpose()).scale(half)
    Y = (Phi * E.transpose()).scale(half)
    v = tuple(-scalar(0, 1) * dot_bilinear(d_vec, phi[j]) if delta else ZERO
              for j in range(k))
    # phi antisymmetry in the bilinear pairing: e_a . phi_b = -(e_b . phi_a)
    if not Y.is_antisymmetric():
        raise AssertionError("coupling map is not antisymmetric")
    if k and Y.is_zero():
        raise AssertionError("twisting matrix is zero")
    if k and Y.det() == ZERO:
        raise AssertionError("twisting matrix is singular")
    C = X * Y + _outer(v).scale(Fraction(1, 4))
    if not C.is_antisymmetric():
        raise AssertionError("twisting matrix C is not antisymmetric")

    zframe = VariableFrame(tuple(f"z{i+1}" for i in range(n)), ())
    P1 = _z_part(zframe, S, M1)
    P2 = _z_part(zframe, S, M2)

    st = SubspaceType(n, k, delta).validate()
    pd = PolynomialData(P1, P2, A_mat).validate(st)
    td = TwistingData(Y, C, v).validate(st)
    isometry = Matrix(axis_rows + e_parts + ([d_vec] if delta else []), ncols=m)
    return Deg2Decomposition(st, pd, td, isometry, True)


def _z_part(zframe, S, M):
    "sum_ij (s_j^T M s_i) z_i z_j over the holomorphic selectors s, the rows of S."
    Z = S * M * S.transpose()
    return quadratic(zframe, {(2 * i, 2 * j): Z[j, i] for i in range(S.nrows) for j in range(S.nrows)})


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
    if k % 2 != 0 or n < k:
        raise AssertionError("inconsistent subspace type")
    e_basis = []
    e_coeffs = []
    for h, c in zip(basis, coeffs):
        inv = numpy.sqrt(2.0) / numpy.linalg.norm(h)
        e_basis.append(h * inv)
        e_coeffs.append(c * inv)

    delta = m - 2 * n - 2 * k
    if delta != len(aniso) or delta not in (0, 1):
        raise AssertionError("dimension count disagrees with the anisotropic part")
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
    C = X * Y + _outer(v).scale(Fraction(1, 4))
    C = (C - C.transpose()).scale(Fraction(1, 2))

    zframe = VariableFrame(tuple(f"z{i+1}" for i in range(n)), ())

    def z_poly(Pf):
        return quadratic(zframe, {(2 * i, 2 * j): rat(Pf[i, j])
                                  for i in range(n) for j in range(n)})

    st = SubspaceType(n, k, delta).validate()
    pd = PolynomialData(z_poly(P1_f), z_poly(P2_f), A_mat).validate(st)
    td = TwistingData(Y, C, v).validate(st)
    isometry = numpy.array(axis_rows
                           + [r for e in e_basis for r in (e.real, e.imag)]
                           + ([d_vec] if delta else []))
    return Deg2Decomposition(st, pd, td, isometry, False)


# ---------------------------------------------------------------------
# serialization


def _scalar_pair(c: GaussRational):
    return [format_fraction(c.re), format_fraction(c.im)]


def _pair_scalar(pair, field):
    "The scalar of a [re, im] pair; field names the pair in the digit-limit error."
    try:
        return GaussRational(Fraction(pair[0]), Fraction(pair[1]))
    except ValueError:
        digits = max((sum(map(str.isdecimal, s)) for x in pair if isinstance(x, str)
                      for s in x.split("/")), default=0)
        if not 0 < (limit := getattr(sys, "get_int_max_str_digits", int)()) < digits:
            raise
        raise ValueError(f"{field}: integer literal has {digits} digits, over the limit of "
                         f"{limit}") from None


def _matrix_json(M: Matrix):
    return {"rows": M.nrows, "cols": M.ncols,
            "entries": [_scalar_pair(M[a, b]) for a in range(M.nrows) for b in range(M.ncols)]}


def _json_matrix(d, field):
    rows, cols = d["rows"], d["cols"]
    entries = [_pair_scalar(p, f"{field} entry {i}") for i, p in enumerate(d["entries"])]
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
                        _json_matrix(d["poly"]["A"], "poly.A")).validate(t)
    td = TwistingData(_json_matrix(d["twist"]["Y"], "twist.Y"),
                      _json_matrix(d["twist"]["C"], "twist.C"),
                      tuple(_pair_scalar(p, f"twist.v entry {i}")
                            for i, p in enumerate(d["twist"]["v"]))).validate(t)
    return t, pd, td
