"""Degree-2 families as symmetric matrices: verification, axis search,
and the construct/decompose correspondence for full eigenpairs.

A homogeneous degree-2 polynomial is x^T A x for a complex symmetric
matrix A in the real coordinates of its frame.  The verdict of a family
is conformality.quadratic_verdict of its polynomials, so that of a
Deg2Form reads its symmetric part.  As kappa(x^T A x, x^T B x) =
4 x^T A B x and laplacian(x^T A x) = 2 tr A, where A^2 = 0 forces
tr A = 0, a family is an eigenfamily exactly when all anticommutators
A_i A_j + A_j A_i vanish (including i = j).  Products of distinct members
then have totally isotropic range inside every kernel, which yields
axes of holomorphy.  The axis search runs on the r x r blocks C of the
forms A = B^T C B at the pivots of the RREF basis B (r x m) of all their
rows: with G = B B^T, a product of forms is B^T S B for the product S of
their C with G between factors, zero exactly when S is.

Full eigenpairs {F1, F2} are classified by data
((n, k, delta), (P1, P2, A), (Y, C, v)): on C^n + C^k + R^delta,

    F1 = P1(z) + z^T A w
    F2 = P2(z) + z^T A (X w + Y conj(w) + i v t)

with X = (C - vv^T/4) Y^{-1}: the z_i w_l, z_i conj(w_l) and z_i t
coefficients of F2 are row i of A X, A Y and i A v, laid on their slot
pairs as Gaussian-integer numerators over one denominator (the codec
poly.quadratic_from_numerators / quadratic_numerators, which also joins
forms and polynomials).  With that scaling (note the factor i on the t
coupling) the construction verifies exactly on the standard metric and
reproduces the known worked examples; kappa(F2, F2) = 0 is equivalent to
XY = C - vv^T/4, kappa(F1, F2) = 0 to antisymmetry of Y.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import isqrt, lcm
from typing import NamedTuple

from .scalars import GaussRational, I, ZERO, as_scalar, format_ratio, rational_sqrt, triple
from .frames import VariableFrame
from .poly import (FrameMismatch, Poly, common_frame, quadratic_from_numerators,
                   quadratic_numerators)
from .parser import ParseError, format_poly, parse_poly
from .conformality import quadratic_verdict
from .holomorphy import _isotropic_parts
from .linalg import (ComplexSubspace, Matrix, RealSubspace, _annihilator, _gram_orthogonal,
                     _pivots, _real_rows, _row_basis, _row_scaled, _stacked, vec)


class Deg2Form(NamedTuple):
    """A quadratic form x^T A x on a frame's real coordinates, m x m A;
    its verdicts read the symmetric part (A + A^T)/2, the matrix of x^T A x."""
    frame: VariableFrame
    A: Matrix


def _through(pairs, table, m):
    """(re, im), the m x m integer tables of M + M^T for the sum M of c t_k t_l
    over the {(i, j): c} of pairs and the entries (k, t_k) of table[i] and
    (l, t_l) of table[j], for Gaussian-integer numerators c and units t."""
    re, im = [[0] * m for _ in range(m)], [[0] * m for _ in range(m)]
    for (i, j), (ca, cb) in pairs.items():
        for k, xa, xb in table[i]:
            for l, ya, yb in table[j]:
                ua, ub = xa * ya - xb * yb, xa * yb + xb * ya
                x, y = ca * ua - cb * ub, ca * ub + cb * ua
                re[k][l] += x
                im[k][l] += y
                re[l][k] += x
                im[l][k] += y
    return re, im


def to_form(p: Poly) -> Deg2Form:
    """Half the constant Hessian; p must be homogeneous of degree 2 (or 0).
    A term c slot_s slot_u adds the symmetric part of c D_s D_u^T, for
    the rows D_s of the frame's table slot_axes."""
    den, pairs = quadratic_numerators(p)
    m = p.frame.m
    return Deg2Form(p.frame, Matrix.from_numerators(*_through(pairs, p.frame.slot_axes(), m),
                                                    2 * den, m))


def from_form(f: Deg2Form) -> Poly:
    """x^T A x in the slots: the pair (s, u) takes entry (s, u) of T^T A T for
    x = T slot, the inverse table axis_slots over 2; symmetrized, over 8 den A."""
    A, m = f.A, f.frame.m
    if A.nrows != m or A.ncols != m:
        raise ValueError(f"form matrix is {A.nrows}x{A.ncols}, not {m}x{m} for its frame")
    cells = {(a, b): (x, y) for a, row in enumerate(zip(A.re, A.im))
             for b, (x, y) in enumerate(zip(*row)) if x or y}
    re, im = _through(cells, f.frame.axis_slots(), m)
    return quadratic_from_numerators(f.frame, 8 * A.den, {(s, u): (re[s][u], im[s][u])
                                                           for s in range(m) for u in range(m)})


def _coerce_forms(forms):
    """Each member as a Poly, a Deg2Form's by from_form; a TypeError or ValueError
    names the first bad member, then a FrameMismatch names mixed frames."""
    polys = []
    for f in forms:
        if isinstance(f, Deg2Form):
            f = from_form(f)
        elif not isinstance(f, Poly):
            raise TypeError(f"expected Poly or Deg2Form, got {type(f).__name__}")
        else:
            quadratic_numerators(f)  # raises unless f is a quadratic form
        polys.append(f)
    if polys:
        common_frame(polys, "form")
    return polys


def is_eigenfamily_deg2(forms) -> bool:
    """The flat verdict of the members' polynomials: all anticommutators
    A_i A_j + A_j A_i of their symmetric forms vanish, including i = j."""
    return quadratic_verdict(_coerce_forms(forms))


# ---------------------------------------------------------------------
# axis search via annihilating products


def _annihilating_product(mats, G):
    """The middle S = C_jk G ... G C_j1 of a nonzero product A_jk ... A_j1 =
    B^T S B over distinct indices killed by every A_j, for the nonzero middles
    mats of anticommuting A_j: that of the first index set of the last nonzero
    layer.  As the A_j anticommute and square to zero, a product is fixed up to
    sign by its index set and every subset of a nonzero set is nonzero, so each
    set is formed once, from its largest index j by the step C_j G, formed once
    per member, and layers stay in lexicographic order."""
    steps = [C * G for C in mats]
    layer = [((j,), C) for j, C in enumerate(mats)]
    while True:
        nxt = [(used + (j,), Q) for used, S in layer for j in range(used[-1] + 1, len(mats))
               if not (Q := steps[j] * S).is_zero()]
        if not nxt:
            return layer[0][1]
        layer = nxt


def find_axis_deg2(forms):
    """(axis, degenerate).  The axis is the real span of Re/Im of the columns
    of an annihilating product B^T S B, those of the rows of S^T B; its
    dimension is at least min(2, m) for nonzero eigenfamilies.  A family of
    zero forms is degenerate and returns the whole space.  The verdict is the
    bracket's on the y^T C y over R^r with P = G, the forms' flat verdict, as
    kappa_G(y^T C y, y^T D y) = 4 y^T C G D y and laplacian_G(y^T C y) =
    2 tr(G C) = 2 tr A.  B is the _row_basis of the forms' rows (dense and of
    small rank, so only r of them enter its elimination), with the pivots read
    off B.  At r = m the span gains nothing and costs its time, but an m x m
    route kept for that case measured no faster: one path."""
    forms = [to_form(p) for p in _coerce_forms(forms)]
    if not forms:
        raise ValueError("empty family")
    m = forms[0].A.nrows
    B = _row_basis([row for f in forms for row in zip(f.A.re, f.A.im)], m)
    r, pivots = B.nrows, _pivots(B)
    G, frame = B * B.transpose(), VariableFrame((), tuple(f"y{k}" for k in range(r)))
    mats = [Matrix.from_numerators(*([[X[p][q] for q in pivots] for p in pivots]
                                     for X in (f.A.re, f.A.im)), f.A.den, r) for f in forms]
    if not quadratic_verdict([from_form(Deg2Form(frame, C)) for C in mats], G):
        raise ValueError("not a quadratic eigenfamily")
    mats = [C for C in mats if not C.is_zero()]
    if not mats:
        return RealSubspace(m, Matrix.identity(m).rows), True
    X, zero = _annihilating_product(mats, G).transpose() * B, (0,) * m
    return RealSubspace._spanned(m, [(x, zero) for x in X.re + X.im]), False


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
            if p and (not p.is_homogeneous() or p.degree() != 2):
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
        v_zero = not any(vec(self.v))
        if v_zero != (t.delta == 0):
            raise ValueError("v = 0 exactly when delta = 0")
        return self


def default_frame(t: SubspaceType, names=None) -> VariableFrame:
    if names is None:
        names = tuple(f"z{i+1}" for i in range(t.n)) + tuple(f"w{j+1}" for j in range(t.k))
    names = tuple(names)
    if len(names) != t.n + t.k:
        raise ValueError(f"need {t.n + t.k} coordinate names")
    return VariableFrame(names, ("t",) if t.delta else ())


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
    return _eigenpair(t.validate(), pd.validate(t), td.validate(t), names)


def _eigenpair(t, pd, td, names):
    "construct_eigenpair on data already validated."
    frame = default_frame(t, names)
    n, k = t.n, t.k
    w = 2 * n  # slot of w_1; conj(w_l) follows w_l, and t follows conj(w_k)
    couplings = [(pd.A * twist_x_matrix(td), w), (pd.A * td.Y, w + 1)]
    if t.delta:
        couplings.append(((pd.A * Matrix([td.v], ncols=k).transpose()).scale(I), w + 2 * k))
    return _coupled(frame, pd.P1, [(pd.A, w)]), _coupled(frame, pd.P2, couplings)


def _coupled(frame, P, couplings):
    """P plus sum_il M_il z_i slot_(s + 2l) over the pairs (M, s) of
    couplings, all as numerators over one lcm of denominators."""
    den, pairs = quadratic_numerators(P)
    L = lcm(den, *(M.den for M, _ in couplings))
    pairs = {su: (a * (L // den), b * (L // den)) for su, (a, b) in pairs.items()}
    for M, s in couplings:
        c = L // M.den
        for i, (ra, rb) in enumerate(zip(M.re, M.im)):
            for l, (a, b) in enumerate(zip(ra, rb)):
                pairs[2 * i, s + 2 * l] = a * c, b * c
    return quadratic_from_numerators(frame, L, pairs)


# ---------------------------------------------------------------------
# decomposition


class Deg2Decomposition:
    """Result of decomposing a full eigenpair: the classifying data and
    the recorded isometry (rows = orthonormal basis adapted to the
    maximal axis).  exact is False when a needed square root left Q(i)
    and the tail ran in floating point; the data is then a rational
    recovery whose reconstruction still verifies exactly.  The data is
    validated here, once, so reconstruct builds the pair directly."""

    def __init__(self, subspace_type, poly_data, twist_data, isometry, exact):
        self.subspace_type = subspace_type.validate()
        self.poly_data = poly_data.validate(subspace_type)
        self.twist_data = twist_data.validate(subspace_type)
        self.isometry = isometry
        self.exact = exact

    def reconstruct(self, names=None):
        return _eigenpair(self.subspace_type, self.poly_data, self.twist_data, names)


class _NeedsFloat(Exception):
    "A square root left Q(i); the argument names the step."


def decompose_eigenpair(F1: Poly, F2: Poly) -> Deg2Decomposition:
    """The classifying data of a full eigenpair {F1, F2}, with the isometry
    adapted to its maximal axis.  The gradient of x^T M x is 2 M x, so the rows
    of the forms M1, M2 span the gradient span W; the axis is spanned by the
    isotropic rows of holomorphy._isotropic_parts(W), the radical of A'.  The
    exact tail checks the radical rows, takes square roots, then solves for the
    data; a root outside Q(i) sends the checked pair to the float tail.
    Raises, in order: ValueError when a member is zero or not homogeneous of
    degree 2; FrameMismatch when the frames differ; ValueError "not a quadratic
    eigenfamily"; ValueError "not full" when W has a real kernel; and
    AssertionError "more than one anisotropic direction" (the delta-Lemma
    allows one), AssertionError "decomposed data is invalid: ..." when the
    recovered data fails its validators, or another AssertionError when a
    computed result fails the check that guards it."""
    for F in (F1, F2):
        if not F or not F.is_homogeneous() or F.degree() != 2:
            raise ValueError("decomposition needs nonzero homogeneous degree-2 polynomials")
    if F1.frame != F2.frame:
        raise FrameMismatch("pair must share a frame")
    M1, M2 = to_form(F1).A, to_form(F2).A
    if not quadratic_verdict([F1, F2]):
        raise ValueError("not a quadratic eigenfamily")
    W = ComplexSubspace._spanned(M1.nrows, zip(M1.re + M2.re, M1.im + M2.im))
    K, radical, _, aniso, _ = _isotropic_parts(W)
    if K.dim != 0:
        raise ValueError("not full")
    if len(aniso) > 1:
        raise AssertionError("more than one anisotropic direction")
    try:
        return _decompose_exact(F1.frame, M1, M2, radical, aniso)
    except _NeedsFloat:
        return _decompose_float(F1.frame, M1, M2, radical, aniso)


def _decompose_exact(frame, M1, M2, radical, aniso):
    """The exact data, or _NeedsFloat(step) when a square root leaves Q(i):
    checks on the radical rows R, then roots, then data.  The axis rows U are
    R's rows scaled by positive rationals, so M U^T = 0 exactly when M R^T = 0,
    and the rows Comp of the annihilator of R's real rows span the complement
    of the axis, where the pure complement block (Q M) Q, for the projector
    Q = I - B^T B onto it, vanishes exactly when Comp M Comp^T does.  The
    couplings 2 Q M S^T are read off n x m factors (see coupling)."""
    m = frame.m
    n = radical.nrows
    # every conj selector must annihilate both forms (holomorphy): M conj(S)^T = M U^T / 2
    if not all((M * radical.transpose()).is_zero() for M in (M1, M2)):
        raise AssertionError("axis coordinates are not holomorphic")
    Comp = _annihilator(_real_rows(radical))
    if not all((Comp * M * Comp.transpose()).is_zero() for M in (M1, M2)):
        raise AssertionError("nonzero pure complement block")

    # the radical rows r_i = u_i + i v_i over D have |u_i| = |v_i| = sqrt(q_i) / D for
    # q_i = a_i . a_i and the real numerators a_i; the rows of U are r_i / |u_i|, the
    # holomorphic selectors c_i = (u_i/|u_i| - i v_i/|v_i|)/2 the rows conj(U)/2 of S
    squares = [sum(x * x for x in a) for a in radical.re]
    if any(isqrt(q) ** 2 != q for q in squares):
        raise _NeedsFloat("axis norm")
    U = _row_scaled(radical, [(radical.den, isqrt(q)) for q in squares])
    Ub, Uh = U.conjugate(), U.scale(Fraction(1, 2))

    def coupling(M):
        """(Xi, G): the rows xi_i = 2 Q M c_i, and G = conj(U) M conj(U)^T = 4 S M S^T.
        As B^T B = (conj(U)^T U + U^T conj(U)) / 2 and M U^T = 0, the rows of Xi
        are those of conj(U) M Q = W - G U / 2 for W = conj(U) M."""
        W = Ub * M
        G = W * Ub.transpose()
        return W - G * Uh, G

    Xi, G1 = coupling(M1)
    H, norms = _gram_orthogonal(Xi, hermitian=True)
    k = H.nrows
    delta = _dimensions(m, n, k, aniso)
    roots = [rational_sqrt(c.re / 2) for c in norms]  # e_j = h_j / root_j has |e_j|^2 = 2
    if any(root is None for root in roots):
        raise _NeedsFloat("coupling norm")
    E = _row_scaled(H, [(root.denominator, root.numerator) for root in roots])

    isometry = _real_rows(_stacked(U, E))  # the axis rows, then Re e_j and Im e_j
    if delta:
        comp = _annihilator(isometry)
        if comp.nrows != 1:
            raise AssertionError("anisotropic complement is not a line")
        d_raw = comp.re[0]
        root = isqrt(q := sum(x * x for x in d_raw))
        if root * root != q:
            raise _NeedsFloat("anisotropic norm")
        d_vec = Matrix.from_numerators([d_raw], [[0] * m], root, m)
        isometry = _stacked(isometry, d_vec)

    # the rows e_j span those of Xi and E E^* = 2I, so Xi = A E for A = Xi E^* / 2,
    # of full column rank k; phi_j, e_j under the coupling map xi_i -> eta_i, is row j
    # of the one solution Phi of A Phi = Eta, which exists exactly when the map is
    # well defined (eta_i must expand through phi of the e-basis)
    Eta, G2 = coupling(M2)
    half = Fraction(1, 2)
    A_mat = (Xi * E.conj_transpose()).scale(half)
    A_h = A_mat.conj_transpose()
    Phi = (A_h * A_mat).inverse() * (A_h * Eta)
    if A_mat * Phi != Eta:
        raise AssertionError("coupling map is not well defined")
    X = (Phi * E.conj_transpose()).scale(half)
    Y = (Phi * E.transpose()).scale(half)
    v = (Phi * d_vec.transpose()).scale(-I).col(0) if delta else (ZERO,) * k
    C = X * Y + _outer(v).scale(Fraction(1, 4))
    return _decomposition(delta, G1.scale(Fraction(1, 4)), G2.scale(Fraction(1, 4)), A_mat,
                          TwistingData(Y, C, v), isometry, True)


def _dimensions(m, n, k, aniso):
    "delta = m - 2n - 2k, which must be len(aniso); SubspaceType.validate checks the rest."
    if m - 2 * n - 2 * k != len(aniso):
        raise AssertionError("dimension count disagrees with the anisotropic part")
    return len(aniso)


def _decomposition(delta, Z1, Z2, A, td, isometry, exact):
    """The end of both tails: the validated data, with P1 and P2 the z-parts
    sum_ij Z_ij z_i z_j of Z = S M S^T, whose entries are s_i^T M s_j over
    the holomorphic selectors s, the rows of S.  The data was computed, not
    given, so a validator's ValueError is an AssertionError here."""
    n = A.nrows
    zframe = VariableFrame(tuple(f"z{i+1}" for i in range(n)), ())
    P1, P2 = (quadratic_from_numerators(zframe, Z.den, {
        (2 * i, 2 * j): (Z.re[i][j], Z.im[i][j]) for i in range(n) for j in range(n)})
        for Z in (Z1, Z2))
    try:
        return Deg2Decomposition(SubspaceType(n, A.ncols, delta), PolynomialData(P1, P2, A),
                                 td, isometry, exact)
    except ValueError as exc:
        raise AssertionError(f"decomposed data is invalid: {exc}") from exc


def _rational_matrix(Mf, antisym=False):
    """The exact Matrix of the complex float array Mf, each float its integer
    ratio over one power of two, or its antisymmetric part (M - M^T)/2."""
    nrows, ncols = Mf.shape
    ratios = [(float(x.real).as_integer_ratio(), float(x.imag).as_integer_ratio())
              for x in Mf.flat]
    den = max((q for pair in ratios for _, q in pair), default=1)
    nums = [(a * (den // p), b * (den // q)) for (a, p), (b, q) in ratios]
    M = Matrix.from_numerators(*([[nums[a * ncols + b][part] for b in range(ncols)]
                                  for a in range(nrows)] for part in (0, 1)), den, ncols)
    return (M - M.transpose()).scale(Fraction(1, 2)) if antisym else M


def _decompose_float(frame, M1, M2, radical, aniso):
    import numpy

    m = frame.m
    n = radical.nrows
    M1f, M2f = M1.to_float(), M2.to_float()
    selectors, axis_rows = [], []
    for rf in radical.to_float():
        u, v = rf.real, rf.imag
        norm = numpy.linalg.norm(u)
        selectors.append((u - 1j * v) / (2 * norm))
        axis_rows.append(u / norm)
        axis_rows.append(v / norm)
    Qp = numpy.eye(m) - sum(numpy.outer(row, row) for row in axis_rows)

    xi = [Qp @ (2 * M1f @ c) for c in selectors]
    eta = [Qp @ (2 * M2f @ c) for c in selectors]

    basis, coeffs = [], []
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
    delta = _dimensions(m, n, k, aniso)
    e_basis, e_coeffs = [], []
    for h, c in zip(basis, coeffs):
        inv = numpy.sqrt(2.0) / numpy.linalg.norm(h)
        e_basis.append(h * inv)
        e_coeffs.append(c * inv)

    d_vec = None
    if delta:
        # any unit vector orthogonal to all rows
        _, _, vh = numpy.linalg.svd(numpy.array(
            axis_rows + [e.real for e in e_basis] + [e.imag for e in e_basis]))
        d_vec = vh[-1].real / numpy.linalg.norm(vh[-1].real)

    phi = [sum(c * h for c, h in zip(e_coeffs[j], eta)) for j in range(k)]
    A_f = numpy.array([[numpy.vdot(e_basis[j], xi[i]) / 2 for j in range(k)]
                       for i in range(n)]) if k else numpy.zeros((n, 0))
    X_f = numpy.array([[numpy.vdot(e_basis[l], phi[j]) / 2 for l in range(k)]
                       for j in range(k)]) if k else numpy.zeros((0, 0))
    Y_f = numpy.array([[e_basis[l] @ phi[j] / 2 for l in range(k)]
                       for j in range(k)]) if k else numpy.zeros((0, 0))
    v_f = numpy.array([-1j * (d_vec @ phi[j]) for j in range(k)]) if delta else numpy.zeros(k, dtype=complex)

    # rational recovery: every float is exactly its integer ratio, antisymmetry restored exactly
    Y = _rational_matrix(Y_f, antisym=True)
    A_mat = _rational_matrix(A_f)
    v = _rational_matrix(v_f.reshape(1, k)).rows[0]
    X = _rational_matrix(X_f)
    C = X * Y + _outer(v).scale(Fraction(1, 4))
    C = (C - C.transpose()).scale(Fraction(1, 2))

    Z1, Z2 = (_rational_matrix(numpy.array(
        [[selectors[j] @ (Mf @ selectors[i]) for j in range(n)] for i in range(n)]))
        for Mf in (M1f, M2f))
    isometry = numpy.array(axis_rows
                           + [r for e in e_basis for r in (e.real, e.imag)]
                           + ([d_vec] if delta else []))
    return _decomposition(delta, Z1, Z2, A_mat, TwistingData(Y, C, v), isometry, False)


# ---------------------------------------------------------------------
# serialization


def _scalar_pair(c: GaussRational):
    a, b, d = triple(c)
    return [format_ratio(a, d), format_ratio(b, d)]


_RATIO = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # p or p/q, q != 0


def _expect(ok, field, what):
    "The checks of docs/schemas/deg2-data.json: a ValueError naming field unless ok."
    if not ok:
        raise ValueError(f"{field}: expected {what}")


def _fields(d, field, keys):
    "The values at keys of d, a JSON object with exactly those fields."
    _expect(isinstance(d, dict) and d.keys() == set(keys), field,
            "an object with the fields " + ", ".join(keys))
    return [d[k] for k in keys]


def _count(x, field):
    _expect(type(x) is int and x >= 0, field, "a nonnegative integer")  # no bool, no float
    return x


def _pair_scalar(pair, field):
    "The scalar of a [re, im] pair of strings p or p/q; field names the pair in the errors."
    _expect(isinstance(pair, list) and len(pair) == 2
            and all(isinstance(x, str) and _RATIO.fullmatch(x) for x in pair),
            field, "a [re, im] pair of strings p or p/q")
    try:
        return GaussRational(Fraction(pair[0]), Fraction(pair[1]))
    except ValueError:  # as the pattern held, only the interpreter's digit limit is left
        digits = max(sum(map(str.isdecimal, s)) for x in pair for s in x.split("/"))
        raise ValueError(f"{field}: integer literal has {digits} digits, over the limit of "
                         f"{sys.get_int_max_str_digits()}") from None


def _matrix_json(M: Matrix):
    return {"rows": M.nrows, "cols": M.ncols,
            "entries": [_scalar_pair(M[a, b]) for a in range(M.nrows) for b in range(M.ncols)]}


def _json_matrix(d, field):
    rows, cols, entries = _fields(d, field, ("rows", "cols", "entries"))
    rows, cols = _count(rows, f"{field}.rows"), _count(cols, f"{field}.cols")
    _expect(isinstance(entries, list), f"{field}.entries", "a list")
    entries = [_pair_scalar(p, f"{field} entry {i}") for i, p in enumerate(entries)]
    if len(entries) != rows * cols:
        raise ValueError(f"{field}: matrix entry count mismatch")
    return Matrix([entries[r * cols:(r + 1) * cols] for r in range(rows)], ncols=cols)


def data_to_json_dict(t: SubspaceType, pd: PolynomialData, td: TwistingData):
    return {
        "type": {"n": t.n, "k": t.k, "delta": t.delta},
        "poly": {"P1": format_poly(pd.P1), "P2": format_poly(pd.P2),
                 "A": _matrix_json(pd.A)},
        "twist": {"Y": _matrix_json(td.Y), "C": _matrix_json(td.C),
                  "v": [_scalar_pair(as_scalar(x)) for x in td.v]},
    }


def data_from_json_dict(d):
    """The data of a JSON object laid out as docs/schemas/deg2-data.json;
    a ValueError names the first field outside it."""
    ty, poly, twist = _fields(d, "deg2 data", ("type", "poly", "twist"))
    keys = ("n", "k", "delta")
    t = SubspaceType(*(_count(x, f"type.{key}") for key, x in
                       zip(keys, _fields(ty, "type", keys)))).validate()
    zframe = VariableFrame(tuple(f"z{i+1}" for i in range(t.n)), ())
    P1, P2, A = _fields(poly, "poly", ("P1", "P2", "A"))
    polys = []
    for text, key in ((P1, "P1"), (P2, "P2")):
        _expect(isinstance(text, str) and text, f"poly.{key}", "a nonempty string")
        try:
            polys.append(parse_poly(text, zframe))
        except ParseError as exc:
            raise ValueError(f"poly.{key}: {exc}") from None
    pd = PolynomialData(*polys, _json_matrix(A, "poly.A")).validate(t)
    Y, C, v = _fields(twist, "twist", ("Y", "C", "v"))
    _expect(isinstance(v, list), "twist.v", "a list")
    td = TwistingData(_json_matrix(Y, "twist.Y"), _json_matrix(C, "twist.C"),
                      tuple(_pair_scalar(p, f"twist.v entry {i}")
                            for i, p in enumerate(v))).validate(t)
    return t, pd, td
