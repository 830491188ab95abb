"""Complex-type detection, holomorphy witnesses, axes of holomorphy.

The gradient span W of a family is the complex span of the coefficient
vectors of its real gradients.  The family is uniformly of complex
type exactly when W is isotropic for the bilinear (non-Hermitian) form
v . w; the constructive witness is a degenerate complex unit J built
from a Hermitian-orthogonal isotropic basis.  An axis of holomorphy is
a real subspace V with g^T P_V h = 0 over W; 2-dimensional axes come
from isotropic vectors annihilating W.  The maximal-axis search works
from W's basis B and its real rows P = [Re B; Im B] alone: K, the real
kernel of W, is ker P, and A', the annihilator of W + K (K is real, so
A' is the part of W's annihilator Hermitian-orthogonal to K), is
{P^T c : B P^T c = 0}; the axis joins K with the planes of the isotropic
vectors in A'.  One function, `_isotropic_parts`, finds K, A' and those
isotropic vectors for both this search and the degree-2 decomposition.
Vectors are the integer rows of a Matrix throughout, and one Gram routine,
`linalg._gram_orthogonal`, both diagonalizes A' for the bilinear form
and Hermitian-orthogonalizes the isotropic rows.

The search is sound, not complete: certified output always passes
is_axis exactly; isotropic vectors whose construction needs square
roots outside Q(i) are only reported numerically.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import isfinite
from operator import or_

from .scalars import ONE, ZERO, sqrt_in_qi
from .frames import VariableFrame
from .poly import EXP_BITS, MAX_DEGREE, Poly, common_frame, gradient_rows, linear_form
from .conformality import quadratic_verdict
from .linalg import (ComplexSubspace, Matrix, RealSubspace, _gram_orthogonal, _row_scaled,
                     _stacked)


def gradient_span(fs) -> ComplexSubspace:
    """span_C of all gradients of all members, over all points.

    Each monomial of a real gradient contributes one coefficient vector
    in C^m; their span equals the span of the pointwise gradients.  The
    vectors are the Gaussian-integer rows of poly.gradient_rows, each
    at its own scale."""
    fs = list(fs)
    if not fs:
        raise ValueError("empty family has no gradient span")
    return ComplexSubspace._spanned(common_frame(fs).m,
                                    [row for f in fs for row in gradient_rows(f).values()])


# ---------------------------------------------------------------------
# complex type


class ComplexTypeWitness:
    """Degenerate complex unit for a uniformly-complex-type family.

    pairs (x_j, y_j), the rows of X and Y, are real vectors with equal
    norms and x_j . y_j = 0, from w_j = x_j + i y_j of a
    Hermitian-orthogonal isotropic basis of the gradient span (each pair
    up to a positive scale); J maps x_j to y_j and y_j to -x_j and kills
    the orthogonal complement ker of their plane span: J^2 = -P_plane,
    which is -Id + P_ker.
    """

    def __init__(self, ambient, pairs):
        pairs = list(pairs)
        self.ambient = ambient
        self.X, self.Y = X, Y = [Matrix([p[k] for p in pairs], ncols=ambient) for k in (0, 1)]
        if not (X.is_real() and Y.is_real()):
            raise ValueError("real subspace needs real entries")
        # J = sum (y x^T - x y^T) / |x|^2 over the pairs, the rows x / |x|^2 of N
        XX = X * X.transpose()
        N = _row_scaled(X, [(XX.den, XX.re[j][j]) for j in range(X.nrows)])
        self.J = Y.transpose() * N - N.transpose() * Y
        zero = (0,) * ambient
        self.plane_span = RealSubspace._spanned(ambient, [(x, zero) for x in X.re + Y.re])

    def check(self):
        """Exact structural invariants, J^2 = -P_plane (= -Id + P_ker) among
        them; raises AssertionError on violation (an explicit raise, so
        python -O keeps the check)."""
        X, Y = self.X, self.Y
        XX, YY, XY = X * X.transpose(), Y * Y.transpose(), X * Y.transpose()
        for j in range(X.nrows):
            if XX[j, j] != YY[j, j]:
                raise AssertionError("witness pair has unequal norms")
            if XY[j, j] != ZERO:
                raise AssertionError("witness pair is not orthogonal")
        if not self.J.is_antisymmetric():
            raise AssertionError("witness J is not antisymmetric")
        if self.J * self.J != -self.plane_span.projector():
            raise AssertionError("witness J^2 is not -Id + P_ker")
        return True


def is_uniformly_complex_type(fs):
    """(verdict, witness).  True exactly when the gradient span is
    bilinearly isotropic; the witness is None on false."""
    return span_complex_type(gradient_span(fs))


def span_complex_type(W: ComplexSubspace):
    "is_uniformly_complex_type for a family with gradient span W."
    B = W.basis_matrix
    if not (B * B.transpose()).is_zero():
        return False, None
    V, _ = _gram_orthogonal(B, hermitian=True)
    # the pairs of den V: a positive scale leaves J, the planes and the checks as they are
    return True, ComplexTypeWitness(W.ambient, zip(V.re, V.im))


# ---------------------------------------------------------------------
# axes of holomorphy


def _as_real_subspace(frame_dim, V):
    if isinstance(V, ComplexSubspace):
        if V.ambient != frame_dim:
            raise ValueError("subspace ambient dimension mismatch")
        if not V.basis_matrix.is_real():
            raise ValueError("axis must be a real subspace")
        return V if isinstance(V, RealSubspace) else RealSubspace(V.ambient, V.basis)
    vectors = list(V)
    sub = RealSubspace(frame_dim, vectors)
    if sub.dim != len(vectors):
        raise ValueError("dependent basis")
    return sub


def apply_real_isometry(p: Poly, Q: Matrix, target: VariableFrame) -> Poly:
    """Pull p back through the real orthogonal change of coordinates
    x' = Q x (rows of Q are the new coordinate functionals), returning
    a polynomial on target with p'(Qx) = p(x).  Orthogonality keeps
    kappa, the Laplacian and eigenfamily data unchanged."""
    return _pull_back([p], Q, target)[0]


def _pull_back(fs, Q: Matrix, target: VariableFrame) -> list:
    """apply_real_isometry on each member of a nonempty family on one frame;
    Q keeps a passed orthogonality check, so it is checked once.

    With Q = N / D over the integers, x_a = sum_b N[b][a] x'_b / D, so a
    slot of frame is sum_b c_b x'_b / D with c_b = N[b][2j] + i N[b][2j+1]
    for z_j, N[b][2j] - i N[b][2j+1] for conj(z_j) and N[b][s] for the
    real slot s.  With x'_2k = (z'_k + conj(z'_k)) / 2,
    x'_2k+1 = (z'_k - conj(z'_k)) / 2i and x'_t = t', its image is the
    linear form over 2D with Gaussian-integer numerators c_2k - i c_2k+1
    on z'_k, c_2k + i c_2k+1 on conj(z'_k) and 2 c_t on the real slot t."""
    frame = fs[0].frame
    m = frame.m
    if Q.nrows != m or Q.ncols != m or target.m != m:
        raise ValueError("isometry shape does not match the frames")
    if not Q.is_real():
        raise ValueError("isometry entries must be real")
    if not Q.is_orthogonal():
        raise ValueError("matrix rows are not orthonormal")
    D, N = Q.den, Q.re  # Q = N / D over the integers
    used = reduce(or_, chain.from_iterable(p.nums for p in fs), 0)  # field s: slot s is used
    zs, zt, images = 2 * frame.n, 2 * target.n, {}
    for s in range(m):
        if not used >> s * EXP_BITS & MAX_DEGREE:
            continue
        if s < zs:
            a, sign = s - s % 2, 1 - 2 * (s % 2)
            c = [(row[a], sign * row[a + 1]) for row in N]
        else:
            c = [(row[s], 0) for row in N]
        coeffs = []
        for (x, y), (u, v) in zip(c[0:zt:2], c[1:zt:2]):
            coeffs += [(x + v, y - u), (x - v, y + u)]
        coeffs += [(2 * x, 2 * y) for x, y in c[zt:]]
        images[s] = linear_form(target, coeffs, 2 * D)
    return [p.substitute(target, images) for p in fs]


def is_axis(fs, V) -> bool:
    "g^T P_V h = 0 for all gradient-span basis pairs; V exact real."
    return span_is_axis(gradient_span(fs), V)


def span_is_axis(W: ComplexSubspace, V) -> bool:
    """is_axis for a family with gradient span W: B P_V B^T = X G^-1 X^T = 0 for W's basis
    B, since P_V = C^T G^-1 C for V's real basis C, G = C C^T and X = B C^T = (C B^T)^T."""
    C = _as_real_subspace(W.ambient, V).basis_matrix
    X = W.basis_matrix * C.transpose()
    return (X * (C * C.transpose()).inverse() * X.transpose()).is_zero()


def separable_check(f: Poly, V) -> bool:
    """Both partial maps along V and its orthogonal complement satisfy
    kappa = 0 and the Laplacian = 0 identically (complementary block
    held as parameters): one quadratic_verdict through each projector."""
    m = f.frame.m
    P = _as_real_subspace(m, V).projector()
    return all(quadratic_verdict([f], proj) for proj in (P, Matrix.identity(m) - P))


# ---------------------------------------------------------------------
# maximal axis search


class AxisReport:
    """Certified axis (exact, always verified by is_axis), an optional
    numeric extension (float plane generators with their residual), the
    theoretical upper bound for this search, and the family's gradient
    span W that the search ran on."""

    def __init__(self, certified_axis, numeric_vectors, numeric_residual,
                 theoretical_upper_bound, W):
        self.W = W
        self.certified_axis = certified_axis
        self.numeric_vectors = list(numeric_vectors)
        self.numeric_residual = numeric_residual
        self.theoretical_upper_bound = theoretical_upper_bound

    @property
    def certified_dim(self):
        return self.certified_axis.dim

    @property
    def numeric_dim(self):
        return len(self.numeric_vectors)

    def to_json_dict(self):
        return {
            "certified": {
                "dim": self.certified_dim,
                "basis": [[str(q) for q in b] for b in self.certified_axis.basis],
            },
            "numeric": {
                "dim": self.numeric_dim,
                "basis": [[float(x) for x in v] for v in self.numeric_vectors],
                "residual": self.numeric_residual,
            },
            "theoretical_upper_bound": self.theoretical_upper_bound,
        }


def _isotropic_parts(W):
    """(K, isotropics, V, d, leftovers), the one isotropic step of the
    maximal-axis search and the degree-2 decomposition: the real kernel K of
    a gradient span W; A', the annihilator of W + K (W's own annihilator when
    K = 0), diagonalized for the bilinear form as the rows of V with the
    nonzero values d first, then the radical; the Hermitian-orthogonal rows
    isotropics of the radical followed by the anisotropic pairs v_i + s v_j
    split when s = sqrt(-d_i / d_j) lies in Q(i); and the leftovers (i, d_i),
    the unpaired rows i of V with value d_i.  A decomposition has at most one
    anisotropic value, so it splits no pair and forms no pair product."""
    K = W.real_annihilator()
    A = W.annihilator_in_real_span() if K.dim else W.bilinear_annihilator()
    V, d = _gram_orthogonal(A.basis_matrix)
    # radical rows and split pairs v_i + s v_j are isotropic and pairwise bilinear-
    # orthogonal, so their Hermitian-orthogonal basis spans a totally isotropic space
    pairs, used, leftovers = [], set(), []
    for i in range(len(d)):
        if i in used:
            continue
        j, s = next(((j, s) for j in range(i + 1, len(d)) if j not in used
                     for s in [sqrt_in_qi(-d[i] / d[j])] if s is not None), (None, None))
        if j is None:
            leftovers.append((i, d[i]))
        else:
            used.add(j)
            pairs.append({i: ONE, j: s})
    rows = Matrix.from_numerators(V.re[len(d):], V.im[len(d):], V.den, V.ncols)
    if pairs:
        C = Matrix([[c.get(r, ZERO) for r in range(V.nrows)] for c in pairs], ncols=V.nrows)
        rows = _stacked(rows, C * V)
    return K, _gram_orthogonal(rows, hermitian=True)[0], V, d, leftovers


def maximal_axis(fs, tolerance=1e-9, W=None):
    """Search for a large uniform axis of holomorphy (W: the gradient span, if known).

    Exact pipeline: K = the real kernel of the gradient span W; then
    totally isotropic vectors in A', the bilinear annihilator of W + K
    (the part of W's annihilator Hermitian-orthogonal to the real K, from
    the Gram system of W.annihilator_in_real_span when K != 0): the
    radical of the restricted form and anisotropic pairs split when the
    needed square root lies in Q(i), Hermitian-orthogonalized, each
    contributing the plane of its real and imaginary parts.  (W meets its
    annihilator inside that radical, so the isotropic columns of a
    quadratic family's annihilating products add nothing.)  Unsplittable
    pairs are paired in floating point and reported separately with
    their residual when it is within tolerance (>= 0).
    """
    if not (isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, not {tolerance}")
    W = gradient_span(fs) if W is None else W
    m = W.ambient
    K, isotropics, V, d, leftovers = _isotropic_parts(W)
    bound = K.dim + 2 * (V.nrows - len(d) + len(d) // 2)
    zero = (0,) * m
    certified = RealSubspace._spanned(m, [(x, zero) for x in
                                          K.basis_matrix.re + isotropics.re + isotropics.im])
    if not span_is_axis(W, certified):
        raise AssertionError("certified axis fails the axis condition")

    numeric_vectors, residual = _numeric_extension(W, isotropics, V, leftovers, tolerance)
    return AxisReport(certified, numeric_vectors, residual, bound, W)


def _numeric_extension(W, isotropics, V, leftovers, tolerance):
    """Float pairing of anisotropic leftovers (i, d_i), the rows i of V with value d_i;
    returns (plane vectors, residual)."""
    if len(leftovers) < 2:
        return [], None
    import numpy

    Vf = V.to_float()
    planes = []
    k = 0
    while k + 1 < len(leftovers):
        (i1, d1), (i2, d2) = leftovers[k], leftovers[k + 1]
        k += 2
        s = numpy.sqrt(complex(-d1 / d2))
        planes.append(Vf[i1] + s * Vf[i2])
    # orthogonalize numerically against the exact isotropics and each other
    prior = list(isotropics.to_float())
    kept = []
    for w in planes:
        for b in prior + kept:
            w = w - (numpy.vdot(b, w) / numpy.vdot(b, b)) * b
        if numpy.linalg.norm(w) > 1e-12:
            kept.append(w)
    vectors = []
    for w in kept:
        vectors.extend([w.real, w.imag])
    # residual of the axis condition over the whole candidate sum
    basis_f = list(W.basis_matrix.to_float())
    residual = 0.0
    for w in kept:
        scale = numpy.linalg.norm(w) ** 2 or 1.0
        for g in basis_f:
            for h in basis_f:
                # plane projector of w = u+iv applied bilinearly
                u, v = w.real, w.imag
                val = (g @ u) * (u @ h) + (g @ v) * (v @ h)
                residual = max(residual, abs(val) / scale)
    if residual > tolerance:
        return [], residual
    return vectors, residual
