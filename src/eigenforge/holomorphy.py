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
vectors in A'.  The degree-2 decomposition shares these steps.

The search is sound, not complete: certified output always passes
is_axis exactly; isotropic vectors whose construction needs square
roots outside Q(i) are only reported numerically.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import isfinite
from operator import or_

from .scalars import ONE, ZERO, sqrt_in_qi, triple
from .frames import VariableFrame
from .poly import (EXP_BITS, MAX_DEGREE, Poly, _derivative, common_frame, linear_form,
                   slot_axes)
from .conformality import kappa, laplacian
from .linalg import (
    ComplexSubspace,
    Matrix,
    RealSubspace,
    dot_bilinear,
    gram_schmidt_hermitian,
    vec,
    vec_add,
    vec_im,
    vec_is_zero,
    vec_re,
    vec_scale,
    vec_sub,
)


def gradient_span(fs) -> ComplexSubspace:
    """span_C of all gradients of all members, over all points.

    Each monomial of a real gradient contributes one coefficient vector
    in C^m; their span equals the span of the pointwise gradients.  Rows
    are read in Gaussian integers from the packed slot derivatives."""
    fs = list(fs)
    if not fs:
        raise ValueError("empty family has no gradient span")
    frame = common_frame(fs)
    m = frame.m
    # d/dx_a = sum c d/dslot_s over the entries (a, c) of slot s
    units = [[(a, *triple(c)[:2]) for a, c in entries] for entries in slot_axes(frame)]
    rows = []
    for f in fs:
        per_mono = {}
        for s, entries in enumerate(units):
            for key, (x, y) in _derivative(f.nums, s).items():
                re, im = per_mono.setdefault(key, ([0] * m, [0] * m))
                for a, ca, cb in entries:
                    re[a] += ca * x - cb * y
                    im[a] += ca * y + cb * x
        rows.extend(per_mono.values())
    return ComplexSubspace._spanned(m, rows)


# ---------------------------------------------------------------------
# complex type


class ComplexTypeWitness:
    """Degenerate complex unit for a uniformly-complex-type family.

    pairs[j] = (x_j, y_j) are real vectors with equal norms and
    x_j . y_j = 0, from w_j = x_j + i y_j of a Hermitian-orthogonal
    isotropic basis of the gradient span; J maps x_j to y_j and y_j to
    -x_j and kills the orthogonal complement: J^2 = -Id + P_ker.
    """

    def __init__(self, ambient, pairs):
        self.ambient = ambient
        self.pairs = [(vec(x), vec(y)) for x, y in pairs]
        # J = sum (y x^T - x y^T) / |x|^2 over the pairs
        Y = Matrix([y for _, y in self.pairs], ncols=ambient)
        Xn = Matrix([vec_scale(ONE / dot_bilinear(x, x), x) for x, _ in self.pairs], ncols=ambient)
        self.J = Y.transpose() * Xn - Xn.transpose() * Y
        self.plane_span = RealSubspace(ambient, [v for pair in self.pairs for v in pair])
        self.kernel = self.plane_span.orthogonal_complement()

    def check(self):
        """Exact structural invariants; raises AssertionError on violation
        (an explicit raise, so python -O keeps the check)."""
        for xs, ys in self.pairs:
            if dot_bilinear(xs, xs) != dot_bilinear(ys, ys):
                raise AssertionError("witness pair has unequal norms")
            if dot_bilinear(xs, ys) != ZERO:
                raise AssertionError("witness pair is not orthogonal")
        if not self.J.is_antisymmetric():
            raise AssertionError("witness J is not antisymmetric")
        if self.J * self.J != self.kernel.projector() - Matrix.identity(self.ambient):
            raise AssertionError("witness J^2 is not -Id + P_ker")
        return True


def is_uniformly_complex_type(fs):
    """(verdict, witness).  True exactly when the gradient span is
    bilinearly isotropic; the witness is None on false."""
    return span_complex_type(gradient_span(fs))


def span_complex_type(W: ComplexSubspace):
    "is_uniformly_complex_type for a family with gradient span W."
    basis = list(W.basis)
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            if dot_bilinear(basis[i], basis[j]) != ZERO:
                return False, None
    pairs = []
    for w in gram_schmidt_hermitian(basis):
        pairs.append((vec_re(w), vec_im(w)))
    return True, ComplexTypeWitness(W.ambient, pairs)


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
    held as parameters): kappa and laplacian through the projectors."""
    m = f.frame.m
    P = _as_real_subspace(m, V).projector()
    for proj in (P, Matrix.identity(m) - P):
        if kappa(f, f, proj) != 0 or laplacian(f, proj) != 0:
            return False
    return True


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


def symmetric_diagonalize(vectors):
    """Orthogonalize for the bilinear form u . v (char 0); returns a
    list of (vector, v . v) spanning the same space.  Zero diagonal
    values mark radical directions."""
    pending = [v for v in vectors]
    out = []
    while pending:
        # prefer an anisotropic vector; build one if only cross terms exist
        pick = None
        for idx, v in enumerate(pending):
            if dot_bilinear(v, v) != ZERO:
                pick = idx
                break
        if pick is None:
            cross = None
            for a in range(len(pending)):
                for b in range(a + 1, len(pending)):
                    if dot_bilinear(pending[a], pending[b]) != ZERO:
                        cross = (a, b)
                        break
                if cross:
                    break
            if cross is None:
                out.extend((v, ZERO) for v in pending)
                break
            a, b = cross
            pending[a] = vec_add(pending[a], pending[b])
            pick = a
        v = pending.pop(pick)
        d = dot_bilinear(v, v)
        out.append((v, d))
        pending = [vec_sub(u, vec_scale(dot_bilinear(u, v) / d, v)) for u in pending]
        pending = [u for u in pending if not vec_is_zero(u)]
    return out


def _isotropic_parts(W):
    """(K, radical, aniso): the real kernel K of a gradient span W, and the
    radical and anisotropic parts of A', the annihilator of W + K (W's own
    annihilator when K = 0)."""
    K = W.real_annihilator()
    A = W.annihilator_in_real_span() if K.dim else W.bilinear_annihilator()
    diag = symmetric_diagonalize(list(A.basis))
    return K, [v for v, d in diag if d == ZERO], [(v, d) for v, d in diag if d != ZERO]


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
    K, radical, aniso = _isotropic_parts(W)
    bound = K.dim + 2 * (len(radical) + len(aniso) // 2)

    # radical vectors and split pairs are isotropic and pairwise bilinear-
    # orthogonal, so their Hermitian-orthogonal basis spans a totally isotropic space
    used = [False] * len(aniso)
    pairs, leftovers = [], []
    for i in range(len(aniso)):
        if used[i]:
            continue
        vi, di = aniso[i]
        mate = None
        for j in range(i + 1, len(aniso)):
            if used[j]:
                continue
            s = sqrt_in_qi(-di / aniso[j][1])
            if s is not None:
                mate = (j, s)
                break
        if mate is None:
            leftovers.append(aniso[i])
            continue
        j, s = mate
        used[i] = used[j] = True
        pairs.append(vec_add(vi, vec_scale(s, aniso[j][0])))
    isotropics = gram_schmidt_hermitian(radical + pairs)

    axis_vectors = list(K.basis)
    for w in isotropics:
        axis_vectors.append(vec_re(w))
        axis_vectors.append(vec_im(w))
    certified = RealSubspace(m, axis_vectors)
    if not span_is_axis(W, certified):
        raise AssertionError("certified axis fails the axis condition")

    numeric_vectors, residual = _numeric_extension(W, isotropics, leftovers, tolerance)
    return AxisReport(certified, numeric_vectors, residual, bound, W)


def _numeric_extension(W, isotropics, leftovers, tolerance):
    "Float pairing of anisotropic leftovers; returns (plane vectors, residual)."
    if len(leftovers) < 2:
        return [], None
    import numpy

    planes = []
    k = 0
    while k + 1 < len(leftovers):
        (v1, d1), (v2, d2) = leftovers[k], leftovers[k + 1]
        k += 2
        s = numpy.sqrt(complex(-d1 / d2))
        w = numpy.array([complex(x) for x in v1]) + s * numpy.array([complex(x) for x in v2])
        planes.append(w)
    if not planes:
        return [], None
    # orthogonalize numerically against the exact isotropics and each other
    prior = [numpy.array([complex(x) for x in w]) for w in isotropics]
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
    basis_f = [numpy.array([complex(x) for x in b]) for b in W.basis]
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
