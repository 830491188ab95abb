"""Complex-type detection, holomorphy witnesses, axes of holomorphy.

The gradient span W of a family is the complex span of the coefficient
vectors of its real gradients.  The family is uniformly of complex
type exactly when W is isotropic for the bilinear (non-Hermitian) form
v . w; the constructive witness is a degenerate complex unit J built
from a Hermitian-orthogonal isotropic basis.  An axis of holomorphy is
a real subspace V with g^T P_V h = 0 over W; 2-dimensional axes come
from isotropic vectors annihilating W, and the maximal-axis search
assembles K (real annihilator directions) with such planes.

The search is sound, not complete: certified output always passes
is_axis exactly; isotropic vectors whose construction needs square
roots outside Q(i) are only reported numerically.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussRational, ZERO, sqrt_in_qi
from .frames import VariableFrame
from .poly import FrameMismatch, Poly, axis_polynomials, real_gradient, slot_axes
from .conformality import kappa, laplacian
from .linalg import (
    ComplexSubspace,
    Matrix,
    RealSubspace,
    dot_bilinear,
    dot_hermitian,
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
    in C^m; their span equals the span of the pointwise gradients."""
    fs = list(fs)
    if not fs:
        raise ValueError("empty family has no gradient span")
    frame = fs[0].frame
    m = frame.m
    vectors = []
    for f in fs:
        if f.frame != frame:
            raise FrameMismatch("family members live on different frames")
        per_mono = {}
        for axis, comp in enumerate(real_gradient(f).components):
            for mono, c in comp.terms.items():
                row = per_mono.setdefault(mono, [ZERO] * m)
                row[axis] = row[axis] + c
        vectors.extend(tuple(row) for row in per_mono.values())
    return ComplexSubspace(m, vectors)


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
        self.pairs = list(pairs)
        span_vectors = []
        J = Matrix.zero(ambient, ambient)
        for x, y in self.pairs:
            span_vectors.extend([x, y])
            xs = vec([GaussRational(q) for q in x])
            ys = vec([GaussRational(q) for q in y])
            n2 = dot_bilinear(xs, xs)
            outer = Matrix([[(ys[a] * xs[b] - xs[a] * ys[b]) / n2
                             for b in range(ambient)] for a in range(ambient)],
                           ncols=ambient)
            J = J + outer
        self.J = J
        self.plane_span = RealSubspace(ambient, span_vectors)
        self.kernel = self.plane_span.orthogonal_complement()

    def check(self):
        """Exact structural invariants; raises AssertionError on violation
        (an explicit raise, so python -O keeps the check)."""
        for x, y in self.pairs:
            xs = vec([GaussRational(q) for q in x])
            ys = vec([GaussRational(q) for q in y])
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
    if isinstance(V, RealSubspace):
        if V.ambient != frame_dim:
            raise ValueError("subspace ambient dimension mismatch")
        return V
    vectors = [vec([GaussRational(Fraction(q)) for q in v]) for v in V]
    if vectors:
        if Matrix(vectors, ncols=frame_dim).rank() != len(vectors):
            raise ValueError("dependent basis")
    return RealSubspace(frame_dim, vectors)


def apply_real_isometry(p: Poly, Q: Matrix, target: VariableFrame) -> Poly:
    """Pull p back through the real orthogonal change of coordinates
    x' = Q x (rows of Q are the new coordinate functionals), returning
    a polynomial on target with p'(Qx) = p(x).  Orthogonality keeps
    kappa, the Laplacian and eigenfamily data unchanged."""
    frame = p.frame
    if Q.nrows != frame.m or Q.ncols != frame.m or target.m != frame.m:
        raise ValueError("isometry shape does not match the frames")
    if Q * Q.transpose() != Matrix.identity(frame.m):
        raise ValueError("matrix rows are not orthonormal")
    for a in range(Q.nrows):
        for b in range(Q.ncols):
            if Q[a, b].im != 0:
                raise ValueError("isometry entries must be real")
    axes = axis_polynomials(target)
    back = []  # x_a = sum_b Q_ba x'_b
    for a in range(frame.m):
        out = Poly.zero(target)
        for b in range(frame.m):
            c = Q[b, a]
            if c:
                out = out + c * axes[b]
        back.append(out)
    images = {}
    for s, entries in enumerate(slot_axes(frame)):
        out = Poly.zero(target)
        for a, c in entries:
            out = out + c * back[a]
        images[s] = out
    return p.substitute(target, images)


def is_axis(fs, V) -> bool:
    "g^T P_V h = 0 for all gradient-span basis pairs; V exact real."
    return span_is_axis(gradient_span(fs), V)


def span_is_axis(W: ComplexSubspace, V) -> bool:
    "is_axis for a family with gradient span W."
    sub = _as_real_subspace(W.ambient, V)
    if sub.dim == 0:
        return True
    P = sub.projector()
    basis = list(W.basis)
    for i in range(len(basis)):
        Ph = P.apply(basis[i])
        for j in range(i + 1):
            if dot_bilinear(basis[j], Ph) != ZERO:
                return False
    return True


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


def symmetric_diagonalize(vectors, form=dot_bilinear):
    """Orthogonalize for a symmetric bilinear form (char 0); returns a
    list of (vector, form(vector, vector)) spanning the same space.
    Zero diagonal values mark radical directions."""
    pending = [v for v in vectors]
    out = []
    while pending:
        # prefer an anisotropic vector; build one if only cross terms exist
        pick = None
        for idx, v in enumerate(pending):
            if form(v, v) != ZERO:
                pick = idx
                break
        if pick is None:
            cross = None
            for a in range(len(pending)):
                for b in range(a + 1, len(pending)):
                    if form(pending[a], pending[b]) != ZERO:
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
        d = form(v, v)
        out.append((v, d))
        pending = [vec_sub(u, vec_scale(form(u, v) / d, v)) for u in pending]
        pending = [u for u in pending if not vec_is_zero(u)]
    return out


def _grow_isotropic(candidates, accepted):
    "Greedy extension of a totally isotropic independent set."
    for w in candidates:
        if vec_is_zero(w):
            continue
        if dot_bilinear(w, w) != ZERO:
            continue
        if any(dot_bilinear(w, s) != ZERO for s in accepted):
            continue
        # Hermitian-reduce against accepted to keep independence visible
        reduced = w
        for s in accepted:
            coeff = dot_hermitian(s, reduced) / dot_hermitian(s, s)
            reduced = vec_sub(reduced, vec_scale(coeff, s))
        if vec_is_zero(reduced):
            continue
        accepted.append(reduced)
    return accepted


def _deg2_seeds(fs):
    "Exact isotropic annihilator vectors for quadratic eigenfamilies."
    nonzero = [f for f in fs if f != 0]
    if not nonzero:
        return []
    if any(not f.is_homogeneous() or f.degree() != 2 for f in nonzero):
        return []
    from .degree2 import isotropic_annihilator_seeds
    return isotropic_annihilator_seeds(nonzero)


def maximal_axis(fs, tolerance=1e-9):
    """Search for a large uniform axis of holomorphy.

    Exact pipeline: K = real directions annihilating the gradient span;
    then totally isotropic vectors in the bilinear annihilator A
    (radical of the restricted form, quadratic-family seeds, and
    anisotropic pairs split when the needed square root lies in Q(i)),
    each contributing the plane of its real and imaginary parts.
    Unsplittable pairs are paired in floating point and reported
    separately with their residual.
    """
    W = gradient_span(fs)
    m = W.ambient
    A = W.bilinear_annihilator()
    K = A.real_points()
    K_c = ComplexSubspace(m, [vec([GaussRational(q) for q in b]) for b in K.basis])
    A_prime = K_c.hermitian_complement_within(A)

    diag = symmetric_diagonalize(list(A_prime.basis))
    radical = [v for v, d in diag if d == ZERO]
    aniso = [(v, d) for v, d in diag if d != ZERO]
    rank = len(aniso)
    bound = K.dim + 2 * (len(radical) + rank // 2)

    isotropics = _grow_isotropic(radical, [])
    isotropics = _grow_isotropic(_deg2_seeds(fs), isotropics)

    used = [False] * len(aniso)
    leftovers = []
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
        isotropics = _grow_isotropic([vec_add(vi, vec_scale(s, aniso[j][0]))], isotropics)

    axis_vectors = [vec([GaussRational(q) for q in b]) for b in K.basis]
    for w in isotropics:
        axis_vectors.append(vec([GaussRational(q) for q in vec_re(w)]))
        axis_vectors.append(vec([GaussRational(q) for q in vec_im(w)]))
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
