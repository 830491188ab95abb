"""Shared oracles, independent of the code paths they check:
finite-difference derivatives on float evaluations along labelled real
axes, a reference Q(i)
scalar built on Fraction pairs, the GaussRational vector layer (entrywise
helpers, fused dot products, Hermitian Gram-Schmidt and the bilinear
diagonalization), polynomial arithmetic on the
{exponent tuple: GaussRational} term view, term degrees from unpacked
keys, evaluation term by term, and on top of it the real-gradient forms of the projected
bracket, projected Laplacian and degree-2 matrix, the bracket,
Laplacian, family verification and pairwise harmonic-morphism test, the
substitution and isometry pull-back, the degree-2 builders in Poly ring arithmetic (with the
scalar slot-pair codec and the axis table they read), the exact degree-2
decomposition through the m x m axis projector, a real subspace that
stores its basis as Fraction tuples,
the per-entry matrix product, entrywise operations, matrix-vector
product, conjugate transpose, row reduction and determinant, the
fraction-free elimination with Gaussian updates only and the span
basis it gives for every density, the coefficient and gradient spans
built from GaussRational rows, the intersection, real points and
Hermitian complement that the axis search once reached its subspaces
through, the complex-type witness's J^2 through its kernel projector,
the annihilators as a free-column
kernel spanned again, the degree-2 axis through Hermitian
Gram-Schmidt and an annihilating product grown from the identity over
every ordering of its index set, the axis test through the m x m
projector, the maximal-axis search through a subspace sum,
degree-2 seeds and greedy isotropic growth, the products of a power
family built by recursion, the per-character lexer and Poly-per-token
expression parser, and the printer and defect family on the term
view."""

import sys
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from eigenforge.conformality import EigenData, FamilyReport, _family_degree
from eigenforge.degree2 import (Deg2Decomposition, PolynomialData, SubspaceType, TwistingData,
                               _NeedsFloat, _coerce_forms, _outer, default_frame,
                               is_eigenfamily_deg2, to_form, twist_x_matrix)
from eigenforge.frames import VariableFrame
from eigenforge.holomorphy import AxisReport, _as_real_subspace, _numeric_extension, gradient_span
from eigenforge.linalg import (ComplexSubspace, Matrix, RealSubspace, _check_ambient, _divided,
                               _gram_orthogonal, _joined, _real_rows, _sliced, _stacked, vec)
from eigenforge.poly import (FrameMismatch, Poly, _unpacker, common_frame, mono_order_key,
                            quadratic_from_numerators, quadratic_numerators, real_gradient)
from eigenforge.parser import MAX_NESTING, ParseError
from eigenforge.scalars import (ONE, ZERO, GaussRational, I, _reduce, as_scalar,
                               common_numerators, rational_sqrt, scalar, sqrt_in_qi)


def axis_labels(frame):
    "Text form of each real axis x_a of the frame: Re(z), Im(z) or t."
    return ([f"{part}({name})" for name in frame.complex_names for part in ("Re", "Im")]
            + list(frame.real_names))


def axis_shift(point, frame, axis, delta):
    "Shift one real axis of an evaluation point by delta."
    q = dict(point)
    label = axis_labels(frame)[axis]
    if label.startswith("Re("):
        q[label[3:-1]] = q[label[3:-1]] + delta
    elif label.startswith("Im("):
        q[label[3:-1]] = q[label[3:-1]] + 1j * delta
    else:
        q[label] = q[label] + delta
    return q


def fd_gradient(f, point, h=1e-6):
    "Central-difference real gradient, one complex number per real axis."
    frame = f.frame
    out = []
    for axis in range(frame.m):
        hi = f.evaluate_float(axis_shift(point, frame, axis, h))
        lo = f.evaluate_float(axis_shift(point, frame, axis, -h))
        out.append((hi - lo) / (2 * h))
    return out


def fd_kappa(f, g, point, h=1e-6):
    "Bilinear dot product of finite-difference gradients."
    gf = fd_gradient(f, point, h)
    gg = fd_gradient(g, point, h)
    return sum(a * b for a, b in zip(gf, gg))


def fd_laplacian(f, point, h=1e-3):
    "Sum of second central differences over the real axes."
    frame = f.frame
    mid = f.evaluate_float(point)
    total = 0j
    for axis in range(frame.m):
        hi = f.evaluate_float(axis_shift(point, frame, axis, h))
        lo = f.evaluate_float(axis_shift(point, frame, axis, -h))
        total += (hi - 2 * mid + lo) / (h * h)
    return total


def rational_point(rng, frame, span=3, den=7):
    "Random rational evaluation point, returned as floats."
    pt = {}
    for name in frame.complex_names:
        pt[name] = complex(Fraction(rng.randint(-span, span), rng.randint(1, den)),
                           Fraction(rng.randint(-span, span), rng.randint(1, den)))
    for name in frame.real_names:
        pt[name] = float(Fraction(rng.randint(-span, span), rng.randint(1, den)))
    return pt


# -- reference scalar ----------------------------------------------------
#
# The straightforward Fraction-pair implementation of Q(i).  The integer
# kernel in eigenforge.scalars must agree with it on every operation.


class RefGauss:
    "a + b*i with a, b Fractions; every operation reduces each part."

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def coerce(x):
        return x if isinstance(x, RefGauss) else RefGauss(x)

    def __eq__(self, other):
        other = RefGauss.coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __add__(self, other):
        other = RefGauss.coerce(other)
        return RefGauss(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return RefGauss(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-RefGauss.coerce(other))

    def __mul__(self, other):
        other = RefGauss.coerce(other)
        return RefGauss(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        other = RefGauss.coerce(other)
        n = other.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return RefGauss((self.re * other.re + self.im * other.im) / n,
                        (self.im * other.re - self.re * other.im) / n)

    def __pow__(self, n):
        out = RefGauss(1)
        for _ in range(n):
            out = out * self
        return out

    def conjugate(self):
        return RefGauss(self.re, -self.im)

    def norm2(self):
        return self.re * self.re + self.im * self.im


def ref_sum_of_products(u, v, conjugate_first=False):
    "Term-by-term sum_k u_k v_k (conj(u_k) v_k) in RefGauss arithmetic."
    total = RefGauss(0)
    for a, b in zip(u, v):
        total = total + (a.conjugate() if conjugate_first else a) * b
    return total


# -- the GaussRational vector layer ---------------------------------------------
#
# Vectors as tuples of GaussRational, one scalar operation (and its gcd)
# per entry: the helpers, fused dot products, Hermitian Gram-Schmidt and
# bilinear diagonalization that linalg, scalars and holomorphy once ran
# on (with the scalars' real and imaginary parts), before bases stayed
# the integer rows of a Matrix.


def sum_of_products(u, v, conjugate_first=False) -> GaussRational:
    """sum_k u_k v_k (or sum_k conj(u_k) v_k) over two sequences of
    GaussRational, accumulating integer numerators over a running lcm of
    the term denominators and reducing once; pairs beyond the shorter
    sequence are ignored."""
    a = b = 0
    d = 1
    for x, y in zip(u, v):
        xa, xb, ya, yb = x._a, x._b, y._a, y._b
        if conjugate_first:
            pa = xa * ya + xb * yb
            pb = xa * yb - xb * ya
        else:
            pa = xa * ya - xb * yb
            pb = xa * yb + xb * ya
        if not (pa or pb):
            continue
        pd = x._d * y._d
        if pd != d:
            g = gcd(d, pd)
            if g != pd:  # widen the running denominator to lcm(d, pd)
                k = pd // g
                a *= k
                b *= k
                d *= k
            k = d // pd
            pa *= k
            pb *= k
        a += pa
        b += pb
    return _reduce(a, b, d)


def vec_is_zero(u):
    return all(not x for x in u)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_conj(u):
    return tuple(a.conjugate() for a in u)


def dot_bilinear(u, v):
    "sum u_k v_k with no conjugation (the isotropy pairing)."
    return sum_of_products(u, v)


def dot_hermitian(u, v):
    "sum conj(u_k) v_k."
    return sum_of_products(u, v, conjugate_first=True)


def real_part(c: GaussRational) -> GaussRational:
    "Re c as a real scalar."
    return _reduce(c._a, 0, c._d)


def imag_part(c: GaussRational) -> GaussRational:
    "Im c as a real scalar."
    return _reduce(c._b, 0, c._d)


def vec_re(u):
    return tuple(map(real_part, u))


def vec_im(u):
    return tuple(map(imag_part, u))


def ref_gram_schmidt_hermitian(vectors):
    """Hermitian-orthogonalize without normalizing (keeps entries in Q(i)).

    Returns the nonzero orthogonal vectors; spans are preserved.
    """
    basis = []
    for v in vectors:
        w = v
        for b in basis:
            coeff = dot_hermitian(b, w) / dot_hermitian(b, b)
            w = vec_sub(w, vec_scale(coeff, b))
        if not vec_is_zero(w):
            basis.append(w)
    return basis


def ref_symmetric_diagonalize(vectors):
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


def _ref_digits(n):
    "The decimal digits of |n|, counted with the interpreter's digit limit lifted."
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return len(str(abs(n)))
    finally:
        sys.set_int_max_str_digits(limit)


def ref_format(c):
    """Canonical text of a scalar from its Fraction parts (p/q, i, p/q+r/s*i);
    past the digit limit, the error names the digits of the larger part."""
    def frac(q):
        try:
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        except ValueError:
            digits = _ref_digits(max(abs(q.numerator), q.denominator))
            raise ValueError(f"a coefficient has {digits} digits, over the limit of "
                             f"{sys.get_int_max_str_digits()} digits for printing an integer") from None
    re, im = Fraction(c.re), Fraction(c.im)
    if im == 0:
        return frac(re)
    imtxt = "i" if im == 1 else "-i" if im == -1 else f"{frac(im)}*i"
    if re == 0:
        return imtxt
    return f"{frac(re)}{'' if imtxt.startswith('-') else '+'}{imtxt}"


# -- tuple-dict polynomial arithmetic -----------------------------------------
#
# Sums, products, powers, slot derivatives and conjugation term by term
# on the {exponent tuple: GaussRational} view, one scalar operation per
# term: the ring loops Poly ran before it stored packed Gaussian-integer
# numerators.  A scalar argument stands for a constant; results go back
# through the Poly constructor.  Term degrees are read by unpacking each
# packed key, as Poly did before it read them off one modulus.


def _ref_terms(x, frame):
    if isinstance(x, Poly):
        return x.terms
    c = as_scalar(x)
    return {(0,) * frame.num_slots: c} if c else {}


def ref_add(p, q):
    terms = dict(p.terms)
    for mono, coeff in _ref_terms(q, p.frame).items():
        terms[mono] = terms.get(mono, ZERO) + coeff
    return Poly(p.frame, terms)


def ref_neg(p):
    return Poly(p.frame, {m: -c for m, c in p.terms.items()})


def ref_sub(p, q):
    return ref_add(p, ref_neg(Poly(p.frame, _ref_terms(q, p.frame))))


def ref_mul(p, q):
    "p * q; either side may be a scalar."
    frame = p.frame if isinstance(p, Poly) else q.frame
    terms = {}
    for ma, ca in _ref_terms(p, frame).items():
        for mb, cb in _ref_terms(q, frame).items():
            m = tuple(a + b for a, b in zip(ma, mb))
            terms[m] = terms.get(m, ZERO) + ca * cb
    return Poly(frame, terms)


def ref_pow(p, n):
    out = Poly.constant(p.frame, 1)
    for _ in range(n):
        out = ref_mul(out, p)
    return out


def ref_slot_derivative(p, slot):
    terms = {}
    for mono, coeff in p.terms.items():
        e = mono[slot]
        if e:
            terms[mono[:slot] + (e - 1,) + mono[slot + 1:]] = coeff * e
    return Poly(p.frame, terms)


def ref_degrees(p):
    "The total degree of each term of p, in storage order, by unpacking each key and summing."
    return list(map(sum, map(_unpacker(p.frame.num_slots), p.nums)))


def ref_evaluate(p, point, numeric):
    "evaluate (evaluate_float when numeric) on the term view: one term at a time, in term order."
    frame = p.frame
    values = []
    for name in frame.complex_names + frame.real_names:
        if name not in point:
            raise KeyError(f"no value for coordinate {name!r}")
        v = complex(point[name]) if numeric else as_scalar(point[name])
        if v is None:
            raise TypeError(f"value for {name!r} is not exact")
        if frame.kind_of(name)[0] == "c":
            values += [v, v.conjugate()]
        elif numeric or v.is_real():
            values.append(v)
        else:
            raise ValueError(f"real coordinate {name!r} needs a real value")
    total = 0j if numeric else ZERO
    for mono, coeff in p.terms.items():
        term = complex(coeff) if numeric else coeff
        for v, e in zip(values, mono):
            if e:
                term = term * v ** e
        total = total + term
    return total


def ref_conjugate(p):
    terms = {}
    for mono, coeff in p.terms.items():
        flipped = list(mono)
        for j in range(0, 2 * p.frame.n, 2):
            flipped[j], flipped[j + 1] = flipped[j + 1], flipped[j]
        terms[tuple(flipped)] = coeff.conjugate()
    return Poly(p.frame, terms)


# -- real-gradient references ----------------------------------------------
#
# The formulas the slot-form kappa(f, g, P), laplacian(f, P) and
# degree2.to_form replaced: explicit real gradients from the Wirtinger
# derivatives, d/dx = d/dz + d/dconj(z), d/dy = i (d/dz - d/dconj(z)).
# slot_axes is the change of basis on scalars, as the package kept it
# before frames held it as Gaussian-integer units.


def slot_axes(frame):
    """The slot <-> axis table of z = x + iy: entry s lists the pairs
    (a, c) with slot_s = sum c x_a.  Read the other way it is the chain
    rule d/dx_a = sum c d/dslot_s over the entries naming axis a."""
    out = []
    for j in range(frame.n):
        out.append(((2 * j, ONE), (2 * j + 1, I)))
        out.append(((2 * j, ONE), (2 * j + 1, -I)))
    for k in range(frame.r):
        out.append(((2 * frame.n + k, ONE),))
    return out


def ref_real_gradient(p):
    "The real gradient as a list of m polynomials, (Re z, Im z) pairs first."
    frame = p.frame
    comps = []
    for name in frame.complex_names:
        dz = ref_slot_derivative(p, frame.z_slot(name))
        dzb = ref_slot_derivative(p, frame.zbar_slot(name))
        comps.append(ref_add(dz, dzb))
        comps.append(ref_mul(ref_sub(dz, dzb), I))
    for name in frame.real_names:
        comps.append(ref_slot_derivative(p, frame.real_slot(name)))
    return comps


def ref_projected_kappa(f, g, P):
    "sum_ab P_ab d_a f d_b g over the real axes."
    gf, gg = ref_real_gradient(f), ref_real_gradient(g)
    out = Poly.zero(f.frame)
    for a in range(P.nrows):
        for b in range(P.ncols):
            out = ref_add(out, ref_mul(P[a, b], ref_mul(gf[a], gg[b])))
    return out


def ref_projected_laplacian(f, P):
    "trace(P . Hessian(f))."
    grad = ref_real_gradient(f)
    out = Poly.zero(f.frame)
    for a in range(P.nrows):
        row = ref_real_gradient(grad[a])
        for b in range(P.ncols):
            out = ref_add(out, ref_mul(P[a, b], row[b]))
    return out


def ref_to_form(p):
    "Half the Hessian of a homogeneous quadratic, from two gradient passes."
    m = p.frame.m
    rows = []
    for comp in ref_real_gradient(p):
        rows.append([c.constant_value() / 2 for c in ref_real_gradient(comp)])
    return Matrix(rows, ncols=m)


# -- degree-2 builders in ring arithmetic ---------------------------------------
#
# from_form and construct_eigenpair as sums and products of Poly, one
# per matrix entry and a substitution per lifted member: the loops the
# slot-pair codec replaced.  The codec on scalars (quadratic and
# quadratic_pairs) and the axis table of scalars (axis_slots) are what
# the package ran before the degree-2 paths kept integer numerators.


_HALF = GaussRational(Fraction(1, 2))
_HALF_I = GaussRational(0, Fraction(1, 2))


def axis_slots(frame):
    """The inverse of slot_axes: entry a lists the pairs (s, c) with
    x_a = sum c slot_s, from Re z = (z + conj(z))/2 and
    Im z = (z - conj(z))/(2i)."""
    out = []
    for j in range(frame.n):
        out.append(((2 * j, _HALF), (2 * j + 1, _HALF)))
        out.append(((2 * j, -_HALF_I), (2 * j + 1, _HALF_I)))
    for k in range(frame.r):
        out.append(((2 * frame.n + k, ONE),))
    return out


def quadratic(frame, pairs):
    "sum c slot_s slot_u over a {(s, u): c} dict of scalars, as numerators over their lcm."
    den, nums = common_numerators(map(scalar, pairs.values()))
    return quadratic_from_numerators(frame, den, dict(zip(pairs, nums)))


def quadratic_pairs(p):
    "The {(s, u): c} dict, s <= u, of a homogeneous quadratic p = sum c slot_s slot_u."
    den, nums = quadratic_numerators(p)
    return {pair: GaussRational(Fraction(a, den), Fraction(b, den)) for pair, (a, b) in nums.items()}


def axis_polynomials(frame):
    "The real coordinate functions (Re z, Im z, ..., t) as polynomials."
    width = frame.num_slots
    return [Poly(frame, {tuple(int(t == s) for t in range(width)): c for s, c in entries})
            for entries in axis_slots(frame)]


def ref_from_form(f):
    "x^T A x as a sum of c x_a x_b over the nonzero entries of A."
    axes = axis_polynomials(f.frame)
    out = Poly.zero(f.frame)
    for a in range(f.A.nrows):
        for b in range(f.A.ncols):
            c = f.A[a, b]
            if c:
                out = out + c * axes[a] * axes[b]
    return out


def ref_construct_eigenpair(t, pd, td, names=None):
    "F1 = P1 + z^T A w, F2 = P2 + z^T A (X w + Y conj(w) + i v t), term by term."
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
    for i in range(n):
        for j in range(k):
            a = pd.A[i, j]
            if not a:
                continue
            F1 = F1 + a * z[i] * w[j]
            twist = Poly.zero(frame)
            for l in range(k):
                twist = twist + X[j, l] * w[l] + td.Y[j, l] * wb[l]
            twist = twist + I * td.v[j] * t_poly
            F2 = F2 + a * z[i] * twist
    return F1, F2


# -- the degree-2 axis radical on its own ---------------------------------------
#
# The decomposition once ran the radical half of the maximal-axis step
# itself, with its own slice of V and its own Hermitian Gram-Schmidt.  The
# isotropic rows of holomorphy._isotropic_parts must be the same rows.


def ref_maximal_axis_radical(M1, M2):
    """(R, d): the Hermitian-orthogonal isotropic rows R spanning the maximal
    axis of a full eigenpair with forms M1, M2, the radical of the bilinear
    form on the annihilator of the gradient span, and the values d of its
    anisotropic part (at most one)."""
    W = ComplexSubspace._spanned(M1.nrows, zip(M1.re + M2.re, M1.im + M2.im))
    K = W.real_annihilator()
    A = W.annihilator_in_real_span() if K.dim else W.bilinear_annihilator()
    V, aniso = _gram_orthogonal(A.basis_matrix)
    if K.dim != 0:
        raise ValueError("not full")
    if len(aniso) > 1:
        raise AssertionError("more than one anisotropic direction")
    radical = Matrix.from_numerators(V.re[len(aniso):], V.im[len(aniso):], V.den, V.ncols)
    return _gram_orthogonal(radical, hermitian=True)[0], aniso


# -- the exact degree-2 tail through the axis projector ------------------------
#
# _decompose_exact as it ran before it read the couplings off thin
# factors: the m x m projector Q = I - B^T B onto the axis complement,
# the couplings 2 (Q M) S^T, the pure complement block (Q M) Q, diagonal
# scalings as matrix products, and one solve per e-row for Phi.  It must
# return the same data, or raise _NeedsFloat at the same step.


def _ref_diagonal(values):
    n = len(values)
    return Matrix([[c if i == j else ZERO for j in range(n)] for i, c in enumerate(values)], ncols=n)


def ref_decompose_exact(frame, M1, M2, radical, aniso):
    "The exact data of a full eigenpair with forms M1, M2, through the m x m projector."
    m = frame.m
    n = radical.nrows
    scales = []
    for a in radical.re:
        root = isqrt(q := sum(x * x for x in a))
        if root * root != q:
            raise _NeedsFloat("axis norm")
        scales.append(Fraction(radical.den, root))
    U = _ref_diagonal(scales) * radical
    S = U.conjugate().scale(Fraction(1, 2))
    B = _real_rows(U)
    Q = Matrix.identity(m) - B.transpose() * B
    if not all((M * S.conj_transpose()).is_zero() for M in (M1, M2)):
        raise AssertionError("axis coordinates are not holomorphic")
    QM = [Q * M for M in (M1, M2)]
    Xi, Eta = ((P * S.transpose()).scale(2).transpose() for P in QM)
    if not all((P * Q).is_zero() for P in QM):
        raise AssertionError("nonzero pure complement block")
    H, norms = _gram_orthogonal(Xi, hermitian=True)
    k = H.nrows
    if k % 2 != 0 or n < k:
        raise AssertionError("inconsistent subspace type")
    roots = [rational_sqrt(c.re / 2) for c in norms]
    if any(root is None for root in roots):
        raise _NeedsFloat("coupling norm")
    E = _ref_diagonal([1 / root for root in roots]) * H
    delta = m - 2 * n - 2 * k
    if delta != len(aniso) or delta not in (0, 1):
        raise AssertionError("dimension count disagrees with the anisotropic part")
    isometry = _real_rows(_stacked(U, E))
    if delta:
        comp = RealSubspace._spanned(m, zip(isometry.re, isometry.im)).orthogonal_complement()
        if comp.dim != 1:
            raise AssertionError("anisotropic complement is not a line")
        d_raw = comp.basis_matrix.re[0]
        root = isqrt(q := sum(x * x for x in d_raw))
        if root * root != q:
            raise _NeedsFloat("anisotropic norm")
        d_vec = Matrix.from_numerators([d_raw], [[0] * m], root, m)
        isometry = _stacked(isometry, d_vec)
    Phi = Matrix([Xi.transpose().solve(e) for e in E.rows], ncols=n) * Eta
    half = Fraction(1, 2)
    A_mat = (Xi * E.conj_transpose()).scale(half)
    if A_mat * Phi != Eta:
        raise AssertionError("coupling map is not well defined")
    X = (Phi * E.conj_transpose()).scale(half)
    Y = (Phi * E.transpose()).scale(half)
    v = (Phi * d_vec.transpose()).scale(-I).col(0) if delta else (ZERO,) * k
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

    def z_part(M):
        Z = S * M * S.transpose()
        return quadratic(zframe, {(2 * i, 2 * j): Z[j, i] for i in range(n) for j in range(n)})

    st = SubspaceType(n, k, delta).validate()
    pd = PolynomialData(z_part(M1), z_part(M2), A_mat).validate(st)
    td = TwistingData(Y, C, v).validate(st)
    return Deg2Decomposition(st, pd, td, isometry, True)


# -- term-by-term bracket and Laplacian ---------------------------------------
#
# kappa, laplacian and the family verification as reference sums and
# products of GaussRational scalars, one kappa call (both members
# re-derived) per pair: the formulas the packed Gaussian-integer kernel
# of eigenforge.conformality replaced.

_TWO = scalar(2)


def ref_slot_form(frame, P=None):
    """{(s, u): c} over slot pairs s <= u: the form sum_su c d_s . d_u, read
    as symmetric, on scalars: the Wirtinger form when P is None, else
    sum_ab c_s,a P_ab c_u,b over the entries of slot_axes."""
    if P is None:
        form = {(2 * j, 2 * j + 1): _TWO for j in range(frame.n)}
        form.update({(s, s): ONE for s in range(2 * frame.n, frame.m)})
        return form
    if P.nrows != frame.m or P.ncols != frame.m:
        raise ValueError(f"P must be {frame.m}x{frame.m} for this frame")
    if any(P[a, b] != P[b, a] for a in range(frame.m) for b in range(a)):
        raise ValueError("P must be symmetric")
    table = slot_axes(frame)
    form = {}
    for s in range(frame.m):
        for u in range(s, frame.m):
            c = sum((ca * P[a, b] * cb for a, ca in table[s] for b, cb in table[u]), ZERO)
            if c:
                form[s, u] = c
    return form


def ref_weighted_sum(frame, terms):
    "sum c p over the (c, p) terms, scaling once per distinct c."
    sums = {}
    for c, p in terms:
        sums[c] = ref_add(sums[c], p) if c in sums else p
    out = Poly.zero(frame)
    for c, p in sums.items():
        out = ref_add(out, p if c == ONE else ref_mul(c, p))
    return out


def ref_kappa(f, g, P=None):
    "The bracket, or the gradient pairing through P, in reference arithmetic."
    if f.frame != g.frame:
        raise FrameMismatch("kappa needs a shared frame")
    form = ref_slot_form(f.frame, P)
    slots = {s for pair in form for s in pair}
    df = {s: ref_slot_derivative(f, s) for s in slots}
    dg = df if g is f else {s: ref_slot_derivative(g, s) for s in slots}

    def terms():
        for (s, u), c in form.items():
            if s == u:
                yield c, ref_mul(df[s], dg[s])
            elif g is f:
                yield _TWO * c, ref_mul(df[s], df[u])
            else:
                yield c, ref_add(ref_mul(df[s], dg[u]), ref_mul(df[u], dg[s]))
    return ref_weighted_sum(f.frame, terms())


def ref_laplacian(f, P=None):
    "The Laplacian, or trace(P Hess f), in reference arithmetic."
    form = ref_slot_form(f.frame, P)
    first = {s: ref_slot_derivative(f, s) for s, _ in form}
    return ref_weighted_sum(f.frame, ((c if s == u else _TWO * c,
                                       ref_slot_derivative(first[s], u))
                                      for (s, u), c in form.items()))


def ref_verify_general_family(fs, data):
    "The family report from one ref_kappa and one ref_laplacian call per pair and member."
    lam, mu = as_scalar(data.lam), as_scalar(data.mu)
    if lam is None or mu is None:
        raise TypeError("lambda and mu must be exact constants")
    fs = list(fs)
    if not fs:
        return FamilyReport(None, [], {}, EigenData(lam, mu), None,
                            warning="empty family verifies vacuously")
    frame = common_frame(fs)
    harm = [ref_sub(ref_laplacian(f), ref_mul(lam, f)) for f in fs]
    pairs = {}
    for i in range(len(fs)):
        for j in range(i, len(fs)):
            pairs[(i, j)] = ref_sub(ref_kappa(fs[i], fs[j]), ref_mul(mu, ref_mul(fs[i], fs[j])))
    return FamilyReport(frame, harm, pairs, EigenData(lam, mu), _family_degree(fs))


def ref_verify_rn_hm(P):
    "The harmonic-morphism test pair by pair: each P_j harmonic, each P_j + i P_k of bracket zero."
    if P.n < 2:
        raise ValueError("need at least two components")
    if any(ref_laplacian(p) for p in P.components):
        return False
    comps = P.components
    for j in range(P.n):
        for k in range(j + 1, P.n):
            f = ref_add(comps[j], ref_mul(I, comps[k]))
            if ref_kappa(f, f):
                return False
    return True


# -- term-by-term substitution -----------------------------------------------
#
# Substitution and the isometry pull-back as reference sums and products
# of GaussRational scalars: the formulas the Gaussian-integer kernel of
# Poly.substitute and the linear image table of apply_real_isometry
# replaced.


def ref_substitute(p, target_frame, images):
    "sum_alpha c_alpha prod_s images[s] ** alpha_s in reference arithmetic."
    out = Poly.zero(target_frame)
    for mono, coeff in p.terms.items():
        term = Poly.constant(target_frame, coeff)
        for slot, e in enumerate(mono):
            if e:
                img = images.get(slot)
                if img is None:
                    raise KeyError(f"no image for slot {p.frame.slot_label(slot)}")
                term = ref_mul(term, ref_pow(img, e))
        out = ref_add(out, term)
    return out


def ref_apply_real_isometry(p, Q, target):
    "Images x_a = sum_b Q_ba x'_b built from the axis polynomials, then ref_substitute."
    frame = p.frame
    if Q.nrows != frame.m or Q.ncols != frame.m or target.m != frame.m:
        raise ValueError("isometry shape does not match the frames")
    if Q * Q.transpose() != Matrix.identity(frame.m):
        raise ValueError("matrix rows are not orthonormal")
    for a in range(Q.nrows):
        for b in range(Q.ncols):
            if Q[a, b].im != 0:
                raise ValueError("isometry entries must be real")
    half, neg_half_i = scalar(Fraction(1, 2)), scalar(0, Fraction(-1, 2))
    axes = []  # Re z = (z + conj(z))/2, Im z = -i/2 (z - conj(z)), t
    for name in target.complex_names:
        z, zb = Poly.variable(target, name), Poly.conj_variable(target, name)
        axes += [ref_mul(half, ref_add(z, zb)), ref_mul(neg_half_i, ref_sub(z, zb))]
    axes += [Poly.variable(target, name) for name in target.real_names]
    back = []
    for a in range(frame.m):
        out = Poly.zero(target)
        for b in range(frame.m):
            c = Q[b, a]
            if c:
                out = ref_add(out, ref_mul(c, axes[b]))
        back.append(out)
    images = {}
    for s, entries in enumerate(slot_axes(frame)):
        out = Poly.zero(target)
        for a, c in entries:
            out = ref_add(out, ref_mul(c, back[a]))
        images[s] = out
    return ref_substitute(p, target, images)


# -- Fraction-based real subspace ----------------------------------------
#
# A real subspace as it was before real vectors became real GaussRational
# tuples: Fraction entries, converted to GaussRational for every row
# reduction and converted back.


def _frac_re(u):
    return tuple(a.re for a in u)


class RefRealSubspace:
    """A subspace of R^ambient with a canonical (RREF) Fraction basis."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient, vectors=()):
        rows = []
        for v in vectors:
            row = []
            for x in v:
                if isinstance(x, GaussRational):
                    if x.im != 0:
                        raise ValueError("real subspace needs real entries")
                    row.append(x.re)
                else:
                    row.append(Fraction(x))
            if len(row) != ambient:
                raise ValueError("vector length does not match ambient dimension")
            rows.append([GaussRational(q) for q in row])
        R, pivots = Matrix(rows, ncols=ambient).rref()
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(_frac_re(r) for r in R.rows[: len(pivots)]))

    def __setattr__(self, name, value):
        raise AttributeError("RefRealSubspace is immutable")

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self):
        return Matrix([[GaussRational(q) for q in b] for b in self.basis], ncols=self.ambient)

    def contains(self, u):
        row = [GaussRational(q) if not isinstance(q, GaussRational) else q for q in u]
        if not self.dim:
            return vec_is_zero(vec(row))
        return ComplexSubspace(self.ambient, [vec(b) for b in self.matrix().rows]).contains(row)

    def sum(self, other):
        if self.ambient != other.ambient:
            raise ValueError(f"ambient dimensions {self.ambient} and {other.ambient} differ")
        return RefRealSubspace(self.ambient, list(self.basis) + list(other.basis))

    def projector(self):
        if self.dim == 0:
            return Matrix.zero(self.ambient, self.ambient)
        B = self.matrix()
        gram = B * B.transpose()
        return B.transpose() * gram.inverse() * B

    def orthogonal_complement(self):
        if self.dim == 0:
            return RefRealSubspace(self.ambient, Matrix.identity(self.ambient).rows)
        return RefRealSubspace(self.ambient, [_frac_re(u) for u in self.matrix().nullspace()])


# -- matrix products and elimination --------------------------------------
#
# The per-entry GaussRational loops Matrix ran before it multiplied and
# eliminated on Gaussian-integer numerators: a product summed term by
# term, Gauss-Jordan elimination that normalises each pivot row as it
# goes, and Gaussian elimination whose determinant is the product of
# the pivots; and the fraction-free elimination as it ran before real
# rows took their own update.


def ref_matmul(A, B):
    "A B with one scalar product and sum per term."
    if A.ncols != B.nrows:
        raise ValueError(f"shape mismatch {A.nrows}x{A.ncols} * {B.nrows}x{B.ncols}")
    rows = []
    for r in A.rows:
        row = []
        for j in range(B.ncols):
            total = ZERO
            for x, y in zip(r, B.col(j)):
                total = total + x * y
            row.append(total)
        rows.append(row)
    return Matrix(rows, ncols=B.ncols)


def ref_entrywise(op, *mats):
    "The matrix of op applied entry by entry to matrices of one shape."
    return Matrix([[op(*xs) for xs in zip(*rows)] for rows in zip(*(A.rows for A in mats))],
                  ncols=mats[0].ncols)


def ref_apply(A, u):
    "A u with one scalar product and sum per term."
    out = []
    for r in A.rows:
        total = ZERO
        for x, y in zip(r, u):
            total = total + x * y
        out.append(total)
    return tuple(out)


def ref_conj_transpose(A):
    "The conjugate transpose, entry by entry."
    return Matrix([[A.rows[i][j].conjugate() for i in range(A.nrows)] for j in range(A.ncols)],
                  ncols=A.nrows)


def ref_rref(M):
    "Reduced row echelon form and pivot columns, normalising each pivot row at once."
    rows = [list(r) for r in M.rows]
    nrows, ncols = M.nrows, M.ncols
    pivots = []
    lead = 0
    for col in range(ncols):
        if lead >= nrows:
            break
        sel = None
        for i in range(lead, nrows):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[lead], rows[sel] = rows[sel], rows[lead]
        inv = ONE / rows[lead][col]
        rows[lead] = [inv * x for x in rows[lead]]
        for i in range(nrows):
            if i != lead and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[lead])]
        pivots.append(col)
        lead += 1
    return Matrix(rows, ncols=ncols), pivots


def ref_eliminate(rows, ncols):
    """linalg._eliminate with the Gaussian update for every row, real ones
    included: (rows, pivots, sign), the rows as (re, im, tag)."""
    rows = [(re, im, (1, 0)) for re, im in rows]
    nrows, pivots, sign = len(rows), [], 1
    qa, qb = 1, 0
    for col in range(ncols):
        lead = sel = len(pivots)
        while sel < nrows and not (rows[sel][0][col] or rows[sel][1][col]):
            sel += 1
        if sel >= nrows:
            continue
        if sel != lead:
            rows[lead], rows[sel] = rows[sel], rows[lead]
            sign = -sign
        ya, yb, (ta, tb) = rows[lead]
        if ta != qa or tb != qb:
            n = ta * ta + tb * tb
            m1, m2 = qa * ta + qb * tb, qb * ta - qa * tb
            ya, yb = ([(a * m1 - b * m2) // n for a, b in zip(ya, yb)],
                      [(a * m2 + b * m1) // n for a, b in zip(ya, yb)])
        pa, pb = ya[col], yb[col]
        rows[lead] = ya, yb, (pa, pb)
        for i, (xa, xb, (ta, tb)) in enumerate(rows):
            fa, fb = xa[col], xb[col]
            if i == lead or not (fa or fb):
                continue
            n = ta * ta + tb * tb
            p1, p2 = pa * ta + pb * tb, pb * ta - pa * tb
            f1, f2 = fa * ta + fb * tb, fb * ta - fa * tb
            rows[i] = ([(a * p1 - b * p2 - c * f1 + d * f2) // n for a, b, c, d in zip(xa, xb, ya, yb)],
                       [(a * p2 + b * p1 - c * f2 - d * f1) // n for a, b, c, d in zip(xa, xb, ya, yb)],
                       (pa, pb))
        qa, qb = pa, pb
        pivots.append(col)
    return rows, pivots, sign


def ref_row_basis(rows, ncols):
    """linalg._row_basis through the Bareiss elimination of every row, whatever
    the rows' density: each pivot row over its pivot, the RREF basis as a Matrix."""
    elim, pivots, _ = ref_eliminate(rows, ncols)
    return _divided(elim, pivots, len(pivots), ncols)


def ref_det(M):
    "Determinant as the signed product of the pivots of Gaussian elimination."
    if M.nrows != M.ncols:
        raise ValueError(f"det needs a square matrix, got {M.nrows}x{M.ncols}")
    n = M.nrows
    rows = [list(r) for r in M.rows]
    out = ONE
    for col in range(n):
        sel = None
        for i in range(col, n):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            return ZERO
        if sel != col:
            rows[col], rows[sel] = rows[sel], rows[col]
            out = -out
        out = out * rows[col][col]
        inv = ONE / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return out


# -- spans from GaussRational rows ---------------------------------------
#
# The coefficient span and the gradient span as ComplexSubspaces of
# GaussRational rows read from the term view, indexed by the sorted
# monomials: the loops the Gaussian-integer rows of span_equal and
# gradient_span replaced.


def ref_coefficient_span(fs, monos=None):
    """The complex row space of coefficient vectors over a shared
    monomial index.  Pass monos (a sorted monomial list) to fix the
    indexing; otherwise the monomials of fs are used."""
    if monos is None:
        monos = sorted({mu for p in fs for mu in p.terms}, key=mono_order_key)
    index = {mu: i for i, mu in enumerate(monos)}
    rows = []
    for p in fs:
        row = [ZERO] * len(monos)
        for mu, c in p.terms.items():
            row[index[mu]] = c
        rows.append(vec(row))
    return ComplexSubspace(len(monos), rows)


def ref_span_equal(fs, gs):
    "Equality of the RREF bases of the two coefficient spans on a shared frame."
    fs, gs = list(fs), list(gs)
    both = fs + gs
    if both:
        common_frame(both, "compared families")
    monos = sorted({mu for p in both for mu in p.terms}, key=mono_order_key)
    return ref_coefficient_span(fs, monos) == ref_coefficient_span(gs, monos)


def ref_gradient_span(fs):
    "The span of one coefficient vector per monomial of the real gradient components."
    fs = list(fs)
    if not fs:
        raise ValueError("empty family has no gradient span")
    m = common_frame(fs).m
    vectors = []
    for f in fs:
        per_mono = {}
        for axis, comp in enumerate(real_gradient(f)):
            for mono, c in comp.terms.items():
                row = per_mono.setdefault(mono, [ZERO] * m)
                row[axis] = row[axis] + c
        vectors.extend(tuple(row) for row in per_mono.values())
    return ComplexSubspace(m, vectors)


# -- the subspace chain of the axis search ---------------------------------
#
# The maximal-axis search once reached K (the real vectors annihilating
# the gradient span W) and A' (the part of W's annihilator A Hermitian-
# orthogonal to K) through general subspace operations: K as the real
# points of A, that is A meet conj(A), and A' as a complement within A.
# ComplexSubspace.real_annihilator and annihilator_in_real_span must
# give the same canonical bases.


def ref_intersect(U, V):
    "U meet V: x = a U = b V, with a the first U.dim coordinates of the kernel of [U^T | -V^T]."
    _check_ambient(U, V)
    A, B = U.basis_matrix, V.basis_matrix
    X = _sliced(_joined(A.transpose(), -B.transpose())._kernel(), 0, A.nrows) * A
    return type(U)._spanned(U.ambient, zip(X.re, X.im))


def ref_conj(V):
    "The conjugate subspace."
    C = V.basis_matrix.conjugate()
    return ComplexSubspace._spanned(V.ambient, zip(C.re, C.im))


def ref_real_points(V):
    "The real vectors of V: the real and imaginary parts of a basis of V meet conj(V)."
    B = ref_intersect(V, ref_conj(V)).basis_matrix
    zero = (0,) * V.ambient
    return RealSubspace._spanned(V.ambient, [(x, zero) for x in B.re + B.im])


def ref_hermitian_complement_within(K, inside):
    "The vectors of inside Hermitian-orthogonal to every vector of K."
    if K.dim == 0 or inside.dim == 0:
        return inside
    # coordinates c over inside's basis B with conj(k) . (c B) = 0 for K's basis k
    B = inside.basis_matrix
    X = (K.basis_matrix.conjugate() * B.transpose())._kernel() * B
    return ComplexSubspace._spanned(K.ambient, zip(X.re, X.im))


# -- the complex-type witness through its kernel ------------------------------
#
# ComplexTypeWitness.check once built the kernel, the orthogonal
# complement of the plane span, and tested J^2 = -Id + P_ker through the
# inverse of the kernel's Gram matrix.  It now tests J^2 = -P_plane, the
# same matrix, from the plane span alone.


def ref_witness_j_squared(witness):
    "-Id + P_ker for the kernel ker, the orthogonal complement of the witness's plane span."
    kernel = witness.plane_span.orthogonal_complement()
    return kernel.projector() - Matrix.identity(witness.ambient)


# -- annihilators and the degree-2 axis, spanned twice ---------------------
#
# The annihilators once took the free-column kernel of the basis (one
# elimination) and spanned its rows again (a second) to reach the RREF;
# the real annihilator first spanned the real and imaginary parts of the
# basis (a third).  find_axis_deg2 once Hermitian-orthogonalized the
# columns of the annihilating product before taking their real and
# imaginary parts, and grew that product from the identity over every
# ordering of each index set; is_axis once multiplied through V's m x m
# projector.  The one-elimination read-off, the direct real span, one
# product per index set and the Gram-matrix axis test must give the same
# canonical bases and verdicts.


def ref_bilinear_annihilator(V):
    "All u with b . u = 0 for the basis vectors b: the free-column kernel of the basis, spanned."
    K = V.basis_matrix._kernel()
    return ComplexSubspace._spanned(V.ambient, zip(K.re, K.im))


def ref_orthogonal_complement(V):
    "The orthogonal complement of a real subspace: the free-column kernel of its basis, spanned."
    K = V.basis_matrix._kernel()
    return RealSubspace._spanned(V.ambient, zip(K.re, K.im))


def ref_real_annihilator(V):
    "The orthogonal complement of the real span of the real and imaginary parts of V's basis."
    B, zero = V.basis_matrix, (0,) * V.ambient
    return ref_orthogonal_complement(RealSubspace._spanned(V.ambient, [(x, zero) for x in B.re + B.im]))


def ref_annihilating_product(mats):
    """An annihilating product grown breadth first from the identity: every
    ordering of every index set, each layer sorted by index set, the first
    set of the last nonzero layer; None for no matrices."""
    m = mats[0].nrows if mats else 0
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
        layers = dict(sorted(nxt.items(), key=lambda kv: sorted(kv[0])))
        best = next(iter(layers.values()))
    return best


def ref_span_is_axis(W, V):
    "B P_V B^T = 0 for W's basis B, through V's m x m orthogonal projector."
    P = _as_real_subspace(W.ambient, V).projector()
    B = W.basis_matrix
    return (B * P * B.transpose()).is_zero()


def ref_find_axis_deg2(forms):
    """(axis, degenerate) as find_axis_deg2 gives them: the real span of Re w
    and Im w over a Hermitian Gram-Schmidt basis w of the nonzero columns of
    an annihilating product, or the whole space for a family of zero forms."""
    forms = [to_form(p) for p in _coerce_forms(forms)]
    if not forms or not is_eigenfamily_deg2(forms):
        raise ValueError("not a nonempty quadratic eigenfamily")
    m = forms[0].A.nrows
    mats = [f.A for f in forms if not f.A.is_zero()]
    if not mats:
        return RealSubspace(m, Matrix.identity(m).rows), True
    P = ref_annihilating_product(mats)
    cols = [c for j in range(P.ncols) if not vec_is_zero(c := P.col(j))]
    vectors = []
    for w in ref_gram_schmidt_hermitian(cols):
        vectors.append(vec_re(w))
        vectors.append(vec_im(w))
    return RealSubspace(m, vectors), False


# -- the axis search before it read its axis off W alone -------------------
#
# maximal_axis once reached A' as the bilinear annihilator of the sum
# W + K, added the isotropic columns of a quadratic eigenfamily's
# annihilating product ("seeds") to the radical of A', and grew its
# isotropic set greedily, filtering each candidate.  The Gram-system A',
# no seeds and one Hermitian Gram-Schmidt must give the same AxisReport.


def ref_sum(U, V):
    "U + V: the span of the rows of both bases, a subspace of U's type."
    _check_ambient(U, V)
    A, B = U.basis_matrix, V.basis_matrix
    return type(U)._spanned(U.ambient, zip(A.re + B.re, A.im + B.im))


def ref_isotropic_annihilator_seeds(fs):
    """The nonzero columns of an annihilating product of a quadratic
    eigenfamily (empty when fs is not one, or has a nonzero member that is
    not homogeneous of degree 2)."""
    if any(isinstance(f, Poly) and f != 0 and not (f.is_homogeneous() and f.degree() == 2)
           for f in fs):
        return []
    forms = [to_form(p) for p in _coerce_forms(fs)]
    mats = [f.A for f in forms if not f.A.is_zero()]
    if not mats or not is_eigenfamily_deg2(forms):
        return []
    P = ref_annihilating_product(mats)
    return [c for j in range(P.ncols) if not vec_is_zero(c := P.col(j))]


def ref_grow_isotropic(candidates, accepted):
    "Greedy extension of a totally isotropic independent set."
    for w in candidates:
        if vec_is_zero(w) or dot_bilinear(w, w) != ZERO:
            continue
        if any(dot_bilinear(w, s) != ZERO for s in accepted):
            continue
        reduced = w
        for s in accepted:
            reduced = vec_sub(reduced, vec_scale(dot_hermitian(s, reduced) / dot_hermitian(s, s), s))
        if not vec_is_zero(reduced):
            accepted.append(reduced)
    return accepted


def ref_isotropic_parts(W):
    "(K, radical, aniso) with A' the bilinear annihilator of ref_sum(W, K)."
    K = W.real_annihilator()
    diag = ref_symmetric_diagonalize(list((ref_sum(W, K) if K.dim else W).bilinear_annihilator().basis))
    return K, [v for v, d in diag if d == ZERO], [(v, d) for v, d in diag if d != ZERO]


def ref_maximal_axis(fs, tolerance=1e-9):
    "maximal_axis through the seeds, the greedy growth and the subspace sum."
    W = gradient_span(fs)
    K, radical, aniso = ref_isotropic_parts(W)
    bound = K.dim + 2 * (len(radical) + len(aniso) // 2)
    isotropics = ref_grow_isotropic(radical, [])
    isotropics = ref_grow_isotropic(ref_isotropic_annihilator_seeds(fs), isotropics)
    used = [False] * len(aniso)
    leftovers = []
    for i, (vi, di) in enumerate(aniso):
        if used[i]:
            continue
        mate = next(((j, s) for j in range(i + 1, len(aniso)) if not used[j]
                     for s in [sqrt_in_qi(-di / aniso[j][1])] if s is not None), None)
        if mate is None:
            leftovers.append(aniso[i])
            continue
        j, s = mate
        used[i] = used[j] = True
        isotropics = ref_grow_isotropic([vec_add(vi, vec_scale(s, aniso[j][0]))], isotropics)
    axis = RealSubspace(W.ambient, list(K.basis) + [p for w in isotropics
                                                    for p in (vec_re(w), vec_im(w))])
    m = W.ambient
    numeric, residual = _numeric_extension(W, Matrix(isotropics, ncols=m),
                                           Matrix([v for v, _ in leftovers], ncols=m),
                                           [(i, d) for i, (_, d) in enumerate(leftovers)], tolerance)
    return AxisReport(axis, numeric, residual, bound, W)


# -- power families, built depth first ---------------------------------------


def ref_power_products(fs, d):
    """The distinct nonzero degree-d products of members in the order of a
    depth-first recursion over index tuples i1 <= ... <= id."""
    products, seen = [], set()

    def build(start, depth, acc):
        if depth == d:
            if acc != 0 and acc not in seen:
                seen.add(acc)
                products.append(acc)
            return
        for k in range(start, len(fs)):
            build(k, depth + 1, acc * fs[k])

    build(0, 0, Poly.constant(fs[0].frame, scalar(1)))
    return products


# -- the per-character lexer and the Poly-per-token parser ------------------
#
# The expression parser as it was before it lexed with one regex and
# evaluated products of monomial factors as packed terms: a Token per
# character run and a Poly for every literal, name and partial result.
# Errors carry the same text, line and column as parse_poly's.


class RefToken(NamedTuple):
    kind: str   # ident | int | imag | op | end
    value: object
    line: int
    col: int


_REF_OPS = set("+-*/^~()=;")


def ref_lex(text, line_no):
    "Tokenize one statement line, character by character."
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c == "#":
            break
        col = i + 1
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                bad = next((k for k in range(i, j) if not text[k].isdecimal()), None)
                if bad is not None:
                    raise ParseError(f"unexpected character {text[bad]!r}", line_no,
                                     bad + 1) from None
                raise ParseError(f"integer literal has {j - i} digits, over the limit of "
                                 f"{sys.get_int_max_str_digits()}", line_no, col) from None
            if j < n and text[j] == "i" and (j + 1 == n or not (text[j + 1].isalnum()
                                                                 or text[j + 1] == "_")):
                out.append(RefToken("imag", value, line_no, col))
                i = j + 1
            else:
                out.append(RefToken("int", value, line_no, col))
                i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(RefToken("ident", text[i:j], line_no, col))
            i = j
            continue
        if c in _REF_OPS:
            out.append(RefToken("op", c, line_no, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line_no, col)
    out.append(RefToken("end", None, line_no, n + 1))
    return out


class RefExprParser:
    "Precedence climbing over a RefToken list, in Poly arithmetic throughout."

    def __init__(self, tokens, frame, params):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.frame = frame
        self.params = params or {}

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            self.fail(f"expected {op!r}", tok)
        return tok

    def parse(self):
        p = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.value!r}")
        return p

    def expression(self, min_bp):
        tok = self.peek()
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        if tok.kind == "op" and tok.value == "-":
            self.next()
            left = -self.expression(30)
        else:
            left = self.atom()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                break
            if tok.value in "+-":
                bp = 10
            elif tok.value in "*/":
                bp = 20
            else:
                break
            if bp < min_bp:
                break
            self.next()
            right = self.expression(bp + 1)
            if tok.value == "+":
                left = left + right
            elif tok.value == "-":
                left = left - right
            elif tok.value == "*":
                left = left * right
            else:
                if not right.is_constant():
                    self.fail("division only by constants", tok)
                c = right.constant_value()
                if not c:
                    self.fail("division by zero", tok)
                left = left * Poly.constant(self.frame, ONE / c)
        self.depth -= 1
        return left

    def atom(self):
        tok = self.next()
        if tok.kind == "int":
            p = Poly.constant(self.frame, scalar(tok.value))
        elif tok.kind == "imag":
            p = Poly.constant(self.frame, scalar(0, tok.value))
        elif tok.kind == "op" and tok.value == "(":
            p = self.expression(0)
            self.expect_op(")")
        elif tok.kind == "ident":
            p = self.named(tok)
        else:
            self.fail("expected a value", tok)
        while self.peek().kind == "op" and self.peek().value == "~":
            self.next()
            p = self.conjugated(p, tok)
        if self.peek().kind == "op" and self.peek().value == "^":
            self.next()
            etok = self.next()
            if etok.kind != "int":
                self.fail("exponent must be a nonnegative integer literal", etok)
            p = p ** etok.value
        return p

    def named(self, tok):
        name = tok.value
        if name == "i":
            return Poly.constant(self.frame, scalar(0, 1))
        if name == "conj":
            self.expect_op("(")
            inner_tok = self.peek()
            p = self.expression(0)
            self.expect_op(")")
            return self.conjugated(p, inner_tok)
        if name in self.params:
            value = self.params[name]
            if value is None:
                self.fail(f"parameter {name!r} has no value", tok)
            return Poly.constant(self.frame, value)
        if name not in self.frame:
            self.fail(f"undeclared identifier {name!r}", tok)
        return Poly.variable(self.frame, name)

    def conjugated(self, p, tok):
        for name in self.frame.real_names:
            if p == Poly.variable(self.frame, name):
                self.fail(f"conjugation of real coordinate {name!r}", tok)
        return p.conjugate()


def ref_parse_poly(text, frame, params=None, line_no=1):
    "parse_poly through ref_lex and RefExprParser."
    bound = None
    if params:
        bound = {}
        for k, v in params.items():
            s = as_scalar(v)
            if s is None and v is not None:
                raise TypeError(f"parameter {k!r} is not an exact scalar")
            bound[k] = s
    return RefExprParser(ref_lex(text, line_no), frame, bound).parse()


# -- printing and defects from the term view ----------------------------------


def _ref_format_coefficient(c, with_factor):
    if not with_factor:
        return ref_format(c)
    if c == ONE:
        return ""
    if c == -ONE:
        return "-"
    if c.re != 0 and c.im != 0:
        return f"({ref_format(c)})*"
    return f"{ref_format(c)}*"


def ref_format_poly(p):
    """The canonical text of p, term by term from the {exponent tuple:
    GaussRational} view, each coefficient through ref_format."""
    if not p.terms:
        return "0"
    frame = p.frame
    parts = []
    for mono, coeff in sorted(p.terms.items(), key=lambda kv: mono_order_key(kv[0])):
        factors = []
        for slot, e in enumerate(mono):
            if not e:
                continue
            label = frame.slot_label(slot)
            factors.append(label if e == 1 else f"{label}^{e}")
        body = "*".join(factors)
        if body:
            text = _ref_format_coefficient(coeff, True) + body
        else:
            text = _ref_format_coefficient(coeff, False)
        parts.append(text)
    out = parts[0]
    for text in parts[1:]:
        if text.startswith("-"):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out


def ref_defect_family(F):
    "defect_family on the term view: sum_a coeff(g_a, mono) g_a in Poly arithmetic."
    g = real_gradient(F)
    monos = sorted({mu for comp in g for mu in comp.terms}, key=mono_order_key)
    out = []
    for mu in monos:
        member = Poly.zero(F.frame)
        for comp in g:
            c = comp.terms.get(mu)
            if c:
                member = member + c * comp
        if member:
            out.append(member)
    return out
