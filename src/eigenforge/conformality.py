"""Conformality bracket, Laplacian, and eigenfamily verification.

For f, g on C^n x R^r the bracket is

    kappa(f, g) = 2 sum_j (dz_j f dzbar_j g + dz_j g dzbar_j f)
                  + sum_k dt_k f dt_k g,

the complex-bilinear pairing of real gradients, and

    laplacian(f) = 4 sum_j dz_j dzbar_j f + sum_k dt_k^2 f.

Given a real symmetric m x m matrix P, kappa(f, g, P) is the pairing
sum_ab P_ab d_a f d_b g over the real axes and laplacian(f, P) is
trace(P Hess f); P = identity gives the plain operators.

A family is a (lam, mu)-eigenfamily when laplacian(f) = lam f and
kappa(f, g) = mu f g for all members f, g.  On flat space polynomial
eigenfamilies force (lam, mu) = (0, 0); restricting a homogeneous
degree-d flat eigenfamily on R^(m+1) to the unit sphere S^m gives
lam = -d(d+m-1), mu = -d^2.

One integer kernel computes both residuals, kappa(f, g) - mu f g and
laplacian(f) - lam f, on the packed form that Poly stores (Gaussian-
integer numerators over one denominator D_f, monomials packed into
integers).  The form's coefficients C_su over the slots, lam and mu go
to one common denominator once.  Each member f is prepared once: its
slot derivatives d_s f and the C-weighted gradients h_s = sum_u C_su
d_u f, taken on the numerators.  A pair's residual is then
sum_s d_s f h_s(g) - mu f g, accumulated into one integer dict over
D_f D_g times the common denominator and reduced once; the Laplacian
residual is sum_s d_s h_s(f) - lam f.  kappa and laplacian are
one-pair calls of the same kernel.  A bracket whose term products
would exceed BRACKET_LIMIT raises ValueError before it multiplies
anything.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .scalars import (GaussRational, ONE, ZERO, as_scalar, common_numerators, format_scalar,
                      scalar)
from .frames import VariableFrame
from .poly import (PRODUCT_LIMIT, FrameMismatch, Poly, _degrees, _derivative, _gauss_mul,
                   _gauss_sum, _nonzero, _reduced, _unpacker, check_degree, check_products,
                   common_frame, quadratic, slot_axes)

TWO = scalar(2)

# Term products one bracket may take: the ring's budget, over all the
# products of one residual.
BRACKET_LIMIT = PRODUCT_LIMIT


class EigenData(NamedTuple):
    "The pair (lam, mu); lam scales the Laplacian, mu the bracket."
    lam: GaussRational
    mu: GaussRational

    def __str__(self):
        return f"(lambda={format_scalar(self.lam)}, mu={format_scalar(self.mu)})"


FLAT_DATA = EigenData(ZERO, ZERO)


def _slot_form(frame, P):
    """{(s, u): c} over slot pairs s <= u: the form sum_su c d_s . d_u,
    read as symmetric, behind kappa and laplacian.  The Wirtinger form
    when P is None; D^T P D for the slot <-> axis table D of slot_axes."""
    if P is None:
        form = {(2 * j, 2 * j + 1): TWO for j in range(frame.n)}
        form.update({(s, s): ONE for s in range(2 * frame.n, frame.m)})
        return form
    if P.nrows != frame.m or P.ncols != frame.m:
        raise ValueError(f"P must be {frame.m}x{frame.m} for this frame")
    table = slot_axes(frame)
    form = {}
    for s in range(frame.m):
        for u in range(s, frame.m):
            c = sum((ca * P[a, b] * cb for a, ca in table[s] for b, cb in table[u]), ZERO)
            if c:
                form[s, u] = c
    return form


class _Member(NamedTuple):
    """One member prepared for the kernel: its slot derivatives d[s] over
    poly.den, and the weighted gradients full[s] (pairing with another
    member) and upper[s] (pairing with itself), over poly.den times the
    kernel's denominator; neg_mu is -mu times poly's numerators."""
    poly: Poly
    d: dict
    full: dict
    upper: dict
    neg_mu: dict


class _Kernel:
    """The residuals kappa(f, g) - mu f g and laplacian(f) - lam f of one
    form on one frame, for members of degree at most `degree`."""

    def __init__(self, frame, P, lam, mu, degree):
        form = _slot_form(frame, P)
        self.den, nums = common_numerators([*form.values(), lam, mu])
        *weights, self.lam, self.mu = nums
        # rows of the symmetric matrix C: full[s] lists (u, w) with
        # w = C_su; upper[s] keeps u >= s with off-diagonal weights
        # doubled, so that sum_s d_s f upper[s](f) = kappa(f, f)
        self.full, self.upper = {}, {}
        for ((s, u), _), (a, b) in zip(form.items(), weights):
            self.full.setdefault(s, []).append((u, (a, b)))
            if s != u:
                self.full.setdefault(u, []).append((s, (a, b)))
                a, b = 2 * a, 2 * b
            self.upper.setdefault(s, []).append((u, (a, b)))
        # mu f g has twice the members' degree
        check_degree(2 * degree, "bracket")

    def prepare(self, f: Poly) -> _Member:
        "Everything the residuals need of f, computed once per member."
        nums = f.nums
        d = {s: _derivative(nums, s) for s in self.full}
        full = {s: _gauss_sum((w, d[u]) for u, w in row) for s, row in self.full.items()}
        upper = {s: _gauss_sum((w, d[u]) for u, w in row) for s, row in self.upper.items()}
        a, b = self.mu
        return _Member(f, d, full, upper, _gauss_sum([((-a, -b), nums)]))

    def bracket(self, f: _Member, g: _Member) -> Poly:
        "kappa(f, g) - mu f g, from one integer dict."
        h = f.upper if f is g else g.full
        pairs = [(p, q) for p, q in [(f.d[s], h[s]) for s in h] + [(f.poly.nums, g.neg_mu)]
                 if p and q]
        check_products(sum(len(p) * len(q) for p, q in pairs), "bracket", BRACKET_LIMIT)
        acc = {}
        for p, q in pairs:
            _gauss_mul(p, q, acc)
        return _reduced(f.poly.frame, _nonzero(acc), f.poly.den * g.poly.den * self.den)

    def harmonic(self, f: _Member) -> Poly:
        "laplacian(f) - lam f."
        a, b = self.lam
        parts = [((1, 0), _derivative(h, s)) for s, h in f.upper.items()]
        return _reduced(f.poly.frame, _gauss_sum(parts + [((-a, -b), f.poly.nums)]),
                        f.poly.den * self.den)


def kappa(f: Poly, g: Poly, P=None) -> Poly:
    """The bracket; with a real symmetric m x m matrix P, the gradient
    pairing sum_ab P_ab d_a f d_b g over the real axes instead."""
    if f.frame != g.frame:
        raise FrameMismatch("kappa needs a shared frame")
    kernel = _Kernel(f.frame, P, ZERO, ZERO, max(f.degree(), g.degree()))
    a = kernel.prepare(f)
    return kernel.bracket(a, a if g is f else kernel.prepare(g))


def laplacian(f: Poly, P=None) -> Poly:
    """The Laplacian; with a real symmetric m x m matrix P, the trace
    of P times the real Hessian instead."""
    kernel = _Kernel(f.frame, P, ZERO, ZERO, f.degree())
    return kernel.harmonic(kernel.prepare(f))


def norm_squared(frame: VariableFrame) -> Poly:
    "|x|^2 = sum z_j conj(z_j) + sum t_k^2, the frame's radius squared."
    pairs = {(2 * j, 2 * j + 1): ONE for j in range(frame.n)}
    pairs.update({(s, s): ONE for s in range(2 * frame.n, frame.m)})
    return quadratic(frame, pairs)


# ---------------------------------------------------------------------
# verification reports


class FamilyReport:
    """Outcome of an eigenfamily verification.

    harmonic_residuals[i] is laplacian(f_i) - lam*f_i; conformal_pairs
    maps (i, j) with i <= j to kappa(f_i, f_j) - mu*f_i*f_j.  The
    verdict is true exactly when every residual is the zero polynomial.
    """

    def __init__(self, frame, harmonic_residuals, conformal_pairs,
                 data: Optional[EigenData], degree, warning=None):
        self.frame = frame
        self.harmonic_residuals = list(harmonic_residuals)
        self.conformal_pairs = dict(conformal_pairs)
        self.degree = degree
        self.warning = warning
        self.harmonic = all(r == 0 for r in self.harmonic_residuals)
        self.conformal = all(r == 0 for r in self.conformal_pairs.values())
        self.verdict = self.harmonic and self.conformal
        self.data = data if self.verdict else None

    def failures(self):
        out = [("laplacian", (i,), r)
               for i, r in enumerate(self.harmonic_residuals) if r != 0]
        out += [("kappa", ij, r)
                for ij, r in sorted(self.conformal_pairs.items()) if r != 0]
        return out

    def to_json_dict(self, name=None):
        from .parser import format_poly
        d = {
            "name": name,
            "m": self.frame.m,
            "degree": self.degree,
            "verdict": self.verdict,
            "harmonic": self.harmonic,
            "harmonic_residuals": [format_poly(r) for r in self.harmonic_residuals],
            "conformal_pairs": [
                {"i": i, "j": j, "residual": format_poly(r)}
                for (i, j), r in sorted(self.conformal_pairs.items())
            ],
            "lambda": format_scalar(self.data.lam) if self.data else None,
            "mu": format_scalar(self.data.mu) if self.data else None,
        }
        if self.warning:
            d["warning"] = self.warning
        return d


def _family_degree(fs):
    degs = {f.degree() for f in fs if f != 0}
    if len(degs) == 1:
        return degs.pop()
    return None


def verify_general_family(fs, data: EigenData) -> FamilyReport:
    "Check laplacian(f) = lam f and kappa(f,g) = mu f g as exact identities."
    lam = as_scalar(data.lam)
    mu = as_scalar(data.mu)
    if lam is None or mu is None:
        raise TypeError("lambda and mu must be exact constants")
    fs = list(fs)
    if not fs:
        return FamilyReport(None, [], {}, EigenData(lam, mu), None,
                            warning="empty family verifies vacuously")
    frame = common_frame(fs)
    kernel = _Kernel(frame, None, lam, mu, max(f.degree() for f in fs))
    members = [kernel.prepare(f) for f in fs]
    harm = [kernel.harmonic(a) for a in members]
    pairs = {(i, j): kernel.bracket(members[i], members[j])
             for i in range(len(fs)) for j in range(i, len(fs))}
    return FamilyReport(frame, harm, pairs, EigenData(lam, mu), _family_degree(fs))


def verify_flat_family(fs) -> FamilyReport:
    "Eigenfamily test on flat space, where (lam, mu) = (0, 0) is forced."
    return verify_general_family(fs, FLAT_DATA)


def sphere_data(fs) -> EigenData:
    """Eigen data (-d(d+m-1), -d^2) on the unit sphere S^m of the frame,
    for a homogeneous degree-d family; the closed form, with no
    verification.  Raises ValueError on mixed or missing degrees."""
    fs = list(fs)
    if not fs:
        raise ValueError("empty family has no sphere data")
    frame = common_frame(fs)
    degs = {f.degree() for f in fs if f != 0}
    if len(degs) != 1:
        raise ValueError(f"mixed degrees {sorted(degs)} have no single eigen data")
    d = degs.pop()
    if d < 1:
        raise ValueError("constant families have no sphere data")
    for f in fs:
        if not f.is_homogeneous():
            raise ValueError("sphere restriction needs homogeneous members")
    m = frame.m - 1  # sphere dimension
    return EigenData(scalar(-d * (d + m - 1)), scalar(-d * d))


def sphere_eigen_data(fs):
    """(sphere_data(fs), verify_flat_family(fs)): the data holds on the
    sphere exactly when the flat report's verdict is true."""
    fs = list(fs)
    return sphere_data(fs), verify_flat_family(fs)


def power_family(fs, d: int, data: EigenData):
    """Spanning set of all degree-d products of members, with the
    transformed eigen data (d(lam+(d-1)mu), d^2 mu)."""
    if d < 1:
        raise ValueError("power needs d >= 1")
    fs = list(fs)
    if not fs:
        raise ValueError("empty family has no powers")
    common_frame(fs)
    # layer k holds (last index, product) over the index tuples i1 <= ... <= ik
    # in lexicographic order; extending each by every index >= ik keeps it
    layer = [(0, Poly.constant(fs[0].frame, scalar(1)))]
    for _ in range(d):
        layer = [(k, acc * fs[k]) for start, acc in layer for k in range(start, len(fs))]
    products = list(dict.fromkeys(acc for _, acc in layer if acc != 0))
    dd = scalar(d)
    new_data = EigenData(dd * (data.lam + (dd - 1) * data.mu), dd * dd * data.mu)
    return products, new_data


# ---------------------------------------------------------------------
# invariance predicates for descending to projective spaces


def is_even_degree(f: Poly) -> bool:
    "Every monomial has even total degree."
    return all(d % 2 == 0 for d in _degrees(f))


def is_biinvariant(f: Poly) -> bool:
    "Every monomial has equal total z-degree and total conj(z)-degree."
    n2, unpack = 2 * f.frame.n, _unpacker(f.frame.num_slots)
    return all(sum(m[0:n2:2]) == sum(m[1:n2:2]) for m in map(unpack, f.nums))


# Derivations of the right sp(1)-action on quaternionic coordinates
# q_j = z_{2j} + z_{2j+1} j (0-indexed pairs), from q -> q u for the
# unit quaternions u = i, j, k.  Each entry is (coefficient, source
# variable, differentiated variable) over one pair; labels 0/1 pick the
# first or second complex coordinate of the pair and "b" marks a
# conjugate.  Derived from (a, b)(c, d) = (ac - b conj(d), ad + b conj(c)).
SU2_DERIVATION_TABLE = {
    "i": (("i", "0", "0"), ("-i", "0b", "0b"), ("-i", "1", "1"), ("i", "1b", "1b")),
    "j": (("-1", "1", "0"), ("-1", "1b", "0b"), ("1", "0", "1"), ("1", "0b", "1b")),
    "k": (("i", "1", "0"), ("-i", "1b", "0b"), ("i", "0", "1"), ("-i", "0b", "1b")),
}

_TABLE_COEFF = {"1": scalar(1), "-1": scalar(-1), "i": scalar(0, 1), "-i": scalar(0, -1)}


def _pair_variable(frame, pair, label):
    "(name, conjugated) of the variable a table label names in one pair."
    return frame.complex_names[2 * pair + int(label[0])], label.endswith("b")


def su2_derivative(f: Poly, which: str) -> Poly:
    "Apply the derivation for u in {i, j, k}, summed over all pairs."
    frame = f.frame
    if frame.n % 2 != 0 or frame.n == 0:
        raise ValueError("quaternionic structure needs an even, positive number of complex coordinates")
    if frame.r != 0:
        raise ValueError("quaternionic structure admits no real coordinates")
    out = Poly.zero(frame)
    for pair in range(frame.n // 2):
        for coeff, src, tgt in SU2_DERIVATION_TABLE[which]:
            name, conj = _pair_variable(frame, pair, src)
            x = Poly.conj_variable(frame, name) if conj else Poly.variable(frame, name)
            dx = f.wirtinger(*_pair_variable(frame, pair, tgt))
            out = out + _TABLE_COEFF[coeff] * x * dx
    return out


def is_su2_invariant(f: Poly) -> bool:
    "All three sp(1) derivations annihilate f.  Raises when the frame is not quaternionic."
    return all(su2_derivative(f, u) == 0 for u in ("i", "j", "k"))


def invariance_predicates(f: Poly) -> dict:
    """The three descent conditions.  su2_invariant is None when the
    frame has no quaternionic structure; is_su2_invariant raises there
    instead."""
    out = {
        "even_degree": is_even_degree(f),
        "biinvariant": is_biinvariant(f),
    }
    if f.frame.n % 2 == 0 and f.frame.n > 0 and f.frame.r == 0:
        out["su2_invariant"] = is_su2_invariant(f)
    else:
        out["su2_invariant"] = None
    return out


def cross_lambda_mu(space: str, m: int, d: int) -> EigenData:
    """Eigen data on the compact rank-one quotients.

    space: "RP" (even families), "CP" (biinvariant), "HP" (su2
    invariant); m is the quotient's (real/complex/quaternionic)
    dimension, d the table's degree parameter.
    """
    if m < 1 or d < 1:
        raise ValueError("need m >= 1 and d >= 1")
    if space == "RP":
        return EigenData(scalar(-2 * d * (m - 1 + 2 * d)), scalar(-4 * d * d))
    if space == "CP":
        return EigenData(scalar(-4 * d * (m + d)), scalar(-4 * d * d))
    if space == "HP":
        return EigenData(scalar(-4 * d * (2 * m + 1 + d)), scalar(-4 * d * d))
    raise ValueError(f"unknown space {space!r}")
