"""Conformality bracket, Laplacian, and eigenfamily verification.

For f, g on C^n x R^r the bracket is

    kappa(f, g) = 2 sum_j (dz_j f dzbar_j g + dz_j g dzbar_j f)
                  + sum_k dt_k f dt_k g,

the complex-bilinear pairing of real gradients, and

    laplacian(f) = 4 sum_j dz_j dzbar_j f + sum_k dt_k^2 f.

Given a symmetric m x m matrix P, kappa(f, g, P) is the pairing
sum_ab P_ab d_a f d_b g over the real axes and laplacian(f, P) is
trace(P Hess f); P = identity gives the plain operators.  All read one
form on the slots, D P D^T for the table D of z = x + iy in frames.

A family is a (lam, mu)-eigenfamily when laplacian(f) = lam f and
kappa(f, g) = mu f g for all members f, g.  On flat space polynomial
eigenfamilies force (lam, mu) = (0, 0); restricting a homogeneous
degree-d flat eigenfamily on R^(m+1) to the unit sphere S^m gives
lam = -d(d+m-1), mu = -d^2.

One integer kernel computes both residuals, kappa(f, g) - mu f g and
laplacian(f) - lam f, on the packed form that Poly stores (Gaussian-
integer numerators over one denominator D_f, monomials packed into
integers).  The form's rows, its coefficients C_su over the slots as
integer weights over one denominator, are built once per (frame, P); a
kernel rescales them only when lam or mu brings a new denominator.
Each member f is prepared once, as its bare slot derivatives d_s f on
the numerators, for the slots f uses, and -mu f.  A pair's residual
sum_su C_su d_s f d_u g - mu f g is one integer dict over D_f D_g times
the common denominator, reduced once: the products d_s f d_u g are added
up by weight and each sum is scaled once, and in kappa(f, f) a diagonal
pair d_s f d_s f is a square, which takes each pair of terms once.  The
Laplacian residual is the same weights on d_s d_u f, less lam f.  kappa
and laplacian are one-pair calls of the same kernel.  A bracket whose
term products would exceed BRACKET_LIMIT raises ValueError before it
multiplies anything (in quadratic_verdict, only past degree 2).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_
from typing import NamedTuple, Optional

from .scalars import (GaussRational, I, ONE, ZERO, as_scalar, common_numerators, format_scalar,
                      from_triple, scalar)
from .poly import (EXP_BITS, MAX_DEGREE, PRODUCT_LIMIT, FrameMismatch, Poly, _degrees,
                   _derivative, _gauss_mul, _gauss_sum, _nonzero, _reduced, _unpacker,
                   check_degree, check_products, common_frame)
from .linalg import Matrix
from .parser import format_poly

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


def _slot_form(frame, P=None):
    """{(s, u): c != 0} over slot pairs s <= u: the symmetric form sum c d_s . d_u
    behind kappa and laplacian, C = D P D^T for the table D of frame.slot_axes
    (as d/dx_a = sum_s D_sa d/dslot_s).  P = identity, the default, gives the
    Wirtinger form 2 d_z . d_conj(z) + d_t . d_t."""
    m = frame.m
    P = Matrix.identity(m) if P is None else P
    if P.nrows != m or P.ncols != m:
        raise ValueError(f"P must be {m}x{m} for this frame")
    if P != P.transpose():
        raise ValueError("P must be symmetric")
    re, im = [[0] * m for _ in range(m)], [[0] * m for _ in range(m)]
    for s, entries in enumerate(frame.slot_axes()):
        for a, p, q in entries:
            re[s][a], im[s][a] = p, q
    D = Matrix.from_numerators(re, im, 1, m)
    C = D * P * D.transpose()
    return {(s, u): C[s, u] for s in range(m) for u in range(s, m) if C[s, u]}


@lru_cache(maxsize=64)
def _slot_rows(frame, P=None):
    """(den, full, upper): the rows of _slot_form as Gaussian-integer weights
    w over den.  full[s] lists (u, w) with w = C_su; upper[s] keeps u >= s
    with off-diagonal weights doubled, so that kappa(f, f) is the sum of
    w d_s f d_u f over upper.  Cached per (frame, P), so shared: read only."""
    form = _slot_form(frame, P)
    den, weights = common_numerators(form.values())
    full, upper = {}, {}
    for (s, u), (a, b) in zip(form, weights):
        full.setdefault(s, []).append((u, (a, b)))
        if s != u:
            full.setdefault(u, []).append((s, (a, b)))
            a, b = 2 * a, 2 * b
        upper.setdefault(s, []).append((u, (a, b)))
    return den, full, upper


class _Member(NamedTuple):
    """One member prepared for the kernel: its bare slot derivatives d[s]
    over poly.den, for the slots it uses, and neg_mu = -mu f over poly.den
    times the kernel's denominator."""
    poly: Poly
    d: dict
    neg_mu: dict


class _Kernel:
    """The residuals kappa(f, g) - mu f g and laplacian(f) - lam f of one
    form on one frame, for members of degree at most `degree`: the cached
    rows of the form, with lam and mu, over one denominator."""

    def __init__(self, frame, P, lam, mu, degree, bounded=True):
        den, self.full, self.upper = _slot_rows(frame, P)
        self.bounded = bounded
        self.zero = Poly.zero(frame)
        # k = self.den / den is 1 unless lam or mu brings a new denominator
        self.den, (self.lam, self.mu, (k, _)) = common_numerators([lam, mu, from_triple(1, 0, den)])
        if k != 1:
            self.full, self.upper = ({s: [(u, (k * a, k * b)) for u, (a, b) in row]
                                      for s, row in rows.items()} for rows in (self.full, self.upper))
        # mu f g has twice the members' degree
        check_degree(2 * degree, "bracket")

    def prepare(self, f: Poly) -> _Member:
        "Everything the residuals need of f, once per member, on the slots f uses."
        nums = f.nums
        used = reduce(or_, nums, 0)
        d = {s: _derivative(nums, s) for s in self.full if used >> s * EXP_BITS & MAX_DEGREE}
        a, b = self.mu
        return _Member(f, d, _gauss_sum([((-a, -b), nums)]))

    def bracket(self, f: _Member, g: _Member) -> Poly:
        """kappa(f, g) - mu f g, from one integer dict, over the slots both sides
        have: the products d_s f d_u g are added up by weight, and each sum
        scaled once.  A row of several entries pairs d_s f with its weighted
        sum over g, as one product of weight 1."""
        rows, dg = (self.upper, f.d) if f is g else (self.full, g.d)
        pairs = [((1, 0), f.poly.nums, g.neg_mu)]
        for s, p in f.d.items():
            row = rows.get(s, ())
            if len(row) == 1:
                (u, w), = row
                pairs.append((w, p, dg.get(u)))
            elif row:
                pairs.append(((1, 0), p, _gauss_sum([(w, dg[u]) for u, w in row if u in dg])))
        pairs = [(w, p, q) for w, p, q in pairs if p and q]
        if not pairs:
            return self.zero
        if self.bounded:
            check_products(sum(len(p) * len(q) for _, p, q in pairs), "bracket", BRACKET_LIMIT)
        sums = {}
        for w, p, q in pairs:
            _gauss_mul(p, q, sums.setdefault(w, {}))
        acc = sums.pop((1, 0), {})
        for w, part in sums.items():
            _gauss_mul(part, {0: w}, acc)
        return _reduced(f.poly.frame, _nonzero(acc), f.poly.den * g.poly.den * self.den)

    def harmonic(self, f: _Member) -> Poly:
        "laplacian(f) - lam f, as the sum of w d_s d_u f over the upper rows."
        a, b = self.lam
        d = f.d
        parts = [(w, _derivative(d[u], s)) for s, row in self.upper.items() if s in d
                 for u, w in row if u in d]
        return _reduced(f.poly.frame, _gauss_sum(parts + [((-a, -b), f.poly.nums)]),
                        f.poly.den * self.den)


def kappa(f: Poly, g: Poly, P=None) -> Poly:
    """The bracket; with a symmetric m x m matrix P, the gradient
    pairing sum_ab P_ab d_a f d_b g over the real axes instead."""
    if f.frame != g.frame:
        raise FrameMismatch("kappa needs a shared frame")
    kernel = _Kernel(f.frame, P, ZERO, ZERO, max(f.degree(), g.degree()))
    a = kernel.prepare(f)
    return kernel.bracket(a, a if g is f else kernel.prepare(g))


def laplacian(f: Poly, P=None) -> Poly:
    """The Laplacian; with a symmetric m x m matrix P, the trace
    of P times the real Hessian instead."""
    kernel = _Kernel(f.frame, P, ZERO, ZERO, f.degree())
    return kernel.harmonic(kernel.prepare(f))


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
        self.harmonic = not any(self.harmonic_residuals)
        self.conformal = not any(self.conformal_pairs.values())
        self.verdict = self.harmonic and self.conformal
        self.data = data if self.verdict else None

    def failures(self):
        out = [("laplacian", (i,), r) for i, r in enumerate(self.harmonic_residuals) if r]
        out += [("kappa", ij, r) for ij, r in sorted(self.conformal_pairs.items()) if r]
        return out

    def to_json_dict(self, name=None):
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
    degs = {f.degree() for f in fs if f}
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


def quadratic_verdict(fs, P=None) -> bool:
    """verify_flat_family(fs).verdict, to the first nonzero residual, or with a
    symmetric P, whether every kappa(f, g, P) and laplacian(f, P) vanishes;
    members of degree at most 2 skip BRACKET_LIMIT, as kappa(f, g) is then a
    quadratic of at most m(m+1)/2 terms, however many (~m^3) products it takes."""
    fs = list(fs)
    if not fs:
        return True
    degree = max(f.degree() for f in fs)
    kernel = _Kernel(common_frame(fs), P, ZERO, ZERO, degree, bounded=degree > 2)
    members = [kernel.prepare(f) for f in fs]
    return not (any(map(kernel.harmonic, members))
                or any(kernel.bracket(a, b) for i, a in enumerate(members) for b in members[i:]))


def sphere_data(fs) -> EigenData:
    """Eigen data (-d(d+m-1), -d^2) on the unit sphere S^m of the frame,
    for a homogeneous degree-d family; the closed form, with no
    verification.  Raises ValueError on mixed or missing degrees."""
    fs = list(fs)
    if not fs:
        raise ValueError("empty family has no sphere data")
    frame = common_frame(fs)
    degs = {f.degree() for f in fs if f != 0}
    if not degs:
        raise ValueError("a family of zero polynomials has no sphere data")
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
    transformed eigen data (d(lam+(d-1)mu), d^2 mu), unverified.  As kappa
    is a derivation in each argument (the Leibniz rule), the products of a
    flat family are flat with no bracket taken on them.  The whole family
    spends one PRODUCT_LIMIT budget of term products, counted before each
    layer multiplies, and raises ValueError past it."""
    if d < 1:
        raise ValueError("power needs d >= 1")
    fs = list(fs)
    if not fs:
        raise ValueError("empty family has no powers")
    common_frame(fs)
    # layer k holds (last index, product) over the index tuples i1 <= ... <= ik
    # in lexicographic order; extending each by every index >= ik keeps it
    layer, spent = [(0, Poly.constant(fs[0].frame, scalar(1)))], 0
    for _ in range(d):
        spent += sum(len(acc.nums) * len(f.nums) for start, acc in layer for f in fs[start:])
        check_products(spent, "power family")
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
# unit quaternions u = i, j, k.  An entry (c, s, t) adds c x_s d/dx_t f
# for the slots x_0..x_3 = z_2j, conj(z_2j), z_2j+1, conj(z_2j+1) of
# each pair.  Derived from (a, b)(c, d) = (ac - b conj(d), ad + b conj(c)).
SU2_DERIVATION_TABLE = {
    "i": ((I, 0, 0), (-I, 1, 1), (-I, 2, 2), (I, 3, 3)),
    "j": ((-ONE, 2, 0), (-ONE, 3, 1), (ONE, 0, 2), (ONE, 1, 3)),
    "k": ((I, 2, 0), (-I, 3, 1), (I, 0, 2), (-I, 1, 3)),
}


def su2_derivative(f: Poly, which: str) -> Poly:
    "Apply the derivation for u in {i, j, k}, summed over all pairs."
    frame = f.frame
    if frame.n % 2 != 0 or frame.n == 0:
        raise ValueError("quaternionic structure needs an even, positive number of complex coordinates")
    if frame.r != 0:
        raise ValueError("quaternionic structure admits no real coordinates")
    out = Poly.zero(frame)
    for pair in range(0, 2 * frame.n, 4):
        for c, s, t in SU2_DERIVATION_TABLE[which]:
            s, t = pair + s, pair + t
            x = (Poly.conj_variable if s % 2 else Poly.variable)(frame, frame.complex_names[s // 2])
            out = out + c * x * f.wirtinger(frame.complex_names[t // 2], t % 2)
    return out


def is_su2_invariant(f: Poly) -> bool:
    "All three sp(1) derivations annihilate f.  Raises when the frame is not quaternionic."
    return all(su2_derivative(f, u) == 0 for u in ("i", "j", "k"))


def invariance_predicates(f: Poly) -> dict:
    """The three descent conditions.  su2_invariant is None when the
    frame has no quaternionic structure; is_su2_invariant raises there
    instead."""
    quaternionic = f.frame.n % 2 == 0 and f.frame.n > 0 and f.frame.r == 0
    return {"even_degree": is_even_degree(f), "biinvariant": is_biinvariant(f),
            "su2_invariant": is_su2_invariant(f) if quaternionic else None}


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
