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
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .scalars import GaussRational, ONE, ZERO, as_scalar, format_scalar, scalar
from .frames import VariableFrame
from .poly import FrameMismatch, Poly, slot_axes

TWO = scalar(2)


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


def _weighted_sum(frame, terms):
    "sum c p over the (c, p) terms, scaling once per distinct c."
    sums = {}
    for c, p in terms:
        sums[c] = sums[c] + p if c in sums else p
    return sum((p if c == ONE else c * p for c, p in sums.items()), Poly.zero(frame))


def kappa(f: Poly, g: Poly, P=None) -> Poly:
    """The bracket; with a real symmetric m x m matrix P, the gradient
    pairing sum_ab P_ab d_a f d_b g over the real axes instead."""
    if f.frame != g.frame:
        raise FrameMismatch("kappa needs a shared frame")
    form = _slot_form(f.frame, P)
    slots = {s for pair in form for s in pair}
    df = {s: f._slot_derivative(s) for s in slots}
    dg = df if g is f else {s: g._slot_derivative(s) for s in slots}

    def terms():
        for (s, u), c in form.items():
            if s == u:
                yield c, df[s] * dg[s]
            elif g is f:
                yield TWO * c, df[s] * df[u]
            else:
                yield c, df[s] * dg[u] + df[u] * dg[s]
    return _weighted_sum(f.frame, terms())


def laplacian(f: Poly, P=None) -> Poly:
    """The Laplacian; with a real symmetric m x m matrix P, the trace
    of P times the real Hessian instead."""
    form = _slot_form(f.frame, P)
    first = {s: f._slot_derivative(s) for s, _ in form}
    return _weighted_sum(f.frame, ((c if s == u else TWO * c, first[s]._slot_derivative(u))
                                   for (s, u), c in form.items()))


def norm_squared(frame: VariableFrame) -> Poly:
    "|x|^2 = sum z_j conj(z_j) + sum t_k^2, the frame's radius squared."
    out = Poly.zero(frame)
    for name in frame.complex_names:
        out = out + Poly.variable(frame, name) * Poly.conj_variable(frame, name)
    for name in frame.real_names:
        out = out + Poly.variable(frame, name) ** 2
    return out


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


def _common_frame(fs):
    frames = {f.frame for f in fs}
    if len(frames) != 1:
        raise FrameMismatch("family members live on different frames")
    return fs[0].frame


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
    frame = _common_frame(fs)
    harm = [laplacian(f) - lam * f for f in fs]
    pairs = {}
    for i in range(len(fs)):
        for j in range(i, len(fs)):
            pairs[(i, j)] = kappa(fs[i], fs[j]) - mu * fs[i] * fs[j]
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
    frame = _common_frame(fs)
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
    _common_frame(fs)
    products = []
    seen = set()

    def build(start, depth, acc):
        if depth == d:
            if acc != 0 and acc not in seen:
                seen.add(acc)
                products.append(acc)
            return
        for k in range(start, len(fs)):
            build(k, depth + 1, acc * fs[k])

    build(0, 0, Poly.constant(fs[0].frame, scalar(1)))
    dd = scalar(d)
    new_data = EigenData(dd * (data.lam + (dd - 1) * data.mu), dd * dd * data.mu)
    return products, new_data


# ---------------------------------------------------------------------
# invariance predicates for descending to projective spaces


def is_even_degree(f: Poly) -> bool:
    "Every monomial has even total degree."
    from .poly import mono_degree
    return all(mono_degree(m) % 2 == 0 for m in f.terms)


def is_biinvariant(f: Poly) -> bool:
    "Every monomial has equal total z-degree and total conj(z)-degree."
    n = f.frame.n
    for mono in f.terms:
        zdeg = sum(mono[2 * j] for j in range(n))
        wdeg = sum(mono[2 * j + 1] for j in range(n))
        if zdeg != wdeg:
            return False
    return True


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


def _pair_poly(frame, pair, label):
    name = frame.complex_names[2 * pair + int(label[0])]
    if label.endswith("b"):
        return Poly.conj_variable(frame, name)
    return Poly.variable(frame, name)


def _pair_derivative(f, pair, label):
    name = f.frame.complex_names[2 * pair + int(label[0])]
    return f.wirtinger(name, conjugate=label.endswith("b"))


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
            out = out + _TABLE_COEFF[coeff] * _pair_poly(frame, pair, src) * _pair_derivative(f, pair, tgt)
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
