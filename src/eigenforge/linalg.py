"""Exact linear algebra over Q(i): matrices, row reduction, subspaces.

A Matrix stores Gaussian-integer rows re + i im over one positive
denominator den, in canonical form (gcd 1 across den and every
numerator), so equal matrices have equal storage and equal hashes.
`rows`, `M[i, j]` and `col` are GaussRational views built on first use;
`Matrix(rows_of_scalars, ncols=)` converts once.  All arithmetic runs on
the stored integers: a product is two integer dot products per entry
over D1 D2, reduced by one content gcd, and a real factor (zero `im`)
skips its zero imaginary dot products.  rref, rank, nullspace, solve,
inverse and det share one fraction-free Gauss-Jordan elimination
(Bareiss 1968): row_i <- (p row_i - f row_lead) / p_prev for pivot p,
previous pivot p_prev and pivot-column entry f, a division that is exact
in Z[i] because every entry is a minor (Sylvester's identity).  Its rows
need no shared denominator, so spans eliminate integer rows at their own
scales.  Each pivot row is divided by its pivot once at the end, and det
is the sign times the last pivot over den^n.  With no imaginary part in
any input row, every pivot, factor and tag is real and every imaginary
part stays zero, so each update is one integer list, (p x - f y) // t.
A span of dense rows (the 2m rows of small rank of degree-2 forms) runs
the same division left-looking (_row_basis): a row enters only when one
dot per free column shows it outside the span found so far.

Vectors are the rows of a Matrix; `vec` coerces input to a tuple of
GaussRational.  One Gram routine orthogonalizes rows U for the Hermitian
and the bilinear form alike: a symmetric elimination of [G | U] for the
small Gram matrix G = U U^* or U U^T (unnormalized Gram-Schmidt is
L^-1 U for the LDL^* factorization of G; Golub and Van Loan, Matrix
Computations), pivoting as a symmetric diagonalization does when G has
a zero diagonal.
A subspace keeps its reduced row echelon basis as a Matrix, so two
subspaces are equal exactly when their bases are; that is what makes
span comparisons decidable.  An annihilator (the kernel of the basis,
or for the real annihilator of its real and imaginary parts stacked) is
read off one elimination with the columns reversed, whose free-column
kernel, reversed back, is the kernel's RREF (the greedy basis from the
right is the complement of the greedy co-basis from the left);
nullspace() keeps the free-column basis.  The annihilator of a span
plus its real annihilator lies in the complex span of those stacked
rows, so it is the kernel of a Gram system of dim x 2 dim.
A RealSubspace is a ComplexSubspace with a real basis (the RREF of real
vectors is real); it adds the orthogonal projector and complement, and
never equals a ComplexSubspace.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import mul, neg, or_

from .scalars import (GaussRational, ZERO, ONE, as_scalar, common_numerators, from_triple,
                      triple)

_new = object.__new__
_set = object.__setattr__

# ---------------------------------------------------------------------
# vector helpers


def vec(entries):
    out = []
    for e in entries:
        s = e if type(e) is GaussRational else as_scalar(e)
        if s is None:
            raise TypeError(f"bad vector entry {e!r}")
        out.append(s)
    return tuple(out)


def cayley_orthogonal(S: "Matrix") -> "Matrix":
    """(I - S)(I + S)^{-1} for a real antisymmetric S: a rational
    special orthogonal matrix (I + S is always invertible)."""
    if not S.is_antisymmetric():
        raise ValueError("Cayley transform needs an antisymmetric matrix")
    if not S.is_real():
        raise ValueError("Cayley transform needs real entries")
    eye = Matrix.identity(S.nrows)
    return (eye - S) * (eye + S).inverse()


# ---------------------------------------------------------------------
# integer kernels


def _columns(rows, ncols):
    "The columns of a table of integer rows of width ncols."
    return list(zip(*rows)) if rows else [()] * ncols


def _is_zero(rows):
    return not any(map(any, rows))


def _table(rows, cols):
    "All dot products of integer rows and columns; a zero row costs none."
    return [[sum(map(mul, r, c)) for c in cols] if any(r) else [0] * len(cols) for r in rows]


def _dots(lre, lim, cre, cim):
    """(re, im): the products r . c (no conjugation) of the rows r = lre + i lim
    and the columns c = cre + i cim, as tables of Gaussian integers."""
    if _is_zero(cim):  # (a + i b) c = a c + i b c
        return _table(lre, cre), _table(lim, cre)
    if _is_zero(lim):  # a (c + i d) = a c + i a d
        return _table(lre, cre), _table(lre, cim)
    # (a + i b)(c + i d) = (a c - b d) + i (a d + b c): the rows a + b
    # against the columns c - d and d + c
    rows = list(map(tuple.__add__, lre, lim))
    return (_table(rows, [c + tuple(map(neg, d)) for c, d in zip(cre, cim)]),
            _table(rows, [d + c for c, d in zip(cre, cim)]))


def _eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of Gaussian-integer rows, each
    a pair (re, im) of integer sequences of length ncols: (rows, pivots,
    sign), the rows as (re, im, tag), the pivot columns and the permutation
    sign.  A row with a zero pivot-column entry is not rescaled by p / p_prev
    but keeps the tag t of the pivot it is current for, and its next update
    divides by t; so each pivot row ends holding its own pivot."""
    rows = [(re, im, (1, 0)) for re, im in rows]
    real = not any(any(im) for _, im, _ in rows)
    nrows, pivots, sign = len(rows), [], 1
    qa, qb = 1, 0  # the previous pivot
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
        if ta != qa or tb != qb:  # bring the lead row up to date: times q / t
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
            if real:
                rows[i] = [(a * pa - c * fa) // ta for a, c in zip(xa, ya)], xb, (pa, 0)
                continue
            # (p x - f y) / t = ((p conj t) x - (f conj t) y) / |t|^2, exact in Z[i]
            n = ta * ta + tb * tb
            p1, p2 = pa * ta + pb * tb, pb * ta - pa * tb
            f1, f2 = fa * ta + fb * tb, fb * ta - fa * tb
            rows[i] = ([(a * p1 - b * p2 - c * f1 + d * f2) // n for a, b, c, d in zip(xa, xb, ya, yb)],
                       [(a * p2 + b * p1 - c * f2 - d * f1) // n for a, b, c, d in zip(xa, xb, ya, yb)],
                       (pa, pb))
        qa, qb = pa, pb
        pivots.append(col)
    return rows, pivots, sign


def _divided(rows, pivots, nrows, ncols):
    """The RREF of an elimination as an nrows x ncols Matrix: each pivot row x
    over its pivot d as x conj(d) / |d|^2 in lowest terms, then all rows over
    the lcm of their denominators (canonical since each row is), zero rows last."""
    out = []
    for (ra, rb, _), col in zip(rows, pivots):
        da, db = ra[col], rb[col]
        xa, xb = [a * da + b * db for a, b in zip(ra, rb)], [b * da - a * db for a, b in zip(ra, rb)]
        g = gcd(da * da + db * db, *xa, *xb)
        out.append((xa, xb, g, (da * da + db * db) // g))
    den = lcm(*(d for *_, d in out))
    zero = ((0,) * ncols,) * (nrows - len(pivots))
    return _matrix(tuple(tuple(a // g * (den // d) for a in xa) for xa, _, g, d in out) + zero,
                   tuple(tuple(b // g * (den // d) for b in xb) for _, xb, g, d in out) + zero,
                   den, ncols)


def _row_basis(rows, ncols):
    """The RREF basis, as a Matrix, of the span of Gaussian-integer (re, im) rows of width ncols.

    Rows with more nonzero than zero entries in all take a left-looking
    fraction-free Gauss-Jordan.  It keeps the RREF of the rows taken so far as
    integer rows N_j over one pivot value D (D at their pivot p_j, 0 at the
    others) and tests each row x with one dot per free column c: y = D x -
    sum_j x[p_j] N_j is 0 at the pivots, and x is in the span, and never enters,
    exactly when y is 0.  Otherwise y's first nonzero column c leads a vector
    of the span, so it is a pivot of the RREF; with v = y[c], each N_j <-
    (v N_j - N_j[c] y) / D clears column c, y joins and D <- v.  Every entry is
    a minor of the rows taken, so the division is Bareiss's, exact in Z[i]
    (Sylvester's identity), and the rows over the last D, sorted by pivot, are
    the unique RREF.  Sparser rows take _eliminate, whose skip of rows that are
    zero in the pivot column wins there.  On the spans of one seed-1 bench
    cycle (CPython 3.11, 2 vCPUs) the left-looking route ran the 44 cli spans
    (8-50% nonzero) at 0.45-0.49x of _eliminate's speed and the 100 deg2 spans
    (62-100% nonzero) at 1.5x, in total time."""
    rows = list(rows)
    if 2 * sum(sum(map(bool, map(or_, re, im))) for re, im in rows) <= len(rows) * ncols:
        elim, pivots, _ = _eliminate(rows, ncols)
        return _divided(elim, pivots, len(pivots), ncols)
    real = not any(any(xb) for _, xb in rows)  # then D, every N_j and y stay real
    (da, db), pivots, N, free, views = (1, 0), [], [], list(range(ncols)), [((), ())] * ncols
    for xa, xb in rows:
        u, w = [xa[p] for p in pivots], [] if real else [xb[p] for p in pivots]
        ua, ub = u + [-b for b in w], u + w  # x_P . N = ua . (Na; Nb) + i ub . (Nb; Na)
        ya, yb = [0] * ncols, [0] * ncols
        for c, (ca, cb) in zip(free, views):
            ya[c] = da * xa[c] - db * xb[c] - sum(map(mul, ua, ca))
            if not real:
                yb[c] = da * xb[c] + db * xa[c] - sum(map(mul, ub, cb))
        c = next((c for c in free if ya[c] or yb[c]), None)
        if c is None:
            continue
        va, vb = ya[c], yb[c]
        if real:
            N = [([(a * va - e * na[c]) // da for a, e in zip(na, ya)], nb) for na, nb in N]
        else:  # (v N - f y) / D = ((v conj D) N - (f conj D) y) / |D|^2
            n, p1, p2 = da * da + db * db, va * da + vb * db, vb * da - va * db
            for j, (na, nb) in enumerate(N):
                f1, f2 = na[c] * da + nb[c] * db, nb[c] * da - na[c] * db
                N[j] = ([(a * p1 - b * p2 - e * f1 + g * f2) // n for a, b, e, g in zip(na, nb, ya, yb)],
                        [(a * p2 + b * p1 - e * f2 - g * f1) // n for a, b, e, g in zip(na, nb, ya, yb)])
        N.append((ya, yb))
        pivots.append(c)
        free.remove(c)
        da, db = va, vb
        cre, cim = list(zip(*(na for na, _ in N))), () if real else list(zip(*(nb for _, nb in N)))
        views = [(cre[c], ()) if real else (cre[c] + cim[c], cim[c] + cre[c]) for c in free]
    order = sorted(range(len(N)), key=pivots.__getitem__)  # each row holds D at its pivot
    return _divided([(*N[j], None) for j in order], sorted(pivots), len(N), ncols)


def _gram_orthogonal(U, hermitian=False):
    """(V, d): the rows of U orthogonalized for the Hermitian form x . conj(y)
    or the bilinear form x . y, by one symmetric elimination of the rows
    [G | U] for the Gram matrix G = U U^* or U U^T.  Each step pivots on the
    first pending row p with G_pp != 0 (for the bilinear form, when there is
    none, on a <- a + b for the first pending pair a, b with G_ab != 0) and
    takes x <- x - (G_xp / G_pp) p in every other pending row; a row update
    keeps row x of G right on the pending columns, since x is then orthogonal
    to p.  V holds the pivot rows in order, with their values d = G_pp, then,
    for the bilinear form, the isotropic rows left, whose zero rows are dropped
    once a step has run.  The Hermitian form is definite: Gram-Schmidt."""
    k, m = U.nrows, U.ncols
    A = _joined(U * (U.conj_transpose() if hermitian else U.transpose()), U)
    rows = [[list(a), list(b), A.den] for a, b in zip(A.re, A.im)]  # numerators over own den

    def nonzero(x, c):
        return rows[x][0][c] or rows[x][1][c]

    pending, out, d = list(range(k)), [], []
    while pending:
        p = next((x for x in pending if nonzero(x, x)), None)
        if p is None:
            pair = None if hermitian else next(((a, b) for i, a in enumerate(pending)
                                                for b in pending[i + 1:] if nonzero(a, b)), None)
            if pair is None:
                break
            p, b = pair  # p <- p + b: row p plus row b, then column p plus column b
            (xa, xb, s), (ya, yb, t) = rows[p], rows[b]
            rows[p] = [[x * t + y * s for x, y in zip(xa, ya)],
                       [x * t + y * s for x, y in zip(xb, yb)], s * t]
            for re, im, _ in (rows[x] for x in pending):
                re[p] += re[b]
                im[p] += im[b]
        pending.remove(p)
        out.append(p)
        ya, yb, s = rows[p]
        pa, pb = ya[p], yb[p]
        d.append(from_triple(pa, pb, s))
        n = pa * pa + pb * pb
        for x in (x for x in pending if nonzero(x, p)):
            # x over t, pivot g = p_p, f = x_p: x - (f / g) p = (|g|^2 x - f conj(g) p) / (t |g|^2)
            xa, xb, t = rows[x]
            fa, fb = xa[p] * pa + xb[p] * pb, xb[p] * pa - xa[p] * pb
            re = [n * a - fa * c + fb * e for a, c, e in zip(xa, ya, yb)]
            im = [n * b - fa * e - fb * c for b, c, e in zip(xb, ya, yb)]
            g = gcd(t * n, *re, *im)
            rows[x] = [[a // g for a in re], [b // g for b in im], t * n // g]
    if out and not hermitian:
        pending = [x for x in pending if any(rows[x][0][k:]) or any(rows[x][1][k:])]
    keep = out + ([] if hermitian else pending)
    den = lcm(*(rows[x][2] for x in keep))
    re, im = ([[a * (den // rows[x][2]) for a in rows[x][j][k:]] for x in keep] for j in (0, 1))
    return _reduced(re, im, den, m), d


# ---------------------------------------------------------------------


def _init(M, re, im, den, ncols, rows=None):
    _set(M, "re", re)
    _set(M, "im", im)
    _set(M, "den", den)
    _set(M, "nrows", len(re))
    _set(M, "ncols", ncols)
    _set(M, "_rows", rows)
    _set(M, "_orthogonal", [None])  # one is_orthogonal decision, shared with the transposes
    return M


def _matrix(re, im, den, ncols):
    "A Matrix from storage already canonical: tuples of integer rows re, im over den."
    return _init(_new(Matrix), re, im, den, ncols)


def _reduced(re, im, den, ncols):
    "A Matrix from integer rows re, im over any den > 0: one content gcd makes it canonical."
    g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
    if g == 1:
        return _matrix(tuple(map(tuple, re)), tuple(map(tuple, im)), den, ncols)
    return _matrix(tuple(tuple(a // g for a in r) for r in re),
                   tuple(tuple(b // g for b in r) for r in im), den // g, ncols)


def _joined(A, B):
    "[A | B] for A and B with the same number of rows (canonical, as A and B are)."
    den = lcm(A.den, B.den)
    s, t = den // A.den, den // B.den
    return _matrix(*(tuple(tuple(a * s for a in x) + tuple(b * t for b in y) for x, y in zip(P, Q))
                     for P, Q in ((A.re, B.re), (A.im, B.im))), den, A.ncols + B.ncols)


def _annihilator(M):
    """The RREF basis of ker M as a Matrix: the free-column kernel basis of M
    with its columns reversed, reversed back in columns and rows (each vector
    then leads with 1 at a free column, where the others are 0)."""
    K = _matrix(*(tuple(r[::-1] for r in P) for P in (M.re, M.im)), M.den, M.ncols)._kernel()
    return _matrix(*(tuple(r[::-1] for r in P[::-1]) for P in (K.re, K.im)), K.den, K.ncols)


def _pivots(B):
    "The pivot columns of an RREF Matrix B: each row's first nonzero column."
    return [next(j for j, x in enumerate(map(or_, a, b)) if x) for a, b in zip(B.re, B.im)]


def _real_rows(B):
    """The rows of [Re B; Im B] as a real Matrix, interleaved: Re b_1, Im b_1,
    Re b_2, ... for the rows b_j of B (canonical, as B is)."""
    return _matrix(tuple(r for pair in zip(B.re, B.im) for r in pair),
                   ((0,) * B.ncols,) * (2 * B.nrows), B.den, B.ncols)


def _stacked(*mats):
    "[A; B; ...] for matrices with one column count (canonical, as each of them is)."
    den = lcm(*(M.den for M in mats))
    re, im = (tuple(tuple(a * (den // M.den) for a in r) for M in mats for r in getattr(M, part))
              for part in ("re", "im"))
    return _matrix(re, im, den, mats[0].ncols)


def _row_scaled(M, scales):
    "Row i of M times p_i / q_i, for the integer pairs (p_i, q_i) of scales, over one lcm."
    L = lcm(*(q for _, q in scales))
    re, im = ([[a * p * (L // q) for a in r] for r, (p, q) in zip(P, scales)] for P in (M.re, M.im))
    return _reduced(re, im, M.den * L, M.ncols)


def _sliced(M, lo, hi):
    "Columns lo to hi of M."
    return _reduced([r[lo:hi] for r in M.re], [r[lo:hi] for r in M.im], M.den, hi - lo)


class Matrix:
    """Dense matrix over Q(i): Gaussian-integer rows re + i im over one
    positive denominator den, in canonical form."""

    __slots__ = ("re", "im", "den", "nrows", "ncols", "_rows", "_orthogonal")

    def __init__(self, rows, ncols=None):
        rows = [vec(r) for r in rows]
        width = len(rows[0]) if rows else ncols
        if width is None:
            raise ValueError("empty matrix needs an explicit column count")
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if ncols is not None and ncols != width:
            raise ValueError(f"rows have {width} columns, not ncols = {ncols}")
        # numerators over the lcm of canonical denominators have content 1
        den, nums = common_numerators(chain.from_iterable(rows))
        cuts = [nums[k * width:k * width + width] for k in range(len(rows))]
        _init(self, tuple(tuple(a for a, _ in c) for c in cuts),
              tuple(tuple(b for _, b in c) for c in cuts), den, width, tuple(rows))

    @classmethod
    def from_numerators(cls, re, im, den, ncols):
        "The matrix (re + i im) / den for integer rows re, im of width ncols and an integer den > 0."
        return _reduced(re, im, den, ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n):
        return _matrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
                       ((0,) * n,) * n, 1, n)

    @classmethod
    def zero(cls, nrows, ncols):
        return _matrix(((0,) * ncols,) * nrows, ((0,) * ncols,) * nrows, 1, ncols)

    @property
    def rows(self):
        "The rows as tuples of GaussRational (a view, built on first use)."
        if self._rows is None:
            d = self.den
            _set(self, "_rows", tuple(tuple(from_triple(a, b, d) if a or b else ZERO
                                            for a, b in zip(ra, rb))
                                      for ra, rb in zip(self.re, self.im)))
        return self._rows

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.ncols == other.ncols and self.den == other.den
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.ncols, self.den, self.re, self.im))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}: {body}]"

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def is_zero(self):
        return _is_zero(self.re) and _is_zero(self.im)

    def is_real(self):
        return _is_zero(self.im)

    # -- arithmetic ----------------------------------------------------

    def _check_same_shape(self, other, op):
        if not isinstance(other, Matrix):
            raise TypeError(f"cannot {op} a Matrix and {type(other).__name__}")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} {op} "
                             f"{other.nrows}x{other.ncols}")

    def _combined(self, other, sign):
        "self + sign * other, over the lcm of the denominators."
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        return _reduced(*([[a * s + b * t for a, b in zip(x, y)] for x, y in zip(P, Q)]
                          for P, Q in ((self.re, other.re), (self.im, other.im))), den, self.ncols)

    def __add__(self, other):
        self._check_same_shape(other, "+")
        return self._combined(other, 1)

    def __sub__(self, other):
        self._check_same_shape(other, "-")
        return self._combined(other, -1)

    def __neg__(self):
        return _matrix(*(tuple(tuple(map(neg, r)) for r in P) for P in (self.re, self.im)),
                       self.den, self.ncols)

    def scale(self, c):
        s = as_scalar(c)
        if s is None:
            raise TypeError(f"cannot scale a Matrix by {type(c).__name__}")
        a, b, d = triple(s)
        pairs = [list(zip(x, y)) for x, y in zip(self.re, self.im)]
        return _reduced([[a * x - b * y for x, y in r] for r in pairs],
                        [[a * y + b * x for x, y in r] for r in pairs], self.den * d, self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
            n = other.ncols
            re, im = _dots(self.re, self.im, _columns(other.re, n), _columns(other.im, n))
            return _reduced(re, im, self.den * other.den, n)
        c = as_scalar(other)
        if c is not None:
            return self.scale(c)
        return NotImplemented

    def apply(self, u):
        "Matrix times column vector (tuple)."
        if len(u) != self.ncols:
            raise ValueError(f"vector of length {len(u)} for a matrix with {self.ncols} columns")
        D, nums = common_numerators(vec(u))
        re, im = _dots(self.re, self.im, [tuple(a for a, _ in nums)], [tuple(b for _, b in nums)])
        d = self.den * D
        return tuple(from_triple(a, b, d) if a or b else ZERO for (a,), (b,) in zip(re, im))

    def transpose(self):
        "M^T; it shares M's is_orthogonal, as for a square M, M M^T = I exactly when M^T M = I."
        n = self.ncols
        T = _matrix(tuple(_columns(self.re, n)), tuple(_columns(self.im, n)), self.den, self.nrows)
        _set(T, "_orthogonal", self._orthogonal)
        return T

    def conjugate(self):
        return _matrix(self.re, tuple(tuple(map(neg, r)) for r in self.im), self.den, self.ncols)

    def conj_transpose(self):
        return self.transpose().conjugate()

    def is_antisymmetric(self):
        return self == -self.transpose()

    def is_orthogonal(self):
        "Whether M M^T = I (for a real M: orthonormal rows); decided once for M and its transposes."
        decided = self._orthogonal
        if decided[0] is None:
            decided[0] = (self.nrows == self.ncols
                          and self * self.transpose() == Matrix.identity(self.nrows))
        return decided[0]

    # -- elimination ---------------------------------------------------

    def rref(self):
        "Reduced row echelon form; returns (Matrix, pivot column list)."
        rows, pivots, _ = _eliminate(zip(self.re, self.im), self.ncols)
        return _divided(rows, pivots, self.nrows, self.ncols), pivots

    def rank(self):
        _, pivots = self.rref()
        return len(pivots)

    def _kernel(self):
        """The rows of nullspace as a Matrix: for each free column f of the
        RREF R, 1 at f and -R[i, f] at the i-th pivot column."""
        R, pivots = self.rref()
        n, re, im = self.ncols, [], []
        for f in (j for j in range(n) if j not in pivots):
            x, y = [0] * n, [0] * n
            x[f] = R.den
            for p, a, b in zip(pivots, R.re, R.im):
                x[p], y[p] = -a[f], -b[f]
            re.append(x)
            im.append(y)
        return _reduced(re, im, R.den, n)

    def nullspace(self):
        """Basis (list of tuples) of the right kernel {u : M u = 0}."""
        return list(self._kernel().rows)

    def _check_square(self, op):
        if self.nrows != self.ncols:
            raise ValueError(f"{op} needs a square matrix, got {self.nrows}x{self.ncols}")

    def det(self):
        "The sign of the row swaps times the last pivot, over den^n."
        self._check_square("det")
        rows, pivots, sign = _eliminate(zip(self.re, self.im), self.ncols)
        if len(pivots) < self.nrows:
            return ZERO
        if not pivots:
            return ONE
        da, db, _ = rows[-1]
        return from_triple(sign * da[-1], sign * db[-1], self.den ** self.nrows)

    def inverse(self):
        self._check_square("inverse")
        n = self.nrows
        R, pivots = _joined(self, Matrix.identity(n)).rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return _sliced(R, n, 2 * n)

    def solve(self, b):
        """One solution x of M x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError(f"vector of length {len(b)} for a matrix with {self.nrows} rows")
        R, pivots = _joined(self, Matrix([b], ncols=self.nrows).transpose()).rref()
        if self.ncols in pivots:
            return None
        x = [ZERO] * self.ncols
        for i, p in enumerate(pivots):
            x[p] = R[i, self.ncols]
        return tuple(x)

    def to_float(self):
        import numpy
        d = self.den
        return numpy.array([[complex(a / d, b / d) for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.re, self.im)], dtype=complex)


# ---------------------------------------------------------------------


def _check_ambient(u, v):
    if u.ambient != v.ambient:
        raise ValueError(f"ambient dimensions {u.ambient} and {v.ambient} differ")


def _with_basis(S, basis_matrix):
    "S, made the subspace whose RREF basis is the rows of basis_matrix."
    _set(S, "ambient", basis_matrix.ncols)
    _set(S, "basis_matrix", basis_matrix)
    return S


class ComplexSubspace:
    """A subspace of C^ambient with a canonical (RREF) basis, the rows of
    basis_matrix; `basis` views them as tuples of GaussRational.

    Equality of subspaces is equality of the canonical bases.
    """

    __slots__ = ("ambient", "basis_matrix")

    def __init__(self, ambient: int, vectors=()):
        self._span_rows(ambient, [vec(v) for v in vectors])

    def _span_rows(self, ambient, rows):
        if any(len(r) != ambient for r in rows):
            raise ValueError("vector length does not match ambient dimension")
        # each row over its own denominator: scaling a row keeps its span
        nums = [common_numerators(r)[1] for r in rows]
        _with_basis(self, _row_basis([([a for a, _ in x], [b for _, b in x]) for x in nums], ambient))

    @classmethod
    def _spanned(cls, ambient, rows):
        "The span of Gaussian-integer (re, im) rows of length ambient, each with its own scale."
        return _with_basis(_new(cls), _row_basis(rows, ambient))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def basis(self):
        return self.basis_matrix.rows

    @property
    def dim(self):
        return self.basis_matrix.nrows

    def __eq__(self, other):
        if type(other) is not type(self):  # a RealSubspace never equals a ComplexSubspace
            return NotImplemented
        return self.basis_matrix == other.basis_matrix

    def __hash__(self):
        return hash(self.basis_matrix)

    def __repr__(self):
        return f"ComplexSubspace(dim {self.dim} in C^{self.ambient})"

    def contains(self, u) -> bool:
        "Whether u is the combination of the RREF rows whose coefficients are u's pivot entries."
        u = vec(u)
        if len(u) != self.ambient:
            raise ValueError(f"vector of length {len(u)} for a subspace of C^{self.ambient}")
        B = self.basis_matrix
        return Matrix([[u[j] for j in _pivots(B)]], ncols=B.nrows) * B == Matrix([u], ncols=len(u))

    def contains_subspace(self, other) -> bool:
        _check_ambient(self, other)
        return all(self.contains(b) for b in other.basis)

    def bilinear_annihilator(self):
        "All u with b . u = 0 (no conjugation) for every basis vector b."
        return _with_basis(_new(ComplexSubspace), _annihilator(self.basis_matrix))

    def real_annihilator(self):
        """The real u with b . u = 0 for every basis vector b = Re b + i Im b:
        the kernel of the real matrix [Re B; Im B] for the basis B."""
        return _with_basis(_new(RealSubspace), _annihilator(_real_rows(self.basis_matrix)))

    def annihilator_in_real_span(self):
        """The annihilator of self + K for the real annihilator K: the u = P^T c
        with B u = 0 for the basis B and P = [Re B; Im B], since the vectors
        annihilating K = ker P are the complex span of P's rows."""
        P = _real_rows(self.basis_matrix)
        X = (self.basis_matrix * P.transpose())._kernel() * P
        return ComplexSubspace._spanned(self.ambient, zip(X.re, X.im))


class RealSubspace(ComplexSubspace):
    """A subspace of R^ambient with a canonical (RREF) real basis."""

    __slots__ = ()

    def __init__(self, ambient: int, vectors=()):
        rows = [vec(v) for v in vectors]
        if not all(x.is_real() for row in rows for x in row):
            raise ValueError("real subspace needs real entries")
        self._span_rows(ambient, rows)

    def __repr__(self):
        return f"RealSubspace(dim {self.dim} in R^{self.ambient})"

    def projector(self) -> Matrix:
        "Exact orthogonal projector onto self (normal equations, no roots)."
        B = self.basis_matrix
        return B.transpose() * (B * B.transpose()).inverse() * B

    def orthogonal_complement(self):
        return _with_basis(_new(RealSubspace), _annihilator(self.basis_matrix))
