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

Vectors are plain tuples of GaussRational; a real vector is one whose
entries have zero imaginary part, and vec_re/vec_im return such tuples.
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
from operator import mul, neg

from .scalars import (GaussRational, ZERO, ONE, as_exact, as_scalar, common_numerators,
                      from_triple, imag_part, real_part, sum_of_products, triple)

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

def vec_re(u):
    return tuple(map(real_part, u))

def vec_im(u):
    return tuple(map(imag_part, u))


def gram_schmidt_hermitian(vectors):
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
    "The RREF basis, as a Matrix, of the span of Gaussian-integer (re, im) rows of width ncols."
    elim, pivots, _ = _eliminate(rows, ncols)
    return _divided(elim, pivots, len(pivots), ncols)


# ---------------------------------------------------------------------


def _init(M, re, im, den, ncols, rows=None):
    _set(M, "re", re)
    _set(M, "im", im)
    _set(M, "den", den)
    _set(M, "nrows", len(re))
    _set(M, "ncols", ncols)
    _set(M, "_rows", rows)
    _set(M, "_orthogonal", None)
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


def _real_rows(B):
    "[Re B; Im B] as a real Matrix (canonical, as B is)."
    return _matrix(B.re + B.im, ((0,) * B.ncols,) * (2 * B.nrows), B.den, B.ncols)


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
        n = self.ncols
        return _matrix(tuple(_columns(self.re, n)), tuple(_columns(self.im, n)), self.den, self.nrows)

    def conjugate(self):
        return _matrix(self.re, tuple(tuple(map(neg, r)) for r in self.im), self.den, self.ncols)

    def conj_transpose(self):
        return self.transpose().conjugate()

    def is_symmetric(self):
        return self == self.transpose()

    def is_antisymmetric(self):
        return self == -self.transpose()

    def is_orthogonal(self):
        "Whether M M^T = I (for a real M: orthonormal rows); decided once per matrix."
        if self._orthogonal is None:
            _set(self, "_orthogonal", self.nrows == self.ncols
                 and self * self.transpose() == Matrix.identity(self.nrows))
        return self._orthogonal

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


def matrix_from_cols(cols, nrows=None):
    if not cols and nrows is None:
        raise ValueError("no columns: pass nrows for the empty matrix")
    return Matrix(cols, ncols=len(cols[0]) if cols else nrows).transpose()


def anticommuting(mats) -> bool:
    """Whether A B + B A = 0 for all A, B in mats, A = B included; mats are
    square of one size.  Runs on the stored numerators and stops at the
    first nonzero entry; A A + A A = 0 is tested as A A = 0, and when all
    of mats are symmetric, so is each A B + B A: only its upper triangle
    is tested."""
    if any(not A.nrows == A.ncols == mats[0].nrows for A in mats):
        raise ValueError("anticommuting needs square matrices of one size")
    symmetric = all(map(Matrix.is_symmetric, mats))
    # row a + i b times column c + i d: the row a + b against the columns c - d and d + c
    factors = [(list(map(tuple.__add__, A.re, A.im)),
                [(c + tuple(map(neg, d)), d + c)
                 for c, d in zip(_columns(A.re, A.ncols), _columns(A.im, A.ncols))]) for A in mats]
    for i, (rows_a, cols_a) in enumerate(factors):
        for j, (rows_b, cols_b) in enumerate(factors[i:]):
            rows, cols = rows_a, cols_a
            if j:  # entry (r, c) is row_r(A) col_c(B) + row_r(B) col_c(A), over D_A D_B
                rows = map(tuple.__add__, rows_a, rows_b)
                cols = [(b1 + a1, b2 + a2) for (b1, b2), (a1, a2) in zip(cols_b, cols_a)]
            for k, r in enumerate(rows):
                if any(sum(map(mul, r, c1)) or sum(map(mul, r, c2))
                       for c1, c2 in (cols[k:] if symmetric else cols)):
                    return False
    return True


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
        rows = [vec(v) for v in vectors]
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
        u = vec(u)
        if len(u) != self.ambient:
            raise ValueError(f"vector of length {len(u)} for a subspace of C^{self.ambient}")
        for b in self.basis:
            pivot = next(j for j, x in enumerate(b) if x)
            if u[pivot]:
                u = vec_sub(u, vec_scale(u[pivot], b))
        return vec_is_zero(u)

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
        rows = []
        for v in vectors:
            row = tuple(map(as_exact, v))
            if not all(x.is_real() for x in row):
                raise ValueError("real subspace needs real entries")
            rows.append(row)
        super().__init__(ambient, rows)

    def __repr__(self):
        return f"RealSubspace(dim {self.dim} in R^{self.ambient})"

    def projector(self) -> Matrix:
        "Exact orthogonal projector onto self (normal equations, no roots)."
        B = self.basis_matrix
        return B.transpose() * (B * B.transpose()).inverse() * B

    def orthogonal_complement(self):
        return _with_basis(_new(RealSubspace), _annihilator(self.basis_matrix))
