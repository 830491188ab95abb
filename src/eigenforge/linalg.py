"""Exact linear algebra over Q(i): matrices, row reduction, subspaces.

Vectors are plain tuples of GaussRational; a real vector is one whose
entries have zero imaginary part, and vec_re/vec_im return such tuples.
Subspaces keep a reduced row echelon basis, so two subspaces are equal
exactly when their basis matrices are equal; that is what makes span
comparisons decidable.  A RealSubspace is a ComplexSubspace with a real
basis (the RREF of real vectors is real); it adds the orthogonal
projector and complement, and never equals a ComplexSubspace.

Products and row reduction run on Gaussian integers, a format only this
module knows.  A product converts each side once to numerators over one
denominator and reduces each entry, two integer dot products, once;
`anticommuting` tests A B + B A = 0 on those integers.  rref, rank,
nullspace, solve, inverse and det share one fraction-free Gauss-Jordan
elimination (Bareiss 1968): rows are scaled to Z[i] and updated as
row_i <- (p row_i - f row_lead) / p_prev for pivot p, previous pivot
p_prev and pivot-column entry f, a division that is exact in Z[i]
because every entry is a minor (Sylvester's identity).  Each pivot row
is divided by its pivot once at the end, and det is the sign times the
last pivot over the product of the row denominators.  The elimination
takes Gaussian-integer (re, im) rows with no denominator shared across
rows; span builders pass polynomial numerators straight in (_spanned).
"""

from __future__ import annotations

from itertools import chain
from math import prod
from operator import mul, neg

from .scalars import (GaussRational, ZERO, ONE, as_exact, as_scalar, common_numerators,
                      from_triple, imag_part, real_part, sum_of_products)

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

def vec_zero(n):
    return (ZERO,) * n

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
    for r in S.rows:
        for x in r:
            if x.im != 0:
                raise ValueError("Cayley transform needs real entries")
    n = S.nrows
    eye = Matrix.identity(n)
    return (eye - S) * (eye + S).inverse()


# ---------------------------------------------------------------------
# integer kernels


def _numerators(vectors):
    """(D, re, im): vectors of GaussRational of one length as Gaussian integers
    re + i im over one denominator D, as real and imaginary tuples per vector."""
    D, nums = common_numerators(chain.from_iterable(vectors))
    n = len(vectors[0]) if vectors else 0
    re, im = [a for a, _ in nums], [b for _, b in nums]
    cuts = [slice(k * n, k * n + n) for k in range(len(vectors))]
    return D, [tuple(re[c]) for c in cuts], [tuple(im[c]) for c in cuts]


# r . c = (re_r . re_c - im_r . im_c) + i (re_r . im_c + im_r . re_c): the
# dot products of the left factor re_r + im_r with the right factors
# re_c - im_c and im_c + re_c


def _right(re, im):
    return [(a + tuple(map(neg, b)), b + a) for a, b in zip(re, im)]


def _products(rows, cols):
    """Row by row, the products r . c (no conjugation) of GaussRational
    vectors of one length: each side is converted once, and each entry is
    two integer dot products, reduced once."""
    D1, re1, im1 = _numerators(rows)
    D2, re2, im2 = _numerators(cols)
    d, right = D1 * D2, _right(re2, im2)
    for r in map(tuple.__add__, re1, im1):
        row = []
        for c1, c2 in right:
            a, b = sum(map(mul, r, c1)), sum(map(mul, r, c2))
            row.append(from_triple(a, b, d) if a or b else ZERO)
        yield tuple(row)


def _integer_rows(M):
    "(rows, scale): M's rows as Gaussian-integer (re, im) lists and the product of their denominators."
    conv = [common_numerators(row) for row in M.rows]
    return [([a for a, _ in nums], [b for _, b in nums]) for _, nums in conv], prod(D for D, _ in conv)


def _eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of Gaussian-integer rows, each
    a pair (re, im) of integer lists of length ncols: (rows, pivots, sign),
    the rows as (re, im, tag), the pivot columns and the permutation sign.
    A row with a zero pivot-column entry is not rescaled by p / p_prev but
    keeps the tag t of the pivot it is current for, and its next update
    divides by t; so each pivot row ends holding its own pivot."""
    rows = [(re, im, (1, 0)) for re, im in rows]
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


def _divided(rows, pivots):
    "The RREF basis: each pivot row x of an elimination over its pivot d, as x conj(d) / |d|^2."
    for (ra, rb, _), col in zip(rows, pivots):
        da, db = ra[col], rb[col]
        n = da * da + db * db
        yield tuple(from_triple(a * da + b * db, b * da - a * db, n) if a or b else ZERO
                    for a, b in zip(ra, rb))


# ---------------------------------------------------------------------


class Matrix:
    """Dense matrix with GaussRational entries."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = [vec(r) for r in rows]
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"rows have {width} columns, not ncols = {ncols}")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = ncols
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)

    @classmethod
    def _of(cls, rows, ncols):
        "A matrix from rows that are already tuples of GaussRational of width ncols."
        M = object.__new__(cls)
        object.__setattr__(M, "rows", tuple(rows))
        object.__setattr__(M, "nrows", len(M.rows))
        object.__setattr__(M, "ncols", ncols)
        return M

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zero(cls, nrows, ncols):
        return cls([vec_zero(ncols) for _ in range(nrows)], ncols=ncols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.ncols == other.ncols

    def __hash__(self):
        return hash((self.rows, self.ncols))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}: {body}]"

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def is_zero(self):
        return all(vec_is_zero(r) for r in self.rows)

    # -- arithmetic ----------------------------------------------------

    def _check_same_shape(self, other, op):
        if not isinstance(other, Matrix):
            raise TypeError(f"cannot {op} a Matrix and {type(other).__name__}")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} {op} "
                             f"{other.nrows}x{other.ncols}")

    def __add__(self, other):
        self._check_same_shape(other, "+")
        return Matrix._of([vec_add(a, b) for a, b in zip(self.rows, other.rows)], self.ncols)

    def __sub__(self, other):
        self._check_same_shape(other, "-")
        return Matrix._of([vec_sub(a, b) for a, b in zip(self.rows, other.rows)], self.ncols)

    def __neg__(self):
        return Matrix._of([vec_scale(-ONE, r) for r in self.rows], self.ncols)

    def scale(self, c):
        c = as_scalar(c)
        return Matrix._of([vec_scale(c, r) for r in self.rows], self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
            return Matrix._of(_products(self.rows, [other.col(j) for j in range(other.ncols)]),
                              other.ncols)
        c = as_scalar(other)
        if c is not None:
            return self.scale(c)
        return NotImplemented

    def apply(self, u):
        "Matrix times column vector (tuple)."
        if len(u) != self.ncols:
            raise ValueError(f"vector of length {len(u)} for a matrix with {self.ncols} columns")
        return tuple(sum_of_products(r, u) for r in self.rows)

    def transpose(self):
        return Matrix._of([self.col(j) for j in range(self.ncols)], self.nrows)

    def conjugate(self):
        return Matrix._of([vec_conj(r) for r in self.rows], self.ncols)

    def conj_transpose(self):
        return self.transpose().conjugate()

    def is_symmetric(self):
        return self == self.transpose()

    def is_antisymmetric(self):
        return (self + self.transpose()).is_zero()

    # -- elimination ---------------------------------------------------

    def rref(self):
        "Reduced row echelon form; returns (Matrix, pivot column list)."
        elim, pivots, _ = _eliminate(_integer_rows(self)[0], self.ncols)
        rows = [*_divided(elim, pivots)] + [vec_zero(self.ncols)] * (self.nrows - len(pivots))
        return Matrix._of(rows, self.ncols), pivots

    def rank(self):
        _, pivots = self.rref()
        return len(pivots)

    def nullspace(self):
        """Basis (list of tuples) of the right kernel {u : M u = 0}."""
        R, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        basis = []
        for f in free:
            u = [ZERO] * self.ncols
            u[f] = ONE
            for i, p in enumerate(pivots):
                u[p] = -R[i, f]
            basis.append(tuple(u))
        return basis

    def _check_square(self, op):
        if self.nrows != self.ncols:
            raise ValueError(f"{op} needs a square matrix, got {self.nrows}x{self.ncols}")

    def det(self):
        "The sign of the row swaps times the last pivot, over the product of the row denominators."
        self._check_square("det")
        rows, scale = _integer_rows(self)
        rows, pivots, sign = _eliminate(rows, self.ncols)
        if len(pivots) < self.nrows:
            return ZERO
        if not pivots:
            return ONE
        da, db, _ = rows[-1]
        return from_triple(sign * da[-1], sign * db[-1], scale)

    def inverse(self):
        self._check_square("inverse")
        n = self.nrows
        aug = Matrix([list(r) + list(e) for r, e in zip(self.rows, Matrix.identity(n).rows)], ncols=2 * n)
        R, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._of([r[n:] for r in R.rows], n)

    def solve(self, b):
        """One solution x of M x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError(f"vector of length {len(b)} for a matrix with {self.nrows} rows")
        aug = Matrix([list(r) + [v] for r, v in zip(self.rows, b)], ncols=self.ncols + 1)
        R, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [ZERO] * self.ncols
        for i, p in enumerate(pivots):
            x[p] = R[i, self.ncols]
        return tuple(x)

    def to_float(self):
        import numpy
        return numpy.array([[complex(x) for x in r] for r in self.rows], dtype=complex)


def matrix_from_cols(cols, nrows=None):
    if not cols:
        if nrows is None:
            raise ValueError("no columns: pass nrows for the empty matrix")
        return Matrix([[] for _ in range(nrows)], ncols=0) if nrows else Matrix([], ncols=0)
    return Matrix(cols, ncols=len(cols[0])).transpose()


def anticommuting(mats) -> bool:
    """Whether A B + B A = 0 for all A, B in mats, A = B included; mats are
    square of one size.  Each is converted once; stops at the first
    nonzero entry."""
    if any(not A.nrows == A.ncols == mats[0].nrows for A in mats):
        raise ValueError("anticommuting needs square matrices of one size")
    factors = []
    for A in mats:
        _, re, im = _numerators(A.rows)
        factors.append((list(map(tuple.__add__, re, im)), _right(zip(*re), zip(*im))))
    for i, (rows_a, cols_a) in enumerate(factors):
        for rows_b, cols_b in factors[i:]:
            # entry (r, c) is row_r(A) col_c(B) + row_r(B) col_c(A), over D_A D_B
            cols = [(b1 + a1, b2 + a2) for (b1, b2), (a1, a2) in zip(cols_b, cols_a)]
            for ra, rb in zip(rows_a, rows_b):
                r = ra + rb
                for c1, c2 in cols:
                    if sum(map(mul, r, c1)) or sum(map(mul, r, c2)):
                        return False
    return True


# ---------------------------------------------------------------------


def _check_ambient(u, v):
    if u.ambient != v.ambient:
        raise ValueError(f"ambient dimensions {u.ambient} and {v.ambient} differ")


class ComplexSubspace:
    """A subspace of C^ambient with a canonical (RREF) basis.

    Equality of subspaces is equality of the canonical bases.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors=()):
        rows = [vec(v) for v in vectors]
        for r in rows:
            if len(r) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        R, pivots = Matrix(rows, ncols=ambient).rref()
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(R.rows[: len(pivots)]))

    @classmethod
    def _spanned(cls, ambient, rows):
        "The span of Gaussian-integer (re, im) rows of length ambient, each with its own scale."
        S = object.__new__(cls)
        object.__setattr__(S, "ambient", ambient)
        object.__setattr__(S, "basis", tuple(_divided(*_eliminate(rows, ambient)[:2])))
        return S

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        if type(other) is not type(self):  # a RealSubspace never equals a ComplexSubspace
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"ComplexSubspace(dim {self.dim} in C^{self.ambient})"

    def contains(self, u) -> bool:
        u = vec(u)
        for b in self.basis:
            pivot = next(j for j, x in enumerate(b) if x)
            if u[pivot]:
                u = vec_sub(u, vec_scale(u[pivot], b))
        return vec_is_zero(u)

    def contains_subspace(self, other) -> bool:
        return all(self.contains(b) for b in other.basis)

    def sum(self, other):
        _check_ambient(self, other)
        return type(self)(self.ambient, self.basis + other.basis)

    def intersect(self, other):
        _check_ambient(self, other)
        if self.dim == 0 or other.dim == 0:
            return type(self)(self.ambient)
        # x = sum a_i u_i = sum b_j v_j; kernel of [U^T | -V^T]
        cols = [list(b) for b in self.basis] + [[-x for x in b] for b in other.basis]
        coords = [k[: self.dim] for k in matrix_from_cols(cols).nullspace()]
        return type(self)(self.ambient, _products(coords, list(zip(*self.basis))))

    def conj(self):
        return ComplexSubspace(self.ambient, [vec_conj(b) for b in self.basis])

    def bilinear_annihilator(self):
        "All u with b . u = 0 (no conjugation) for every basis vector b."
        return ComplexSubspace(self.ambient, Matrix(list(self.basis), ncols=self.ambient).nullspace())

    def hermitian_complement_within(self, inside):
        "Vectors of `inside` hermitian-orthogonal to every vector of self."
        if self.dim == 0 or inside.dim == 0:
            return inside
        # coordinates relative to inside's basis
        G = Matrix._of(_products([vec_conj(b) for b in self.basis], inside.basis), inside.dim)
        return ComplexSubspace(self.ambient, _products(G.nullspace(), list(zip(*inside.basis))))

    def real_points(self):
        """Real basis of the real vectors contained in self (as a RealSubspace).

        Nonempty only when self meets its conjugate.
        """
        stable = self.intersect(self.conj())
        reals = []
        for b in stable.basis:
            reals.append(vec_re(b))
            reals.append(vec_im(b))
        return RealSubspace(self.ambient, reals)


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
        B = Matrix(self.basis, ncols=self.ambient)
        gram = B * B.transpose()
        return B.transpose() * gram.inverse() * B

    def orthogonal_complement(self):
        return RealSubspace(self.ambient, Matrix(self.basis, ncols=self.ambient).nullspace())
