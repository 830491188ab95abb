"""Exact linear algebra over Q(i): matrices, row reduction, subspaces.

Vectors are plain tuples of GaussRational.  Subspaces keep a reduced
row echelon basis, so two subspaces are equal exactly when their basis
matrices are equal; that is what makes span comparisons decidable.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussRational, ZERO, ONE, as_scalar, sum_of_products

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
    return tuple(a.re for a in u)

def vec_im(u):
    return tuple(a.im for a in u)


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
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = ncols
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)

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

    def row(self, i):
        return self.rows[i]

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
        return Matrix([vec_add(a, b) for a, b in zip(self.rows, other.rows)], ncols=self.ncols)

    def __sub__(self, other):
        self._check_same_shape(other, "-")
        return Matrix([vec_sub(a, b) for a, b in zip(self.rows, other.rows)], ncols=self.ncols)

    def __neg__(self):
        return Matrix([vec_scale(-ONE, r) for r in self.rows], ncols=self.ncols)

    def scale(self, c):
        c = as_scalar(c)
        return Matrix([vec_scale(c, r) for r in self.rows], ncols=self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
            cols = [other.col(j) for j in range(other.ncols)]
            return Matrix(
                [[sum_of_products(r, c) for c in cols] for r in self.rows],
                ncols=other.ncols,
            )
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
        return Matrix([self.col(j) for j in range(self.ncols)], ncols=self.nrows)

    def conjugate(self):
        return Matrix([vec_conj(r) for r in self.rows], ncols=self.ncols)

    def conj_transpose(self):
        return self.transpose().conjugate()

    def is_symmetric(self):
        return self == self.transpose()

    def is_antisymmetric(self):
        return (self + self.transpose()).is_zero()

    # -- elimination ---------------------------------------------------

    def rref(self):
        "Reduced row echelon form; returns (Matrix, pivot column list)."
        rows = [list(r) for r in self.rows]
        nrows, ncols = self.nrows, self.ncols
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
        self._check_square("det")
        n = self.nrows
        rows = [list(r) for r in self.rows]
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

    def inverse(self):
        self._check_square("inverse")
        n = self.nrows
        aug = Matrix([list(r) + list(e) for r, e in zip(self.rows, Matrix.identity(n).rows)], ncols=2 * n)
        R, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([r[n:] for r in R.rows], ncols=n)

    def solve(self, b):
        """One solution x of M x = b, or None if inconsistent."""
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
        assert nrows is not None
        return Matrix([[] for _ in range(nrows)], ncols=0) if nrows else Matrix([], ncols=0)
    return Matrix(cols, ncols=len(cols[0])).transpose()


# ---------------------------------------------------------------------


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

    def __setattr__(self, name, value):
        raise AttributeError("ComplexSubspace is immutable")

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, ComplexSubspace):
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
        assert self.ambient == other.ambient
        return ComplexSubspace(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other):
        assert self.ambient == other.ambient
        if self.dim == 0 or other.dim == 0:
            return ComplexSubspace(self.ambient)
        # x = sum a_i u_i = sum b_j v_j; kernel of [U^T | -V^T]
        cols = [list(b) for b in self.basis] + [[-x for x in b] for b in other.basis]
        M = matrix_from_cols(cols)
        vectors = []
        for k in M.nullspace():
            a = k[: self.dim]
            x = vec_zero(self.ambient)
            for c, b in zip(a, self.basis):
                x = vec_add(x, vec_scale(c, b))
            vectors.append(x)
        return ComplexSubspace(self.ambient, vectors)

    def conj(self):
        return ComplexSubspace(self.ambient, [vec_conj(b) for b in self.basis])

    def bilinear_annihilator(self):
        "All u with b . u = 0 (no conjugation) for every basis vector b."
        if self.dim == 0:
            return ComplexSubspace(self.ambient, Matrix.identity(self.ambient).rows)
        return ComplexSubspace(self.ambient, Matrix(list(self.basis), ncols=self.ambient).nullspace())

    def hermitian_complement_within(self, inside):
        "Vectors of `inside` hermitian-orthogonal to every vector of self."
        if self.dim == 0:
            return inside
        conj_rows = Matrix([vec_conj(b) for b in self.basis], ncols=self.ambient)
        sol = []
        if inside.dim == 0:
            return inside
        # coordinates relative to inside's basis
        B = Matrix(list(inside.basis), ncols=self.ambient)
        G = conj_rows * B.transpose()
        for k in G.nullspace():
            x = vec_zero(self.ambient)
            for c, b in zip(k, inside.basis):
                x = vec_add(x, vec_scale(c, b))
            sol.append(x)
        return ComplexSubspace(self.ambient, sol)

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


class RealSubspace:
    """A subspace of R^ambient with a canonical (RREF) rational basis."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors=()):
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
        object.__setattr__(self, "basis", tuple(vec_re(r) for r in R.rows[: len(pivots)]))

    def __setattr__(self, name, value):
        raise AttributeError("RealSubspace is immutable")

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, RealSubspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"RealSubspace(dim {self.dim} in R^{self.ambient})"

    def matrix(self):
        return Matrix([[GaussRational(q) for q in b] for b in self.basis], ncols=self.ambient)

    def contains(self, u) -> bool:
        row = [GaussRational(q) if not isinstance(q, GaussRational) else q for q in u]
        return ComplexSubspace(self.ambient, [vec(b) for b in self.matrix().rows]).contains(row) if self.dim else vec_is_zero(vec(row))

    def contains_subspace(self, other) -> bool:
        return all(self.contains(b) for b in other.basis)

    def sum(self, other):
        assert self.ambient == other.ambient
        return RealSubspace(self.ambient, list(self.basis) + list(other.basis))

    def projector(self) -> Matrix:
        "Exact orthogonal projector onto self (normal equations, no roots)."
        if self.dim == 0:
            return Matrix.zero(self.ambient, self.ambient)
        B = self.matrix()
        gram = B * B.transpose()
        return B.transpose() * gram.inverse() * B

    def orthogonal_complement(self):
        if self.dim == 0:
            return RealSubspace(self.ambient, Matrix.identity(self.ambient).rows)
        return RealSubspace(self.ambient, [vec_re(u) for u in self.matrix().nullspace()])
