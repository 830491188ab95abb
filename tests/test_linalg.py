"""Exact matrix algebra and subspace lattice operations.

Numeric oracle: numpy ranks and solves on random small matrices must
agree with the exact routines.
"""

import random
from fractions import Fraction
from itertools import chain
from math import gcd

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from eigenforge.scalars import GaussRational, I, ONE, ZERO, real_part, scalar
from eigenforge import linalg
from eigenforge.linalg import (
    ComplexSubspace,
    Matrix,
    RealSubspace,
    _annihilator,
    anticommuting,
    dot_bilinear,
    dot_hermitian,
    gram_schmidt_hermitian,
    matrix_from_cols,
    vec,
    vec_is_zero,
)

from oracles import (RefRealSubspace, ref_apply, ref_bilinear_annihilator, ref_conj_transpose,
                     ref_det, ref_eliminate, ref_entrywise, ref_hermitian_complement_within,
                     ref_intersect,
                     ref_matmul, ref_orthogonal_complement, ref_real_annihilator, ref_real_points,
                     ref_rref, ref_sum)


def rand_scalar(rng):
    return scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def rand_matrix(rng, nrows, ncols):
    return Matrix([[rand_scalar(rng) for _ in range(ncols)] for _ in range(nrows)], ncols=ncols)


def test_matrix_arithmetic():
    A = Matrix([[1, 2], [3, 4]])
    B = Matrix([[0, 1], [1, 0]])
    assert A * B == Matrix([[2, 1], [4, 3]])
    assert (A + B) - B == A
    assert A.transpose() == Matrix([[1, 3], [2, 4]])
    assert A.det() == scalar(-2)
    assert A * A.inverse() == Matrix.identity(2)


def test_matrix_rows_must_match_a_given_ncols():
    assert Matrix([[1, 2]], ncols=2).ncols == 2
    assert Matrix([], ncols=3).ncols == 3
    with pytest.raises(ValueError):
        Matrix([[1, 2]], ncols=3)
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_conj_transpose():
    A = Matrix([[I, 1], [0, 2 * I]])
    assert A.conj_transpose() == Matrix([[-I, 0], [1, -2 * I]])


def test_rref_and_rank_against_numpy():
    rng = random.Random(7)
    for _ in range(25):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        A = rand_matrix(rng, nrows, ncols)
        exact = A.rank()
        numeric = numpy.linalg.matrix_rank(A.to_float(), tol=1e-9)
        assert exact == numeric


def test_nullspace_is_kernel():
    rng = random.Random(11)
    for _ in range(25):
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = A.nullspace()
        assert len(basis) == A.ncols - A.rank()
        for u in basis:
            assert vec_is_zero(A.apply(u))


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(15):
        A = rand_matrix(rng, 3, 3)
        B = rand_matrix(rng, 3, 3)
        assert (A * B).det() == A.det() * B.det()


def test_solve():
    A = Matrix([[1, 1], [1, -1]])
    x = A.solve(vec([2, 0]))
    assert x == vec([1, 1])
    # inconsistent system
    B = Matrix([[1, 1], [1, 1]])
    assert B.solve(vec([0, 1])) is None


def test_matrix_from_cols():
    M = matrix_from_cols([vec([1, 2]), vec([3, 4])])
    assert M == Matrix([[1, 3], [2, 4]])


def test_subspace_membership_and_equality():
    V = ComplexSubspace(3, [vec([1, 0, 1]), vec([0, 1, 0])])
    W = ComplexSubspace(3, [vec([1, 1, 1]), vec([2, -1, 2])])
    assert V == W
    assert V.contains(vec([3, 5, 3]))
    assert not V.contains(vec([1, 0, 0]))
    assert V.dim == 2


def test_subspace_sum_intersect():
    e1 = vec([1, 0, 0])
    e2 = vec([0, 1, 0])
    e3 = vec([0, 0, 1])
    V = ComplexSubspace(3, [e1, e2])
    W = ComplexSubspace(3, [e2, e3])
    assert ref_sum(V, W).dim == 3
    assert ref_sum(V, W) == ComplexSubspace(3, [e1, e2, e3])
    X = ref_intersect(V, W)
    assert X.dim == 1 and X.contains(e2)


def test_bilinear_annihilator():
    w = vec([1, I, 0])  # isotropic: w.w = 0
    V = ComplexSubspace(3, [w])
    A = V.bilinear_annihilator()
    assert A.dim == 2
    assert A.contains(w)  # self-annihilating
    for b in A.basis:
        assert dot_bilinear(w, b) == ZERO


def test_real_points_of_conj_stable_space():
    # span{ (1,i), (1,-i) } is conjugation stable and equals all of C^2
    V = ComplexSubspace(2, [vec([1, I]), vec([1, -I])])
    assert ref_real_points(V).dim == 2
    # span{ (1,i) } alone meets its conjugate trivially
    W = ComplexSubspace(2, [vec([1, I])])
    assert ref_real_points(W).dim == 0
    # the real annihilator is the real points of the bilinear annihilator
    for S in (V, W):
        assert S.real_annihilator() == ref_real_points(S.bilinear_annihilator())


def test_hermitian_complement_within():
    e1 = vec([1, 0, 0])
    inside = ComplexSubspace(3, [vec([1, 1, 0]), vec([0, 0, 1])])
    K = ComplexSubspace(3, [e1])
    C = ref_hermitian_complement_within(K, inside)
    assert C == ComplexSubspace(3, [vec([0, 0, 1])])
    for b in C.basis:
        assert dot_hermitian(e1, b) == ZERO
    # K is real, so this is also the part of inside that annihilates K bilinearly
    assert C == ref_intersect(inside, K.bilinear_annihilator())


def test_gram_schmidt_hermitian():
    vs = [vec([1, 1, 0]), vec([1, 0, 1]), vec([2, 1, 1])]
    basis = gram_schmidt_hermitian(vs)
    assert len(basis) == 2  # third is dependent
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            assert dot_hermitian(basis[a], basis[b]) == ZERO
    span = ComplexSubspace(3, basis)
    assert span == ComplexSubspace(3, vs)


def test_real_subspace_projector():
    V = RealSubspace(3, [(1, 1, 0), (0, 0, 1)])
    P = V.projector()
    assert P * P == P
    assert P.is_symmetric()
    # projects onto V: members fixed, orthogonal complement killed
    assert P.apply(vec([1, 1, 0])) == vec([1, 1, 0])
    assert P.apply(vec([1, -1, 0])) == vec([0, 0, 0])


def test_real_subspace_complement():
    V = RealSubspace(3, [(1, 1, 0)])
    C = V.orthogonal_complement()
    assert C.dim == 2
    assert C.contains((1, -1, 0))
    assert C.contains((0, 0, 1))


def test_shape_errors_raise_value_error():
    # real exceptions, not asserts: they must also fire under python -O
    A = Matrix([[1, 2], [3, 4]])
    wide = Matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        A + wide
    with pytest.raises(ValueError):
        A - wide
    with pytest.raises(ValueError):
        A.apply(vec([1, 2, 3]))
    with pytest.raises(ValueError):
        wide.det()
    with pytest.raises(ValueError):
        wide.inverse()
    with pytest.raises(TypeError):
        A + 1


# One test per shape check that used to be an assert: each raises
# ValueError, so it also fires under python -O.  An empty subspace of
# another ambient dimension is the case no later check would catch.


def test_matrix_from_cols_needs_nrows_without_columns():
    with pytest.raises(ValueError):
        matrix_from_cols([])


def test_complex_subspace_contains_subspace_rejects_other_ambient():
    V = ComplexSubspace(2, [vec([1, 0])])
    for other in (ComplexSubspace(3, [vec([1, 0, 0])]), ComplexSubspace(3), ComplexSubspace(1)):
        with pytest.raises(ValueError):
            V.contains_subspace(other)
    assert V.contains_subspace(ComplexSubspace(2, [vec([3, 0])]))


def test_complex_subspace_contains_rejects_other_lengths():
    V = ComplexSubspace(2, [vec([1, 0])])
    for u in (vec([1, 0, 5]), vec([1]), vec([0, 0, 0]), ()):
        with pytest.raises(ValueError):
            V.contains(u)
    assert V.contains(vec([3, 0])) and not V.contains(vec([0, 1]))


# -- RealSubspace against the Fraction-based reference ----------------
#
# Real vectors are real GaussRational tuples; the reference keeps the
# former Fraction basis.  A real GaussRational equals (and hashes like)
# the equal Fraction, so bases and projectors compare directly.

_q = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _entry(q, kind):
    "q as one of the entry types a RealSubspace accepts."
    return (q, GaussRational(q), str(q), q.numerator if q.denominator == 1 else q)[kind]


@st.composite
def real_vectors(draw, m, max_count=5):
    "Rational vectors in Q^m, some of them combinations of earlier ones."
    out = []
    for _ in range(draw(st.integers(0, max_count))):
        if out and draw(st.booleans()):
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            c = draw(_q)
            v = [x + c * y for x, y in zip(a, b)]
        else:
            v = draw(st.lists(st.one_of(st.just(Fraction(0)), _q), min_size=m, max_size=m))
        out.append(v)
    return out


@st.composite
def real_subspace_cases(draw):
    m = draw(st.integers(0, 5))
    kind = draw(st.integers(0, 3))
    vs = [[_entry(q, kind) for q in v] for v in draw(real_vectors(m))]
    others = draw(real_vectors(m, max_count=3))
    probes = draw(real_vectors(m, max_count=4))
    return m, vs, others, probes


@settings(max_examples=150, deadline=None)
@given(real_subspace_cases())
def test_real_subspace_matches_fraction_reference(case):
    m, vs, others, probes = case
    V, R = RealSubspace(m, vs), RefRealSubspace(m, vs)
    assert V.basis == R.basis
    assert all(type(x) is GaussRational and x.is_real() for b in V.basis for x in b)
    assert V.dim == R.dim
    for u in probes + list(R.basis) + [[x + y for x, y in zip(a, b)]
                                       for a in R.basis for b in R.basis]:
        assert V.contains(u) == R.contains(u)
    S = ref_sum(V, RealSubspace(m, others))
    assert type(S) is RealSubspace
    assert S.basis == R.sum(RefRealSubspace(m, others)).basis
    assert V.projector() == R.projector()
    C, RC = V.orthogonal_complement(), R.orthogonal_complement()
    assert type(C) is RealSubspace
    assert C.basis == RC.basis


def test_real_subspace_rejects_complex_entries():
    with pytest.raises(ValueError, match="real entries"):
        RealSubspace(2, [[ONE, I]])


def test_real_subspace_never_equals_complex_subspace():
    rows = [vec([1, 0, 0]), vec([0, Fraction(1, 2), 1])]
    V, W = RealSubspace(3, rows), ComplexSubspace(3, rows)
    assert V.basis == W.basis
    assert V != W and W != V
    assert V == RealSubspace(3, rows) and W == ComplexSubspace(3, rows)
    assert len({V, W}) == 2
    assert type(ref_sum(W, V)) is ComplexSubspace and ref_sum(W, V) == W
    with pytest.raises(AttributeError, match="RealSubspace is immutable"):
        V.basis = ()


def test_solve_rejects_a_right_side_of_another_length():
    A = Matrix([[1, 2], [3, 4]])
    for b in (vec([1]), vec([1, 2, 3])):
        with pytest.raises(ValueError):
            A.solve(b)


def test_real_annihilator_is_a_real_subspace():
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    K = ComplexSubspace(3, [vec([1, I, 0])]).real_annihilator()
    assert type(K) is RealSubspace
    assert K == RealSubspace(3, [e3])
    assert RealSubspace(3, [e1, e2]).real_annihilator() == RealSubspace(3, [e3])
    assert ComplexSubspace(3).real_annihilator() == RealSubspace(3, [e1, e2, e3])
    assert ComplexSubspace(3, [e1, e2, e3]).real_annihilator() == RealSubspace(3)
    joined = ref_sum(RealSubspace(3, [e1]), RealSubspace(3, [e2]))
    assert type(joined) is RealSubspace and joined == RealSubspace(3, [e1, e2])


# -- integer kernels against the per-entry reference loops -------------
#
# Products, row reduction and determinants run fraction-free on
# Gaussian-integer numerators; tests/oracles.py keeps the GaussRational
# loops they replaced.  Matrices mix small and very large denominators
# and carry duplicate, dependent and zero rows and zero columns.

_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_large = st.fractions(min_value=-10 ** 9, max_value=10 ** 9, max_denominator=10 ** 12)
_entries = st.one_of(st.just(ZERO), st.builds(GaussRational, _small),
                     st.builds(GaussRational, _small, _small),
                     st.builds(GaussRational, _large, st.one_of(_small, _large)))


_sparse = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, scalar(3), scalar(-7), I, 2 * I])


@st.composite
def matrices(draw, nrows=None, ncols=None):
    n = draw(st.integers(0, 5)) if nrows is None else nrows
    m = draw(st.integers(0, 5)) if ncols is None else ncols
    entries = draw(st.sampled_from([_entries, _sparse]))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(["free", "free", "duplicate", "combination", "zero"]))
        if kind == "duplicate" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "combination" and rows:
            a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(entries)
            row = [x + c * y for x, y in zip(a, b)]
        elif kind == "zero":
            row = [ZERO] * m
        else:
            row = [draw(entries) for _ in range(m)]
        rows.append(row)
    if m and draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        for row in rows:
            row[j] = ZERO
    return Matrix(rows, ncols=m)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    return draw(matrices(n, n))


def test_sparse_elimination_matches_reference():
    # Sparse pivot columns make rows skip updates and pivots change between
    # the steps that touch them, which dense random matrices rarely do.
    rng = random.Random(17)
    for _ in range(1500):
        n = rng.randint(2, 4)
        M = Matrix([[rng.choice([0, 0, 0, rng.randint(-9, 9)]) for _ in range(n)]
                    for _ in range(n)])
        assert M.rref() == ref_rref(M)
        assert M.det() == ref_det(M)


@st.composite
def integer_rows(draw):
    """Real integer rows of width m, as (re, im) pairs with a zero im: square
    about half the time, with dependent and zero rows, zero columns and
    negative entries."""
    n = draw(st.integers(0, 6))
    m = n if draw(st.booleans()) else draw(st.integers(0, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3]) | st.integers(-40, 40)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["free", "free", "combination", "zero"]))
        if kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            row = [c * x + d * y for x, y in zip(a, b)]
        else:
            row = [0 if kind == "zero" else draw(entry) for _ in range(m)]
        rows.append(row)
    if m and draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        for row in rows:
            row[j] = 0
    return [(tuple(r), (0,) * m) for r in rows], m


def _elimination(out):
    rows, pivots, sign = out
    return [(list(a), list(b), t) for a, b, t in rows], pivots, sign


@settings(max_examples=300, deadline=None)
@given(integer_rows())
def test_real_elimination_matches_the_gaussian_reference(case):
    rows, m = case
    assert _elimination(linalg._eliminate(rows, m)) == _elimination(ref_eliminate(rows, m))
    if len(rows) == m:
        M = Matrix([a for a, _ in rows], ncols=m)
        assert M.det() == ref_det(M)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_product_matches_reference(n, k, m, data):
    A, B = data.draw(matrices(n, k)), data.draw(matrices(k, m))
    assert A * B == ref_matmul(A, B)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_rank_and_nullspace_match_reference(M):
    R, pivots = M.rref()
    want, want_pivots = ref_rref(M)
    assert (R, pivots) == (want, want_pivots)
    assert M.rank() == len(want_pivots)
    free = [j for j in range(M.ncols) if j not in want_pivots]
    basis = M.nullspace()
    assert len(basis) == len(free)
    for f, u in zip(free, basis):
        # the canonical kernel vector of free column f, read off the reference RREF
        assert u == tuple(ONE if j == f else -want[want_pivots.index(j), f] if j in want_pivots
                          else ZERO for j in range(M.ncols))
        assert ref_matmul(M, Matrix([[x] for x in u], ncols=1)).is_zero()


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_det_and_inverse_match_reference(M):
    d = M.det()
    assert d == ref_det(M)
    n = M.nrows
    if not d:
        with pytest.raises(ValueError, match="singular"):
            M.inverse()
        return
    inv = M.inverse()
    aug, _ = ref_rref(Matrix([list(r) + list(e) for r, e in zip(M.rows, Matrix.identity(n).rows)],
                             ncols=2 * n))
    assert inv == Matrix([r[n:] for r in aug.rows], ncols=n)
    assert ref_matmul(M, inv) == Matrix.identity(n)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_reference(M, data):
    b = tuple(data.draw(_entries) for _ in range(M.nrows))
    if data.draw(st.booleans()) and M.ncols:  # a consistent right side
        x0 = [data.draw(_entries) for _ in range(M.ncols)]
        b = tuple(ref_matmul(M, Matrix([[x] for x in x0], ncols=1)).col(0))
    x = M.solve(b)
    R, pivots = ref_rref(Matrix([list(r) + [v] for r, v in zip(M.rows, b)], ncols=M.ncols + 1))
    if M.ncols in pivots:
        assert x is None
    else:
        assert ref_matmul(M, Matrix([[v] for v in x], ncols=1)).col(0) == b


@st.composite
def anticommuting_cases(draw):
    "Square matrices of one size, some built from isotropic vectors so that they anticommute."
    n = draw(st.integers(0, 4))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        if n == 4 and draw(st.booleans()):
            # (a, ia, b, ib) . (c, ic, d, id) = 0: u u^T, v v^T and u v^T + v u^T anticommute
            a, b, c, d = (draw(_entries) for _ in range(4))
            u, v = vec([a, I * a, b, I * b]), vec([c, I * c, d, I * d])
            U, V = Matrix([u], ncols=4), Matrix([v], ncols=4)
            mats.append(draw(st.sampled_from([U.transpose() * U, V.transpose() * V,
                                              U.transpose() * V + V.transpose() * U])))
        elif draw(st.booleans()):  # symmetric, so only upper triangles are tested
            M = draw(matrices(n, n))
            mats.append(M + M.transpose())
        else:
            mats.append(draw(matrices(n, n)))
    return mats


@settings(max_examples=100, deadline=None)
@given(anticommuting_cases())
def test_anticommuting_matches_reference(mats):
    want = all((ref_matmul(A, B) + ref_matmul(B, A)).is_zero()
               for i, A in enumerate(mats) for B in mats[i:])
    assert anticommuting(mats) == want


def test_anticommuting_needs_square_matrices_of_one_size():
    with pytest.raises(ValueError):
        anticommuting([Matrix([[1, 0]])])
    with pytest.raises(ValueError):
        anticommuting([Matrix.identity(2), Matrix.identity(3)])


# -- the stored form: canonical storage and the hash/eq contract -------
#
# A Matrix stores Gaussian-integer rows over one denominator with gcd 1
# across all of them, so equal entries mean equal storage and equal
# hashes, whichever way the matrix was built.

_wide = st.builds(lambda a, b, d, e: GaussRational(Fraction(a, d), Fraction(b, e)),
                  st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
                  st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
_real_wide = st.builds(lambda a, d: GaussRational(Fraction(a, d)),
                       st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))


@st.composite
def stored_cases(draw):
    "A matrix over denominators up to 10^6: zero, real or Gaussian, with 0 to 4 rows and columns."
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = draw(st.sampled_from([st.just(ZERO), _real_wide, _wide, st.one_of(st.just(ZERO), _wide)]))
    return Matrix([[draw(entries) for _ in range(m)] for _ in range(n)], ncols=m)


def assert_canonical(M):
    assert M.den > 0 and gcd(M.den, *chain(*M.re), *chain(*M.im)) == 1
    assert len(M.re) == len(M.im) == M.nrows
    assert all(len(r) == M.ncols for r in M.re + M.im)
    assert M.rows == tuple(tuple(GaussRational(Fraction(a, M.den), Fraction(b, M.den))
                                 for a, b in zip(x, y)) for x, y in zip(M.re, M.im))


def _plain(x):
    "x as an int or Fraction when it is real, else x itself."
    if not x.is_real():
        return x
    return int(x.re) if x.re.denominator == 1 else x.re


@settings(max_examples=150)
@given(stored_cases())
def test_equal_matrices_have_equal_storage_and_hash(M):
    n, m = M.nrows, M.ncols
    R, _ = M.rref()
    builds = [Matrix(M.rows, ncols=m), Matrix([[_plain(x) for x in r] for r in M.rows], ncols=m),
              M * Matrix.identity(m), Matrix.identity(n) * M, M.transpose().transpose(),
              M + Matrix.zero(n, m), -(-M), M.scale(scalar(3, 1)).scale(ONE / scalar(3, 1)),
              M.conjugate().conjugate(), Matrix.from_numerators(
                  [[7 * a for a in r] for r in M.re], [[7 * b for b in r] for r in M.im], 7 * M.den, m)]
    for A in builds + [R]:
        assert_canonical(A)
    for A in builds:
        assert A == M and hash(A) == hash(M)
        assert (A.den, A.re, A.im) == (M.den, M.re, M.im)
    again, _ = R.rref()
    assert again == R and hash(again) == hash(R)
    zeros = [Matrix.zero(n, m), Matrix([[0] * m for _ in range(n)], ncols=m), M - M, M.scale(0),
             M * Matrix.zero(m, m)]
    for Z in zeros:
        assert_canonical(Z)
        assert Z == zeros[0] and hash(Z) == hash(zeros[0]) and Z.is_zero()
    assert (M == zeros[0]) == M.is_zero()


def test_shapes_are_part_of_equality():
    assert Matrix([], ncols=2) != Matrix([], ncols=3)
    assert Matrix([[], []], ncols=0) != Matrix([[]], ncols=0)
    assert Matrix.zero(2, 3) != Matrix.zero(3, 2)


# -- entrywise operations and the real-factor product shortcut ----------

@settings(max_examples=100)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_entrywise_operations_match_reference(n, m, data):
    A, B = data.draw(matrices(n, m)), data.draw(matrices(n, m))
    c = data.draw(_entries)
    assert A + B == ref_entrywise(lambda x, y: x + y, A, B)
    assert A - B == ref_entrywise(lambda x, y: x - y, A, B)
    assert -A == ref_entrywise(lambda x: -x, A)
    assert A.scale(c) == ref_entrywise(lambda x: c * x, A) == A * c
    assert A.conj_transpose() == ref_conj_transpose(A)
    u = tuple(data.draw(_entries) for _ in range(m))
    assert A.apply(u) == ref_apply(A, u)
    assert A.apply(tuple(map(real_part, u))) == ref_apply(A, tuple(map(real_part, u)))


def _real(M):
    return Matrix([[real_part(x) for x in r] for r in M.rows], ncols=M.ncols)


def _complex(M):
    "M with an imaginary part in its first entry, if it has one (x + i would make x = -i real)."
    rows = [list(r) for r in M.rows]
    if rows and rows[0]:
        rows[0][0] = rows[0][0] + I * (1 + abs(rows[0][0].im))
    return Matrix(rows, ncols=M.ncols)


@settings(max_examples=100)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(["real x complex", "complex x real", "real x real"]), st.data())
def test_products_with_a_real_factor_match_reference(n, k, m, kind, data):
    A, B = data.draw(matrices(n, k)), data.draw(matrices(k, m))
    A = _real(A) if kind.startswith("real") else _complex(A)
    B = _real(B) if kind.endswith("real") else _complex(B)
    assert A.is_real() == kind.startswith("real") or A.nrows * A.ncols == 0
    assert B.is_real() == kind.endswith("real") or B.nrows * B.ncols == 0
    assert A * B == ref_matmul(A, B)


# -- the axis-search subspaces against the former subspace chain --------
#
# K, the real annihilator of W, and A', the bilinear annihilator of
# W + K read off the Gram system of annihilator_in_real_span, must equal
# the real points of W's annihilator A, the annihilator of the sum W + K,
# and the part of A Hermitian-orthogonal to K, as tests/oracles.py
# computes them through a subspace sum and intersections with conjugate
# subspaces.


@st.composite
def gradient_spans(draw):
    """A subspace W of C^m over denominators up to 10^6: zero, full rank,
    conjugation-closed, real or Gaussian, sometimes with a zero column."""
    m = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["zero", "full", "conjugation-closed", "real", "gaussian"]))
    entries = (_real_wide if kind == "real"
               else draw(st.sampled_from([_wide, _sparse, st.one_of(st.just(ZERO), _wide)])))
    if kind == "zero":
        rows = [[ZERO] * m for _ in range(draw(st.integers(0, 2)))]
    elif kind == "full":  # triangular with a nonzero diagonal
        rows = [[ZERO] * i + [draw(_wide.filter(bool))] + [draw(entries) for _ in range(m - i - 1)]
                for i in range(m)]
    else:
        rows = [[draw(entries) for _ in range(m)] for _ in range(draw(st.integers(0, m + 1)))]
        if kind == "conjugation-closed":
            rows += [[x.conjugate() for x in r] for r in rows]
        if m and draw(st.booleans()):
            j = draw(st.integers(0, m - 1))
            for r in rows:
                r[j] = ZERO
    return ComplexSubspace(m, rows), kind


@settings(max_examples=200, deadline=None)
@given(gradient_spans())
def test_axis_subspaces_match_the_reference_chain(case):
    W, kind = case
    m = W.ambient
    A = W.bilinear_annihilator()
    K = W.real_annihilator()
    assert type(K) is RealSubspace
    assert K.basis_matrix == ref_real_points(A).basis_matrix
    assert ref_sum(W, K) == ComplexSubspace(m, W.basis + K.basis)
    assert (W.annihilator_in_real_span().basis_matrix
            == ref_sum(W, K).bilinear_annihilator().basis_matrix
            == ref_hermitian_complement_within(K, A).basis_matrix)
    if kind == "zero":
        assert K.dim == m
    elif kind == "full":
        assert W.dim == m and K.dim == 0
    elif kind == "real":
        assert K == RealSubspace(m, W.basis).orthogonal_complement()


# -- annihilators read off one elimination -----------------------------
#
# The kernel's RREF basis comes from the free-column kernel of the matrix
# with its columns reversed; it must equal the span of nullspace(), which
# keeps the free-column basis, and the annihilators built on it must
# equal the kernel-then-span chain of tests/oracles.py.


@st.composite
def kernel_cases(draw):
    """A matrix over denominators up to 10^6 with 0 to 5 rows and columns:
    rank 0, full rank (triangular with a nonzero diagonal, then any rows),
    or dependent, duplicate and zero rows and a zero column."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["zero", "full", "any"]))
    if kind == "any":
        return draw(matrices(n, m))
    entries = draw(st.sampled_from([_wide, _real_wide, _sparse, st.one_of(st.just(ZERO), _wide)]))
    if kind == "zero":
        return Matrix([[ZERO] * m for _ in range(n)], ncols=m)
    r = min(n, m)
    rows = [[ZERO] * i + [draw(_wide.filter(bool))] + [draw(entries) for _ in range(m - i - 1)]
            for i in range(r)]
    rows += [[draw(entries) for _ in range(m)] for _ in range(n - r)]
    return Matrix(rows, ncols=m)


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
def test_annihilator_read_off_matches_the_nullspace_span(M):
    m = M.ncols
    want = ComplexSubspace(m, M.nullspace())
    assert _annihilator(M) == want.basis_matrix
    assert want.dim == m - M.rank()
    V = ComplexSubspace(m, M.rows)
    assert V.bilinear_annihilator() == ref_bilinear_annihilator(V) == want
    K = V.real_annihilator()
    assert type(K) is RealSubspace and K == ref_real_annihilator(V)
    R = RealSubspace(m, [tuple(map(real_part, r)) for r in M.rows])
    C = R.orthogonal_complement()
    assert type(C) is RealSubspace and C == ref_orthogonal_complement(R)


def test_each_annihilator_runs_one_elimination(monkeypatch):
    calls = []
    eliminate = linalg._eliminate

    def counted(rows, ncols):
        calls.append(ncols)
        return eliminate(rows, ncols)

    V = ComplexSubspace(4, [vec([1, I, 2, 2 * I]), vec([0, 3, 0, 6])])
    R = RealSubspace(4, [vec([1, 2, 0, 5]), vec([0, 0, 1, Fraction(-1, 3)])])
    monkeypatch.setattr(linalg, "_eliminate", counted)
    for annihilator, dim in ((V.bilinear_annihilator, 2), (V.real_annihilator, 2),
                             (R.orthogonal_complement, 2)):
        calls.clear()
        assert annihilator().dim == dim
        assert len(calls) == 1
    calls.clear()
    assert len(V.basis_matrix.nullspace()) == 2 and len(calls) == 1
