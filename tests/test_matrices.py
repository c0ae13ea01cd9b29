"""Exact dense matrix layer: frozen examples plus randomized identities.

Oracles used here, all independent of the implementation under test:
naive triple-loop multiplication, scalar Gauss-Jordan, cofactor-expansion
determinant,
exhaustive vector enumeration over F2, and entry-wise comparison of the
entries tuples for equality and hashing.
"""

import inspect
import os
import pickle
import random
import subprocess
import sys
import textwrap
import types
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homcat import (
    FieldSpec,
    Matrix,
    ShapeMismatchError,
    block,
    block_diag,
    check_les_exact,
    cone_triangle,
    kernel_basis,
    mat_add,
    mat_mul,
    mat_neg,
    mat_scale,
    mat_sub,
    rank,
    rref,
    transpose,
)
from homcat import complexes, matrices
from randgen import F2, F5, Q, random_chain_map, random_complex, random_matrix

F_BIG = FieldSpec.prime(2**31 - 1)
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def naive_matmul(a, b):
    """Textbook triple loop, no shortcuts; the multiplication oracle."""
    assert a.cols == b.rows
    f = a.field
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = f.zero()
            for t in range(a.cols):
                acc = f.coerce(acc + a[i, t] * b[t, j])
            row.append(acc)
        out.append(row)
    return Matrix.from_rows(f, out, cols=b.cols)


def naive_rref(m):
    """Gauss-Jordan one scalar at a time over F_p or Q (on Fractions),
    leftmost pivot column and first nonzero row; the reduction oracle.
    Returns (matrix, pivots)."""
    f = m.field
    p = f.p
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        sel = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], -1, p) if p else 1 / rows[r][c]
        rows[r] = [f.coerce(x * inv) for x in rows[r]]
        for i in range(m.rows):
            fac = rows[i][c]
            if i != r and fac != 0:
                rows[i] = [f.coerce(x - fac * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return Matrix.from_rows(f, rows, cols=m.cols), tuple(pivots)


def det_cofactor(m):
    """Determinant by first-row cofactor expansion; the rank oracle for
    small square matrices (det != 0 iff full rank)."""
    assert m.rows == m.cols
    f = m.field
    n = m.rows
    if n == 0:
        return f.one()
    if n == 1:
        return m[0, 0]
    acc = f.zero()
    for j in range(n):
        minor = Matrix.from_rows(
            f,
            [[m[r + 1, c if c < j else c + 1] for c in range(n - 1)] for r in range(n - 1)],
            cols=n - 1,
        )
        term = f.coerce(m[0, j] * det_cofactor(minor))
        acc = f.coerce(acc + term if j % 2 == 0 else acc - term)
    return acc


def all_f2_vectors(n):
    """Every column vector of F2^n, as n x 1 matrices."""
    for bits in product([0, 1], repeat=n):
        yield Matrix.from_rows(F2, [[b] for b in bits], cols=1)


def rows_of(m):
    return [list(m.row(i)) for i in range(m.rows)]


# mat_mul


def test_matmul_identity_absorbs():
    m = Matrix.from_rows(F5, [[1, 2], [3, 4], [0, 1]])
    assert mat_mul(Matrix.identity(F5, 3), m) == m
    assert mat_mul(m, Matrix.identity(F5, 2)) == m


def test_matmul_column_swap():
    a = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    p = Matrix.from_rows(F5, [[0, 1], [1, 0]])
    assert rows_of(mat_mul(a, p)) == [[2, 1], [4, 3]]


def test_matmul_rational_example():
    a = Matrix.from_rows(Q, [[Fraction(1, 2)]])
    b = Matrix.from_rows(Q, [[Fraction(2, 3)]])
    expected = naive_matmul(a, b)
    assert rows_of(expected) == [[Fraction(1, 3)]]
    assert mat_mul(a, b) == expected


@pytest.mark.parametrize("field", [F2, F5, Q])
def test_matmul_matches_naive_oracle(field):
    rng = random.Random(101)
    for _ in range(60):
        m, k, n = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = random_matrix(rng, field, m, k)
        b = random_matrix(rng, field, k, n)
        assert mat_mul(a, b) == naive_matmul(a, b)


@pytest.mark.parametrize("field", [F5, Q])
def test_matmul_associative(field):
    rng = random.Random(7)
    for _ in range(80):
        dims = [rng.randint(0, 4) for _ in range(4)]
        a = random_matrix(rng, field, dims[0], dims[1])
        b = random_matrix(rng, field, dims[1], dims[2])
        c = random_matrix(rng, field, dims[2], dims[3])
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_matmul_large_prime_stays_exact():
    # modulus large enough that a product slot needs more than 8 bytes
    # once the inner dimension passes 4; result must agree with the naive
    # oracle anyway
    big = FieldSpec.prime((1 << 31) - 1)
    rng = random.Random(3)
    a = random_matrix(rng, big, 4, 5)
    b = random_matrix(rng, big, 5, 3)
    assert mat_mul(a, b) == naive_matmul(a, b)


# rref


def test_rref_zero_matrix():
    z = Matrix.zeros(F5, 3, 2)
    res = rref(z)
    assert res.matrix == z
    assert res.pivots == ()


def test_rref_equal_rows_f2():
    m = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    res = rref(m)
    assert rows_of(res.matrix) == [[1, 1], [0, 0]]
    assert res.pivots == (0,)


def test_rref_invertible_rational():
    m = Matrix.from_rows(Q, [[2, 4], [1, 3]])
    assert det_cofactor(m) == Fraction(2)
    res = rref(m)
    assert res.matrix == Matrix.identity(Q, 2)
    assert res.pivots == (0, 1)


@pytest.mark.parametrize("field", [F2, F5, Q])
def test_rref_idempotent(field):
    rng = random.Random(13)
    for _ in range(60):
        m = random_matrix(rng, field, rng.randint(0, 5), rng.randint(0, 5))
        once = rref(m)
        twice = rref(once.matrix)
        assert once.matrix == twice.matrix
        assert once.pivots == twice.pivots


@pytest.mark.parametrize("field", [F2, F5, Q])
def test_rank_matches_determinant_oracle(field):
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matrix(rng, field, n, n)
        is_zero_det = det_cofactor(m) == field.zero()
        assert (rank(m) < n) == is_zero_det


# kernel_basis


def test_kernel_of_invertible_is_empty():
    m = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    assert det_cofactor(m) != 0
    k = kernel_basis(m)
    assert (k.rows, k.cols) == (2, 0)


def test_kernel_of_zero_is_identity():
    k = kernel_basis(Matrix.zeros(F5, 3, 3))
    assert k == Matrix.identity(F5, 3)


def test_kernel_f2_by_enumeration():
    m = Matrix.from_rows(F2, [[1, 1]])
    members = [v for v in all_f2_vectors(2) if mat_mul(m, v).is_zero()]
    nonzero = [v for v in members if not v.is_zero()]
    assert len(nonzero) == 1
    assert rows_of(nonzero[0]) == [[1], [1]]
    k = kernel_basis(m)
    assert k.cols == 1
    assert rows_of(k) == [[1], [1]]


@pytest.mark.parametrize("field", [F2, F5, Q])
def test_rank_nullity(field):
    rng = random.Random(41)
    for _ in range(500):
        m = random_matrix(rng, field, rng.randint(0, 6), rng.randint(0, 6))
        assert rank(m) + kernel_basis(m).cols == m.cols


@pytest.mark.parametrize("field", [F2, F5, Q])
def test_kernel_columns_are_in_kernel_and_independent(field):
    rng = random.Random(43)
    for _ in range(100):
        m = random_matrix(rng, field, rng.randint(0, 5), rng.randint(0, 5))
        k = kernel_basis(m)
        prod = mat_mul(m, k)
        assert prod.is_zero()
        assert rank(k) == k.cols


# block_diag and assembly


def test_block_diag_identities():
    assert block_diag(Matrix.identity(F5, 1), Matrix.identity(F5, 2)) == Matrix.identity(F5, 3)


def test_block_diag_empty_summand():
    m = Matrix.from_rows(F5, [[1, 2]])
    assert block_diag(Matrix.zeros(F5, 0, 0), m) == m


def test_block_diag_instance():
    got = block_diag(Matrix.from_rows(F5, [[2]]), Matrix.from_rows(F5, [[3]]))
    assert rows_of(got) == [[2, 0], [0, 3]]


def test_empty_matrix_operations():
    e = Matrix.zeros(F5, 0, 3)
    assert mat_mul(e, Matrix.zeros(F5, 3, 2)) == Matrix.zeros(F5, 0, 2)
    assert rank(e) == 0
    assert kernel_basis(e) == Matrix.identity(F5, 3)
    assert rref(e).pivots == ()
    t = transpose(e)
    assert (t.rows, t.cols) == (3, 0)


def test_entries_are_canonical_prime_representatives():
    m = Matrix.from_rows(F5, [[7, -1], [10, -6]])
    assert rows_of(m) == [[2, 4], [0, 4]]


def test_prime_matrix_refuses_non_canonical_entries():
    # the packed kernels assume entries in [0, p): with 255 over F_2 the
    # product overflowed its slots
    with pytest.raises(ValueError, match=r"entry 255 is not an integer in \[0, 2\)"):
        mat_mul(Matrix(1, 2, (255, 255), F2), Matrix(2, 2, (255,) * 4, F2))
    for bad in (-1, 5, True, 2.0, Fraction(1), "1"):
        with pytest.raises(ValueError):
            Matrix(1, 2, (0, bad), F5)
    # the entry is quoted clipped, as every message quotes a value
    with pytest.raises(ValueError, match=r"entry 1{57}\.\.\. is not"):
        Matrix(1, 1, (int("1" * 100),), F5)


def test_prime_matrix_refuses_entries_that_would_carry():
    # with 17 over F_3 left unreduced, a carry into the neighbouring slot
    # gave (0, 2) where (2, 0) is right
    f3 = FieldSpec.prime(3)
    with pytest.raises(ValueError):
        Matrix(1, 2, (17, 17), f3)
    a = Matrix.from_rows(f3, [[17, 17]])
    b = Matrix.from_rows(f3, [[17, 0], [17, 0]])
    assert mat_mul(a, b).entries == (2, 0)


def test_rational_matrix_refuses_a_bool_entry():
    # True was kept as the entry and compared equal to the identity
    with pytest.raises(ValueError, match=r"entry True is not a Fraction"):
        Matrix(1, 1, (True,), Q)


def test_rational_matrix_refuses_a_float_entry():
    # 0.5 was kept, and the first hash raised AttributeError
    with pytest.raises(ValueError, match=r"entry 0\.5 is not a Fraction"):
        hash(Matrix(1, 1, (0.5,), Q))
    for bad in (1, "1/2", None):
        with pytest.raises(ValueError):
            Matrix(1, 2, (Fraction(0), bad), Q)
    assert Matrix(1, 1, (Fraction(1, 2),), Q) == Matrix.from_rows(Q, [[Fraction(1, 2)]])


def test_rational_entries_reduced():
    m = Matrix.from_rows(Q, [[Fraction(2, 4)]])
    assert m[0, 0] == Fraction(1, 2)
    assert m[0, 0].denominator == 2


# the cached integer form: product kernel, equality, hashing


def _scalars(field):
    if field.kind == "prime":
        return st.one_of(st.just(0), st.integers(0, field.p - 1))
    huge = st.integers(2**64, 2**90)
    return st.one_of(
        st.integers(-3, 3).map(Fraction),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
        # numerators and denominators past 2^64
        st.builds(Fraction, st.one_of(huge, huge.map(lambda x: -x)), st.one_of(st.integers(1, 9), huge)),
    )


def _matrices(field, rows, cols, cell=None):
    if cell is None:
        cell = _scalars(field)
    flat = st.lists(cell, min_size=rows * cols, max_size=rows * cols)
    return flat.map(lambda xs: Matrix(rows, cols, tuple(xs), field))


_FIELDS = [F2, F5, F_BIG, Q]
_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@pytest.mark.parametrize("field", _FIELDS, ids=str)
@_SETTINGS
@given(data=st.data())
def test_matmul_matches_naive_loop(field, data):
    m, k, n = data.draw(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)))
    a = data.draw(_matrices(field, m, k))
    b = data.draw(_matrices(field, k, n))
    got, want = mat_mul(a, b), naive_matmul(a, b)
    assert (got.rows, got.cols) == (m, n)
    assert got.entries == want.entries
    if field.kind == "prime":
        assert all(type(x) is int and 0 <= x < field.p for x in got.entries)
    else:
        assert all(type(x) is Fraction for x in got.entries)


@pytest.mark.parametrize("field", _FIELDS, ids=str)
@_SETTINGS
@given(data=st.data())
def test_equality_and_hash_agree_with_entrywise_equality(field, data):
    # a small alphabet and a few shapes make equal pairs common
    values = [0, 1, 2] + ([Fraction(1, 2), Fraction(1, 3)] if field.kind == "rational" else [])
    cell = st.sampled_from([field.coerce(x) for x in values])
    shapes = st.sampled_from([(0, 0), (0, 2), (2, 0), (1, 2), (2, 1), (2, 2)])
    a = data.draw(shapes.flatmap(lambda s: _matrices(field, *s, cell)))
    if data.draw(st.booleans()):
        b = Matrix(a.rows, a.cols, tuple(a.entries), field)  # a fresh equal copy
    else:
        b = data.draw(shapes.flatmap(lambda s: _matrices(field, *s, cell)))
    same = (a.rows, a.cols) == (b.rows, b.cols) and a.entries == b.entries
    assert (a == b) is same
    assert (a != b) is not same
    if same:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@pytest.mark.parametrize(
    "grid",
    [[[None, None], ["m", "m"]], [["m", None], ["m", None]], [[None]]],
    ids=["row", "column", "lone"],
)
def test_block_row_or_column_of_only_none_has_no_size(grid):
    m = Matrix.identity(F5, 2)
    with pytest.raises(ShapeMismatchError, match="all None"):
        block(F5, [[None if x is None else m for x in row] for row in grid])


# every matrix operation against its per-scalar reference


def _assert_matches(got, rows, cols, want):
    """``got`` is the rows x cols matrix of the canonical scalars ``want``,
    with the integer form and hash of a matrix built from them directly."""
    field = got.field
    ref = Matrix(rows, cols, tuple(want), field)
    assert (got.rows, got.cols) == (rows, cols)
    # the form, hash and zero test first, before any entry of got is read
    assert got.int_form() == ref.int_form()
    assert hash(got) == hash(ref) and got == ref
    assert got.is_zero() is ref.is_zero()
    assert got.entries == ref.entries
    if field.kind == "prime":
        assert all(type(x) is int and 0 <= x < field.p for x in got.entries)
    else:
        assert all(type(x) is Fraction for x in got.entries)


def _operands(field, rows, cols):
    """A matrix of random scalars, half the time passed through two
    transposes so that over Q it holds only its integer form."""
    return st.tuples(_matrices(field, rows, cols), st.booleans()).map(
        lambda mb: transpose(transpose(mb[0])) if mb[1] else mb[0]
    )


def _cells(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def _draw_op(field, op, data):
    """Run ``op`` on drawn operands; return (result, rows, cols, reference entries)."""
    dim = st.integers(0, 4)
    if op == "zeros":
        r, c = data.draw(dim), data.draw(dim)
        return Matrix.zeros(field, r, c), r, c, [field.zero()] * (r * c)
    if op == "identity":
        n = data.draw(dim)
        return Matrix.identity(field, n), n, n, [field.one() if i == j else field.zero()
                                                 for i in range(n) for j in range(n)]
    if op == "block":
        hs, ws = data.draw(st.tuples(dim, dim)), data.draw(st.tuples(dim, dim))
        # the blocks off one diagonal may be None, so every grid row and
        # column keeps a real block
        real = data.draw(st.sampled_from([{(0, 0), (1, 1)}, {(0, 1), (1, 0)}]))
        grid = [[data.draw(_operands(field, h, w)) if (r, c) in real or data.draw(st.booleans()) else None
                 for c, w in enumerate(ws)] for r, h in enumerate(hs)]
        got = block(field, grid)
        want = [x for row, h in zip(grid, hs) for i in range(h) for m, w in zip(row, ws)
                for x in ([field.zero()] * w if m is None else _cells(m)[i])]
        return got, sum(hs), sum(ws), want
    if op == "mat_mul":
        m, k, n = data.draw(st.tuples(dim, dim, dim))
        a, b = data.draw(_operands(field, m, k)), data.draw(_operands(field, k, n))
        return mat_mul(a, b), m, n, naive_matmul(a, b).entries
    r, c = data.draw(dim), data.draw(dim)
    a = data.draw(_operands(field, r, c))
    if op in ("mat_add", "mat_sub"):
        b = data.draw(_operands(field, r, c))
        if data.draw(st.booleans()):
            # b chosen so the result is a fresh small matrix: over Q a sum
            # of operands past the denominator bound may come back under it
            small = data.draw(_matrices(field, r, c, st.integers(-3, 3).map(field.coerce)))
            flat = [field.coerce(s - x) if op == "mat_add" else field.coerce(x - s)
                    for x, s in zip(a.entries, small.entries)]
            b = Matrix(r, c, tuple(flat), field)
        sign = 1 if op == "mat_add" else -1
        want = [field.coerce(x + sign * y) for x, y in zip(a.entries, b.entries)]
        return (mat_add if op == "mat_add" else mat_sub)(a, b), r, c, want
    if op == "mat_neg":
        return mat_neg(a), r, c, [field.coerce(-x) for x in a.entries]
    if op == "mat_scale":
        k = data.draw(st.one_of(st.integers(-9, 9), _scalars(field)))
        return mat_scale(k, a), r, c, [field.coerce(field.coerce(k) * x) for x in a.entries]
    if op == "transpose":
        return transpose(a), c, r, [x for j in range(c) for x in (row[j] for row in _cells(a))]
    size = r if op == "take_rows" else c
    which = data.draw(st.lists(st.integers(0, size - 1), max_size=5)) if size else []
    if op == "take_rows":
        return a.take_rows(which), len(which), c, [x for i in which for x in _cells(a)[i]]
    return a.take_columns(which), r, len(which), [row[j] for row in _cells(a) for j in which]


_OPS = ["mat_mul", "mat_add", "mat_sub", "mat_neg", "mat_scale", "transpose", "block",
        "take_rows", "take_columns", "zeros", "identity"]


@pytest.mark.parametrize("op", _OPS)
@pytest.mark.parametrize("field", _FIELDS, ids=str)
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_operations_match_per_scalar_reference(field, op, data):
    _assert_matches(*_draw_op(field, op, data))


# the packed F_p kernels against the per-scalar references, at every slot
# width: products of inner dimension 1..6 take slots of 1 (p = 2, 3), 2
# (17), 3 (257), 4 (4099), 5 (65537), and 8 or 9 bytes (2^31 - 1)

_PACKED_PRIMES = [2, 3, 17, 257, 4099, 65537, 2**31 - 1]


def _full_slots(p):
    """Scalars biased toward 0 and p - 1, the value that fills a slot most."""
    return st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))


def _assert_rref_matches(m):
    red, pivots = rref(m)
    want, want_pivots = naive_rref(m)
    assert pivots == want_pivots
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert red.entries == want.entries
    assert all(type(x) is int for x in red.entries)
    return pivots


@pytest.mark.parametrize("p", _PACKED_PRIMES)
@_SETTINGS
@given(data=st.data())
def test_packed_kernels_match_per_scalar_references(p, data):
    field = FieldSpec.prime(p)
    m, k, n = data.draw(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)))
    a = data.draw(_matrices(field, m, k, _full_slots(p)))
    b = data.draw(_matrices(field, k, n, _full_slots(p)))
    product = mat_mul(a, b)
    assert product.entries == naive_matmul(a, b).entries
    assert all(type(x) is int for x in product.entries)
    # a, b and a product of rank at most k, in tall, wide and empty shapes
    for x in (a, b, product):
        _assert_rref_matches(x)


# the fraction-free Q kernels against scalar Fraction Gauss-Jordan

# Mersenne primes: two distinct ones have an lcm past the 128-bit bound
_BIG_DENOMINATORS = [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1]


def _q_cells():
    return st.one_of(
        st.just(Fraction(0)),
        st.integers(-3, 3).map(Fraction),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_BIG_DENOMINATORS)),
    )


@st.composite
def _q_rref_inputs(draw):
    """A Q matrix of 0..7 rows and columns: plain, held as a product A B
    of inner dimension below both sides (so of deficient rank, and as its
    form only), or with two entries whose denominators force D = 0;
    negated half the time, so the first pivot is often negative."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["plain", "product", "no common denominator"]))
    if kind == "product":
        k = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        m = mat_mul(draw(_matrices(Q, rows, k, _q_cells())), draw(_matrices(Q, k, cols, _q_cells())))
    else:
        flat = draw(st.lists(_q_cells(), min_size=rows * cols, max_size=rows * cols))
        if kind == "no common denominator" and len(flat) >= 2:
            flat[0] += Fraction(1, 2**61 - 1)
            flat[-1] += Fraction(-1, 2**89 - 1)
        m = Matrix(rows, cols, tuple(flat), Q)
    return mat_neg(m) if draw(st.booleans()) else m


def naive_kernel(red, pivots):
    """The canonical null space basis read off a reduced form, per scalar."""
    free = [j for j in range(red.cols) if j not in pivots]
    cols = [[Fraction(int(i == j)) for i in range(red.cols)] for j in free]
    for col, j in zip(cols, free):
        for r, pc in enumerate(pivots):
            col[pc] = -red[r, j]
    return Matrix(red.cols, len(free), tuple(col[i] for i in range(red.cols) for col in cols), Q)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(m=_q_rref_inputs())
# a D = 0 input whose first pivot is negative
@example(m=Matrix.from_rows(Q, [[Fraction(-1, 2**61 - 1), 2, 1], [Fraction(1, 2**89 - 1), 0, Fraction(1, 3)]]))
def test_rational_rref_is_bit_identical_to_scalar_gauss_jordan(m):
    want, want_pivots = naive_rref(m)
    red, pivots = rref(m)
    assert pivots == want_pivots
    assert (red.rows, red.cols) == (m.rows, m.cols)
    # the form first, before any entry of red is read
    assert red.int_form() == want.int_form()
    assert red.entries == want.entries
    assert all(type(x) is Fraction for x in red.entries)
    kernel, want_kernel = kernel_basis(m), naive_kernel(want, want_pivots)
    assert (kernel.rows, kernel.cols) == (want_kernel.rows, want_kernel.cols)
    assert kernel.int_form() == want_kernel.int_form()
    assert kernel.entries == want_kernel.entries
    assert all(type(x) is Fraction for x in kernel.entries)
    assert rank(m) == len(pivots)


def _counting_rref(monkeypatch, *modules):
    """Count the calls of rref made through ``modules``."""
    calls = []
    real = matrices.rref
    for module in modules:
        monkeypatch.setattr(module, "rref", lambda m: calls.append(m) or real(m))
    return calls


@pytest.mark.parametrize("field, d0", [(F5, False), (Q, False), (Q, True), (F_BIG, False)],
                         ids=["F5", "Q", "Q-D=0", "F_2^31-1"])
def test_rank_is_memoised_on_the_matrix(monkeypatch, field, d0):
    # a 3 x 4 matrix of rank 2: its last row is the sum of the others
    top = [[Fraction(1, 2), 1, 0, 3], [0, Fraction(2, 3), 1, 1]] if field is Q else [[1, 2, 0, 3], [0, 1, 1, 4]]
    if d0:
        top[0][0] += Fraction(1, 2**61 - 1)
        top[1][3] += Fraction(-1, 2**89 - 1)
    m = Matrix.from_rows(field, top + [[x + y for x, y in zip(*top)]])
    assert (m.int_form()[0] == 0) == d0
    calls = _counting_rref(monkeypatch, matrices)
    # built through __init__, the memo slot starts as None instead of unset
    fresh = Matrix(m.rows, m.cols, m.entries, field)
    assert rank(m) == rank(m) == rank(fresh) == rank(fresh) == len(naive_rref(m)[1]) == 2
    assert calls == [m, fresh]
    copy = pickle.loads(pickle.dumps(m))
    assert rank(copy) == len(naive_rref(copy)[1]) == 2


def test_les_check_ranks_a_cached_induced_map_once(monkeypatch):
    rng = random.Random(12)  # four of its induced maps have nonzero rank
    f = random_chain_map(rng, random_complex(rng, F5), random_complex(rng, F5))
    assert check_les_exact(cone_triangle(f))
    calls = _counting_rref(monkeypatch, matrices, complexes)
    assert check_les_exact(cone_triangle(f))
    assert calls == []


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_matmul_slot_widens_past_eight_bytes_at_large_prime(k):
    # every product is (p-1)^2: k of them fill 8 bytes up to k = 4 and
    # need 9 from k = 5 on
    p = 2**31 - 1
    field = FieldSpec.prime(p)
    a = Matrix(2, k, (p - 1,) * (2 * k), field)
    b = Matrix(k, 3, (p - 1,) * (3 * k), field)
    got = mat_mul(a, b)
    assert got.entries == (k,) * 6 == naive_matmul(a, b).entries


@pytest.mark.parametrize("p", _PACKED_PRIMES)
@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (6, 6), (3, 7), (5, 6)])
def test_rref_of_full_rank_square_and_wide_matrices(p, shape):
    # L U with L unit lower triangular and U upper trapezoidal, both p - 1
    # off (and for U on) the diagonal: dense, and of rank min(rows, cols)
    rows, cols = shape
    field = FieldSpec.prime(p)
    lower = Matrix.from_rows(field, [[1 if i == j else (p - 1 if j < i else 0) for j in range(rows)]
                                     for i in range(rows)])
    upper = Matrix.from_rows(field, [[p - 1 if j >= i else 0 for j in range(cols)] for i in range(rows)])
    m = naive_matmul(lower, upper)
    assert _assert_rref_matches(m) == tuple(range(min(rows, cols)))


def test_rref_slot_holds_one_update_per_pivot():
    # over F_2 the last row (all ones) absorbs a 1 in its last slot from
    # each of the 255 pivots on top of its own 1: the slot reaches 256,
    # one past a byte, so the slots must be sized for min(rows, cols) pivots
    n = 255
    rows = [[1 if j in (i, n - 1) else 0 for j in range(n)] for i in range(n - 1)]
    rows += [[1 if j == n - 1 else 0 for j in range(n)], [1] * n]
    red, pivots = rref(Matrix.from_rows(F2, rows))
    assert pivots == tuple(range(n))
    assert red == block(F2, [[Matrix.identity(F2, n)], [Matrix.zeros(F2, 1, n)]])


# 1-byte slots at their edge: over F_5 a byte holds p-1 + 15 (p-1)^2 = 244
# for a reduction with min(rows, cols) = 15 and 15 (p-1)^2 = 240 for a
# product of inner dimension 15, but not 16 of them; over F_13 it holds
# one (p-1)^2 on top of p-1 (156) but not 2
@pytest.mark.parametrize("p, k", [(5, 15), (5, 16), (13, 1), (13, 2)])
def test_one_byte_slots_at_their_edge(p, k):
    field = FieldSpec.prime(p)
    rng = random.Random(100 * p + k)
    full = Matrix(k, k + 2, (p - 1,) * (k * (k + 2)), field)
    # full rank, so each of the k pivots adds to every other row
    lower = Matrix.from_rows(field, [[1 if i == j else (p - 1 if j < i else 0) for j in range(k)]
                                     for i in range(k)])
    upper = Matrix.from_rows(field, [[p - 1 if j >= i else 0 for j in range(k + 2)] for i in range(k)])
    for m in (full, naive_matmul(lower, upper), random_matrix(rng, field, k + 3, k)):
        _assert_rref_matches(m)
        _assert_rref_matches(transpose(m))
    for a, b in [(full, transpose(full)), (transpose(full), Matrix(k, 3, (p - 1,) * (3 * k), field)),
                 (random_matrix(rng, field, 4, k), random_matrix(rng, field, k, 5))]:
        assert mat_mul(a, b).entries == naive_matmul(a, b).entries
    assert all(q <= 13 for q, _ in getattr(matrices, "_BYTE_TABLES", {}))


def test_empty_shapes_keep_large_primes_off_the_byte_tables():
    # an empty inner dimension or side gives 1-byte slots at any p; the
    # kernels' byte tables (if any) still serve only p <= 13
    for p in _PACKED_PRIMES + [5, 13]:
        field = FieldSpec.prime(p)
        assert mat_mul(Matrix.zeros(field, 3, 0), Matrix.zeros(field, 0, 4)) == Matrix.zeros(field, 3, 4)
        for shape in [(0, 3), (3, 0)]:
            _assert_rref_matches(Matrix.zeros(field, *shape))
        m = Matrix.from_rows(field, [[p - 1, 1], [1, p - 1]])
        _assert_rref_matches(m)
        assert mat_mul(m, m) == naive_matmul(m, m)
    tables = getattr(matrices, "_BYTE_TABLES", {})
    assert all(q <= 13 for q, _ in tables)
    assert len(tables) <= 35


def test_prime_entries_stay_a_plain_slot():
    # only a Q matrix built from its form leaves the slot unset
    assert isinstance(inspect.getattr_static(Matrix, "entries"), types.MemberDescriptorType)
    m = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    for got in (mat_add(m, m), transpose(m), m.take_rows([1]), Matrix.zeros(F5, 2, 2)):
        Matrix.entries.__get__(got)  # set at construction: no AttributeError


def test_rational_results_cross_the_denominator_bound_both_ways():
    m61, m89 = 2**61 - 1, 2**89 - 1  # primes: every lcm of them is their product
    low = Matrix.from_rows(Q, [[Fraction(1, m61), 2], [0, Fraction(3, m61)]])
    high = Matrix.from_rows(Q, [[Fraction(1, m89), 0], [1, Fraction(-1, m89)]])
    assert (low.int_form()[0], high.int_form()[0]) == (m61, m89)
    both = mat_add(low, high)  # D = m61 m89 has 150 bits
    _assert_matches(both, 2, 2, [x + y for x, y in zip(low.entries, high.entries)])
    assert both.int_form()[0] == 0
    back = mat_sub(both, high)
    _assert_matches(back, 2, 2, low.entries)
    assert back.int_form()[0] == m61
    scaled = mat_scale(Fraction(1, m89), low)
    _assert_matches(scaled, 2, 2, [x / m89 for x in low.entries])
    assert scaled.int_form()[0] == 0
    for a, b in [(low, high), (both, low), (low, both), (both, both)]:
        _assert_matches(mat_mul(a, b), 2, 2, naive_matmul(a, b).entries)
    clear = Matrix.from_rows(Q, [[m61 * m89, 0], [0, m61 * m89]])
    down = mat_mul(both, clear)
    _assert_matches(down, 2, 2, naive_matmul(both, clear).entries)
    assert down.int_form()[0] == 1
    wide = block(Q, [[low, high]])
    _assert_matches(wide, 2, 4, [*low.row(0), *high.row(0), *low.row(1), *high.row(1)])
    assert wide.int_form()[0] == 0
    # None blocks beside a D = 0 block and under a 0-row block
    zero = Fraction(0)
    tall = block(Q, [[Matrix.zeros(Q, 0, 2), None], [both, None], [None, low]])
    _assert_matches(tall, 4, 4, [*both.row(0), zero, zero, *both.row(1), zero, zero,
                                 zero, zero, *low.row(0), zero, zero, *low.row(1)])
    assert tall.int_form()[0] == 0
    _assert_matches(wide.take_columns([0, 1]), 2, 2, low.entries)
    assert wide.take_columns([0, 1]).int_form()[0] == m61

def test_rational_form_keeps_fractions_past_a_large_common_denominator():
    # 7 (2^61 - 1)(2^89 - 1) has 153 bits: too large to scale every entry by
    rows = [[Fraction(1, 2**61 - 1), Fraction(-1, 2**89 - 1)], [3, Fraction(5, 7)]]
    big = Matrix.from_rows(Q, rows)
    small = Matrix.from_rows(Q, [[Fraction(1, 2), 0], [2, Fraction(-1, 3)]])
    den, ints = big.int_form()
    assert den == 0 and len(ints) == 2 * len(big.entries)
    assert small.int_form()[0] == 6
    for a, b in [(big, small), (small, big), (big, big)]:
        assert mat_mul(a, b).entries == naive_matmul(a, b).entries
    copy = Matrix.from_rows(Q, rows)
    assert copy == big and hash(copy) == hash(big)
    assert big != Matrix.from_rows(Q, [rows[0], [3, Fraction(5, 11)]])


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_prime_matrix_never_equals_rational_matrix_with_same_integers(p):
    fp = FieldSpec.prime(p)
    for rows in ([[0, 1], [1, 0]], [[0]], [[1, p - 1]]):
        a, b = Matrix.from_rows(fp, rows), Matrix.from_rows(Q, rows)
        assert a.int_form() == b.int_form()
        assert a != b and b != a
        assert len({a, b}) == 2
    assert Matrix.zeros(fp, 0, 3) != Matrix.zeros(Q, 0, 3)


def test_pickled_hash_matches_a_fresh_matrix_under_another_hash_seed():
    build = textwrap.dedent(
        """
        from fractions import Fraction
        from homcat import FieldSpec, Matrix, mat_mul
        mats = [
            Matrix.from_rows(FieldSpec.rational(), [[Fraction(1, 3), Fraction(-5, 2**70)], [2**80, 0]]),
            Matrix.from_rows(FieldSpec.prime(2**31 - 1), [[1, 2, 3]]),
            Matrix.zeros(FieldSpec.prime(5), 0, 2),
            # held as its integer form only, entries never read before pickling
            mat_mul(
                Matrix.from_rows(FieldSpec.rational(), [[Fraction(1, 3), 2], [Fraction(-5, 7), 1]]),
                Matrix.from_rows(FieldSpec.rational(), [[Fraction(3, 2), 0], [1, Fraction(2, 9)]]),
            ),
        ]
        """
    )
    write = build + textwrap.dedent(
        """
        import pickle, sys
        for m in mats:
            hash(m)  # fill the cache, so the pickle carries it
        try:
            Matrix.entries.__get__(mats[-1])
        except AttributeError:
            pass
        else:
            raise SystemExit("the product built its entries before pickling")
        sys.stdout.buffer.write(pickle.dumps(mats))
        """
    )
    read = build + textwrap.dedent(
        """
        import pickle, sys
        loaded = pickle.loads(sys.stdin.buffer.read())
        for old, new in zip(loaded, mats, strict=True):
            assert old._hash is not None, "the pickle dropped the cached hash"
            assert hash(old) == hash(new) and old == new
            assert old.entries == new.entries and old.int_form() == new.int_form()
            assert {old: "found"}[new] == "found" and {new: "found"}[old] == "found"
        print(hash("prime"))
        """
    )

    def child(code, seed, stdin=None):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, input=stdin, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    blob = child(write, "1")
    salt = child(read, "2", blob)
    assert int(salt) != int(child('print(hash("prime"))', "1"))  # the seeds really salt str hashes
