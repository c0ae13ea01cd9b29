"""Dense exact matrices and the linear algebra the rest of the package runs on.

Storage is row-major in a flat tuple, so Matrix values are immutable and
hashable.  Empty shapes (0 x n, n x 0) are first class.  Reduction is
Gauss-Jordan with deterministic pivoting: leftmost pivot column, first
nonzero row.  Prime-field reductions run on int64 numpy arrays; with
p < 2^31 every intermediate value of an elimination step is below 2^63
in magnitude, so the fast path is still exact integer arithmetic.
Rational reductions run on Fraction entries.

Every matrix has a canonical integer form (D, ints), computed once on
first use: entries == ints / D, where D = 1 with ints = entries over
F_p and D is the least common denominator over Q.  A Q matrix whose D
would pass _DENOMINATOR_BITS keeps D = 0 and the numerators followed by
the denominators instead, so the form never outgrows the entries by
more than that many bits each, however many distinct denominators they
have.  Equality and hashing read the form and never touch a Fraction,
so a cache keyed by a matrix pays for the hash once.  Products multiply
integers and reduce once per output entry (delayed reduction, as in
FFLAS-FFPACK): int64 numpy while n(p-1)^2 < 2^63, else Python integers,
then % p, or one Fraction(x, D_a D_b) per entry over Q; a Q factor
with D = 0 makes the product sum Fractions instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import FieldMismatchError, ShapeMismatchError
from .fields import FieldSpec

__all__ = [
    "Matrix",
    "RrefResult",
    "mat_mul",
    "mat_add",
    "mat_sub",
    "mat_neg",
    "mat_scale",
    "transpose",
    "block",
    "block_diag",
    "rref",
    "rank",
    "kernel_basis",
    "solve_linear",
]

# the bit length of the largest common denominator a Q matrix scales its
# entries by; many distinct denominators would make it grow without bound
_DENOMINATOR_BITS = 128


@dataclass(frozen=True, slots=True)
class Matrix:
    """An exact rows x cols matrix over ``field``, entries flat and row-major."""

    rows: int
    cols: int
    entries: tuple
    field: FieldSpec
    # caches of the integer form and of the hash, filled on first use; the
    # hash covers ints only (never the FieldSpec, whose str hash is salted
    # per process), so a pickled cached hash stays valid
    _form: Optional[tuple] = dataclass_field(default=None, init=False, compare=False, repr=False)
    _hash: Optional[int] = dataclass_field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatchError(f"negative shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatchError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        """Build from nested row lists, coercing every entry to canonical form."""
        nrows = len(rows)
        if nrows == 0:
            if cols is None:
                cols = 0
            return cls(0, cols, (), field)
        ncols = len(rows[0])
        if cols is not None and cols != ncols:
            raise ShapeMismatchError(f"declared {cols} columns, rows have {ncols}")
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatchError("ragged rows")
            flat.extend(field.coerce(x) for x in r)
        return cls(nrows, ncols, tuple(flat), field)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (field.zero(),) * (rows * cols), field)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        flat = [z] * (n * n)
        for i in range(n):
            flat[i * n + i] = o
        return cls(n, n, tuple(flat), field)

    @classmethod
    def build(cls, field: FieldSpec, rows: int, cols: int, fn: Callable[[int, int], object]) -> "Matrix":
        flat = tuple(fn(i, j) for i in range(rows) for j in range(cols))
        return cls(rows, cols, flat, field)

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def take_rows(self, which: Sequence[int]) -> "Matrix":
        flat = tuple(x for i in which for x in self.row(i))
        return Matrix(len(which), self.cols, flat, self.field)

    def take_columns(self, which: Sequence[int]) -> "Matrix":
        flat = tuple(self.entries[i * self.cols + j] for i in range(self.rows) for j in which)
        return Matrix(self.rows, len(which), flat, self.field)

    def int_form(self) -> tuple[int, tuple]:
        """The canonical (D, ints): entries == ints / D, or D = 0; see the module docstring."""
        form = self._form
        if form is None:
            if self.field.kind == "prime":
                form = (1, self.entries)
            else:
                form = _rational_form(self.entries)
            object.__setattr__(self, "_form", form)
        return form

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.int_form() == other.int_form()
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.field.p or 0, self.int_form()))
            object.__setattr__(self, "_hash", h)
        return h

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


def _rational_form(entries: tuple) -> tuple[int, tuple]:
    den = 1
    # lcm is monotone in the set, so stopping early decides the same way
    # as the full lcm, whatever the set's order
    for d in {x.denominator for x in entries}:
        den = lcm(den, d)
        if den.bit_length() > _DENOMINATOR_BITS:
            return (0, tuple(x.numerator for x in entries) + tuple(x.denominator for x in entries))
    return (den, tuple(x.numerator * (den // x.denominator) for x in entries))


class RrefResult(NamedTuple):
    matrix: Matrix
    pivots: tuple[int, ...]

    def free_columns(self) -> tuple[int, ...]:
        """The non-pivot columns, in ascending order."""
        pivot_set = set(self.pivots)
        return tuple(j for j in range(self.matrix.cols) if j not in pivot_set)

    def kernel_basis(self) -> Matrix:
        """Columns form the canonical basis of the right null space.

        One basis vector per free column, in ascending column order: it
        is 1 at its free column and 0 at every other free column.
        """
        red, pivots = self
        f = red.field
        free = self.free_columns()
        flat = [f.zero()] * (red.cols * len(free))
        for t, j in enumerate(free):
            flat[j * len(free) + t] = f.one()
            for r, pc in enumerate(pivots):
                flat[pc * len(free) + t] = f.neg(red[r, j])
        return Matrix(red.cols, len(free), tuple(flat), f)


def _require_same_field(a: Matrix, b: Matrix) -> None:
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")


# -- elementwise and structural operations ---------------------------------


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    _require_same_field(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatchError(f"add {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    f = a.field
    return Matrix(a.rows, a.cols, tuple(f.add(x, y) for x, y in zip(a.entries, b.entries)), f)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    _require_same_field(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatchError(f"sub {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    f = a.field
    return Matrix(a.rows, a.cols, tuple(f.sub(x, y) for x, y in zip(a.entries, b.entries)), f)


def mat_neg(a: Matrix) -> Matrix:
    f = a.field
    return Matrix(a.rows, a.cols, tuple(f.neg(x) for x in a.entries), f)


def mat_scale(c, a: Matrix) -> Matrix:
    f = a.field
    c = f.coerce(c)
    return Matrix(a.rows, a.cols, tuple(f.mul(c, x) for x in a.entries), f)


def transpose(a: Matrix) -> Matrix:
    flat = tuple(a.entries[i * a.cols + j] for j in range(a.cols) for i in range(a.rows))
    return Matrix(a.cols, a.rows, flat, a.field)


def block(field: FieldSpec, grid: Sequence[Sequence[Matrix]]) -> Matrix:
    """Assemble a matrix from a rectangular grid of conforming blocks."""
    if not grid:
        return Matrix.zeros(field, 0, 0)
    heights = [row[0].rows for row in grid]
    widths = [m.cols for m in grid[0]]
    for row in grid:
        if len(row) != len(widths):
            raise ShapeMismatchError("ragged block grid")
        for m, w in zip(row, widths):
            if m.field != field:
                raise FieldMismatchError(f"{m.field} block in {field} assembly")
            if m.cols != w:
                raise ShapeMismatchError("block widths disagree within a column")
        if any(m.rows != row[0].rows for m in row):
            raise ShapeMismatchError("block heights disagree within a row")
    flat: list = []
    for row, h in zip(grid, heights):
        for i in range(h):
            for m in row:
                flat.extend(m.row(i))
    return Matrix(sum(heights), sum(widths), tuple(flat), field)


def hstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise ShapeMismatchError("hstack needs at least one block")
    return block(mats[0].field, [list(mats)])


def vstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise ShapeMismatchError("vstack needs at least one block")
    return block(mats[0].field, [[m] for m in mats])


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    _require_same_field(a, b)
    f = a.field
    return block(
        f,
        [
            [a, Matrix.zeros(f, a.rows, b.cols)],
            [Matrix.zeros(f, b.rows, a.cols), b],
        ],
    )


# -- multiplication ---------------------------------------------------------


def _np_of(m: Matrix) -> np.ndarray:
    return np.array(m.entries, dtype=np.int64).reshape(m.rows, m.cols)


def _of_np(arr: np.ndarray, field: FieldSpec) -> Matrix:
    return Matrix(arr.shape[0], arr.shape[1], tuple(int(x) for x in arr.ravel()), field)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    _require_same_field(a, b)
    if a.cols != b.rows:
        raise ShapeMismatchError(f"mul {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    f = a.field
    p = f.p
    # the int64 dot is exact only while the accumulated sum cannot reach
    # 2^63; otherwise multiply Python integers
    if p is not None and a.cols * (p - 1) * (p - 1) < 2**63:
        return _of_np((_np_of(a) @ _np_of(b)) % p, f)
    da, ai = a.int_form()
    db, bi = b.int_form()
    if not (da and db):  # no small common denominator: sum the Fractions
        da = db = 1
        ai, bi = a.entries, b.entries
    n, m = a.cols, b.cols
    bcols = [bi[j::m] for j in range(m)]
    sums = [sum(map(mul, ai[i * n : (i + 1) * n], col)) for i in range(a.rows) for col in bcols]
    if p is not None:
        return Matrix(a.rows, b.cols, tuple(x % p for x in sums), f)
    den = da * db
    return Matrix(a.rows, b.cols, tuple(Fraction(x, den) for x in sums), f)


# -- reduction and solvers ---------------------------------------------------


def _rref_prime(m: Matrix) -> RrefResult:
    p = m.field.p
    arr = _np_of(m)
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(arr[r:, c])[0]
        if nz.size == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            arr[[r, sel]] = arr[[sel, r]]
        inv = pow(int(arr[r, c]), -1, p)
        arr[r] = (arr[r] * inv) % p
        col = arr[:, c].copy()
        col[r] = 0
        touched = np.nonzero(col)[0]
        if touched.size:
            arr[touched] = (arr[touched] - np.outer(col[touched], arr[r])) % p
        pivots.append(c)
        r += 1
    return RrefResult(_of_np(arr, m.field), tuple(pivots))


def _rref_rational(m: Matrix) -> RrefResult:
    rows = m.to_rows()
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                fac = rows[i][c]
                rows[i] = [x - fac * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    flat = tuple(x for row in rows for x in row)
    return RrefResult(Matrix(nrows, ncols, flat, m.field), tuple(pivots))


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form plus the tuple of pivot column indices."""
    if m.field.kind == "prime":
        return _rref_prime(m)
    return _rref_rational(m)


def rank(m: Matrix) -> int:
    return len(rref(m).pivots)


def kernel_basis(m: Matrix) -> Matrix:
    """The canonical null space basis of ``m``; see RrefResult.kernel_basis."""
    return rref(m).kernel_basis()


def solve_linear(m: Matrix, b: Matrix) -> Optional[Matrix]:
    """A particular solution x of m x = b (free variables zero), or None.

    ``b`` may carry several right-hand sides as columns; unsolvable
    systems are a regular None outcome, not an error.
    """
    _require_same_field(m, b)
    if m.rows != b.rows:
        raise ShapeMismatchError(f"solve {m.rows}x{m.cols} against rhs with {b.rows} rows")
    aug = hstack(m, b)
    red, pivots = rref(aug)
    if pivots and pivots[-1] >= m.cols:
        return None
    f = m.field
    flat = [f.zero()] * (m.cols * b.cols)
    for r, pc in enumerate(pivots):
        for j in range(b.cols):
            flat[pc * b.cols + j] = red[r, m.cols + j]
    return Matrix(m.cols, b.cols, tuple(flat), f)
