"""Dense exact matrices and the linear algebra the rest of the package runs on.

Storage is row-major and flat, so Matrix values are immutable and
hashable.  Empty shapes (0 x n, n x 0) are first class.  Reduction is
Gauss-Jordan with deterministic pivoting: leftmost pivot column, first
nonzero row.  Over F_p a reduction holds each row as one packed Python
integer, one fixed-width slot per column, and adds (p - f) times the
pivot row to a row whose pivot-column slot is f mod p.  Every slot stays
non-negative and grows by at most (p-1)^2 per pivot, so slots sized for
p-1 + min(rows, cols)(p-1)^2 never carry into each other, and one big
integer multiply-add updates a whole row.  Scaling the pivot row by the
inverse of its pivot, and the final reduction mod p, read every slot;
1-byte slots take one bytes.translate of the row's bytes through a
256-byte table of c x mod p, built once per (p, c).  The tables stay
few: a byte holds p-1 + (p-1)^2 only for p <= 13, so at most 35 pairs
(p, c) ever build one.  Over Q a reduction is fraction-free (Bareiss) on
the integer form below: every update is one exact integer division, the
result is the reduced form times the last pivot d, and it is returned as
that form over d, so no Fraction is built.  rank counts the pivots of
rref and is memoised on the matrix, so a cached matrix is ranked once.

Every matrix has a canonical integer form (D, ints): entries == ints / D,
where D = 1 with ints = entries over F_p, and over Q D is the least
common denominator, which makes gcd(D, *ints) == 1.  A Q matrix whose D
would pass _DENOMINATOR_BITS keeps D = 0 and the numerators followed by
the denominators instead, so the form never outgrows the entries by
more than that many bits each, however many distinct denominators they
have.  Equality and hashing read the form and never touch a Fraction
once it is built, so a cache keyed by a matrix pays for the hash once.

Over Q the form is the matrix.  Sums, differences, negation, scaling,
products, transposes, blocks, row and column selections, zeros and
identities compute their result's form from their inputs' forms on
integers alone; so do rref and kernel_basis.  One finisher, _from_ints,
turns such integers over D into the result on both fields: over F_p
(D = 1) it reduces each mod p, over Q it reduces (D, ints) by one gcd
and the result builds its Fraction entries only when they are read: by
indexing, rows and emission.  Only an input with D = 0, or a result
whose reduced D passes the bound, works on Fraction entries.

Products multiply integers and reduce once per output entry (delayed
reduction, as in FFLAS-FFPACK).  Over F_p each row of the right factor
is packed into one integer with slots wide enough for n(p-1)^2
(Kronecker substitution), so a row of the product is one sum of n
integer products, then reduced % p (by byte table, as in a reduction,
when the slots are 1 byte).  Over Q the product takes one gcd for the
whole result.  A Q factor with D = 0 makes the product scale each row of
the left factor and each column of the right factor by its own lcm, and
write one Fraction(x, r_i c_j) per entry.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg, sub
from sys import byteorder
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import FieldMismatchError, ShapeMismatchError, quote
from .fields import FieldSpec, _Frozen

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
]

# the bit length of the largest common denominator a Q matrix scales its
# entries by; many distinct denominators would make it grow without bound
_DENOMINATOR_BITS = 128


class Matrix(_Frozen):
    """An exact rows x cols matrix over ``field``, entries flat and row-major.

    Over F_p every entry must be an int in [0, p): the packed kernels
    rely on it.  Over Q every entry must be a Fraction: the integer form
    reads its numerator and denominator.  Library results are canonical
    by construction and are built through _canonical, which skips these
    checks.
    """

    # _form and _hash cache the integer form and the hash, filled on first
    # use; the hash covers ints only (never the FieldSpec, whose str hash is
    # salted per process), so a pickled cached hash stays valid.  _rank is
    # rank's memo, left unset by _canonical until rank fills it
    __slots__ = ("rows", "cols", "entries", "field", "_form", "_hash", "_rank")

    def __init__(self, rows: int, cols: int, entries: tuple, field: FieldSpec) -> None:
        if rows < 0 or cols < 0:
            raise ShapeMismatchError(f"negative shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeMismatchError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        p = field.p
        if p is not None:
            for x in entries:
                if type(x) is not int or not 0 <= x < p:
                    raise ValueError(f"entry {quote(x)} is not an integer in [0, {p})")
        else:
            for x in entries:
                if type(x) is not Fraction:
                    raise ValueError(f"entry {quote(x)} is not a Fraction")
        self._store(rows=rows, cols=cols, entries=entries, field=field, _form=None, _hash=None, _rank=None)

    def __reduce__(self):
        # the frozen __setattr__ would refuse pickle's default restore of
        # slot state; rebuild through _canonical and carry both caches
        return (_unpickled, (self.rows, self.cols, self.entries, self.field, self._form, self._hash))

    def __getattr__(self, name: str):
        # called only when a slot is unset: a Q matrix built from its form
        # (see _canonical) leaves ``entries`` unset until it is first read
        if name != "entries":
            raise AttributeError(f"'Matrix' object has no attribute {name!r}")
        den, ints = self._form
        entries = tuple(map(Fraction, ints)) if den == 1 else tuple(Fraction(x, den) for x in ints)
        object.__setattr__(self, "entries", entries)
        return entries

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
        return _canonical(nrows, ncols, tuple(flat), field)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return _integral(field, rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return _band(field, n, 0, n, 1)

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
        c = self.cols
        return _relaid(self, len(which), c, [i * c + j for i in which for j in range(c)])

    def take_columns(self, which: Sequence[int]) -> "Matrix":
        c = self.cols
        return _relaid(self, self.rows, len(which), [i * c + j for i in range(self.rows) for j in which])

    def int_form(self) -> tuple[int, tuple]:
        """The canonical (D, ints): entries == ints / D, or D = 0; see the module docstring."""
        form = self._form
        if form is None:
            if self.field.p is not None:
                return (1, self.entries)  # cheaper to build than to store
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
            and (self._form or self.int_form()) == (other._form or other.int_form())
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.field.p or 0, self.int_form()))
            object.__setattr__(self, "_hash", h)
        return h

    def is_zero(self) -> bool:
        # the form where one is at hand, else the entries: neither builds
        # anything (no matrix with D = 0 is zero, and its form says so)
        form = self._form
        return not any(self.entries if form is None else form[1])

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


def _from_ints(field: FieldSpec, rows: int, cols: int, den: int, ints: Iterable[int]) -> Matrix:
    """The matrix ints / den (den > 0) of an arithmetic result.

    Over F_p den is 1 and each integer is reduced mod p.  Over Q one gcd
    reduces (den, ints) and the result is held as its canonical form, its
    entries built on first read; a reduced den past _DENOMINATOR_BITS
    gets Fraction entries instead, and so the D = 0 form, as any such
    matrix does.
    """
    p = field.p
    if p is not None:
        return _canonical(rows, cols, tuple([x % p for x in ints]), field)
    ints = tuple(ints)
    if den != 1:
        g = gcd(den, *ints)
        if g != 1:
            den //= g
            ints = tuple([x // g for x in ints])
        if den.bit_length() > _DENOMINATOR_BITS:
            return _canonical(rows, cols, tuple(Fraction(x, den) for x in ints), field)
    return _canonical(rows, cols, None, field, (den, ints))


def _canonical(rows: int, cols: int, entries: Optional[tuple], field: FieldSpec, form=None) -> Matrix:
    """The matrix of ``entries``, canonical scalars of ``field`` and rows * cols
    many, built without the checks of Matrix.__init__.  A Q matrix may
    give its ``form`` instead; its entries are then built on first read."""
    m = object.__new__(Matrix)
    put = object.__setattr__
    put(m, "rows", rows)
    put(m, "cols", cols)
    if entries is not None:
        put(m, "entries", entries)
    put(m, "field", field)
    put(m, "_form", form)
    put(m, "_hash", None)
    return m


def _unpickled(rows: int, cols: int, entries: tuple, field: FieldSpec, form, h) -> Matrix:
    m = _canonical(rows, cols, entries, field, form)
    object.__setattr__(m, "_hash", h)
    return m


def _integral(field: FieldSpec, rows: int, cols: int, flat: tuple) -> Matrix:
    """The matrix of the canonical integers ``flat``, lazily over Q; over
    F_p nothing is reduced, unlike _from_ints."""
    if rows < 0 or cols < 0:
        raise ShapeMismatchError(f"negative shape {rows}x{cols}")
    if field.kind == "rational":
        return _from_ints(field, rows, cols, 1, flat)
    return _canonical(rows, cols, flat, field)


def _band(field: FieldSpec, n: int, start: int, stop: int, sign: int) -> Matrix:
    """Rows start to stop of the n x n identity times ``sign``: row r holds
    ``sign`` at column start + r and zeros elsewhere."""
    rows = stop - start
    s = sign % field.p if field.p else sign
    flat = [0] * (rows * n)
    for r in range(rows):
        flat[r * n + start + r] = s
    return _integral(field, rows, n, tuple(flat))


def _relaid(a: Matrix, rows: int, cols: int, index: list[int]) -> Matrix:
    """The rows x cols matrix of a's flat values at ``index``; over Q with
    D > 0, of the integers of a's form."""
    if a.field.kind == "rational":
        den, ints = a.int_form()
        if den:
            return _from_ints(a.field, rows, cols, den, map(ints.__getitem__, index))
    return _canonical(rows, cols, tuple(map(a.entries.__getitem__, index)), a.field)


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
        n, cols = len(free), red.cols
        # the basis times D, read off the integers of red's form; a Q
        # form with D = 0 gives way to the Fraction entries over 1
        den, ints = red.int_form()
        values = ints if den else red.entries
        flat = [0] * (cols * n)
        for t, j in enumerate(free):
            flat[j * n + t] = den or 1
            for r, pc in enumerate(pivots):
                flat[pc * n + t] = -values[r * cols + j]
        if den:
            return _from_ints(f, cols, n, den, flat)
        return _canonical(cols, n, tuple(map(Fraction, flat)), f)


def _require_same_field(a: Matrix, b: Matrix) -> None:
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")


# -- elementwise and structural operations ---------------------------------


def _entrywise(op: Callable, a: Matrix, b: Matrix, what: str) -> Matrix:
    _require_same_field(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatchError(f"{what} {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    f = a.field
    da, ai = a.int_form()
    db, bi = b.int_form()
    if not (da and db):
        return _canonical(a.rows, a.cols, tuple(map(op, a.entries, b.entries)), f)
    den = lcm(da, db)
    if den != da:
        ai = [x * (den // da) for x in ai]
    if den != db:
        bi = [x * (den // db) for x in bi]
    return _from_ints(f, a.rows, a.cols, den, map(op, ai, bi))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return _entrywise(add, a, b, "add")


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return _entrywise(sub, a, b, "sub")


def mat_neg(a: Matrix) -> Matrix:
    den, ints = a.int_form()
    if den:
        return _from_ints(a.field, a.rows, a.cols, den, map(neg, ints))
    return _canonical(a.rows, a.cols, tuple(map(neg, a.entries)), a.field)


def mat_scale(c, a: Matrix) -> Matrix:
    f = a.field
    c = f.coerce(c)  # an int over F_p: its denominator is 1
    den, ints = a.int_form()
    if den:
        return _from_ints(f, a.rows, a.cols, den * c.denominator, [c.numerator * x for x in ints])
    return _canonical(a.rows, a.cols, tuple([c * x for x in a.entries]), f)


def transpose(a: Matrix) -> Matrix:
    c = a.cols
    return _relaid(a, c, a.rows, [i * c + j for j in range(c) for i in range(a.rows)])


def block(field: FieldSpec, grid: Sequence[Sequence[Optional[Matrix]]]) -> Matrix:
    """Assemble a matrix from a rectangular grid of conforming blocks.

    A block given as None is zero: its height is that of the other blocks
    in its grid row, its width that of the other blocks in its grid
    column, and no matrix is built for it.  A grid row or column made
    only of None has no size and raises ShapeMismatchError.
    """
    if not grid:
        return Matrix.zeros(field, 0, 0)
    heights: list = [None] * len(grid)
    widths: list = [None] * len(grid[0])
    for r, row in enumerate(grid):
        if len(row) != len(widths):
            raise ShapeMismatchError("ragged block grid")
        for c, m in enumerate(row):
            if m is None:
                continue
            if m.field != field:
                raise FieldMismatchError(f"{m.field} block in {field} assembly")
            if heights[r] is None:
                heights[r] = m.rows
            if widths[c] is None:
                widths[c] = m.cols
            if m.cols != widths[c]:
                raise ShapeMismatchError("block widths disagree within a column")
            if m.rows != heights[r]:
                raise ShapeMismatchError("block heights disagree within a row")
    if None in heights or None in widths:
        raise ShapeMismatchError("a block row or column is all None, so its size is unknown")
    shape = (sum(heights), sum(widths))
    zero = 0
    if field.kind == "rational":
        forms = [[None if m is None else m.int_form() for m in row] for row in grid]
        dens = [form[0] for row in forms for form in row if form is not None]
        if all(dens):
            den = lcm(*dens)
            values = [[None if form is None else form[1] if form[0] == den
                       else [x * (den // form[0]) for x in form[1]] for form in row]
                      for row in forms]
            return _from_ints(field, *shape, den, _assemble(values, heights, widths, 0))
        zero = Fraction(0)
    values = [[None if m is None else m.entries for m in row] for row in grid]
    return _canonical(*shape, _assemble(values, heights, widths, zero), field)


def _assemble(values: list, heights: list[int], widths: list[int], zero) -> tuple:
    """The flat row-major values of a grid of blocks given by their flat
    values, with ``zero`` throughout each block given as None."""
    zeros = [(zero,) * w for w in widths]
    flat: list = []
    for row, h in zip(values, heights):
        for i in range(h):
            for xs, w, z in zip(row, widths, zeros):
                flat.extend(z if xs is None else xs[i * w : (i + 1) * w])
    return tuple(flat)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    return block(a.field, [[a, None], [None, b]])


# -- multiplication ---------------------------------------------------------


# the native unsigned array codes by item size, for packing and unpacking
# slots of 1, 2, 4 or 8 bytes in C; other widths go through bytes slices
_ARRAY_CODE = {array(code).itemsize: code for code in "BHIQ"}


def _slot_bytes(bound: int) -> int:
    """The fewest bytes of a slot that holds every integer in [0, bound]."""
    return max(1, (bound.bit_length() + 7) // 8)


def _pack_rows(flat: Sequence[int], rows: int, cols: int, nb: int) -> list[int]:
    """One integer per row of the row-major ``flat``, column j in the nb-byte
    slot j counted from the low end; every value must fit its slot."""
    code = _ARRAY_CODE.get(nb)
    data = array(code, flat).tobytes() if code else b"".join(x.to_bytes(nb, byteorder) for x in flat)
    step = cols * nb
    return [int.from_bytes(data[i * step : (i + 1) * step], byteorder) for i in range(rows)]


# the byte tables of _times_mod_p by (p, c): byte v maps to c v mod p
_BYTE_TABLES: dict[tuple[int, int], bytes] = {}


def _times_mod_p(packed: Iterable[int], cols: int, nb: int, p: int, c: int = 1) -> Sequence[int]:
    """c times each slot value of the packed rows (see _pack_rows), mod p,
    flat and row-major.

    1-byte slots take one bytes.translate through the table of (p, c),
    and the bytes it returns are also the slots of the reduced rows.  A
    byte holds a product (p-1)^2 only for p <= 13; only an empty shape
    gives a larger p such slots, and it takes the unpacking path with
    every other width, so at most 35 tables are ever built.
    """
    data = b"".join([x.to_bytes(cols * nb, byteorder) for x in packed])
    if nb == 1 and p <= 13:
        table = _BYTE_TABLES.get((p, c))
        if table is None:
            table = _BYTE_TABLES[p, c] = bytes([v * c % p for v in range(256)])
        return data.translate(table)
    code = _ARRAY_CODE.get(nb)
    if code:
        values = memoryview(data).cast(code)
    else:
        values = [int.from_bytes(data[i : i + nb], byteorder) for i in range(0, len(data), nb)]
    return [x % p for x in values] if c == 1 else [c * x % p for x in values]


def _dot(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> list[int]:
    """Every row times every column, row-major: the integer product kernel over Q."""
    return [sum(map(mul, r, c)) for r in rows for c in cols]


def _over_own_lcm(vectors: list[tuple]) -> tuple[list[list[int]], list[int]]:
    """Each vector of Fractions as integers over its own lcm, and the lcms."""
    lcms = [lcm(*(x.denominator for x in v)) for v in vectors]
    return [[x.numerator * (d // x.denominator) for x in v] for v, d in zip(vectors, lcms)], lcms


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    _require_same_field(a, b)
    if a.cols != b.rows:
        raise ShapeMismatchError(f"mul {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    f = a.field
    p = f.p
    n, m = a.cols, b.cols
    if p is not None:
        # a slot of a row of the product sums n products below (p-1)^2
        nb = _slot_bytes(n * (p - 1) * (p - 1))
        packed = _pack_rows(b.entries, n, m, nb)
        av = a.entries
        sums = [sum(map(mul, av[i * n : (i + 1) * n], packed)) for i in range(a.rows)]
        return _canonical(a.rows, m, tuple(_times_mod_p(sums, m, nb, p)), f)
    da, ai = a.int_form()
    db, bi = b.int_form()
    if da and db:
        sums = _dot([ai[i * n : (i + 1) * n] for i in range(a.rows)], [bi[j::m] for j in range(m)])
        return _from_ints(f, a.rows, m, da * db, sums)
    # no small common denominator: scale by the lcm of each row of a and
    # of each column of b instead, so no sum grows past its own terms
    rows, row_lcms = _over_own_lcm([a.row(i) for i in range(a.rows)])
    cols, col_lcms = _over_own_lcm([b.entries[j::m] for j in range(m)])
    dens = [r * c for r in row_lcms for c in col_lcms]
    return _canonical(a.rows, m, tuple(map(Fraction, _dot(rows, cols), dens)), f)


# -- reduction and solvers ---------------------------------------------------


def _rref_prime(m: Matrix) -> RrefResult:
    p = m.field.p
    nrows, ncols = m.rows, m.cols
    # a row starts below p and absorbs at most (p-1)^2 per pivot
    nb = _slot_bytes(p - 1 + min(nrows, ncols) * (p - 1) * (p - 1))
    width = 8 * nb
    mask = (1 << width) - 1
    rows = _pack_rows(m.entries, nrows, ncols, nb)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        shift = c * width
        sel = next((i for i in range(r, nrows) if ((rows[i] >> shift) & mask) % p), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        # the pivot row is 0 mod p left of c: scale the slots from c on
        # below p and leave the ones left of c at 0; a byte table's result
        # is already the scaled row's bytes
        tail = rows[r] >> shift
        scaled = _times_mod_p((tail,), ncols - c, nb, p, pow(tail & mask, -1, p))
        if type(scaled) is bytes:
            tail = int.from_bytes(scaled, byteorder)
        else:
            tail = _pack_rows(scaled, 1, ncols - c, nb)[0]
        pivot_row = rows[r] = tail << shift
        for i in range(nrows):
            if i != r:
                x = ((rows[i] >> shift) & mask) % p
                if x:
                    # p - x, not -x: every slot stays non-negative
                    rows[i] += (p - x) * pivot_row
        pivots.append(c)
        r += 1
    flat = tuple(_times_mod_p(rows, ncols, nb, p))
    return RrefResult(_canonical(nrows, ncols, flat, m.field), tuple(pivots))


def _rref_rational(m: Matrix) -> RrefResult:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of m's integer rows.

    The rows are the form's integers, or for D = 0 each row over its own
    lcm: scaling a row changes neither the reduced form nor the pivots.
    At each pivot pv every row r other than the pivot row y becomes
    (pv r - r[c] y) // prev, prev being the previous pivot, and the
    division is exact (every entry is a minor of the rows), also for rows
    with r[c] = 0, which must be updated for that reason.  Pivoting is
    leftmost column, first nonzero row, as over F_p.  Every pivot entry
    ends as the last pivot d, so the rows are d times the reduced form.
    """
    nrows, ncols = m.rows, m.cols
    den, ints = m.int_form()
    if den:
        rows = [list(ints[i * ncols : (i + 1) * ncols]) for i in range(nrows)]
    else:
        rows = _over_own_lcm([m.row(i) for i in range(nrows)])[0]
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        y = rows[r]
        pv = y[c]
        for i in range(nrows):
            if i != r:
                x = rows[i]
                f = x[c]
                rows[i] = [(pv * a - f * b) // prev for a, b in zip(x, y)]
        prev = pv
        pivots.append(c)
        r += 1
    flat = [x for row in rows for x in row]
    if prev < 0:
        prev, flat = -prev, [-x for x in flat]
    return RrefResult(_from_ints(m.field, nrows, ncols, prev, flat), tuple(pivots))


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form plus the tuple of pivot column indices."""
    if m.field.kind == "prime":
        return _rref_prime(m)
    return _rref_rational(m)


def rank(m: Matrix) -> int:
    """The number of pivots of rref(m), memoised on m: a matrix that is
    read again, as a cached H^i(f) is, is reduced once."""
    r = getattr(m, "_rank", None)
    if r is None:
        r = len(rref(m).pivots)
        object.__setattr__(m, "_rank", r)
    return r


def kernel_basis(m: Matrix) -> Matrix:
    """The canonical null space basis of ``m``; see RrefResult.kernel_basis."""
    return rref(m).kernel_basis()
