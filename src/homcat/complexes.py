"""Bounded cochain complexes and their cohomology.

A complex stores a support window [lo, hi], the dimension of each degree
inside it, and the differentials d^i: degree i -> degree i+1 as matrices
of shape dims[i+1] x dims[i].  Degrees outside the window are zero.  The
window is part of the data: two complexes are equal only if windows,
dimensions and differentials all agree exactly.

Shift convention used throughout the package: shifting by n moves degree
i+n to degree i and scales every differential by (-1)^n.

The direct sum, the mapping cone and the flipped cospan are twisted
direct sums, all laid out by the one builder ``_twisted_sum`` (hull
window, summed dims, block differential); ``_summand`` gives their
structure maps as signed bands of rows of the identity.

Equal complexes are one object: ``CochainComplex.create`` returns the
complex already built with equal data while any reference to it lives.
Its table holds the complexes weakly, so it shrinks as they die, and a
cache keyed by a complex then finds it by identity.  ``shift`` is cached
too, so a complex and its shift are each built once.

Cohomology at a degree comes with a canonical basis.  The cocycle basis
is the canonical kernel basis of d^i; it is the identity on the free
(non-pivot) rows of d^i, so a cocycle's coordinates are its entries in
those rows.  The coboundary subspace is re-expressed in those
coordinates and row-reduced; the representative cocycles are the kernel
basis columns whose coordinate is not a pivot of that reduced form.
Everything downstream (induced maps, exactness checks, homotopy
witnesses) leans on this choice being deterministic.

Over a field every complex deformation-retracts onto its cohomology.
The cohomology space of each degree carries that retraction: the
inclusion ``incl`` of the representatives, a projection ``proj`` onto
the canonical basis, and a degree -1 homotopy ``htpy`` between their
composite and the identity.
"""

from __future__ import annotations

import weakref
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Optional

from .errors import FieldMismatchError, InvalidComplexError, ShapeMismatchError
from .fields import FieldSpec, _Frozen
from .matrices import (
    Matrix,
    _band,
    _canonical,
    block,
    mat_mul,
    mat_neg,
    rref,
    transpose,
)

__all__ = [
    "CochainComplex",
    "CohomologySpace",
    "ComplexValidation",
    "validate_complex",
    "shift",
    "direct_sum_complex",
    "cohomology",
    "is_acyclic",
]


class CochainComplex(_Frozen):
    """A bounded complex: window [lo, hi], per-degree dims, differentials.

    ``dims[k]`` is the dimension in degree lo+k.  ``diff[k]`` is the
    differential out of degree lo+k, for k up to hi-lo-1; the
    differential out of degree hi lands in the zero space and is not
    stored.  Construct through :meth:`create`.
    """

    # _hash, not compared, is filled on first use; as for Matrix it reads
    # p, never the FieldSpec (whose str hash is salted), so a pickled one
    # stays valid
    _fields = ("field", "lo", "hi", "dims", "diff")

    def __init__(
        self, field: FieldSpec, lo: int, hi: int, dims: tuple[int, ...], diff: tuple[Matrix, ...]
    ) -> None:
        if lo > hi:
            raise ShapeMismatchError(f"window [{lo}, {hi}] is empty")
        if len(dims) != hi - lo + 1:
            raise ShapeMismatchError("dims tuple does not span the window")
        if len(diff) != hi - lo:
            raise ShapeMismatchError("diff tuple does not span the window")
        self._store(field=field, lo=lo, hi=hi, dims=dims, diff=diff, _hash=None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.field.p or 0, self.lo, self.hi, self.dims, self.diff))
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def create(
        cls,
        field: FieldSpec,
        dims: Mapping[int, int],
        diff: Mapping[int, Matrix] | None = None,
        lo: int | None = None,
        hi: int | None = None,
    ) -> "CochainComplex":
        """Normalize sparse degree maps into canonical tuples.

        The window defaults to the hull of all declared degrees (a diff
        at degree i declares both i and i+1).  Omitted dims are zero,
        omitted differentials are zero matrices of the forced shape.
        Returns the live complex with equal data if there is one.
        """
        diff = diff or {}
        degrees = set(dims)
        for i in diff:
            degrees.add(i)
            degrees.add(i + 1)
        if lo is None:
            lo = min(degrees) if degrees else 0
        if hi is None:
            hi = max(degrees) if degrees else 0
        if lo > hi:
            raise ShapeMismatchError(f"window [{lo}, {hi}] is empty")
        for i, n in dims.items():
            if not (lo <= i <= hi):
                raise ShapeMismatchError(f"degree {i} outside window [{lo}, {hi}]")
            if n < 0:
                raise ShapeMismatchError(f"negative dimension {n} in degree {i}")
        dim_tuple = tuple(dims.get(i, 0) for i in range(lo, hi + 1))
        # off [lo, hi) one side of the forced shape is 0, so a leftover
        # that fits carries no entries
        mats = _filled(field, range(lo, hi), lambda i: (dims.get(i + 1, 0), dims.get(i, 0)),
                       diff, "differential")
        key = (field, lo, hi, dim_tuple, mats)
        c = _INTERNED.get(key)
        if c is None:
            c = _INTERNED[key] = cls(*key)
        return c

    @classmethod
    def zero(cls, field: FieldSpec) -> "CochainComplex":
        return cls.create(field, {}, lo=0, hi=0)

    def dim(self, i: int) -> int:
        if self.lo <= i <= self.hi:
            return self.dims[i - self.lo]
        return 0

    def d(self, i: int) -> Matrix:
        """The differential out of degree i, synthesized as zero off-window."""
        if self.lo <= i < self.hi:
            return self.diff[i - self.lo]
        return Matrix.zeros(self.field, self.dim(i + 1), self.dim(i))

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def __repr__(self) -> str:
        spans = ", ".join(f"{i}:{self.dim(i)}" for i in self.degrees())
        return f"CochainComplex([{spans}] over {self.field})"


def _filled(
    field: FieldSpec,
    window: range,
    shape: Callable[[int], tuple[int, int]],
    given: Mapping[int, Matrix],
    noun: str,
) -> tuple[Matrix, ...]:
    """The matrices ``given`` per degree of ``window``, each omitted one
    the zero matrix of shape(i).  Each must be over ``field`` and of
    shape(i); one given outside the window must still be of shape(i)."""
    mats = []
    for i in window:
        rows, cols = shape(i)
        m = given.get(i)
        if m is None:
            m = Matrix.zeros(field, rows, cols)
        if m.field != field:
            raise FieldMismatchError(f"{noun} at degree {i} over {m.field}")
        if (m.rows, m.cols) != (rows, cols):
            raise ShapeMismatchError(f"{noun} at degree {i} has shape {m.rows}x{m.cols}, needs {rows}x{cols}")
        mats.append(m)
    for i, m in given.items():
        if i not in window and (m.rows, m.cols) != shape(i):
            raise ShapeMismatchError(f"{noun} at degree {i} does not fit")
    return tuple(mats)


# every live complex built by create, by its data; the key holds the
# data, not the complex, so the table never keeps a complex alive
_INTERNED: "weakref.WeakValueDictionary[tuple, CochainComplex]" = weakref.WeakValueDictionary()


class ComplexValidation(_Frozen):
    """Outcome of validate_complex; on failure carries the first bad degree."""

    _fields = ("ok", "degree", "product")

    def __init__(self, ok: bool, degree: Optional[int] = None, product: Optional[Matrix] = None) -> None:
        self._store(ok=ok, degree=degree, product=product)


# the bound of each of the five per-value caches (validate_complex,
# cohomology, shift, validate_chain_map, chainmaps._induced_map): several
# times the working set of a small pool of repeated inputs, so that pool
# keeps every hit, while a stream of fresh inputs cannot grow memory
# without end
CACHE_SIZE = 4096


@lru_cache(maxsize=CACHE_SIZE)
def validate_complex(c: CochainComplex) -> ComplexValidation:
    """Check d(d(x)) = 0 in every degree; shapes were enforced at creation."""
    for i in range(c.lo, c.hi - 1):
        prod = mat_mul(c.d(i + 1), c.d(i))
        if not prod.is_zero():
            return ComplexValidation(False, i, prod)
    return ComplexValidation(True)


@lru_cache(maxsize=CACHE_SIZE)
def shift(c: CochainComplex, n: int) -> CochainComplex:
    """Shift by n: degree i of the result is degree i+n of ``c``.

    Differentials pick up the sign (-1)^n.  Cached, so the cone and the
    flip read their negated differentials off one shared shift.
    """
    dims = {i - n: c.dim(i) for i in c.degrees()}
    diff = {}
    for i in range(c.lo, c.hi):
        d = c.diff[i - c.lo]
        diff[i - n] = mat_neg(d) if n % 2 else d
    return CochainComplex.create(c.field, dims, diff, lo=c.lo - n, hi=c.hi - n)


def _twisted_sum(
    parts: tuple[CochainComplex, ...], below: Callable[[int], Mapping[tuple[int, int], Matrix]]
) -> CochainComplex:
    """The twisted direct sum of ``parts`` over the hull of their windows.

    Degree i is the sum of the parts' degree i, in order.  The block
    differential has the parts' differentials on its diagonal and, under
    it, the blocks of the mapping ``below(i)``, keyed (row, column) with
    row > column; every other block is zero.
    """
    lo = min(c.lo for c in parts)
    hi = max(c.hi for c in parts)
    dims = {i: sum(c.dim(i) for c in parts) for i in range(lo, hi + 1)}
    diff = {}
    for i in range(lo, hi):
        under = below(i)
        grid = [[c.d(i) if r == j else under.get((r, j)) for j in range(len(parts))] for r, c in enumerate(parts)]
        diff[i] = block(parts[0].field, grid)
    return CochainComplex.create(parts[0].field, dims, diff, lo=lo, hi=hi)


def _summand(total: CochainComplex, parts: tuple[CochainComplex, ...], k: int, sign: int) -> dict[int, Matrix]:
    """The projection of the twisted sum ``total`` of ``parts`` onto
    ``parts[k]`` times ``sign``, per degree: a band of rows of the identity."""
    comps = {}
    for i in total.degrees():
        start = sum(c.dim(i) for c in parts[:k])
        comps[i] = _band(total.field, total.dim(i), start, start + parts[k].dim(i), sign)
    return comps


def direct_sum_complex(a: CochainComplex, b: CochainComplex) -> CochainComplex:
    """Degreewise direct sum, a-summand first, over the hull window."""
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")
    return _twisted_sum((a, b), lambda i: {})


class CohomologySpace(_Frozen):
    """Canonical presentation of H^degree, with the contraction data there.

    ``cocycle_basis`` has one column per kernel basis vector of d^i.
    ``rep_columns`` lists the cocycle columns chosen as quotient
    representatives, and ``incl`` (dim C^i x dim H^i) holds those columns:
    it sends the canonical basis of H^i to the representative cocycles.
    ``projection`` maps cocycle coordinates onto quotient coordinates; it
    kills the coboundary subspace and is the identity on the
    representative columns.  ``free_rows`` lists the non-pivot columns of
    d^i; the cocycle basis restricted to these rows is the identity, so
    they read off a cocycle's coordinates.
    """

    # incl (the rep_columns of cocycle_basis) and complex are derived, so
    # not compared
    _fields = ("degree", "dim", "cocycle_basis", "rep_columns", "projection", "free_rows")

    def __init__(
        self,
        degree: int,
        dim: int,
        cocycle_basis: Matrix,
        rep_columns: tuple[int, ...],
        projection: Matrix,
        free_rows: tuple[int, ...],
        incl: Matrix,
        complex: CochainComplex,
    ) -> None:
        # not slotted: the two cached_propertys below fill the instance __dict__
        self._store(
            degree=degree, dim=dim, cocycle_basis=cocycle_basis, rep_columns=rep_columns,
            projection=projection, free_rows=free_rows, incl=incl, complex=complex,
        )

    def classes(self, m: Matrix) -> Matrix:
        """The classes of the cocycle columns of m in the canonical basis of H^i."""
        return mat_mul(self.projection, m.take_rows(self.free_rows))

    @cached_property
    def proj(self) -> Matrix:
        """The projection C^i -> H^i (dim H^i x dim C^i): ``classes`` of the identity.

        It is ``projection`` on the free rows of d^i and zero on its pivot
        rows; it kills coboundaries and proj incl = id.
        """
        return self.classes(Matrix.identity(self.complex.field, self.complex.dim(self.degree)))

    @cached_property
    def htpy(self) -> Matrix:
        """The homotopy (dim C^{i-1} x dim C^i), a degree -1 map with

            id - incl^i proj^i = d^{i-1} htpy^i + htpy^{i+1} d^i,

        where htpy^{i+1} belongs to the cohomology at degree i+1.  It is
        read off the basis T = [B | reps | E] of C^i.  B is d^{i-1} at its
        pivot columns, a basis of the coboundaries, and E the unit vectors
        at the pivot columns of d^i.  Row j of T^{-1}, for j below rank
        d^{i-1}, becomes the row of htpy at the j-th pivot column of
        d^{i-1}; all other rows are zero.  On the free rows of d^i, E
        vanishes and reps are unit vectors, so those rows of T^{-1} are
        the inverse of the square block G of d^{i-1} at the free rows that
        are not representative coordinates and at its pivot columns, and
        vanish elsewhere: only G is inverted.
        """
        c, i = self.complex, self.degree
        below = cohomology(c, i - 1)
        reps = set(self.rep_columns)
        rows = [r for j, r in enumerate(self.free_rows) if j not in reps]
        below_free = set(below.free_rows)
        cols = [j for j in range(c.dim(i - 1)) if j not in below_free]
        g = c.d(i - 1).take_rows(rows).take_columns(cols)
        n = len(cols)
        g_inv = rref(block(c.field, [[g, Matrix.identity(c.field, n)]])).matrix.take_columns(range(n, 2 * n))
        # G^{-1} sits at rows ``cols`` and columns ``rows`` of htpy
        width = c.dim(i)
        flat = [c.field.zero()] * (c.dim(i - 1) * width)
        inv = g_inv.entries
        for j, r in enumerate(cols):
            for t, col in enumerate(rows):
                flat[r * width + col] = inv[j * n + t]
        return _canonical(c.dim(i - 1), width, tuple(flat), c.field)


def _require_valid(c: CochainComplex) -> None:
    report = validate_complex(c)
    if not report.ok:
        raise InvalidComplexError(
            f"differential fails d(d(x)) = 0 at degree {report.degree}"
        )


@lru_cache(maxsize=CACHE_SIZE)
def cohomology(c: CochainComplex, i: int) -> CohomologySpace:
    """H^i with the canonical basis data described in the module docstring."""
    _require_valid(c)
    red = rref(c.d(i))
    free = red.free_columns()
    # the cocycle basis is the identity on the free rows, so coboundaries
    # have coordinates d^{i-1} read there; the projection kills their span
    coboundaries = rref(transpose(c.d(i - 1).take_rows(free)))
    reps = coboundaries.free_columns()
    projection = transpose(coboundaries.kernel_basis())
    basis = red.kernel_basis()
    return CohomologySpace(i, len(reps), basis, reps, projection, free, basis.take_columns(reps), c)


def is_acyclic(c: CochainComplex) -> bool:
    return all(cohomology(c, i).dim == 0 for i in c.degrees())
