"""Chain maps, homotopies between them, and maps induced on cohomology.

A chain map and a homotopy are the same kind of data: a graded map of
degree r from A to B, a family of matrices A^i -> B^{i+r}.  ChainMap is
the degree 0 case and Homotopy the degree -1 case of one frozen type.
It stores one component per degree where both ends can be nonzero, and
every accessor synthesizes the forced zero matrix elsewhere, so values
are canonical and compare by data equality; a map never equals a
homotopy, even with the same data.  As for complexes, ``create`` returns
the live map or homotopy with equal data if there is one, from a table
that holds them weakly.

In the Hom complex Hom(A, B) the differential of a homotopy k is
D(k) = d_B k + k d_A, that is

    D(k)^i = d_B^{i-1} k^i + k^{i+1} d_A^i,

and k witnesses f ~ g exactly when g = f + D(k).  perturb_by_homotopy
computes f + D(k), and check_homotopy compares it with g.

Over a field, g - f is null-homotopic exactly when it is a chain map
that vanishes on cohomology.  find_homotopy decides that and builds a
witness in closed form from the contraction data (incl, proj, htpy) that
the cohomology of both complexes carries (see complexes.CohomologySpace),
degree by degree, with no linear system to solve.

Every reader of H^i(f) (induced_cohomology_map, is_quasi_iso,
find_homotopy's test on cohomology and cones.check_les_exact) gets it
from one primitive, which caches it per map and degree, under the
shared CACHE_SIZE bound and only for maps already validated.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import ClassVar, Mapping, Optional

from .complexes import CACHE_SIZE, CochainComplex, _filled, cohomology, shift
from .errors import FieldMismatchError, InvalidChainMapError, ShapeMismatchError
from .fields import _Frozen
from .matrices import Matrix, mat_add, mat_mul, mat_neg, mat_sub, rank

__all__ = [
    "ChainMap",
    "Homotopy",
    "ChainMapValidation",
    "identity_chain_map",
    "zero_chain_map",
    "zero_homotopy",
    "validate_chain_map",
    "compose_chain_maps",
    "shift_chain_map",
    "negate_chain_map",
    "check_homotopy",
    "find_homotopy",
    "perturb_by_homotopy",
    "induced_cohomology_map",
    "is_quasi_iso",
    "check_homotopy_equivalence",
]


class _GradedMap(_Frozen):
    """A graded map of degree ``degree``: components A^i -> B^{i+degree}.

    One matrix is stored per degree of the storage ``window``, where both
    A^i and B^{i+degree} lie inside their complexes' windows; everywhere
    else the component is the forced zero matrix.
    """

    # not compared: window, the degrees i whose component is stored, and
    # _hash, filled on first use from hashes that are the same in every
    # process, as CochainComplex's and Matrix's are
    _fields = ("source", "target", "components")

    degree: ClassVar[int]
    _noun: ClassVar[str]

    def __init__(
        self, source: CochainComplex, target: CochainComplex, components: tuple[Matrix, ...]
    ) -> None:
        if source.field != target.field:
            raise FieldMismatchError(f"{source.field} vs {target.field}")
        window = self._window(source, target)
        self._store(source=source, target=target, components=components, window=window, _hash=None)

    @classmethod
    def _window(cls, source: CochainComplex, target: CochainComplex) -> range:
        r = cls.degree
        return range(max(source.lo, target.lo - r), min(source.hi, target.hi - r) + 1)

    @classmethod
    def create(
        cls,
        source: CochainComplex,
        target: CochainComplex,
        components: Mapping[int, Matrix] | None = None,
    ):
        """Zero-fill the omitted window degrees and check every component's
        field and shape; returns the live value with equal data if there is one."""
        mats = _filled(source.field, cls._window(source, target),
                       lambda i: (target.dim(i + cls.degree), source.dim(i)), components or {}, cls._noun)
        # the class is part of the key, so a map never becomes a homotopy
        key = (cls, source, target, mats)
        g = _INTERNED.get(key)
        if g is None:
            g = _INTERNED[key] = cls(source, target, mats)
        return g

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.degree, self.source, self.target, self.components))
            object.__setattr__(self, "_hash", h)
        return h

    def component(self, i: int) -> Matrix:
        window = self.window
        if i in window:
            return self.components[i - window.start]
        return Matrix.zeros(self.source.field, self.target.dim(i + self.degree), self.source.dim(i))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.source!r} -> {self.target!r})"


# every live map and homotopy built by create, by its data, held weakly
# as complexes.CochainComplex.create holds complexes
_INTERNED: "weakref.WeakValueDictionary[tuple, _GradedMap]" = weakref.WeakValueDictionary()


class ChainMap(_GradedMap):
    """A degreewise map f: source -> target, components f^i: A^i -> B^i."""

    degree = 0
    _noun = "component"


class Homotopy(_GradedMap):
    """A degree -1 map k: components k^i of shape target.dim(i-1) x source.dim(i)."""

    degree = -1
    _noun = "homotopy component"


def identity_chain_map(c: CochainComplex) -> ChainMap:
    comps = {i: Matrix.identity(c.field, c.dim(i)) for i in c.degrees()}
    return ChainMap.create(c, c, comps)


def zero_chain_map(source: CochainComplex, target: CochainComplex) -> ChainMap:
    return ChainMap.create(source, target, {})


def zero_homotopy(source: CochainComplex, target: CochainComplex) -> Homotopy:
    return Homotopy.create(source, target, {})


class ChainMapValidation(_Frozen):
    """Outcome of validate_chain_map; on failure carries both offending products."""

    _fields = ("ok", "degree", "left", "right")

    def __init__(
        self,
        ok: bool,
        degree: Optional[int] = None,
        left: Optional[Matrix] = None,  # d_target composed with f^i
        right: Optional[Matrix] = None,  # f^{i+1} composed with d_source
    ) -> None:
        self._store(ok=ok, degree=degree, left=left, right=right)


@lru_cache(maxsize=CACHE_SIZE)
def validate_chain_map(f: ChainMap) -> ChainMapValidation:
    """Check d_B f^i = f^{i+1} d_A at every degree of the hull window."""
    s, t = f.source, f.target
    for i in range(min(s.lo, t.lo) - 1, max(s.hi, t.hi) + 1):
        left = mat_mul(t.d(i), f.component(i))
        right = mat_mul(f.component(i + 1), s.d(i))
        if left != right:
            return ChainMapValidation(False, i, left, right)
    return ChainMapValidation(True)


def _require_valid_map(f: ChainMap, what: str) -> None:
    """Raise InvalidChainMapError naming ``what`` unless f commutes with the differentials."""
    report = validate_chain_map(f)
    if not report.ok:
        raise InvalidChainMapError(f"{what} fails to commute at degree {report.degree}")


def compose_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """The composite g∘f of f then g; middle complexes must be equal as data."""
    if f.target != g.source:
        raise ShapeMismatchError("middle objects of the composition differ")
    window = ChainMap._window(f.source, g.target)
    comps = {i: mat_mul(g.component(i), f.component(i)) for i in window}
    return ChainMap.create(f.source, g.target, comps)


def shift_chain_map(f: ChainMap, n: int) -> ChainMap:
    """The shifted map f[n]: component at degree i is f^{i+n}; no extra sign."""
    comps = {i - n: f.component(i) for i in f.window}
    return ChainMap.create(shift(f.source, n), shift(f.target, n), comps)


def negate_chain_map(f: ChainMap) -> ChainMap:
    return ChainMap.create(f.source, f.target, {i: mat_neg(f.component(i)) for i in f.window})


def _require_parallel(f: ChainMap, g: ChainMap) -> None:
    if f.source != g.source or f.target != g.target:
        raise ShapeMismatchError("maps do not share source and target")


def check_homotopy(f: ChainMap, g: ChainMap, k: Homotopy) -> bool:
    """Does k witness g = f + D(k), that is g - f = d k + k d in every degree?"""
    _require_parallel(f, g)
    return perturb_by_homotopy(f, k) == g


def find_homotopy(f: ChainMap, g: ChainMap) -> Optional[Homotopy]:
    """A homotopy witness between f and g, or None if there is none.

    With phi = g - f and (incl, proj, htpy) the contraction data that
    ``cohomology`` gives for the source A and target B, the answer is
    None when phi is not a chain map or when it is nonzero on cohomology
    (H^i(phi) = proj_B phi^i incl_A); otherwise the witness is

        k^i = htpy_B^i phi^i + incl_B^{i-1} proj_B^{i-1} phi^{i-1} htpy_A^i.

    phi is checked with validate_chain_map only when f or g fails it:
    the difference of two chain maps is a chain map by linearity, and
    the checks of f and g are cache hits for maps validated before (as
    parsed maps are), so the usual call validates nothing anew.

    Only the validity of the witness is promised, not which one is
    returned.  Raises InvalidComplexError if either complex fails
    d(d(x)) = 0, and RuntimeError if the witness fails check_homotopy.
    """
    _require_parallel(f, g)
    s, t = f.source, f.target
    degrees = range(min(s.lo, t.lo), max(s.hi, t.hi) + 1)
    # fetching the cohomology first validates both complexes
    ca = {i: cohomology(s, i) for i in degrees}
    cb = {i: cohomology(t, i) for i in degrees}
    phi = ChainMap.create(s, t, {i: mat_sub(g.component(i), f.component(i)) for i in f.window})
    # D(k) = d k + k d is always a chain map, and it is zero on cohomology
    if not (validate_chain_map(f).ok and validate_chain_map(g).ok or validate_chain_map(phi).ok):
        return None
    if any(not _induced_map(phi, i).is_zero() for i in f.window):
        return None
    comps = {}
    for i in Homotopy._window(s, t):
        # proj_B^{i-1} phi^{i-1} htpy_A^i: A^i -> H^{i-1}(B)
        to_cohomology = mat_mul(cb[i - 1].classes(phi.component(i - 1)), ca[i].htpy)
        comps[i] = mat_add(
            mat_mul(cb[i].htpy, phi.component(i)),
            mat_mul(cb[i - 1].incl, to_cohomology),
        )
    witness = Homotopy.create(s, t, comps)
    if not check_homotopy(f, g, witness):
        raise RuntimeError("closed-form witness failed verification")
    return witness


def perturb_by_homotopy(f: ChainMap, k: Homotopy) -> ChainMap:
    """The map f + D(k) = f + d k + k d, homotopic to f by construction."""
    s, t = f.source, f.target
    if k.source != s or k.target != t:
        raise ShapeMismatchError("homotopy does not connect the given complexes")
    comps = {}
    for i in f.window:
        comps[i] = mat_add(
            f.component(i),
            mat_add(
                mat_mul(t.d(i - 1), k.component(i)),
                mat_mul(k.component(i + 1), s.d(i)),
            ),
        )
    return ChainMap.create(s, t, comps)


def induced_cohomology_map(f: ChainMap, i: int) -> Matrix:
    """The matrix of H^i(f) in the canonical cohomology bases.

    Shape is dim H^i(target) x dim H^i(source).  Representative cocycles
    of the source are pushed through f^i, read in the target's cocycle
    coordinates on its free rows, and projected onto the target's
    quotient basis: this is proj_B f^i incl_A of the contraction data.
    """
    _require_valid_map(f, "square")
    return _induced_map(f, i)


@lru_cache(maxsize=CACHE_SIZE)
def _induced_map(f: ChainMap, i: int) -> Matrix:
    """induced_cohomology_map for an f already known to be a chain map.

    H^i(f) is computed once per map and degree: every caller validates f
    first, so only chain maps are cached, and an invalid map raises on
    every call."""
    incl = cohomology(f.source, i).incl
    return cohomology(f.target, i).classes(mat_mul(f.component(i), incl))


def is_quasi_iso(f: ChainMap) -> bool:
    """True when H^i(f) is square and invertible at every degree."""
    _require_valid_map(f, "square")
    lo = min(f.source.lo, f.target.lo)
    hi = max(f.source.hi, f.target.hi)
    for i in range(lo, hi + 1):
        m = _induced_map(f, i)
        if m.rows != m.cols:
            return False
        if rank(m) != m.rows:
            return False
    return True


def check_homotopy_equivalence(f: ChainMap, g: ChainMap, k_target: Homotopy, k_source: Homotopy) -> bool:
    """Do f: A -> B and g: B -> A invert each other up to the given witnesses?

    ``k_target`` must witness f g ~ id on B, ``k_source`` must witness
    g f ~ id on A.
    """
    if f.source != g.target or f.target != g.source:
        raise ShapeMismatchError("maps are not mutually inverse in shape")
    a, b = f.source, f.target
    round_b = compose_chain_maps(g, f)
    round_a = compose_chain_maps(f, g)
    return check_homotopy(round_b, identity_chain_map(b), k_target) and check_homotopy(
        round_a, identity_chain_map(a), k_source
    )
