"""Chain maps, homotopies between them, and maps induced on cohomology.

A chain map f: A -> B stores one component per degree where both
complexes can be nonzero; every accessor synthesizes the forced zero
matrix elsewhere, so values are canonical and compare by data equality.

A homotopy k between maps A -> B drops degree by one: k^i goes from
degree i of A to degree i-1 of B.  The identity it witnesses is

    g^i - f^i = d_B^{i-1} k^i + k^{i+1} d_A^i.

Over a field, g - f is null-homotopic exactly when it is a chain map
that vanishes on cohomology.  find_homotopy decides that and builds a
witness in closed form from the contraction data of both complexes (see
complexes.contraction), degree by degree, with no linear system to solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional

from .complexes import CochainComplex, cohomology, contraction, shift
from .errors import FieldMismatchError, InvalidChainMapError, ShapeMismatchError
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


def _storage_window(s_lo: int, s_hi: int, t_lo: int, t_hi: int) -> range:
    return range(max(s_lo, t_lo), min(s_hi, t_hi) + 1)


@dataclass(frozen=True)
class ChainMap:
    """A degreewise map f: source -> target, components f^i stored canonically."""

    source: CochainComplex
    target: CochainComplex
    components: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if self.source.field != self.target.field:
            raise FieldMismatchError(f"{self.source.field} vs {self.target.field}")

    @classmethod
    def create(
        cls,
        source: CochainComplex,
        target: CochainComplex,
        components: Mapping[int, Matrix] | None = None,
    ) -> "ChainMap":
        components = dict(components or {})
        window = _storage_window(source.lo, source.hi, target.lo, target.hi)
        mats = []
        for i in window:
            m = components.pop(i, None)
            if m is None:
                m = Matrix.zeros(source.field, target.dim(i), source.dim(i))
            if m.field != source.field:
                raise FieldMismatchError(f"component at degree {i} over {m.field}")
            if (m.rows, m.cols) != (target.dim(i), source.dim(i)):
                raise ShapeMismatchError(
                    f"component at degree {i} has shape {m.rows}x{m.cols}, "
                    f"needs {target.dim(i)}x{source.dim(i)}"
                )
            mats.append(m)
        for i, m in components.items():
            if (m.rows, m.cols) != (target.dim(i), source.dim(i)):
                raise ShapeMismatchError(f"component at degree {i} does not fit")
        return cls(source, target, tuple(mats))

    def component(self, i: int) -> Matrix:
        lo = max(self.source.lo, self.target.lo)
        hi = min(self.source.hi, self.target.hi)
        if lo <= i <= hi:
            return self.components[i - lo]
        return Matrix.zeros(self.source.field, self.target.dim(i), self.source.dim(i))

    def __repr__(self) -> str:
        return f"ChainMap({self.source!r} -> {self.target!r})"


@dataclass(frozen=True)
class Homotopy:
    """A degree -1 collection k: components k^i of shape target.dim(i-1) x source.dim(i)."""

    source: CochainComplex
    target: CochainComplex
    components: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if self.source.field != self.target.field:
            raise FieldMismatchError(f"{self.source.field} vs {self.target.field}")

    @classmethod
    def create(
        cls,
        source: CochainComplex,
        target: CochainComplex,
        components: Mapping[int, Matrix] | None = None,
    ) -> "Homotopy":
        components = dict(components or {})
        window = _storage_window(source.lo, source.hi, target.lo + 1, target.hi + 1)
        mats = []
        for i in window:
            m = components.pop(i, None)
            if m is None:
                m = Matrix.zeros(source.field, target.dim(i - 1), source.dim(i))
            if m.field != source.field:
                raise FieldMismatchError(f"homotopy component at degree {i} over {m.field}")
            if (m.rows, m.cols) != (target.dim(i - 1), source.dim(i)):
                raise ShapeMismatchError(
                    f"homotopy component at degree {i} has shape {m.rows}x{m.cols}, "
                    f"needs {target.dim(i - 1)}x{source.dim(i)}"
                )
            mats.append(m)
        for i, m in components.items():
            if (m.rows, m.cols) != (target.dim(i - 1), source.dim(i)):
                raise ShapeMismatchError(f"homotopy component at degree {i} does not fit")
        return cls(source, target, tuple(mats))

    def component(self, i: int) -> Matrix:
        lo = max(self.source.lo, self.target.lo + 1)
        hi = min(self.source.hi, self.target.hi + 1)
        if lo <= i <= hi:
            return self.components[i - lo]
        return Matrix.zeros(self.source.field, self.target.dim(i - 1), self.source.dim(i))


def identity_chain_map(c: CochainComplex) -> ChainMap:
    comps = {i: Matrix.identity(c.field, c.dim(i)) for i in c.degrees()}
    return ChainMap.create(c, c, comps)


def zero_chain_map(source: CochainComplex, target: CochainComplex) -> ChainMap:
    return ChainMap.create(source, target, {})


def zero_homotopy(source: CochainComplex, target: CochainComplex) -> Homotopy:
    return Homotopy.create(source, target, {})


@dataclass(frozen=True)
class ChainMapValidation:
    """Outcome of validate_chain_map; on failure carries both offending products."""

    ok: bool
    degree: Optional[int] = None
    left: Optional[Matrix] = None   # d_target composed with f^i
    right: Optional[Matrix] = None  # f^{i+1} composed with d_source


@lru_cache(maxsize=None)
def validate_chain_map(f: ChainMap) -> ChainMapValidation:
    """Check d_B f^i = f^{i+1} d_A at every degree of the hull window."""
    s, t = f.source, f.target
    for i in range(min(s.lo, t.lo) - 1, max(s.hi, t.hi) + 1):
        left = mat_mul(t.d(i), f.component(i))
        right = mat_mul(f.component(i + 1), s.d(i))
        if left != right:
            return ChainMapValidation(False, i, left, right)
    return ChainMapValidation(True)


def _require_valid_map(f: ChainMap) -> None:
    report = validate_chain_map(f)
    if not report.ok:
        raise InvalidChainMapError(f"square fails to commute at degree {report.degree}")


def compose_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """The composite g∘f of f then g; middle complexes must be equal as data."""
    if f.target != g.source:
        raise ShapeMismatchError("middle objects of the composition differ")
    comps = {}
    for i in _storage_window(f.source.lo, f.source.hi, g.target.lo, g.target.hi):
        comps[i] = mat_mul(g.component(i), f.component(i))
    return ChainMap.create(f.source, g.target, comps)


def shift_chain_map(f: ChainMap, n: int) -> ChainMap:
    """The shifted map f[n]: component at degree i is f^{i+n}; no extra sign."""
    src = shift(f.source, n)
    tgt = shift(f.target, n)
    comps = {i: f.component(i + n) for i in _storage_window(src.lo, src.hi, tgt.lo, tgt.hi)}
    return ChainMap.create(src, tgt, comps)


def negate_chain_map(f: ChainMap) -> ChainMap:
    comps = {}
    for i in _storage_window(f.source.lo, f.source.hi, f.target.lo, f.target.hi):
        comps[i] = mat_neg(f.component(i))
    return ChainMap.create(f.source, f.target, comps)


def _require_parallel(f: ChainMap, g: ChainMap) -> None:
    if f.source != g.source or f.target != g.target:
        raise ShapeMismatchError("maps do not share source and target")


def check_homotopy(f: ChainMap, g: ChainMap, k: Homotopy) -> bool:
    """Does k witness g - f = d k + k d degree by degree?"""
    _require_parallel(f, g)
    s, t = f.source, f.target
    if k.source != s or k.target != t:
        raise ShapeMismatchError("homotopy does not connect the given complexes")
    for i in range(min(s.lo, t.lo) - 1, max(s.hi, t.hi) + 1):
        lhs = mat_sub(g.component(i), f.component(i))
        rhs = mat_add(
            mat_mul(t.d(i - 1), k.component(i)),
            mat_mul(k.component(i + 1), s.d(i)),
        )
        if lhs != rhs:
            return False
    return True


def find_homotopy(f: ChainMap, g: ChainMap) -> Optional[Homotopy]:
    """A homotopy witness between f and g, or None if there is none.

    With phi = g - f and (incl, proj, htpy) the contraction data of the
    source A and target B, the answer is None when phi is not a chain
    map or when it is nonzero on cohomology (H^i(phi) = proj_B phi^i
    incl_A); otherwise the witness is

        k^i = htpy_B^i phi^i + incl_B^{i-1} proj_B^{i-1} phi^{i-1} htpy_A^i.

    Only the validity of the witness is promised, not which one is
    returned.  Raises InvalidComplexError if either complex fails
    d(d(x)) = 0, and RuntimeError if the witness fails check_homotopy.
    """
    _require_parallel(f, g)
    s, t = f.source, f.target
    degrees = range(min(s.lo, t.lo), max(s.hi, t.hi) + 2)
    # fetching the contraction data first validates both complexes
    ca = {i: contraction(s, i) for i in degrees}
    cb = {i: contraction(t, i) for i in degrees}
    window = _storage_window(s.lo, s.hi, t.lo, t.hi)
    phi = ChainMap.create(s, t, {i: mat_sub(g.component(i), f.component(i)) for i in window})
    # d k + k d is always a chain map, and it is zero on cohomology
    if not validate_chain_map(phi).ok:
        return None
    if any(not induced_cohomology_map(phi, i).is_zero() for i in window):
        return None
    comps = {}
    for i in range(max(s.lo, t.lo + 1), min(s.hi, t.hi + 1) + 1):
        # proj_B^{i-1} phi^{i-1} htpy_A^i: A^i -> H^{i-1}(B)
        to_cohomology = mat_mul(mat_mul(cb[i - 1].proj, phi.component(i - 1)), ca[i].htpy)
        comps[i] = mat_add(
            mat_mul(cb[i].htpy, phi.component(i)),
            mat_mul(cb[i - 1].incl, to_cohomology),
        )
    witness = Homotopy.create(s, t, comps)
    if not check_homotopy(f, g, witness):
        raise RuntimeError("closed-form witness failed verification")
    return witness


def perturb_by_homotopy(f: ChainMap, k: Homotopy) -> ChainMap:
    """The map f + d k + k d, homotopic to f by construction."""
    s, t = f.source, f.target
    if k.source != s or k.target != t:
        raise ShapeMismatchError("homotopy does not connect the given complexes")
    comps = {}
    for i in _storage_window(s.lo, s.hi, t.lo, t.hi):
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
    _require_valid_map(f)
    hs = cohomology(f.source, i)
    ht = cohomology(f.target, i)
    image = mat_mul(f.component(i), hs.representatives())
    return mat_mul(ht.projection, image.take_rows(ht.free_rows))


def is_quasi_iso(f: ChainMap) -> bool:
    """True when H^i(f) is square and invertible at every degree."""
    _require_valid_map(f)
    lo = min(f.source.lo, f.target.lo)
    hi = max(f.source.hi, f.target.hi)
    for i in range(lo, hi + 1):
        m = induced_cohomology_map(f, i)
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
