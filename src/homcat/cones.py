"""Mapping cones, distinguished triangles, and long exact sequence checks.

For f: A -> B the cone lives in degrees i with MC(f)^i = A^{i+1} (+) B^i,
A-block first.  Its differential in block form is

    [ -d_A^{i+1}    0     ]
    [  f^{i+1}    d_B^i   ]

so the cone is the twisted sum (A[1], B) of complexes._twisted_sum
with f^{i+1} below, and the structural maps are its summand bands: the
inclusion of B (bottom block) and the projection onto the shifted A
(top block).  The top-left block is the differential of A[1], read off
the cached shift, which is also the object the projection lands on.
A triangle records three composable maps whose last target is the shift
of the first source; rotation moves everything one step left and
negates the shifted map.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .chainmaps import (
    ChainMap,
    Homotopy,
    _induced_map,
    _require_valid_map,
    check_homotopy,
    compose_chain_maps,
    negate_chain_map,
    shift_chain_map,
    zero_homotopy,
)
from .complexes import CochainComplex, _summand, _twisted_sum, shift
from .errors import InvalidChainMapError, ShapeMismatchError
from .fields import _Frozen
from .matrices import block, mat_mul, rank, transpose

__all__ = [
    "MappingCone",
    "Triangle",
    "mapping_cone",
    "cone_triangle",
    "rotate_triangle",
    "check_les_exact",
    "complete_triangle_morphism",
]


class MappingCone(NamedTuple):
    cone: CochainComplex
    incl: ChainMap
    proj: ChainMap


class Triangle(_Frozen):
    """Maps f: X -> Y, g: Y -> Z, h: Z -> X[1], endpoints checked exactly."""

    _fields = ("f", "g", "h")

    def __init__(self, f: ChainMap, g: ChainMap, h: ChainMap) -> None:
        if f.target != g.source:
            raise ShapeMismatchError("triangle: target of f is not source of g")
        if g.target != h.source:
            raise ShapeMismatchError("triangle: target of g is not source of h")
        if h.target != shift(f.source, 1):
            raise ShapeMismatchError("triangle: target of h is not the shift of the source of f")
        self._store(f=f, g=g, h=h)


def mapping_cone(f: ChainMap) -> MappingCone:
    """The cone of a valid chain map plus its two structural maps."""
    _require_valid_map(f, "cone input")
    # -d_A^{i+1} is the differential of the cached shift A[1] at degree i
    parts = (shift(f.source, 1), f.target)
    cone = _twisted_sum(parts, lambda i: {(1, 0): f.component(i + 1)})
    # the inclusion of B is the transpose of the projection onto it
    incl = ChainMap.create(f.target, cone, {i: transpose(m) for i, m in _summand(cone, parts, 1, 1).items()})
    proj = ChainMap.create(cone, parts[0], _summand(cone, parts, 0, 1))
    return MappingCone(cone, incl, proj)


def cone_triangle(f: ChainMap) -> Triangle:
    """The distinguished triangle (f, inclusion, projection) on the cone of f."""
    mc = mapping_cone(f)
    return Triangle(f, mc.incl, mc.proj)


def rotate_triangle(t: Triangle) -> Triangle:
    """(f, g, h) becomes (g, h, -f[1])."""
    return Triangle(t.g, t.h, negate_chain_map(shift_chain_map(t.f, 1)))


def check_les_exact(t: Triangle) -> bool:
    """Exactness of the long cohomology sequence of a triangle.

    The maps H^i(f), H^i(g), H^i(h) are chained over a window padded by
    one degree on each side.  The canonical cohomology data of X[1] in
    degree i coincides entry for entry with that of X in degree i+1
    (reduced echelon forms are blind to the sign flip on differentials),
    so H^i(h) feeds H^{i+1}(f) directly.  Exactness at a node demands a
    zero composite and rank(incoming) equal to the kernel dimension of
    the outgoing map.
    """
    x, y, z = t.f.source, t.f.target, t.g.target
    lo = min(x.lo, y.lo, z.lo) - 1
    hi = max(x.hi, y.hi, z.hi) + 1
    legs = (t.f, t.g, t.h)
    for leg in legs:
        _require_valid_map(leg, "square")
    maps = [_induced_map(leg, i) for i in range(lo, hi + 1) for leg in legs]
    # each map is incoming at one node and outgoing at the next
    ranks = [rank(m) for m in maps]
    for incoming, outgoing, r_in, r_out in zip(maps, maps[1:], ranks, ranks[1:]):
        if outgoing.cols != incoming.rows:
            raise RuntimeError("triangle endpoints guarantee matching nodes")
        if not mat_mul(outgoing, incoming).is_zero():
            return False
        if r_in + r_out != outgoing.cols:
            return False
    return True


def complete_triangle_morphism(
    f1: ChainMap,
    f2: ChainMap,
    k1: ChainMap,
    k2: ChainMap,
    s: Optional[Homotopy] = None,
) -> ChainMap:
    """Fill in the cone-to-cone map for a square k2 f1 = f2 k1.

    The square must commute strictly (s omitted) or up to the homotopy s
    from the source of f1 to the target of f2.  The returned map sends
    (a, b) in degree i to (k1^{i+1} a, s^{i+1} a + k2^i b) and is a
    valid chain map between the cones.
    """
    if k1.source != f1.source or k2.source != f1.target:
        raise ShapeMismatchError("vertical maps do not start on the first map")
    if k1.target != f2.source or k2.target != f2.target:
        raise ShapeMismatchError("vertical maps do not land on the second map")
    for m in (f1, f2, k1, k2):
        _require_valid_map(m, "input map")
    left = compose_chain_maps(k1, f2)
    right = compose_chain_maps(f1, k2)
    if s is None:
        if left != right:
            raise InvalidChainMapError(
                "square does not commute strictly and no homotopy witness was given"
            )
        s = zero_homotopy(f1.source, f2.target)
    else:
        if s.source != f1.source or s.target != f2.target:
            raise ShapeMismatchError("homotopy witness does not connect the square's corners")
        if not check_homotopy(left, right, s):
            raise InvalidChainMapError("homotopy witness does not make the square commute")
    mc1 = mapping_cone(f1)
    mc2 = mapping_cone(f2)
    fld = f1.source.field
    comps = {
        i: block(fld, [[k1.component(i + 1), None], [s.component(i + 1), k2.component(i)]])
        for i in range(mc1.cone.lo, mc1.cone.hi + 1)
    }
    return ChainMap.create(mc1.cone, mc2.cone, comps)
