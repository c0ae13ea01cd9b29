"""Roofs, cospan flips, and composition in the localized homotopy category.

A roof from A to B is a diagram A <- apex -> B whose backwards leg is a
quasi-isomorphism.  Composing two roofs needs the middle cospan

    L --alpha--> Kbar <--beta-- M        (beta a quasi-isomorphism)

flipped into a span.  The flip builds K with degreewise pieces
K^i = L^i (+) M^i (+) Kbar^{i-1}, block order (L, M, Kbar), and
differential

    [ d_L^i      0         0            ]
    [ 0          d_M^i     0            ]
    [ -alpha^i   -beta^i   -d_Kbar^{i-1} ]

which is the shift by -1 of the cone of L -> MC(beta).  The two
projections gamma2 = (id, 0, 0): K -> L and gamma1 = (0, -id, 0):
K -> M close the square up to the explicit homotopy h^i = (0, 0, -id),
and gamma2 inherits quasi-isomorphy from beta.  K is the twisted sum
(L, M, Kbar[-1]) of complexes._twisted_sum, the builder the cone uses,
and all three maps are its summand bands, the last two negated.

Every Roof and Cospan a caller builds is checked.  What the library
builds from checked values is not checked again: the middle cospan of a
composition (its beta is a checked roof's denominator), the composite
roof (its denominator is a quasi-isomorphism by the flip) and a lifted
map (its denominator is an identity).  The tests carry those proofs.

Roof equivalence is only ever *verified* against a supplied five-part
witness; the squares are checked in the homotopy category, so every
comparison goes through find_homotopy rather than matrix equality.
"""

from __future__ import annotations

from .chainmaps import (
    ChainMap,
    Homotopy,
    _require_valid_map,
    compose_chain_maps,
    find_homotopy,
    identity_chain_map,
    is_quasi_iso,
)
from .complexes import CochainComplex, _summand, _twisted_sum, shift
from .errors import NotQuasiIsoError, ShapeMismatchError
from .fields import _Frozen
from .matrices import mat_neg

__all__ = [
    "Roof",
    "Cospan",
    "FlipResult",
    "RoofEquivalenceWitness",
    "flip_cospan",
    "compose_roofs",
    "lift_map_to_roof",
    "verify_roof_equivalence",
]


class Roof(_Frozen):
    """A <- apex -> B with a quasi-isomorphism denominator apex -> A."""

    _fields = ("apex", "denom", "numer")

    def __init__(self, apex: CochainComplex, denom: ChainMap, numer: ChainMap) -> None:
        if denom.source != apex or numer.source != apex:
            raise ShapeMismatchError("roof legs must start at the apex")
        if not is_quasi_iso(denom):
            raise NotQuasiIsoError("roof denominator is not a quasi-isomorphism")
        self._store(apex=apex, denom=denom, numer=numer)


class Cospan(_Frozen):
    """alpha: L -> Kbar and beta: M -> Kbar with beta a quasi-isomorphism."""

    _fields = ("alpha", "beta")

    def __init__(self, alpha: ChainMap, beta: ChainMap) -> None:
        if alpha.target != beta.target:
            raise ShapeMismatchError("cospan legs must share their target")
        if not is_quasi_iso(beta):
            raise NotQuasiIsoError("cospan wrong leg: beta is not a quasi-isomorphism")
        self._store(alpha=alpha, beta=beta)


class FlipResult(_Frozen):
    """The span produced by flip_cospan, with its explicit homotopy witness."""

    _fields = ("k_complex", "gamma2", "gamma1", "witness")

    def __init__(
        self, k_complex: CochainComplex, gamma2: ChainMap, gamma1: ChainMap, witness: Homotopy
    ) -> None:
        if gamma2.source != k_complex or gamma1.source != k_complex or witness.source != k_complex:
            raise ShapeMismatchError("flip components must start at the flipped complex")
        self._store(k_complex=k_complex, gamma2=gamma2, gamma1=gamma1, witness=witness)


class RoofEquivalenceWitness(_Frozen):
    """A third apex with maps comparing two roofs over the same endpoints."""

    _fields = ("apex3", "denom3", "numer3", "up", "down")

    def __init__(
        self, apex3: CochainComplex, denom3: ChainMap, numer3: ChainMap, up: ChainMap, down: ChainMap
    ) -> None:
        for leg in (denom3, numer3, up, down):
            if leg.source != apex3:
                raise ShapeMismatchError("witness legs must start at the witness apex")
        self._store(apex3=apex3, denom3=denom3, numer3=numer3, up=up, down=down)


def flip_cospan(c: Cospan) -> FlipResult:
    """Flip a cospan into a span, returning the homotopy that closes it.

    By construction (alpha gamma2 - beta gamma1)^i = [alpha^i  beta^i  0]
    = (d h + h d)^i for the witness h, and gamma2 is a quasi-isomorphism
    because beta is; nothing is re-checked at run time.
    """
    alpha, beta = c.alpha, c.beta
    # -d_Kbar^{i-1} is the differential of the cached shift Kbar[-1] at degree i
    parts = (alpha.source, beta.source, shift(alpha.target, -1))
    k_complex = _twisted_sum(
        parts, lambda i: {(2, 0): mat_neg(alpha.component(i)), (2, 1): mat_neg(beta.component(i))}
    )
    gamma2 = ChainMap.create(k_complex, parts[0], _summand(k_complex, parts, 0, 1))
    gamma1 = ChainMap.create(k_complex, parts[1], _summand(k_complex, parts, 1, -1))
    witness = Homotopy.create(k_complex, alpha.target, _summand(k_complex, parts, 2, -1))
    return FlipResult(k_complex, gamma2, gamma1, witness)


def _unchecked(cls, **fields):
    """A value of the frozen type ``cls`` built without running the checks of its __init__."""
    obj = object.__new__(cls)
    obj._store(**fields)
    return obj


def compose_roofs(r1: Roof, r2: Roof) -> Roof:
    """Compose A <- B' -> B with B <- C' -> C by flipping the middle cospan."""
    if r1.numer.target != r2.denom.target:
        raise ShapeMismatchError("roofs are not composable: middle objects differ")
    flip = flip_cospan(_unchecked(Cospan, alpha=r1.numer, beta=r2.denom))
    return _unchecked(
        Roof,
        apex=flip.k_complex,
        denom=compose_chain_maps(flip.gamma2, r1.denom),
        numer=compose_chain_maps(flip.gamma1, r2.numer),
    )


def lift_map_to_roof(f: ChainMap) -> Roof:
    """A plain chain map as a roof with identity denominator."""
    _require_valid_map(f, "lifted map")
    return _unchecked(Roof, apex=f.source, denom=identity_chain_map(f.source), numer=f)


def verify_roof_equivalence(r1: Roof, r2: Roof, w: RoofEquivalenceWitness) -> bool:
    """Check a claimed equivalence of two parallel roofs through a witness.

    The witness apex must map onto both roof apexes; all four
    comparison squares are checked up to homotopy, and the witness
    denominator must itself be a quasi-isomorphism.  This never searches
    for the witness, only verifies the one supplied.
    """
    a = r1.denom.target
    b = r1.numer.target
    if r2.denom.target != a or r2.numer.target != b:
        raise ShapeMismatchError("roofs do not share their endpoints")
    if w.up.target != r1.apex or w.down.target != r2.apex:
        raise ShapeMismatchError("witness legs do not land on the roof apexes")
    if w.denom3.target != a or w.numer3.target != b:
        raise ShapeMismatchError("witness comparison legs do not land on the endpoints")
    if not is_quasi_iso(w.denom3):
        return False
    pairs = (
        (compose_chain_maps(w.up, r1.denom), w.denom3),
        (compose_chain_maps(w.up, r1.numer), w.numer3),
        (compose_chain_maps(w.down, r2.denom), w.denom3),
        (compose_chain_maps(w.down, r2.numer), w.numer3),
    )
    return all(find_homotopy(lhs, rhs) is not None for lhs, rhs in pairs)
