"""Exact mapping-cone calculus for bounded cochain complexes.

Everything here works over an exactly represented field, either a prime
field F_p or the rationals.  The main layers:

  fields      the coefficient field and its canonical scalars (FieldSpec)
  matrices    dense exact matrices, products, rref, rank, kernels
  complexes   bounded cochain complexes, shift, cohomology with its contraction
  chainmaps   chain maps, homotopies, quasi-isomorphism tests
  cones       mapping cones, triangles, long exact sequences
  roofs       roofs (spans), cospan flips, roof composition
  session     JSON session files used by the CLI
"""

from .chainmaps import (
    ChainMap,
    ChainMapValidation,
    Homotopy,
    check_homotopy,
    check_homotopy_equivalence,
    compose_chain_maps,
    find_homotopy,
    identity_chain_map,
    induced_cohomology_map,
    is_quasi_iso,
    negate_chain_map,
    perturb_by_homotopy,
    shift_chain_map,
    validate_chain_map,
    zero_chain_map,
    zero_homotopy,
)
from .complexes import (
    CochainComplex,
    CohomologySpace,
    ComplexValidation,
    cohomology,
    direct_sum_complex,
    is_acyclic,
    shift,
    validate_complex,
)
from .cones import (
    MappingCone,
    Triangle,
    check_les_exact,
    complete_triangle_morphism,
    cone_triangle,
    mapping_cone,
    rotate_triangle,
)
from .errors import (
    FieldMismatchError,
    HomcatError,
    InvalidChainMapError,
    InvalidComplexError,
    NotQuasiIsoError,
    SessionSyntaxError,
    ShapeMismatchError,
    UnknownReferenceError,
    UsageError,
)
from .fields import FieldSpec
from .matrices import (
    Matrix,
    RrefResult,
    block,
    block_diag,
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
from .roofs import (
    Cospan,
    FlipResult,
    Roof,
    RoofEquivalenceWitness,
    compose_roofs,
    flip_cospan,
    lift_map_to_roof,
    verify_roof_equivalence,
)
from .session import SessionFile, emit_session, parse_session

__version__ = "0.1.0"

__all__ = [
    "ChainMap",
    "ChainMapValidation",
    "CochainComplex",
    "CohomologySpace",
    "ComplexValidation",
    "Cospan",
    "FieldMismatchError",
    "FieldSpec",
    "FlipResult",
    "HomcatError",
    "Homotopy",
    "InvalidChainMapError",
    "InvalidComplexError",
    "MappingCone",
    "Matrix",
    "NotQuasiIsoError",
    "Roof",
    "RoofEquivalenceWitness",
    "RrefResult",
    "SessionFile",
    "SessionSyntaxError",
    "ShapeMismatchError",
    "Triangle",
    "UnknownReferenceError",
    "UsageError",
    "block",
    "block_diag",
    "check_homotopy",
    "check_homotopy_equivalence",
    "check_les_exact",
    "cohomology",
    "complete_triangle_morphism",
    "compose_chain_maps",
    "compose_roofs",
    "cone_triangle",
    "direct_sum_complex",
    "emit_session",
    "find_homotopy",
    "flip_cospan",
    "identity_chain_map",
    "induced_cohomology_map",
    "is_acyclic",
    "is_quasi_iso",
    "kernel_basis",
    "lift_map_to_roof",
    "mapping_cone",
    "mat_add",
    "mat_mul",
    "mat_neg",
    "mat_scale",
    "mat_sub",
    "negate_chain_map",
    "parse_session",
    "perturb_by_homotopy",
    "rank",
    "rotate_triangle",
    "rref",
    "shift",
    "shift_chain_map",
    "transpose",
    "validate_chain_map",
    "validate_complex",
    "verify_roof_equivalence",
    "zero_chain_map",
    "zero_homotopy",
]
