"""Exact bi-secant limit cones of complex curve germs.

The engine takes reduced curve germs in (C^n, 0) given by Puiseux-form
parametrizations over cyclotomic coefficients, computes the cone of limits
of bi-secant lines together with the auxiliary multiplicities that classify
the germ up to bi-Lipschitz equivalence, and cross-checks the symbolic cone
with a floating-point secant-sampling oracle.
"""

from .auxiliary import cham, characteristic_order, coam
from .c5 import (
    Analysis,
    AuxRecord,
    C5Cone,
    bound1,
    bound2,
    c5_cone,
    component_forms,
    polynomial_text,
    product_equation,
    sigma,
)
from .documents import (
    curve_from_exponents,
    dumps_document,
    from_document,
    loads_document,
    read_curve,
    to_document,
    write_curve,
)
from .errors import (
    ConductorLimitExceeded,
    DegenerateSecant,
    DependentVectors,
    DimensionMismatch,
    DivisionByZero,
    DuplicateBranch,
    EngineError,
    FloatingPointOverflow,
    FloatingPointUnderflow,
    IncompatibleSystem,
    InvalidArgument,
    InvalidDocument,
    InvalidSamplingParameter,
    NoCommonSpecialCoordinate,
    NonIntegralResult,
    NonPrimitiveParametrization,
    NotPlaneCurve,
    NotPuiseuxForm,
    StructureMismatch,
    TooManyBranches,
    UnsupportedDimension,
)
from .geometry import (
    Branch,
    Curve,
    Direction,
    Plane,
    TangencyClassification,
    classify,
    curve,
    matrix_rank,
    null_space,
    rref,
)
from .invariants import (
    ContactStructure,
    EquivalenceVerdict,
    InvariantProfile,
    bilipschitz_equivalent,
    characteristic_exponents,
    contact_structure,
    intersection_multiplicity,
    profile,
)
from .oracle import (
    SampleReport,
    WitnessResult,
    cone_witness_results,
    default_u_values,
    sample_secant_directions,
)
from .projection import (
    GenericityVerdict,
    LinearProjection,
    apply_projection,
    find_generic_projection,
    is_c5_generic,
    verify_projection_invariance,
)
from .scalar import (
    CONDUCTOR_LIMIT,
    CycloScalar,
    common_conductor,
    root_of_unity,
    to_complex,
    zeta,
)
from .series import (
    CoordinateSeries,
    Parametrization,
    order,
    puiseux_form_check,
)

__version__ = "0.1.0"

# The API of README "Python API". Every other name imported above is still
# importable from the package root by name.
__all__ = [
    # curves and documents
    "read_curve",
    "write_curve",
    "curve_from_exponents",
    # the cone
    "c5_cone",
    "bound1",
    "bound2",
    "product_equation",
    "Analysis",
    # invariants
    "cham",
    "coam",
    "characteristic_exponents",
    "contact_structure",
    "profile",
    "bilipschitz_equivalent",
    # projections
    "LinearProjection",
    "find_generic_projection",
    "is_c5_generic",
    "verify_projection_invariance",
    # the numeric oracle
    "sample_secant_directions",
    "cone_witness_results",
    # errors
    "EngineError",
]
