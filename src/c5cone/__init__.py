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
    InvariantProfile,
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
    OutputClosed,
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

# compare, project and verify read the analysis through three more modules,
# which run on first use, so that importing the package compiles only what
# analyze runs. Each is in sys.modules and bound here from the start, as a
# lazy module (importlib.util.LazyLoader) whose code runs when one of its
# attributes is first read, so that a walk over sys.modules, such as the
# tracer's in perfbench/layertrace.py, still finds it. __getattr__ (PEP 562)
# serves the names below and caches each here; dir() lists them all.
_ON_USE = {
    "invariants": (
        "ContactStructure", "EquivalenceVerdict", "bilipschitz_equivalent",
        "characteristic_exponents", "contact_structure", "intersection_multiplicity",
        "profile",
    ),
    "oracle": (
        "SampleReport", "WitnessResult", "cone_witness_results", "default_u_values",
        "sample_secant_directions",
    ),
    "projection": (
        "GenericityVerdict", "LinearProjection", "apply_projection",
        "find_generic_projection", "is_c5_generic", "verify_projection_invariance",
    ),
}
_OWNER = {name: module for module, names in _ON_USE.items() for name in names}


def _defer_on_use_modules():
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    for module in _ON_USE:
        spec = find_spec(f"{__name__}.{module}")
        spec.loader = LazyLoader(spec.loader)
        lazy = globals()[module] = sys.modules[spec.name] = module_from_spec(spec)
        spec.loader.exec_module(lazy)


_defer_on_use_modules()


def __getattr__(name):
    """A name of a module in _ON_USE, which runs that module's code the
    first time one of its names is read."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_OWNER[name]], name)
    return value


def __dir__():
    return sorted(globals().keys() | _OWNER.keys())


# The API of README "Python API". Every other name imported above or served
# on use is still importable from the package root by name.
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
