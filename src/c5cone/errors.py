"""Structured errors shared across the engine.

Every error carries a machine-readable payload so the CLI can emit a JSON
diagnostic on standard error and exit with code 2.
"""


class EngineError(Exception):
    """Base class: message plus a dict payload for structured reporting."""

    def __init__(self, message, **payload):
        super().__init__(message)
        self.payload = payload

    def to_json(self):
        out = {"error": type(self).__name__, "detail": str(self)}
        out.update(self.payload)
        return out


class DivisionByZero(EngineError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class ConductorLimitExceeded(EngineError):
    """A computation would need a cyclotomic field beyond the supported size."""


class DimensionMismatch(EngineError):
    """Operands live in different ambient dimensions."""


class NotPuiseuxForm(EngineError):
    """A parametrization has no coordinate that is exactly u^m."""


class IncompatibleSystem(EngineError):
    """A tangent branch pair shares no special coordinate index."""

    def __init__(self, i, j):
        super().__init__(
            f"tangent branches {i} and {j} share no special coordinate",
            pair=[i, j],
        )
        self.pair = (i, j)


class DuplicateBranch(EngineError):
    """Two branches have the same image; the input curve is not reduced."""


class NonPrimitiveParametrization(EngineError):
    """All exponents share a factor; the parametrization covers its image multiply."""


class DependentVectors(EngineError):
    """Two vectors that must span a plane are linearly dependent."""


class NonIntegralResult(EngineError):
    """A quantity that must be an integer came out fractional."""


class StructureMismatch(EngineError):
    """Contact multiplicities violate the beta/gcd-chain pattern they must satisfy."""


class NotPlaneCurve(EngineError):
    """An operation defined only for plane branches got an ambient dimension != 2."""


class UnsupportedDimension(EngineError):
    """An operation defined only for one ambient dimension got another."""


class NoCommonSpecialCoordinate(EngineError):
    """No coordinate index is special for every branch."""


class TooManyBranches(EngineError):
    """Branch count exceeds the bijection-search cap."""


class InvalidDocument(EngineError):
    """A curve document fails schema or content validation."""


class DegenerateSecant(EngineError):
    """Two sampled points coincide numerically; the secant has no direction."""


class InvalidArgument(EngineError):
    """A command line argparse rejects: an unknown command or flag, a missing
    argument, or a value of the wrong type."""


class InvalidSamplingParameter(EngineError, ValueError):
    """A sampling radius, per-radius sample count or tolerance is out of range."""


class FloatingPointUnderflow(EngineError):
    """A branch's leading term is below IEEE double range at the requested
    scale, or a witness target rounds to the zero vector."""


class FloatingPointOverflow(EngineError):
    """An exact value exceeds IEEE double range, so its double is infinite."""
