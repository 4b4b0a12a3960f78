"""The document reader as it was before branches were built once, kept as a
test oracle.

Each coefficient is summed from a rational zero, term by term. Each branch
is built at its own conductor, re-embedding every coefficient whenever one
differs, and the curve then rebuilds, validating again, every branch whose
conductor differs from the curve's. The engine's from_document must give the
same Curve on every valid document, and the same error class and message on
every invalid one (except for a label holding a comma, which the engine
rejects and this reader accepts). read_curve reads the file in text mode,
whose universal newlines turn "\r\n" and "\r" into "\n" before JSON
decoding sees the text.
"""

import json
from fractions import Fraction

from c5cone.errors import DimensionMismatch, InvalidDocument, NonPrimitiveParametrization
from c5cone.geometry import Branch, Curve, Direction
from c5cone.scalar import CycloScalar, _make, _rat, _zeta_terms, common_conductor
from c5cone.series import (
    CoordinateSeries,
    Parametrization,
    exponent_gcd,
    puiseux_form_check,
)

DOCUMENT_VERSION = 1

_SUMMAND_KEYS = frozenset(("num", "den", "zeta_order", "zeta_pow"))
_TERM_KEYS = frozenset(("exp", "coeff"))
_BRANCH_KEYS = frozenset(("label", "coords"))
_TOP_KEYS = frozenset(("version", "n", "branches"))


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidDocument(f"{what} must be an integer, got {value!r}")
    return value


def _require_keys(obj, keys: frozenset, what: str) -> None:
    if not isinstance(obj, dict):
        raise InvalidDocument(f"{what} must be an object, got {type(obj).__name__}")
    missing = keys - obj.keys()
    extra = obj.keys() - keys
    if missing:
        raise InvalidDocument(f"{what} is missing {sorted(missing)}")
    if extra:
        raise InvalidDocument(f"{what} has unknown keys {sorted(extra)}")


def _monomial(N: int, k: int, c: Fraction) -> CycloScalar:
    if not c:
        return _make(N, ())
    terms = _zeta_terms(N, k % N)
    if c == 1:
        return _make(N, terms)
    return _make(N, tuple([(i, _rat(v * c)) for i, v in terms]))


def _parse_scalar(summands, what: str) -> CycloScalar:
    if not isinstance(summands, list) or not summands:
        raise InvalidDocument(f"{what} must be a non-empty list of summands")
    total = CycloScalar.rational(0)
    for pos, summand in enumerate(summands):
        _require_keys(summand, _SUMMAND_KEYS, f"{what}[{pos}]")
        num = _require_int(summand["num"], f"{what}[{pos}].num")
        den = _require_int(summand["den"], f"{what}[{pos}].den")
        order = _require_int(summand["zeta_order"], f"{what}[{pos}].zeta_order")
        power = _require_int(summand["zeta_pow"], f"{what}[{pos}].zeta_pow")
        if den < 1:
            raise InvalidDocument(f"{what}[{pos}].den must be positive, got {den}")
        if order < 1:
            raise InvalidDocument(
                f"{what}[{pos}].zeta_order must be positive, got {order}"
            )
        common_conductor(order)
        total = total + _monomial(order, power, Fraction(num, den))
    return total


def _parse_series(terms, what: str) -> CoordinateSeries:
    if not isinstance(terms, list):
        raise InvalidDocument(f"{what} must be a list of terms")
    parsed = []
    for pos, term in enumerate(terms):
        _require_keys(term, _TERM_KEYS, f"{what}[{pos}]")
        exp = _require_int(term["exp"], f"{what}[{pos}].exp")
        if exp < 1:
            raise InvalidDocument(f"{what}[{pos}].exp must be >= 1, got {exp}")
        parsed.append((exp, _parse_scalar(term["coeff"], f"{what}[{pos}].coeff")))
    try:
        return CoordinateSeries(parsed)
    except ValueError as exc:
        raise InvalidDocument(f"{what}: {exc}") from None


def _branch(param: Parametrization, label: str, conductor=None) -> Branch:
    """Branch(param, label, conductor) as it was built: validate, then
    re-embed every coefficient once any one differs from the target."""
    g = exponent_gcd(param)
    if g != 1:
        raise NonPrimitiveParametrization(
            f"branch {label}: all exponents share the factor {g}", label=label, gcd=g
        )
    m, special = puiseux_form_check(param)
    needed = common_conductor(
        m, *(c.conductor for series in param.coords for _, c in series.terms)
    )
    target = needed if conductor is None else common_conductor(needed, conductor)
    if any(c.conductor != target for series in param.coords for _, c in series.terms):
        param = Parametrization(
            CoordinateSeries((e, c.embed(target)) for e, c in series.terms)
            for series in param.coords
        )
    b = object.__new__(Branch)
    b.param, b.m, b.special_coords, b.label, b.conductor = param, m, special, label, target
    b.tangent = Direction(series.coefficient(m) for series in param.coords)
    return b


def _curve(branches) -> Curve:
    branches = tuple(branches)
    n = branches[0].n
    for b in branches:
        if b.n != n:
            raise DimensionMismatch(
                f"branch {b.label} has ambient dimension {b.n}, expected {n}",
                dims=[n, b.n],
            )
    labels = [b.label for b in branches]
    if len(set(labels)) != len(labels):
        raise ValueError(f"branch labels are not unique: {labels}")
    conductor = common_conductor(*(b.conductor for b in branches))
    return Curve(
        n,
        tuple(
            b if b.conductor == conductor else _branch(b.param, b.label, conductor)
            for b in branches
        ),
        conductor,
    )


def from_document(doc) -> Curve:
    _require_keys(doc, _TOP_KEYS, "document")
    version = _require_int(doc["version"], "version")
    if version != DOCUMENT_VERSION:
        raise InvalidDocument(
            f"unsupported document version {version}, expected {DOCUMENT_VERSION}"
        )
    n = _require_int(doc["n"], "n")
    if n < 2:
        raise InvalidDocument(f"ambient dimension must be >= 2, got {n}")
    raw_branches = doc["branches"]
    if not isinstance(raw_branches, list) or not raw_branches:
        raise InvalidDocument("branches must be a non-empty list")
    branches = []
    labels = set()
    for pos, raw in enumerate(raw_branches):
        _require_keys(raw, _BRANCH_KEYS, f"branches[{pos}]")
        label = raw["label"]
        if not isinstance(label, str) or not label:
            raise InvalidDocument(
                f"branches[{pos}].label must be a non-empty string, got {label!r}"
            )
        if label in labels:
            raise InvalidDocument(f"duplicate branch label {label!r}")
        labels.add(label)
        coords = raw["coords"]
        if not isinstance(coords, list) or len(coords) != n:
            raise InvalidDocument(
                f"branches[{pos}].coords must list exactly {n} coordinates"
            )
        series = [
            _parse_series(c, f"branches[{pos}].coords[{ci}]")
            for ci, c in enumerate(coords)
        ]
        branches.append(_branch(Parametrization(series), label))
    return _curve(branches)


def read_curve(path) -> Curve:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InvalidDocument(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InvalidDocument(f"{path} is not valid UTF-8: {exc.reason}") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidDocument(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidDocument("document root must be a JSON object")
    return from_document(doc)


def fingerprint(c: Curve):
    """Everything a Curve holds, as plain values, for comparing two readers."""

    def scalar(a):
        return (a.conductor, a.terms())

    return (
        c.n,
        c.conductor,
        [
            (
                b.label,
                b.m,
                b.special_coords,
                b.conductor,
                [[(e, scalar(a)) for e, a in series.terms] for series in b.param.coords],
                [scalar(a) for a in b.tangent.vec],
            )
            for b in c.branches
        ],
    )
