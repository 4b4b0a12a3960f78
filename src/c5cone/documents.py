"""Curve documents: the JSON wire format for curve germs.

A document is a plain dict of ints, strings, and lists; scalars are sums of
rational multiples of roots of unity, so nothing symbolic ever passes
through floating point. The serializer emits a canonical form (sorted keys,
two-space indent, summands ordered by power) so that serialized documents
are stable golden files and round-trip bit-exactly.

Schema (version 1):

    {
      "version": 1,
      "n": <ambient dimension>,
      "branches": [
        {"label": <string>,
         "coords": [[{"exp": e, "coeff": [<summand>, ...]}, ...], ...]}
      ]
    }

where a summand {"num": a, "den": b, "zeta_order": N, "zeta_pow": k}
denotes (a/b) * zeta_N^k and a coefficient is the sum of its summands.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InvalidDocument
from .geometry import Branch, Curve, curve
from .scalar import CycloScalar, _monomial, common_conductor
from .series import CoordinateSeries, Parametrization

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
        # The cap check comes before zeta_order^power enters the table.
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


def from_document(doc) -> Curve:
    """Build the Curve a document describes.

    Malformed structure raises InvalidDocument; a well-formed document whose
    content fails curve validation raises the engine error as-is
    (NotPuiseuxForm, NonPrimitiveParametrization, ...).
    """
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
        branches.append(Branch(Parametrization(series), label=label))
    return curve(branches)


def _scalar_summands(a: CycloScalar):
    return [
        {
            "num": c.numerator,
            "den": c.denominator,
            "zeta_order": a.conductor,
            "zeta_pow": j,
        }
        for j, c in a.terms()
    ]


def to_document(c: Curve) -> dict:
    """Serialize a Curve as a plain document dict."""
    branches = []
    for b in c.branches:
        coords = []
        for series in b.param.coords:
            coords.append(
                [{"exp": e, "coeff": _scalar_summands(a)} for e, a in series.terms]
            )
        branches.append({"label": b.label, "coords": coords})
    return {"version": DOCUMENT_VERSION, "n": c.n, "branches": branches}


def dumps_document(doc) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def loads_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise InvalidDocument(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidDocument("document root must be a JSON object")
    return doc


def read_curve(path) -> Curve:
    """Parse the curve document stored at path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InvalidDocument(f"cannot read {path}: {exc.strerror}") from None
    return from_document(loads_document(text))


def write_curve(path, c: Curve) -> None:
    """Write the canonical document for a curve to path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_document(to_document(c)))


def curve_from_exponents(spec, label_prefix: str = "b") -> Curve:
    """Convenience constructor for tests and fixture generation.

    spec is a list of branches; each branch is a list of coordinates; each
    coordinate is a list of (exp, coeff) pairs with integer, Fraction, or
    CycloScalar coefficients, or a bare int exponent meaning u**exp.
    """
    branches = []
    for coords in spec:
        series = []
        for coord in coords:
            if isinstance(coord, int):
                coord = [(coord, 1)]
            series.append(
                CoordinateSeries(
                    (e, c if isinstance(c, CycloScalar) else CycloScalar.rational(c))
                    for e, c in coord
                )
            )
        branches.append(
            Parametrization(series)
        )
    built = [
        Branch(p, label=f"{label_prefix}{i + 1}") for i, p in enumerate(branches)
    ]
    return curve(built)
