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
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import InvalidDocument
from .geometry import Branch, Curve, curve
from .scalar import CycloScalar, _check_conductor, _monomial
from .series import CoordinateSeries, Parametrization

DOCUMENT_VERSION = 1
_INF = math.inf

_SUMMAND_KEYS = frozenset(("num", "den", "zeta_order", "zeta_pow"))
_TERM_KEYS = frozenset(("exp", "coeff"))
_BRANCH_KEYS = frozenset(("label", "coords"))
_TOP_KEYS = frozenset(("version", "n", "branches"))


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidDocument(f"{what} must be an integer, got {value!r}")
    return value


def _require_keys(obj, keys: frozenset, what: str) -> None:
    if type(obj) is dict and obj.keys() == keys:
        return
    if not isinstance(obj, dict):
        raise InvalidDocument(f"{what} must be an object, got {type(obj).__name__}")
    missing = keys - obj.keys()
    extra = obj.keys() - keys
    if missing:
        raise InvalidDocument(f"{what} is missing {sorted(missing)}")
    if extra:
        raise InvalidDocument(f"{what} has unknown keys {sorted(extra)}")


def _summand_fields(summand, what: str, pos: int) -> tuple:
    """(num, den, zeta_order, zeta_pow) of summand pos, each checked to be
    an int. The names for the errors are built only when a check fails."""
    if type(summand) is dict and summand.keys() == _SUMMAND_KEYS:
        fields = summand["num"], summand["den"], summand["zeta_order"], summand["zeta_pow"]
        num, den, order, power = fields
        if type(num) is type(den) is type(order) is type(power) is int:
            return fields
    where = f"{what}[{pos}]"
    _require_keys(summand, _SUMMAND_KEYS, where)
    return tuple(
        _require_int(summand[key], f"{where}.{key}")
        for key in ("num", "den", "zeta_order", "zeta_pow")
    )


def _parse_scalar(summands, what: str) -> CycloScalar:
    if not isinstance(summands, list) or not summands:
        raise InvalidDocument(f"{what} must be a non-empty list of summands")
    total = None
    for pos, summand in enumerate(summands):
        num, den, order, power = _summand_fields(summand, what, pos)
        if den < 1:
            raise InvalidDocument(f"{what}[{pos}].den must be positive, got {den}")
        if order < 1:
            raise InvalidDocument(
                f"{what}[{pos}].zeta_order must be positive, got {order}"
            )
        # The cap check comes before zeta_order^power enters the table.
        _check_conductor(order)
        term = _monomial(order, power, num if den == 1 else Fraction(num, den))
        total = term if total is None else total + term
    return total


def _parse_series(terms, what: str) -> CoordinateSeries:
    if not isinstance(terms, list):
        raise InvalidDocument(f"{what} must be a list of terms")
    parsed = []
    for pos, term in enumerate(terms):
        if type(term) is dict and term.keys() == _TERM_KEYS and type(term["exp"]) is int:
            exp = term["exp"]
        else:  # name the first check that fails
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
        if "," in label:
            # analyze keys each CoAM by the two labels joined with a comma
            raise InvalidDocument(f"branches[{pos}].label must not contain ',', got {label!r}")
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
        branches.append(Branch(Parametrization(series), label))
    # every branch is checked, in document order, before curve() embeds
    # them at their common conductor
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
    return _canonical_json(doc, allow_nan=False) + "\n"


# Line breaks with the indent of depths 0-15; deeper ones are built on use.
# Kept small: every fresh import of the engine pays for it again.
_BREAKS = tuple("\n" + "  " * depth for depth in range(16))


def _float_text(x: float, allow_nan: bool) -> str:
    if x != x:
        text = "NaN"
    elif x == _INF:
        text = "Infinity"
    elif x == -_INF:
        text = "-Infinity"
    else:
        return float.__repr__(x)
    if not allow_nan:
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return text


def _canonical_json(obj, allow_nan: bool = True) -> str:
    """The text json.dumps(obj, sort_keys=True, indent=2, allow_nan=...)
    gives, for dicts with str keys, lists, tuples, str, int, float, bool
    and None; anything else raises TypeError as json does.

    json falls back to its pure-Python encoder whenever indent is set.
    Here strings go through json's C escaper and a list of strings is one
    join.
    """
    return _Writer(allow_nan).value(obj, 0)


class _Writer:
    """The state of one _canonical_json call: the encoded dict keys.
    Methods, not nested functions: closures that call each other form a
    reference cycle, which would keep the texts alive until the next
    collection."""

    __slots__ = ("allow_nan", "keys")

    def __init__(self, allow_nan: bool):
        self.allow_nan = allow_nan
        self.keys = {}

    def value(self, o, depth: int) -> str:
        if isinstance(o, str):
            return _encode_str(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return _float_text(o, self.allow_nan)
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            return self.array(o, depth + 1)
        if isinstance(o, dict):
            if not o:
                return "{}"
            return self.mapping(o, depth + 1)
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    def array(self, items, depth: int) -> str:
        inner = _BREAKS[depth] if depth < len(_BREAKS) else "\n" + "  " * depth
        if isinstance(items[0], str):
            try:
                return f"[{inner}{(',' + inner).join(map(_encode_str, items))}{inner[:-2]}]"
            except TypeError:  # a later item is no string
                pass
        value = self.value
        return f"[{inner}{(',' + inner).join([value(x, depth) for x in items])}{inner[:-2]}]"

    def mapping(self, d, depth: int) -> str:
        inner = _BREAKS[depth] if depth < len(_BREAKS) else "\n" + "  " * depth
        keys = self.keys
        parts = []
        for k in sorted(d):
            text = keys.get(k)
            if text is None:
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {k.__class__.__name__}")
                text = keys[k] = _encode_str(k) + ": "
            v = d[k]
            # the common leaves without a call; bool is no int here
            if type(v) is str:
                parts.append(text + _encode_str(v))
            elif type(v) is int:
                parts.append(text + int.__repr__(v))
            else:
                parts.append(text + self.value(v, depth))
        return f"{{{inner}{(',' + inner).join(parts)}{inner[:-2]}}}"


def loads_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a long int, deep nesting
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
    except UnicodeDecodeError as exc:
        raise InvalidDocument(f"{path} is not valid UTF-8: {exc.reason}") from None
    return from_document(loads_document(text))


def write_curve(path, c: Curve) -> None:
    """Write the canonical document for a curve to path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_document(to_document(c)))


def curve_from_exponents(spec) -> Curve:
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
        branches.append(Branch(Parametrization(series), f"b{len(branches) + 1}"))
    return curve(branches)
