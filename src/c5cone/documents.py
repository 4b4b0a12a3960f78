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
from operator import itemgetter
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import InvalidDocument, NotPuiseuxForm
from .geometry import Branch, Curve, curve
from .scalar import CONDUCTOR_LIMIT, CycloScalar, _check_conductor, _monomial
from .series import CoordinateSeries, Parametrization, _ascending

DOCUMENT_VERSION = 1
_INF = math.inf

_SUMMAND = ("num", "den", "zeta_order", "zeta_pow")
_SUMMAND_KEYS = frozenset(_SUMMAND)
_TERM_KEYS = frozenset(("exp", "coeff"))
_BRANCH_KEYS = frozenset(("label", "coords"))
_TOP_KEYS = frozenset(("version", "n", "branches"))
_NAME_PARTS = ("branches[{}]", ".coords[{}]", "[{}].coeff")
_fields = itemgetter(*_SUMMAND)


def _name(what) -> str:
    """The name of a part in an error: what, or the part at the positions
    (branch[, coordinate[, term's coefficient]]), built only on failure."""
    if isinstance(what, str):
        return what
    return "".join(part.format(i) for part, i in zip(_NAME_PARTS, what))


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidDocument(f"{what} must be an integer, got {value!r}")
    return value


def _require_keys(obj, keys: frozenset, what) -> None:
    if type(obj) is dict and obj.keys() == keys:
        return
    what = _name(what)
    if not isinstance(obj, dict):
        raise InvalidDocument(f"{what} must be an object, got {type(obj).__name__}")
    missing = keys - obj.keys()
    extra = obj.keys() - keys
    if missing:
        raise InvalidDocument(f"{what} is missing {sorted(missing)}")
    if extra:
        raise InvalidDocument(f"{what} has unknown keys {sorted(extra)}")


def _parse_scalar(summands, what) -> CycloScalar:
    """The sum of the summands at the lcm of their zeta orders, each summand
    checked in document order, and the cap at each order and each running
    lcm, as adding the summands one by one checks it."""
    if not isinstance(summands, list) or not summands:
        raise InvalidDocument(f"{_name(what)} must be a non-empty list of summands")
    N, parsed = 1, []
    for pos, summand in enumerate(summands):
        valid = type(summand) is dict and summand.keys() == _SUMMAND_KEYS
        if valid:
            num, den, order, power = _fields(summand)
            valid = type(num) is type(den) is type(order) is type(power) is int
        if not valid:  # name the first check that fails
            where = f"{_name(what)}[{pos}]"
            _require_keys(summand, _SUMMAND_KEYS, where)
            num, den, order, power = [_require_int(summand[k], f"{where}.{k}") for k in _SUMMAND]
        if den < 1:
            raise InvalidDocument(f"{_name(what)}[{pos}].den must be positive, got {den}")
        if order < 1:
            raise InvalidDocument(f"{_name(what)}[{pos}].zeta_order must be positive, got {order}")
        if N % order:
            N = math.lcm(N, order)
            if N > CONDUCTOR_LIMIT:  # the order is named before the lcm
                _check_conductor(order)
                _check_conductor(N)
        parsed.append((num if den == 1 else Fraction(num, den), order, power))
    total = None
    for q, order, power in parsed:
        term = _monomial(N, power * (N // order), q)
        total = term if total is None else total + term
    return total


def _parse_terms(terms, what: tuple) -> list:
    """The nonzero (exponent, coefficient) terms of the coordinate at the
    positions what = (branch, coordinate), exponents ascending."""
    if not isinstance(terms, list):
        raise InvalidDocument(f"{_name(what)} must be a list of terms")
    parsed = []
    for pos, term in enumerate(terms):
        if type(term) is dict and term.keys() == _TERM_KEYS and type(term["exp"]) is int:
            exp = term["exp"]
        else:  # name the first check that fails
            _require_keys(term, _TERM_KEYS, f"{_name(what)}[{pos}]")
            exp = _require_int(term["exp"], f"{_name(what)}[{pos}].exp")
        if exp < 1:
            raise InvalidDocument(f"{_name(what)}[{pos}].exp must be >= 1, got {exp}")
        coeff = _parse_scalar(term["coeff"], (*what, pos))
        if coeff:
            parsed.append((exp, coeff))
    try:
        return _ascending(parsed)
    except ValueError as exc:
        raise InvalidDocument(f"{_name(what)}: {exc}") from None


def _branch(coords: list, label: str) -> Branch:
    """The branch of the parsed coordinates, each series built once at the
    branch's conductor, the lcm of m and its coefficients' conductors."""
    heads = [terms[0][0] for terms in coords if terms]
    N = math.lcm(min(heads), *{c.conductor for terms in coords for _, c in terms}) if heads else 0
    if 0 < N <= CONDUCTOR_LIMIT:  # past the cap, Branch raises below
        try:
            return Branch(Parametrization([
                CoordinateSeries([(e, c.embed(N)) for e, c in terms]) for terms in coords
            ]), label)
        except NotPuiseuxForm:
            pass  # raised below, its message spelling each coefficient as it was read
    return Branch(Parametrization(map(CoordinateSeries, coords)), label)


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
        _require_keys(raw, _BRANCH_KEYS, (pos,))
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
        branches.append(_branch([_parse_terms(c, (pos, ci)) for ci, c in enumerate(coords)], label))
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


# Line breaks with the indent of depths 0-15, and the item separators
# before them; deeper ones are built on use. Kept small: every fresh import
# of the engine pays for it again.
_BREAKS = tuple("\n" + "  " * depth for depth in range(16))
_SEPARATORS = tuple("," + inner for inner in _BREAKS)
# The JSON types the writer takes by exact type, and subclasses of them.
_TYPES = (str, int, float, dict, list, tuple)


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
        t = type(o)
        if t not in _TYPES:  # None, a bool, or a subclass: printed as its base type
            if o is None or o is True or o is False:
                return "null" if o is None else "true" if o else "false"
            t = next((base for base in _TYPES if isinstance(o, base)), None)
            if t is None:
                raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        if t is str:
            return _encode_str(o)
        if t is int:
            return int.__repr__(o)
        if t is float:
            return _float_text(o, self.allow_nan)
        if not o:
            return "{}" if t is dict else "[]"
        return self.mapping(o, depth + 1) if t is dict else self.array(o, depth + 1)

    def array(self, items, depth: int) -> str:
        inner = _BREAKS[depth] if depth < 16 else "\n" + "  " * depth
        sep = _SEPARATORS[depth] if depth < 16 else "," + inner
        if type(items[0]) is str:
            try:
                return f"[{inner}{sep.join(map(_encode_str, items))}{inner[:-2]}]"
            except TypeError:  # a later item is no string
                pass
        parts = []
        for x in items:  # the common leaves by exact type, as in mapping
            t = type(x)
            if t is float:
                parts.append(_float_text(x, self.allow_nan))
            elif t is int:
                parts.append(int.__repr__(x))
            else:
                parts.append(self.value(x, depth))
        return f"[{inner}{sep.join(parts)}{inner[:-2]}]"

    def mapping(self, d, depth: int) -> str:
        inner = _BREAKS[depth] if depth < 16 else "\n" + "  " * depth
        sep = _SEPARATORS[depth] if depth < 16 else "," + inner
        keys = self.keys
        parts = []
        for k in sorted(d):
            text = keys.get(k)
            if text is None:
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {k.__class__.__name__}")
                text = keys[k] = _encode_str(k) + ": "
            v = d[k]
            # the common values by exact type, without a call to value
            t = type(v)
            if t is str:
                parts.append(text + _encode_str(v))
            elif t is int:
                parts.append(text + int.__repr__(v))
            elif t is float:
                parts.append(text + _float_text(v, self.allow_nan))
            elif t is list and v:
                parts.append(text + self.array(v, depth + 1))
            elif t is dict and v:
                parts.append(text + self.mapping(v, depth + 1))
            else:
                parts.append(text + self.value(v, depth))
        return f"{{{inner}{sep.join(parts)}{inner[:-2]}}}"


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
        with open(path, "rb", buffering=0) as handle:
            text = str(handle.read(), "utf-8")
    except OSError as exc:
        raise InvalidDocument(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InvalidDocument(f"{path} is not valid UTF-8: {exc.reason}") from None
    if "\r" in text:  # the newlines text mode reads, so JSON error positions stay
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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
