"""One analysis per curve, the cone of bi-secant limits, plane-count bounds.

For a singular curve the cone is a finite union of 2-planes, collected in
three steps: characteristic planes of each singular branch, contact planes
of each tangent pair (full root group, theta = 1 included), and the span of
the two tangents for each non-tangent pair. Each step yields spans, a
tangent and a second vector, one span per plane the closed form predicts
(Analysis.spans): per characteristic order, per contact pencil or class,
and per pair of tangent classes. The projection search reads the spans as
they are and the cone makes them canonical. A smooth irreducible germ
degenerates to its tangent line.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple, Optional

from .auxiliary import _duplicate, _Pair, characteristic_order, cham, representative_ks
from .errors import UnsupportedDimension
from .geometry import (
    Curve,
    Direction,
    Plane,
    TangencyClassification,
    cached,
    check_tangent_pair,
    classify,
    component_rows,
    null_space,
)
from .scalar import CycloScalar, _factors, root_of_unity


_KINDS = ("characteristic", "contact", "non-tangent")  # in collection order


class C5Cone(NamedTuple):
    """dimension 2: components is a sorted tuple of planes; dimension 1
    (smooth irreducible input): components is a single tangent direction.
    provenance[i] lists (kind, labels, k) descriptors for components[i]."""

    dimension: int
    components: tuple
    provenance: tuple


class Span(NamedTuple):
    """Two independent vectors spanning one predicted cone plane: a branch
    tangent and a second vector, raw as the auxiliary difference gives it
    (or parallel to every difference of a pencil), with the (kind, labels,
    k) descriptors of the records, or non-tangent pairs, whose plane it is."""

    tangent: Direction
    vector: tuple
    descriptors: tuple


class AuxRecord(NamedTuple):
    """The derived data of one auxiliary parametrization.

    kind is "characteristic" or "contact"; labels holds the branch label(s);
    group_order is the order of the root-of-unity group theta lives in and
    k its exponent (theta = zeta_{group_order}^k). v_theta and plane are
    those of the record's span, shared by every record of that span.
    """

    kind: str
    labels: tuple
    group_order: int
    k: int
    theta: CycloScalar
    m_theta: int
    v_theta: Direction
    plane: Plane


class InvariantProfile(NamedTuple):
    r: int
    chams: tuple  # frozenset per branch
    coams: dict  # (i, j) with i < j -> sorted tuple


class Analysis:
    """Classification, spans, cone and invariant profile of one curve, each
    computed once, when first read. The auxiliary records are read off the
    spans (records): those of one span share its v_theta and its plane."""

    def __init__(self, c: Curve):
        self.curve = c
        self._pairs = {}  # (i, j) -> _Pair
        # id(span) -> (v_theta, plane, key) of a span the cached tables keep
        # alive, so its id stays its own; spans with one key share one plane
        self._planes = {}
        self._interned = {}  # key -> plane

    @cached
    def classification(self) -> TangencyClassification:
        return classify(self.curve)

    @cached
    def characteristic(self) -> dict:
        """Singular branch i, ascending -> {m_theta: span}: i's tangent and
        its coefficient vector at m_theta, with the representative ks
        (representative_ks order) of that m_theta."""
        table = {}
        for i in sorted(self.classification.S):
            b = self.curve.branches[i]
            ks = {}
            for k in representative_ks(b.m):
                ks.setdefault(characteristic_order(b, k), []).append(k)
            table[i] = {
                m_theta: Span(
                    b.tangent,
                    tuple(series.coefficient(m_theta) for series in b.param.coords),
                    tuple(("characteristic", (b.label,), k) for k in group),
                )
                for m_theta, group in ks.items()
            }
        return table

    @cached
    def contact(self) -> dict:
        """Tangent pair (i, j), sorted -> {class (m_theta, twist): span}:
        bi's tangent t and a vector parallel to the class's, with the span's
        ks, ascending; DuplicateBranch where a class vanishes.
        The classes of one E form a pencil, L - R*zeta_lcm^j, with one span
        where L and R are parallel or one is 0 (_Pair.pencil), else one per
        class, whose planes all differ: E > lcm, so L and R are 0 at the
        pair's shared special coordinate s, where t is 1, and a plane holding
        t, L and R would meet x_s = 0 in one line holding both. So no vector
        is parallel to t."""
        table = {}
        for i, j in self.tangent_pairs:
            pair = self.pair(i, j)
            if None in pair.classes:
                raise _duplicate(*pair.branches)
            bi, bj = pair.branches
            pencils = {E: pair.pencil(E) for E in {E for E, _ in pair.classes}}
            ks = {}  # a pencil's exponent, or a class of no pencil -> its ks
            for k, (E, twist) in enumerate(pair.classes):
                ks.setdefault(E if pencils[E] else (E, twist), []).append(k)
            spans = table[(i, j)] = {}
            for group in ks.values():
                found = pair.classes[group[0]]
                span = Span(
                    bi.tangent,
                    tuple(pencils[found[0]] or pair.vector(*found)),
                    tuple(("contact", (bi.label, bj.label), k) for k in group),
                )
                spans.update((pair.classes[k], span) for k in group)
        return table

    @cached
    def spans(self) -> tuple:
        """Every span of the cone, one per plane the closed form predicts:
        per characteristic order of each singular branch, per pencil or
        class of each tangent pair (contact), and the two tangents of the
        non-tangent pairs per pair of tangent classes, with its pairs'
        descriptors in sorted-pair order. Errors come as the records would
        raise them: characteristic orders first, then every tangent pair's
        check, then each pair's duplicate test."""
        c, cls = self.curve, self.classification
        spans = [span for by_order in self.characteristic.values() for span in by_order.values()]
        for by_class in self.contact.values():
            spans += {id(span): span for span in by_class.values()}.values()
        least = {j: i for i, j in sorted(cls.T, reverse=True)}  # the least tangent branch
        planes = {}  # pair of tangent classes -> (tangent, vector, descriptors)
        for i, j in sorted(cls.NT):
            bi, bj = c.branches[i], c.branches[j]
            classes = frozenset((least.get(i, i), least.get(j, j)))
            planes.setdefault(classes, (bi.tangent, bj.tangent.vec, []))[2].append(
                ("non-tangent", (bi.label, bj.label), -1)
            )
        spans += (Span(t, v, tuple(descriptors)) for t, v, descriptors in planes.values())
        return tuple(spans)

    def _canonical(self, span: Span) -> tuple:
        """(direction of span.vector, canonical plane, its key) of a span of
        this analysis. The plane is formed from the direction, whose one
        inverse the span's records share; spans with one plane get one
        plane object."""
        entry = self._planes.get(id(span))
        if entry is None:
            v_theta = Direction(span.vector)
            plane = Plane((span.tangent.vec, v_theta.vec))
            key = plane.key()
            plane = self._interned.setdefault(key, plane)
            entry = self._planes[id(span)] = (v_theta, plane, key)
        return entry

    def records(self, representatives: bool = False) -> list:
        """Every auxiliary record, read off its span: for each singular
        branch, theta = zeta_m^k for k = 1..m-1 (representatives: the ks
        of representative_ks), then for each tangent pair the full root
        group. m_theta is the span's order, or its class's; v_theta and
        the plane are the span's canonical ones."""
        branches, records = self.curve.branches, []

        def record(span, conductor, group_order, k, m_theta):
            kind, labels, _ = span.descriptors[0]
            v_theta, plane, _ = self._canonical(span)
            theta = root_of_unity(conductor, group_order, k)
            records.append(AuxRecord(kind, labels, group_order, k, theta, m_theta, v_theta, plane))

        for i, spans in self.characteristic.items():
            b = branches[i]
            by_order = {}  # root order d -> (m_theta, span)
            for m_theta, span in spans.items():
                by_order.update((b.m // k, (m_theta, span)) for _, _, k in span.descriptors)
            for k in representative_ks(b.m) if representatives else range(1, b.m):
                m_theta, span = by_order[b.m // math.gcd(b.m, k)]
                record(span, b.conductor, b.m, k, m_theta)
        for (i, j), spans in self.contact.items():
            pair = self.pair(i, j)
            for k, found in enumerate(pair.classes):
                record(spans[found], pair.conductor, pair.lcm, k, found[0])
        return records

    def pair(self, i: int, j: int) -> _Pair:
        """The _Pair of branches i and j (i == j: one branch with itself),
        built once."""
        pair = self._pairs.get((i, j))
        if pair is None:
            branches = self.curve.branches
            pair = self._pairs[(i, j)] = _Pair(branches[i], branches[j])
        return pair

    @cached
    def tangent_pairs(self) -> list:
        """The sorted tangent pairs (i, j), all checked by check_tangent_pair
        before the contact data of any can raise DuplicateBranch."""
        branches = self.curve.branches
        pairs = sorted(self.classification.T)
        for i, j in pairs:
            check_tangent_pair(branches[i], branches[j])
        return pairs

    @cached
    def profile(self) -> InvariantProfile:
        """All characteristic and contact auxiliary multiplicities, read off
        the supports and the tangent pairs' classes, with no record or plane
        built; a non-tangent pair has (lcm,) * lcm and needs no _Pair."""
        branches = self.curve.branches
        tangent = set(self.tangent_pairs)
        coams = {}
        for (i, bi), (j, bj) in combinations(enumerate(branches), 2):
            lcm = math.lcm(bi.m, bj.m)
            coams[(i, j)] = self.pair(i, j).coam() if (i, j) in tangent else (lcm,) * lcm
        return InvariantProfile(len(branches), tuple(map(cham, branches)), coams)

    @cached
    def cone(self) -> C5Cone:
        """The canonical plane of every span, deduplicated, in key order.
        A plane's descriptors keep collection order, read off the
        classification: kind (_KINDS), then the branch indices of the
        labels, then k, which the representative ks descend and the contact
        ks ascend."""
        c = self.curve
        if len(c.branches) == 1 and c.branches[0].m == 1:
            b = c.branches[0]
            return C5Cone(
                dimension=1,
                components=(b.tangent,),
                provenance=((("tangent", (b.label,), -1),),),
            )
        found = {}  # key -> (plane, descriptors)
        for span in self.spans:
            _, plane, key = self._canonical(span)
            found.setdefault(key, (plane, []))[1].extend(span.descriptors)
        index = {b.label: i for i, b in enumerate(c.branches)}

        def collected(descriptor):
            kind, labels, k = descriptor
            return (_KINDS.index(kind), [index[label] for label in labels],
                    -k if kind == "characteristic" else k)

        keys = sorted(found)
        return C5Cone(
            dimension=2,
            components=tuple(found[k][0] for k in keys),
            provenance=tuple(tuple(sorted(found[k][1], key=collected)) for k in keys),
        )


def c5_cone(c: Curve) -> C5Cone:
    """The cone of bi-secant limits of a curve; see Analysis.cone."""
    return Analysis(c).cone


def _analysis_of(c: Curve, analysis: Optional[Analysis]) -> Analysis:
    """analysis, which must be c's, or a new Analysis of c when it is None."""
    if analysis is not None and analysis.curve is not c:
        raise ValueError("the analysis is of another curve")
    return Analysis(c) if analysis is None else analysis


def sigma(n: int) -> int:
    """Maximum length of a chain of nested divisors of n: 1 plus the number
    of prime factors counted with multiplicity."""
    if n < 1:
        raise ValueError(f"sigma needs n >= 1, got {n}")
    return 1 + sum(e for _, e in _factors(n))


def _bound(c: Curve, cls: TangencyClassification, chain) -> int:
    """Sum of chain(m_i) - 1 over singular branches, plus lcm(m_i, m_j)
    over tangent pairs, plus the number of non-tangent pairs."""
    total = sum(chain(c.branches[i].m) - 1 for i in cls.S)
    total += sum(math.lcm(c.branches[i].m, c.branches[j].m) for i, j in cls.T)
    return total + len(cls.NT)


def bound1(c: Curve, cls: Optional[TangencyClassification] = None) -> int:
    """Sum of (m_i - 1) over singular branches, plus lcm(m_i, m_j) over
    tangent pairs, plus the number of non-tangent pairs. cls, when given,
    is c's classification."""
    return _bound(c, classify(c) if cls is None else cls, lambda m: m)


def bound2(c: Curve, cls: Optional[TangencyClassification] = None) -> int:
    """Like bound1 with sigma(m_i) - 1 in place of m_i - 1; never larger."""
    return _bound(c, classify(c) if cls is None else cls, sigma)


# ---------------------------------------------------------------------------
# Product equation in ambient dimension 3.


def integer_form(form) -> Optional[tuple]:
    """A covector with rational entries scaled to coprime ints, first
    nonzero entry positive; None when an entry lies outside Q."""
    values = []
    for e in form:
        if not e.is_rational():
            return None
        values.append(e.rational_value())
    den_lcm = math.lcm(*(v.denominator for v in values if v))
    ints = [v.numerator * (den_lcm // v.denominator) for v in values]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def component_forms(component) -> list:
    """The linear forms (covectors) vanishing exactly on a cone component,
    in canonical (RREF) order, each with rational entries scaled to
    coprime ints (integer_form): n - 2 for a plane, n - 1 for a line."""
    return [integer_form(eq) or eq for eq in null_space(component_rows(component))]


def _poly_mul_form(poly: dict, form: tuple) -> dict:
    out = {}
    for monomial, coeff in poly.items():
        for pos, fc in enumerate(form):
            if not fc:
                continue
            key = tuple(
                e + 1 if idx == pos else e for idx, e in enumerate(monomial)
            )
            c = out.get(key)
            c = coeff * fc if c is None else c + coeff * fc
            if c.is_zero():
                out.pop(key, None)
            else:
                out[key] = c
    return out


def product_equation(cone: C5Cone) -> dict:
    """Expanded product of the defining linear forms of a 3-space cone,
    as {exponent triple: coefficient}. The forms are component_forms', so
    one with rational entries is scaled to coprime ints and the graded-lex
    leading coefficient is positive (1 in the fixtures)."""
    if cone.dimension != 2 or any(p.n != 3 for p in cone.components):
        n = cone.components[0].n if cone.components else 0
        raise UnsupportedDimension(
            f"product equation requires planes in dimension 3, got {n}", n=n
        )
    return form_product(component_forms(plane)[0] for plane in cone.components)


def form_product(forms) -> dict:
    """Expanded product of linear forms in three variables, as {exponent
    triple: coefficient}."""
    poly = {(0, 0, 0): CycloScalar.rational(1)}
    for form in forms:
        poly = _poly_mul_form(poly, form)
    return poly


def terms_text(terms) -> str:
    """The sum of c*body over the (c, body) pairs as text, e.g. 'y - 2*z'.
    c is a CycloScalar, int or Fraction. A zero c is skipped, 1 and -1
    print as a sign, any other rational bare and any other scalar in
    parentheses, as its text() spells it; an empty body prints c alone.
    A part that starts with '-' joins with ' - '."""
    out = ""
    for c, body in terms:
        if isinstance(c, CycloScalar):  # a rational value, else its text
            c = c.rational_value() if c.is_rational() else f"({c.text()})"
        if c == 0:
            continue
        if not body:
            part = str(c)
        elif c == 1:
            part = body
        elif c == -1:
            part = f"-{body}"
        else:
            part = f"{c}*{body}"
        if not out:
            out = part
        elif part.startswith("-"):
            out += f" - {part[1:]}"
        else:
            out += f" + {part}"
    return out or "0"


def polynomial_text(poly: dict, names=("x", "y", "z")) -> str:
    """Render {exponents: coefficient} with monomials in graded-lex order,
    highest first, as terms_text spells each term."""
    return terms_text(
        (poly[m], "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, m) if e))
        for m in sorted(poly, key=lambda m: (sum(m), m), reverse=True)
    )
