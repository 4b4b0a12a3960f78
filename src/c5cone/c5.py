"""One analysis per curve, the cone of bi-secant limits, plane-count bounds.

For a singular curve the cone is a finite union of 2-planes, collected in
three steps: characteristic planes of each singular branch, contact planes
of each tangent pair (full root group, theta = 1 included), and the span of
the two tangents for each non-tangent pair. A smooth irreducible germ
degenerates to its tangent line.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple, Optional

from .auxiliary import (
    AuxRecord,
    _Pair,
    characteristic_aux,
    cham,
    contact_aux,
    representative_ks,
)
from .errors import UnsupportedDimension
from .geometry import (
    Curve,
    TangencyClassification,
    cached,
    check_tangent_pair,
    classify,
    plane_equations,
    plane_from_vectors,
    tangent_direction,
)
from .scalar import CycloScalar


class C5Cone(NamedTuple):
    """dimension 2: components is a sorted tuple of planes; dimension 1
    (smooth irreducible input): components is a single tangent direction.
    provenance[i] lists (kind, labels, k) descriptors for components[i]."""

    dimension: int
    components: tuple
    provenance: tuple


class InvariantProfile(NamedTuple):
    r: int
    chams: tuple  # frozenset per branch
    coams: dict  # (i, j) with i < j -> sorted tuple


class Analysis:
    """Classification, auxiliary records, cone and invariant profile of one
    curve, each computed once, when first read."""

    def __init__(self, c: Curve):
        self.curve = c
        self._characteristic = {}  # (branch index, k) -> record
        # per branch: order d -> (m_theta, v_theta, plane), shared by its records
        self._leading = [{} for _ in c.branches]
        self._pairs = {}  # (i, j) -> _Pair

    @cached
    def classification(self) -> TangencyClassification:
        return classify(self.curve)

    def characteristic_record(self, i: int, k: int) -> AuxRecord:
        """Characteristic record of branch i at theta = zeta_m^k. Records of
        one branch with equal m_theta share one v_theta and one plane."""
        if (i, k) not in self._characteristic:
            self._characteristic[(i, k)] = characteristic_aux(
                self.curve.branches[i], k, self._leading[i]
            )
        return self._characteristic[(i, k)]

    def characteristic_records(self, i: int) -> list:
        """Characteristic records of branch i, theta = zeta_m^k, k = 1..m-1."""
        m = self.curve.branches[i].m
        return [self.characteristic_record(i, k) for k in range(1, m)]

    def representative_records(self, i: int) -> list:
        """One characteristic record of branch i per root order, in the order
        of representative_ks: the records the cone reads."""
        return [
            self.characteristic_record(i, k)
            for k in representative_ks(self.curve.branches[i].m)
        ]

    def pair(self, i: int, j: int) -> _Pair:
        """The _Pair of branches i and j (i == j: one branch with itself),
        built once, its tangency read off the classification."""
        pair = self._pairs.get((i, j))
        if pair is None:
            tangent = i == j or (min(i, j), max(i, j)) in self.classification.T
            branches = self.curve.branches
            pair = self._pairs[(i, j)] = _Pair(branches[i], branches[j], tangent)
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
    def contacts(self) -> dict:
        """Contact records of every tangent pair (i, j), full root group.
        Each pair's tangency is known from the classification, so no
        tangents are compared again."""
        branches = self.curve.branches
        contacts = {}
        for i, j in self.tangent_pairs:
            pair = self.pair(i, j)
            contacts[(i, j)] = [
                contact_aux(branches[i], branches[j], k, pair) for k in range(pair.lcm)
            ]
        return contacts

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
        """Run the three collection steps and deduplicate."""
        c, cls = self.curve, self.classification
        if len(c.branches) == 1 and c.branches[0].m == 1:
            b = c.branches[0]
            return C5Cone(
                dimension=1,
                components=(tangent_direction(b),),
                provenance=((("tangent", (b.label,), -1),),),
            )
        found = {}
        ordered = []
        # id(plane) -> (plane, key): records share plane objects, and
        # holding each plane keeps its id from being reused meanwhile
        keys = {}

        def add(plane, descriptor):
            if id(plane) not in keys:
                keys[id(plane)] = plane, plane.key()
            key = keys[id(plane)][1]
            if key not in found:
                found[key] = [plane, []]
                ordered.append(key)
            found[key][1].append(descriptor)

        for i in sorted(cls.S):
            for rec in self.representative_records(i):
                add(rec.plane, (rec.kind, rec.labels, rec.k))
        for records in self.contacts.values():
            for rec in records:
                add(rec.plane, (rec.kind, rec.labels, rec.k))
        for i, j in sorted(cls.NT):
            bi, bj = c.branches[i], c.branches[j]
            plane = plane_from_vectors(tangent_direction(bi), tangent_direction(bj))
            add(plane, ("non-tangent", (bi.label, bj.label), -1))
        keys = sorted(ordered)
        return C5Cone(
            dimension=2,
            components=tuple(found[k][0] for k in keys),
            provenance=tuple(tuple(found[k][1]) for k in keys),
        )


def c5_cone(c: Curve) -> C5Cone:
    """The cone of bi-secant limits of a curve; see Analysis.cone."""
    return Analysis(c).cone


def sigma(n: int) -> int:
    """Maximum length of a chain of nested divisors of n: 1 plus the number
    of prime factors counted with multiplicity."""
    if n < 1:
        raise ValueError(f"sigma needs n >= 1, got {n}")
    count = 1
    p = 2
    while p * p <= n:
        while n % p == 0:
            count += 1
            n //= p
        p += 1
    if n > 1:
        count += 1
    return count


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


def integer_normalized_form(form) -> tuple:
    """integer_form as scalars. Entries outside Q are returned unchanged."""
    ints = integer_form(form)
    if ints is None:
        return tuple(form)
    return tuple(CycloScalar.rational(v) for v in ints)


def _poly_mul_form(poly: dict, form: tuple) -> dict:
    out = {}
    for monomial, coeff in poly.items():
        for pos, fc in enumerate(form):
            if fc.is_zero():
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
    as {exponent triple: coefficient}. Forms are integer-normalized first,
    so the graded-lex leading coefficient is positive (1 in the fixtures)."""
    if cone.dimension != 2 or any(p.n != 3 for p in cone.components):
        n = cone.components[0].n if cone.components else 0
        raise UnsupportedDimension(
            f"product equation requires planes in dimension 3, got {n}", n=n
        )
    poly = {(0, 0, 0): CycloScalar.rational(1)}
    for plane in cone.components:
        (form,) = plane_equations(plane)
        poly = _poly_mul_form(poly, integer_normalized_form(form))
    return poly


def graded_lex_order(monomial: tuple) -> tuple:
    return (-sum(monomial), tuple(-e for e in monomial))


def polynomial_text(poly: dict, names=("x", "y", "z")) -> str:
    """Render {exponents: coefficient} with monomials in graded-lex order,
    highest first."""
    if not poly:
        return "0"
    parts = []
    for monomial in sorted(poly, key=graded_lex_order):
        coeff = poly[monomial]
        factors = []
        for name, e in zip(names, monomial):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        ctext = coeff.text()
        if not body:
            parts.append(ctext)
        elif ctext == "1":
            parts.append(body)
        elif ctext == "-1":
            parts.append(f"-{body}")
        elif coeff.is_rational():
            parts.append(f"{ctext}*{body}")
        else:
            parts.append(f"({ctext})*{body}")
    return " + ".join(parts).replace("+ -", "- ")
