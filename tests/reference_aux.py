"""The generic construction of auxiliary records, kept as a test oracle.

It expands the whole difference series, phi(u) - phi(theta*u) or
phi_i(u^mt_i) - phi_j((theta*u)^mt_j), term by term over Q(zeta_N) and
reads its order and lowest-order coefficients. The engine reads the same
data off the branch supports instead; the tests compare the two. The three
series operations it needs, u -> u^k, u -> theta*u and the difference,
live here too: no engine code needs them.

contact_leading is a third route to a contact difference's leading data:
one theta at a time, up the merged rescaled supports, with no series and
no root group. The engine walks every theta of a pair at once
(_Pair.classes) instead.

PerClassAnalysis is the engine's analysis with one span per contact class
and one per non-tangent pair, ranking provenance by the order in which
the spans come: the route the engine took before it made one span per
predicted plane. The tests compare the two.
"""

import math
from typing import NamedTuple

from c5cone import (
    Analysis,
    C5Cone,
    DimensionMismatch,
    Direction,
    DuplicateBranch,
    IncompatibleSystem,
    NonPrimitiveParametrization,
    Plane,
    common_conductor,
    order,
    root_of_unity,
)
from c5cone.auxiliary import _duplicate
from c5cone.c5 import Span
from c5cone.geometry import cached
from c5cone.scalar import CycloScalar
from c5cone.series import CoordinateSeries, Parametrization


def substitute_power(p: Parametrization, k: int) -> Parametrization:
    """u -> u^k: every exponent is multiplied by k, coefficients unchanged."""
    if k < 1:
        raise ValueError(f"power substitution needs k >= 1, got {k}")
    return Parametrization(
        CoordinateSeries((e * k, c) for e, c in series.terms) for series in p.coords
    )


def substitute_scale(p: Parametrization, theta: CycloScalar) -> Parametrization:
    """u -> theta*u: each term (e, c) becomes (e, c*theta^e)."""
    if theta.is_zero():
        raise ValueError("scale substitution needs theta != 0")
    new_coords = []
    for series in p.coords:
        power_cache = {}

        def theta_pow(e):
            if e not in power_cache:
                power_cache[e] = theta**e
            return power_cache[e]

        new_coords.append(CoordinateSeries((e, c * theta_pow(e)) for e, c in series.terms))
    return Parametrization(new_coords)


def subtract(p: Parametrization, q: Parametrization) -> Parametrization:
    """Coordinate-wise exact difference; may be identically zero."""
    if p.n != q.n:
        raise DimensionMismatch(
            f"cannot subtract parametrizations of dimensions {p.n} and {q.n}",
            dims=[p.n, q.n],
        )
    new_coords = []
    for a, b in zip(p.coords, q.coords):
        acc = {e: c for e, c in a.terms}
        for e, c in b.terms:
            acc[e] = acc[e] - c if e in acc else -c
        new_coords.append(CoordinateSeries(acc.items()))
    return Parametrization(new_coords)


class Reference(NamedTuple):
    m_theta: int
    lowest: list  # raw lowest-order coefficient vector of the difference
    v_theta: Direction
    plane: object
    theta: CycloScalar


def _lowest(diff):
    m_theta = order(diff)
    lowest = [series.coefficient(m_theta) for series in diff.coords]
    return m_theta, lowest, Direction(lowest)


def characteristic_reference(b, k) -> Reference:
    theta = root_of_unity(b.conductor, b.m, k)
    diff = subtract(b.param, substitute_scale(b.param, theta))
    if diff.is_zero():
        raise NonPrimitiveParametrization(
            f"branch {b.label} is invariant under u -> theta*u", label=b.label
        )
    m_theta, lowest, v_theta = _lowest(diff)
    plane = Plane((b.tangent.vec, v_theta.vec))
    return Reference(m_theta, lowest, v_theta, plane, theta)


def contact_reference(bi, bj, k) -> Reference:
    lcm = math.lcm(bi.m, bj.m)
    ti, tj = bi.tangent, bj.tangent
    if ti == tj and not bi.special_coords & bj.special_coords:
        raise IncompatibleSystem(bi.label, bj.label)
    theta = root_of_unity(common_conductor(bi.conductor, bj.conductor), lcm, k)
    scaled_i = substitute_power(bi.param, lcm // bi.m)
    scaled_j = substitute_scale(substitute_power(bj.param, lcm // bj.m), theta)
    diff = subtract(scaled_i, scaled_j)
    if diff.is_zero():
        raise DuplicateBranch(
            f"branches {bi.label} and {bj.label} have the same image",
            labels=[bi.label, bj.label],
        )
    m_theta, lowest, v_theta = _lowest(diff)
    plane = Plane((ti.vec, (v_theta if ti == tj else tj).vec))
    return Reference(m_theta, lowest, v_theta, plane, theta)


def contact_leading(bi, bj, k) -> tuple:
    """(m_theta, lowest-order coefficient vector) of
    phi_i(u^mt_i) - phi_j((theta*u)^mt_j) for theta = zeta_lcm^k: the u^E
    coefficient vector c_i(E) - c_j(E)*theta^E, formed up the merged
    rescaled supports until the first nonzero one.

    Raises DuplicateBranch when every one vanishes: the two branches have
    the same image. The tangent-pair check is left to the callers."""
    lcm = math.lcm(bi.m, bj.m)
    conductor = common_conductor(bi.conductor, bj.conductor)
    psi_i = substitute_power(bi.param, lcm // bi.m)
    psi_j = substitute_power(bj.param, lcm // bj.m)
    exponents = {e for p in (psi_i, psi_j) for series in p.coords for e, _ in series.terms}
    for E in sorted(exponents):
        theta_E = root_of_unity(conductor, lcm, k * E)
        vec = [
            a.coefficient(E) - b.coefficient(E) * theta_E
            for a, b in zip(psi_i.coords, psi_j.coords)
        ]
        if any(not entry.is_zero() for entry in vec):
            return E, vec
    raise DuplicateBranch(
        f"branches {bi.label} and {bj.label} have the same image",
        labels=[bi.label, bj.label],
    )


class PerClassAnalysis(Analysis):
    """An Analysis whose spans are one per contact class (m_theta, twist)
    and one per non-tangent pair, and whose cone ranks each descriptor's
    (kind, labels) by the first span that holds it."""

    @cached
    def contact(self) -> dict:
        table = {}
        for i, j in self.tangent_pairs:
            pair = self.pair(i, j)
            if None in pair.classes:
                raise _duplicate(*pair.branches)
            ks = {}
            for k, found in enumerate(pair.classes):
                ks.setdefault(found, []).append(k)
            bi, bj = pair.branches
            table[(i, j)] = {
                found: Span(
                    bi.tangent,
                    tuple(pair.vector(*found)),
                    tuple(("contact", (bi.label, bj.label), k) for k in group),
                )
                for found, group in ks.items()
            }
        return table

    @cached
    def spans(self) -> tuple:
        c, cls = self.curve, self.classification
        spans = []
        for by_order in self.characteristic.values():
            spans += by_order.values()
        for by_class in self.contact.values():
            spans += by_class.values()
        for i, j in sorted(cls.NT):
            bi, bj = c.branches[i], c.branches[j]
            spans.append(Span(
                bi.tangent, bj.tangent.vec, (("non-tangent", (bi.label, bj.label), -1),)
            ))
        return tuple(spans)

    @cached
    def cone(self) -> C5Cone:
        c = self.curve
        if len(c.branches) == 1 and c.branches[0].m == 1:
            b = c.branches[0]
            return C5Cone(1, (b.tangent,), ((("tangent", (b.label,), -1),),))
        found = {}  # key -> (plane, descriptors)
        source = {}  # (kind, labels) -> its rank in span order
        for span in self.spans:
            kind, labels, _ = span.descriptors[0]
            source.setdefault((kind, labels), len(source))
            _, plane, key = self._canonical(span)
            found.setdefault(key, (plane, []))[1].extend(span.descriptors)

        def collected(descriptor):
            kind, labels, k = descriptor
            return source[kind, labels], -k if kind == "characteristic" else k

        keys = sorted(found)
        return C5Cone(
            2,
            tuple(found[k][0] for k in keys),
            tuple(tuple(sorted(found[k][1], key=collected)) for k in keys),
        )
