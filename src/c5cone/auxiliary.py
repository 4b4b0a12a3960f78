"""Auxiliary parametrizations of a curve germ and their multiplicities.

Two families of auxiliary curves drive everything downstream:

* characteristic: phi(u) - phi(theta*u) for one branch and an m-th root of
  unity theta != 1;
* contact: phi_i(u^a) - phi_j((theta*u)^b) for a branch pair, where a and b
  rescale both branches to the common order lcm(m_i, m_j) and theta ranges
  over the lcm-th roots of unity, theta = 1 included.

The order m_theta of such a difference and the direction v_theta of its
lowest-order coefficients are the auxiliary multiplicities and directions;
span{tangent(s), v_theta} is the plane the difference contributes to the
cone of bi-secant limits.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import DuplicateBranch, IncompatibleSystem, NonPrimitiveParametrization
from .geometry import (
    Branch,
    Direction,
    Plane,
    plane_from_vectors,
    tangent_direction,
)
from .scalar import CycloScalar, common_conductor, root_of_unity
from .series import Parametrization, order, substitute_power, substitute_scale, subtract


class AuxRecord(NamedTuple):
    """One auxiliary parametrization with its derived data.

    kind is "characteristic" or "contact"; labels holds the branch label(s);
    group_order is the order of the root-of-unity group theta lives in and
    k its exponent (theta = zeta_{group_order}^k).
    """

    kind: str
    labels: tuple
    group_order: int
    k: int
    theta: CycloScalar
    diff: Parametrization
    m_theta: int
    v_theta: Direction
    plane: Plane


def _lowest_coefficients(diff: Parametrization, m_theta: int) -> Direction:
    return Direction(series.coefficient(m_theta) for series in diff.coords)


def characteristic_aux(b: Branch, theta: CycloScalar, k: Optional[int] = None) -> AuxRecord:
    """Auxiliary record of phi(u) - phi(theta*u) for theta in G_m, theta != 1."""
    diff = subtract(b.param, substitute_scale(b.param, theta))
    if diff.is_zero():
        raise NonPrimitiveParametrization(
            f"branch {b.label} is invariant under u -> theta*u", label=b.label
        )
    m_theta = order(diff)
    v_theta = _lowest_coefficients(diff, m_theta)
    plane = plane_from_vectors(tangent_direction(b), v_theta)
    return AuxRecord(
        kind="characteristic",
        labels=(b.label,),
        group_order=b.m,
        k=-1 if k is None else k,
        theta=theta,
        diff=diff,
        m_theta=m_theta,
        v_theta=v_theta,
        plane=plane,
    )


def contact_aux(
    bi: Branch,
    bj: Branch,
    theta: CycloScalar,
    common_special: Optional[int] = None,
    k: Optional[int] = None,
) -> AuxRecord:
    """Auxiliary record of phi_i(u^mt_i) - phi_j((theta*u)^mt_j) for theta
    in the lcm(m_i, m_j)-th roots of unity (theta = 1 allowed)."""
    lcm = math.lcm(bi.m, bj.m)
    ti = tangent_direction(bi)
    tj = tangent_direction(bj)
    tangent_pair = ti == tj
    if tangent_pair and common_special is None:
        raise IncompatibleSystem(
            bi.label,
            bj.label,
            "contact of tangent branches needs a common special coordinate",
        )
    scaled_i = substitute_power(bi.param, lcm // bi.m)
    scaled_j = substitute_scale(substitute_power(bj.param, lcm // bj.m), theta)
    diff = subtract(scaled_i, scaled_j)
    if diff.is_zero():
        raise DuplicateBranch(
            f"branches {bi.label} and {bj.label} have the same image",
            labels=[bi.label, bj.label],
        )
    m_theta = order(diff)
    v_theta = _lowest_coefficients(diff, m_theta)
    if tangent_pair:
        plane = plane_from_vectors(ti, v_theta)
    else:
        plane = plane_from_vectors(ti, tj)
    return AuxRecord(
        kind="contact",
        labels=(bi.label, bj.label),
        group_order=lcm,
        k=-1 if k is None else k,
        theta=theta,
        diff=diff,
        m_theta=m_theta,
        v_theta=v_theta,
        plane=plane,
    )


def representative_ks(m: int) -> list:
    """One k per subgroup order d > 1, d ascending: zeta_m^(m/d) has order d."""
    return [m // d for d in range(2, m + 1) if m % d == 0]


def characteristic_records(b: Branch, representatives: bool = False) -> list:
    """All characteristic records of a branch, in theta order zeta_m^k,
    k = 1..m-1; with representatives=True only one k per divisor order of m
    (the multiplicity and plane depend only on the order of theta, so the
    record set is the same up to repetition)."""
    ks = representative_ks(b.m) if representatives else range(1, b.m)
    out = []
    for k in ks:
        theta = root_of_unity(b.conductor, b.m, k)
        out.append(characteristic_aux(b, theta, k=k))
    return out


def contact_records(bi: Branch, bj: Branch, common_special: Optional[int] = None) -> list:
    """All contact records of a pair, theta = zeta_lcm^k for k = 0..lcm-1.

    No representative shortcut exists here: same-order thetas can yield
    different planes.
    """
    lcm = math.lcm(bi.m, bj.m)
    conductor = common_conductor(bi.conductor, bj.conductor)
    out = []
    for k in range(lcm):
        theta = root_of_unity(conductor, lcm, k)
        out.append(contact_aux(bi, bj, theta, common_special, k=k))
    return out


def cham(b: Branch) -> frozenset:
    """Characteristic auxiliary multiplicities {m} with all m_theta.

    Smooth branches give {1}: the theta range is empty.
    """
    values = {b.m}
    for record in characteristic_records(b, representatives=True):
        values.add(record.m_theta)
    return frozenset(values)


def coam(bi: Branch, bj: Branch, common_special: Optional[int] = None) -> tuple:
    """Contact auxiliary multiplicities of a pair: the sorted sequence of
    m_theta over the full root group, one entry per theta. A non-tangent
    pair needs no enumeration: its rescaled branches start at order lcm and
    their leading vectors, the two tangents, are not proportional."""
    if tangent_direction(bi) != tangent_direction(bj):
        lcm = math.lcm(bi.m, bj.m)
        return (lcm,) * lcm
    return tuple(
        sorted(r.m_theta for r in contact_records(bi, bj, common_special))
    )
