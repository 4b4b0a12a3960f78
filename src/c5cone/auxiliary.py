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

Both are read off the branch supports; no difference series is built. The
u^e coefficient of phi(u) - phi(theta*u) is c_e*(1 - theta^e), which
vanishes exactly when ord(theta) divides e. The u^E coefficient of a
contact difference is c_i(E/a) - c_j(E/b)*theta^E, formed up the merged
rescaled supports only until the first nonzero one.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import DuplicateBranch, NonPrimitiveParametrization
from .geometry import Branch, Direction, Plane, check_tangent_pair, plane_from_vectors
from .scalar import CycloScalar, common_conductor, root_of_unity

_ZERO = CycloScalar.rational(0)


class AuxRecord(NamedTuple):
    """The derived data of one auxiliary parametrization.

    kind is "characteristic" or "contact"; labels holds the branch label(s);
    group_order is the order of the root-of-unity group theta lives in and
    k its exponent (theta = zeta_{group_order}^k).
    """

    kind: str
    labels: tuple
    group_order: int
    k: int
    theta: CycloScalar
    m_theta: int
    v_theta: Direction
    plane: Plane


def characteristic_order(b: Branch, k: int) -> int:
    """m_theta of phi(u) - phi(theta*u) for theta = zeta_m^k: the least
    support exponent that ord(theta) does not divide."""
    d = b.m // math.gcd(b.m, k)
    m_theta = min(
        (e for series in b.param.coords for e, _ in series.terms if e % d),
        default=None,
    )
    if m_theta is None:
        raise NonPrimitiveParametrization(
            f"branch {b.label} is invariant under u -> theta*u", label=b.label
        )
    return m_theta


def characteristic_aux(b: Branch, k: int, leading: Optional[dict] = None) -> AuxRecord:
    """Auxiliary record of phi(u) - phi(theta*u) for theta = zeta_m^k != 1.

    m_theta depends on k only through d = ord(theta); v_theta is the
    direction of phi's coefficient vector at m_theta (the difference's is
    that one times 1 - theta^m_theta != 0). leading, when given, holds
    (m_theta, v_theta, plane) per d across calls on one branch, one v_theta
    and one plane per m_theta.
    """
    leading = {} if leading is None else leading
    d = b.m // math.gcd(b.m, k)
    if d not in leading:
        m_theta = characteristic_order(b, k)
        shared = next((v for v in leading.values() if v[0] == m_theta), None)
        if shared is None:
            v_theta = Direction(series.coefficient(m_theta) for series in b.param.coords)
            shared = (m_theta, v_theta, plane_from_vectors(b.tangent, v_theta))
        leading[d] = shared
    m_theta, v_theta, plane = leading[d]
    return AuxRecord(
        kind="characteristic",
        labels=(b.label,),
        group_order=b.m,
        k=k,
        theta=root_of_unity(b.conductor, b.m, k),
        m_theta=m_theta,
        v_theta=v_theta,
        plane=plane,
    )


def _rescaled(bi: Branch, bj: Branch) -> tuple:
    """What every theta of a pair shares: lcm, conductor, both supports
    rescaled to order lcm, merged exponents, tangency, roots as read."""
    lcm = math.lcm(bi.m, bj.m)
    left = [{e * (lcm // bi.m): c for e, c in s.terms} for s in bi.param.coords]
    right = [{e * (lcm // bj.m): c for e, c in s.terms} for s in bj.param.coords]
    conductor = common_conductor(bi.conductor, bj.conductor)
    exponents = sorted(set().union(*left, *right))
    return lcm, conductor, left, right, exponents, bi.tangent == bj.tangent, {}


def contact_leading(bi: Branch, bj: Branch, k: int, pair: Optional[tuple] = None) -> tuple:
    """(m_theta, lowest-order coefficient vector) of
    phi_i(u^mt_i) - phi_j((theta*u)^mt_j) for theta = zeta_lcm^k. pair,
    when given, is _rescaled(bi, bj), built once for all k.

    Raises DuplicateBranch when the difference vanishes: the two branches
    have the same image.
    """
    lcm, conductor, left, right, exponents, _, roots = pair or _rescaled(bi, bj)
    for E in exponents:
        j = k * E % lcm
        twist = roots.get(j) or roots.setdefault(j, root_of_unity(conductor, lcm, j))
        vec = []
        for lhs, rhs in zip(left, right):
            if E in rhs:
                term = rhs[E] * twist
                vec.append(lhs[E] - term if E in lhs else -term)
            else:
                vec.append(lhs.get(E, _ZERO))
        if any(not entry.is_zero() for entry in vec):
            return E, vec
    raise DuplicateBranch(
        f"branches {bi.label} and {bj.label} have the same image",
        labels=[bi.label, bj.label],
    )


def contact_aux(bi: Branch, bj: Branch, k: int, pair: Optional[tuple] = None) -> AuxRecord:
    """Auxiliary record of phi_i(u^mt_i) - phi_j((theta*u)^mt_j) for
    theta = zeta_lcm^k (theta = 1 allowed); pair as for contact_leading."""
    lcm, conductor, *_, tangent_pair, _ = pair = pair or _rescaled(bi, bj)
    if tangent_pair:
        check_tangent_pair(bi, bj)
    m_theta, lowest = contact_leading(bi, bj, k, pair)
    v_theta = Direction(lowest)
    return AuxRecord(
        kind="contact",
        labels=(bi.label, bj.label),
        group_order=lcm,
        k=k,
        theta=root_of_unity(conductor, lcm, k),
        m_theta=m_theta,
        v_theta=v_theta,
        plane=plane_from_vectors(bi.tangent, v_theta if tangent_pair else bj.tangent),
    )


def representative_ks(m: int) -> list:
    """One k per subgroup order d > 1, d ascending: zeta_m^(m/d) has order d."""
    return [m // d for d in range(2, m + 1) if m % d == 0]


def characteristic_records(b: Branch) -> list:
    """All characteristic records of a branch, in theta order zeta_m^k,
    k = 1..m-1."""
    leading = {}
    return [characteristic_aux(b, k, leading) for k in range(1, b.m)]


def contact_records(bi: Branch, bj: Branch) -> list:
    """All contact records of a pair, theta = zeta_lcm^k for k = 0..lcm-1.

    No representative shortcut exists here: same-order thetas can yield
    different planes.
    """
    pair = _rescaled(bi, bj)
    return [contact_aux(bi, bj, k, pair) for k in range(pair[0])]


def cham(b: Branch) -> frozenset:
    """Characteristic auxiliary multiplicities {m} with all m_theta.

    Smooth branches give {1}: the theta range is empty.
    """
    orders = (characteristic_order(b, k) for k in representative_ks(b.m))
    return frozenset({b.m, *orders})


def coam(bi: Branch, bj: Branch) -> tuple:
    """Contact auxiliary multiplicities of a pair: the sorted sequence of
    m_theta over the full root group, one entry per theta, read with
    contact_leading and no record. A non-tangent pair needs no enumeration:
    its rescaled branches start at order lcm and their leading vectors, the
    two tangents, are not proportional."""
    lcm = math.lcm(bi.m, bj.m)
    if bi.tangent != bj.tangent:
        return (lcm,) * lcm
    check_tangent_pair(bi, bj)
    pair = _rescaled(bi, bj)
    return tuple(sorted(contact_leading(bi, bj, k, pair)[0] for k in range(lcm)))
