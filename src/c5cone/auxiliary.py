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
cone of bi-secant limits. This module reads the orders and the leading
vectors; c5.Analysis makes the planes and the records.

Both are read off the branch supports; no difference series is built. The
u^e coefficient of phi(u) - phi(theta*u) is c_e*(1 - theta^e), which
vanishes exactly when ord(theta) divides e. The u^E coefficient of a
contact difference is c_i(E/a) - c_j(E/b)*theta^E, and for
theta = zeta_lcm^k it depends on k only through the twist j = k*E mod lcm.
One walk up the merged rescaled supports gives every k its class
(m_theta, j) (see _Pair.classes), at a cost of one coefficient check per
distinct twist of the k still vanishing, not one vector per root: coam
reads the classes alone, and the k of one class share one leading vector.
The classes of one E whose sides are parallel share a plane (_Pair.pencil):
c5.Analysis makes one span per predicted plane.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

from .errors import DimensionMismatch, DuplicateBranch, NonPrimitiveParametrization
from .geometry import Branch, cached, check_tangent_pair
from .scalar import CycloScalar, _factors, common_conductor, root_of_unity

_ZERO = CycloScalar.rational(0)


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


class _Pair:
    """What every theta of a pair shares: lcm, conductor, both supports
    rescaled to order lcm, merged exponents and the class of every k. The
    roots zeta_lcm^j come from the scalar layer's table of powers."""

    def __init__(self, bi: Branch, bj: Branch):
        self.lcm = lcm = math.lcm(bi.m, bj.m)
        self.left = [{e * (lcm // bi.m): c for e, c in s.terms} for s in bi.param.coords]
        self.right = [{e * (lcm // bj.m): c for e, c in s.terms} for s in bj.param.coords]
        self.conductor = common_conductor(bi.conductor, bj.conductor)
        self.exponents = sorted(set().union(*self.left, *self.right))
        self.branches = bi, bj

    def vector(self, E: int, j: int) -> list:
        """The u^E coefficient vector c_i(E) - c_j(E)*zeta_lcm^j."""
        twist = root_of_unity(self.conductor, self.lcm, j)
        vec = []
        for lhs, rhs in zip(self.left, self.right):
            if E in rhs:
                term = rhs[E] * twist
                vec.append(lhs[E] - term if E in lhs else -term)
            else:
                vec.append(lhs.get(E, _ZERO))
        return vec

    def pencil(self, E: int) -> Optional[tuple]:
        """A vector parallel to c_i(E) - c_j(E)*zeta_lcm^j at every twist j
        where that is nonzero: L = c_i(E) where L and R = c_j(E) are
        parallel (tested by cross-multiplying, with no inverse), R where L
        is 0; None when L and R are independent."""
        L = [lhs.get(E, _ZERO) for lhs in self.left]
        R = [rhs.get(E, _ZERO) for rhs in self.right]
        q = next((x for x, e in enumerate(L) if e), None)
        if q is None:
            return tuple(R)
        if all(R[q] * lx == L[q] * rx for lx, rx in zip(L, R)):
            return tuple(L)
        return None

    @cached
    def classes(self) -> list:
        """classes[k] is (m_theta, j) for theta = zeta_lcm^k, with the twist
        j = k*m_theta mod lcm, or None where the difference vanishes.

        One walk up the merged exponents. The k whose difference vanishes
        below E are k = a mod P, a progression whose twists at E are
        E*a + g*t mod lcm with g = gcd(E*P, lcm). Where right(E) != 0 the
        vectors right(E)*zeta_lcm^j differ for each j, and where it is 0,
        left(E) is not: at most one of those lcm/g twists keeps the
        difference zero. Its k are cut down by CRT, and every other k gets
        class (E, k*E mod lcm).
        """
        lcm = self.lcm
        classes = [None] * lcm
        a, P = 0, 1
        for E in self.exponents:
            g = math.gcd(E * P, lcm)
            kept = self._vanishing_twist(E, E * a % g, g)
            for k in range(a, lcm, P):
                j = k * E % lcm
                if j != kept:
                    classes[k] = (E, j)
            if kept is None:
                break
            step = lcm // g
            t = (kept - E * a) // g * pow(E * P // g, -1, step) % step
            a, P = a + P * t, P * step
        return classes

    def coam(self) -> tuple:
        """The sorted m_theta of every k, read off the classes alone, of a
        tangent pair (see coam); DuplicateBranch where one vanishes."""
        if None in self.classes:
            raise _duplicate(*self.branches)
        return tuple(sorted(m_theta for m_theta, _ in self.classes))

    def _vanishing_twist(self, E: int, residue: int, g: int) -> Optional[int]:
        """The one twist j = residue mod g at which the u^E coefficients of
        both sides agree, or None. Sides nonzero in different coordinates
        never agree; otherwise one coordinate picks the twist and the rest
        confirm it."""
        rows = [(lhs.get(E), rhs.get(E)) for lhs, rhs in zip(self.left, self.right)]
        if any((lhs is None) != (rhs is None) for lhs, rhs in rows):
            return None
        (l0, r0), *rest = [row for row in rows if row[1] is not None]
        for j in range(residue, self.lcm, g):
            twist = root_of_unity(self.conductor, self.lcm, j)
            if r0 * twist == l0:
                return j if all(rhs * twist == lhs for lhs, rhs in rest) else None
        return None


def _duplicate(bi: Branch, bj: Branch) -> DuplicateBranch:
    return DuplicateBranch(
        f"branches {bi.label} and {bj.label} have the same image",
        labels=[bi.label, bj.label],
    )


@lru_cache(maxsize=None)
def representative_ks(m: int) -> tuple:
    """One k per subgroup order d > 1, d ascending: zeta_m^(m/d) has order d."""
    divisors = [1]
    for p, e in _factors(m):
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    return tuple(m // d for d in sorted(divisors)[1:])


def cham(b: Branch) -> frozenset:
    """Characteristic auxiliary multiplicities {m} with all m_theta.

    Smooth branches give {1}: the theta range is empty.
    """
    orders = (characteristic_order(b, k) for k in representative_ks(b.m))
    return frozenset({b.m, *orders})


def coam(bi: Branch, bj: Branch) -> tuple:
    """Contact auxiliary multiplicities of a pair: the sorted sequence of
    m_theta over the full root group, one entry per theta (_Pair.coam). A
    non-tangent pair needs no walk: its rescaled branches start at order
    lcm and their leading vectors, the two tangents, are not proportional.
    Branches of two ambient dimensions raise DimensionMismatch."""
    if bi.n != bj.n:
        raise DimensionMismatch(
            f"branch {bj.label} has ambient dimension {bj.n}, expected {bi.n}",
            dims=[bi.n, bj.n],
        )
    if bi.tangent != bj.tangent:
        lcm = math.lcm(bi.m, bj.m)
        return (lcm,) * lcm
    check_tangent_pair(bi, bj)
    return _Pair(bi, bj).coam()
