"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element of Q(zeta_N) is stored as a coefficient vector of length phi(N)
over the power basis 1, zeta, ..., zeta^{phi(N)-1} of Q[x]/(Phi_N), where
zeta is the class of x and plays the role of exp(2*pi*i/N). The quotient is
taken by the N-th cyclotomic polynomial Phi_N, not by x^N - 1: Phi_N is
irreducible over Q, so the quotient is a field and every nonzero element is
invertible, which the rank computations downstream rely on. Representations
are always fully reduced, so equality at a fixed conductor is coefficient
equality, and equality across conductors is checked after embedding both
operands into the least common multiple conductor.

Rationals are fractions.Fraction throughout: always reduced, denominators
positive, arbitrary precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from .errors import ConductorLimitExceeded, DivisionByZero

# Largest conductor the engine will build a field for. phi(10080) = 2304, so
# coefficient vectors stay small enough for dense arithmetic.
CONDUCTOR_LIMIT = 10080

_F0 = Fraction(0)
_F1 = Fraction(1)


def euler_phi(n: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


# ---------------------------------------------------------------------------
# Dense polynomial helpers over Fraction. A polynomial is a list of
# coefficients indexed by degree; trailing zeros are trimmed by _trim.


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(a, b):
    """Quotient and remainder of a by b (b nonzero, trimmed)."""
    a = _trim(list(a))
    db, lead = len(b) - 1, b[-1]
    q = [_F0] * max(len(a) - db, 0)
    # Phi_N is sparse: subtract multiples of its nonzero terms only
    terms = [(i, bi) for i, bi in enumerate(b) if bi] if q else ()
    while a and len(a) - 1 >= db:
        shift = len(a) - 1 - db
        factor = a[-1] / lead
        q[shift] = factor
        for i, bi in terms:
            a[shift + i] -= factor * bi
        _trim(a)
    return _trim(q), a


def _poly_mod(a, b):
    return _poly_divmod(a, b)[1]


def _poly_xgcd(a, b):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [_F1], []
    t0, t1 = [], [_F1]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _trim([x - y for x, y in _pad(s0, _poly_mul(q, s1))])
        t0, t1 = t1, _trim([x - y for x, y in _pad(t0, _poly_mul(q, t1))])
    return r0, s0, t0


def _pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [_F0] * (n - len(a)), b + [_F0] * (n - len(b)))


@lru_cache(maxsize=None)
def _cyclotomic(N: int):
    """Phi_N as a coefficient tuple, computed by dividing x^N - 1 by the
    product of Phi_d over proper divisors d of N."""
    if N == 1:
        return (_F1 * -1, _F1)
    num = [_F0] * (N + 1)
    num[0], num[N] = Fraction(-1), _F1
    den = [_F1]
    for d in range(1, N):
        if N % d == 0:
            den = _poly_mul(den, list(_cyclotomic(d)))
    q, r = _poly_divmod(num, den)
    if r:
        raise AssertionError(f"cyclotomic division left a remainder for N={N}")
    return tuple(q)


def cyclotomic_polynomial(N: int):
    """Coefficients of Phi_N, lowest degree first; degree is phi(N)."""
    if N < 1:
        raise ValueError(f"conductor must be >= 1, got {N}")
    return _cyclotomic(N)


def _check_conductor(N: int):
    if N > CONDUCTOR_LIMIT:
        raise ConductorLimitExceeded(
            f"conductor {N} exceeds the supported limit {CONDUCTOR_LIMIT}",
            conductor=N,
            limit=CONDUCTOR_LIMIT,
        )


def common_conductor(*orders: int) -> int:
    """lcm of the given orders, checked against the conductor cap."""
    N = 1
    for n in orders:
        N = N * n // math.gcd(N, n)
    _check_conductor(N)
    return N


class CycloScalar:
    """An exact element of Q(zeta_N).

    Unhashable by design: equality spans conductors (operands are embedded
    into a common field first) and no cheap hash can respect that. Code that
    needs dict keys canonicalizes through .text() at a fixed conductor.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        self.conductor = conductor
        self.coeffs = tuple(coeffs)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_poly(cls, N: int, poly) -> "CycloScalar":
        """Reduce an arbitrary-degree polynomial in zeta_N."""
        _check_conductor(N)
        phi = euler_phi(N)
        rem = _poly_mod([Fraction(c) for c in poly], list(_cyclotomic(N)))
        rem += [_F0] * (phi - len(rem))
        return cls(N, rem)

    @classmethod
    def rational(cls, q, conductor: int = 1) -> "CycloScalar":
        q = Fraction(q)
        phi = euler_phi(conductor)
        return cls(conductor, (q,) + (_F0,) * (phi - 1))

    # -- embedding -----------------------------------------------------------

    def embed(self, M: int) -> "CycloScalar":
        """Inject into Q(zeta_M) for a multiple M of the conductor."""
        N = self.conductor
        if M == N:
            return self
        if M % N:
            raise ValueError(f"cannot embed conductor {N} into {M}")
        step = M // N
        poly = [_F0] * (step * (len(self.coeffs) - 1) + 1)
        for j, c in enumerate(self.coeffs):
            if c:
                poly[step * j] = c
        return CycloScalar.from_poly(M, poly)

    def _common(self, other: "CycloScalar"):
        if self.conductor == other.conductor:
            return self, other
        M = common_conductor(self.conductor, other.conductor)
        return self.embed(M), other.embed(M)

    @staticmethod
    def _coerce(value):
        if isinstance(value, CycloScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloScalar.rational(value)
        return None

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self.text()} is not rational")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return CycloScalar(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloScalar(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        prod = _poly_mul(list(a.coeffs), list(b.coeffs))
        return CycloScalar.from_poly(a.conductor, prod)

    __rmul__ = __mul__

    def _monomial(self):
        """(j, c) when the reduced form is the single term c*zeta^j, else None."""
        found = None
        for j, c in enumerate(self.coeffs):
            if c:
                if found is not None:
                    return None
                found = (j, c)
        return found

    def inverse(self) -> "CycloScalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero in a cyclotomic field")
        if self.is_rational():
            return CycloScalar.rational(1 / self.coeffs[0], self.conductor)
        mono = self._monomial()
        if mono is not None:
            j, c = mono
            poly = [_F0] * (self.conductor - j) + [1 / c]
            return CycloScalar.from_poly(self.conductor, poly)
        g, s, _ = _poly_xgcd(list(self.coeffs), list(_cyclotomic(self.conductor)))
        if len(g) != 1:
            raise AssertionError("cyclotomic polynomial must be coprime to a nonzero element")
        inv = [c / g[0] for c in s]
        return CycloScalar.from_poly(self.conductor, inv)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        if a.coeffs == b.coeffs:
            # common fast path (direction normalization divides an entry by itself)
            if a.is_zero():
                raise DivisionByZero("0/0 in a cyclotomic field")
            return CycloScalar.rational(1, a.conductor)
        return a * b.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        mono = self._monomial()
        if mono is not None:
            # (c*zeta^j)^k reduces the root exponent mod the conductor first,
            # keeping large-conductor powers linear instead of repeated
            # full polynomial squaring.
            j, c = mono
            poly = [_F0] * ((j * k) % self.conductor) + [c**k]
            return CycloScalar.from_poly(self.conductor, poly)
        result = CycloScalar.rational(1, self.conductor)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # see class docstring

    # -- rendering -----------------------------------------------------------

    def text(self) -> str:
        """Canonical text form: '+'-joined terms q*z(N,k) ordered by k; the
        k=0 term prints as a bare rational; zero prints as '0'."""
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*z({self.conductor},{k})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self.text()} @ N={self.conductor}>"


def zeta(N: int, k: int = 1) -> CycloScalar:
    """The canonical representative of zeta_N^k (k reduced mod N)."""
    if N < 1:
        raise ValueError(f"conductor must be >= 1, got {N}")
    _check_conductor(N)
    k %= N
    phi = euler_phi(N)
    if k < phi:
        # zeta^k is already a basis vector of the power basis
        return CycloScalar(N, (_F0,) * k + (_F1,) + (_F0,) * (phi - k - 1))
    return CycloScalar.from_poly(N, [_F0] * k + [_F1])


def root_of_unity(conductor: int, order: int, k: int) -> CycloScalar:
    """zeta_order^k expressed directly at a conductor divisible by order."""
    if conductor % order:
        raise ValueError(f"order {order} does not divide conductor {conductor}")
    return zeta(conductor, (conductor // order) * (k % order))


def to_complex(a: CycloScalar) -> complex:
    """Numeric value of a, correctly rounded to a double.

    Evaluated at 200 bits through mpmath before the final rounding, so the
    only error is the unavoidable double-precision representation of the
    exact value.
    """
    with mpmath.workprec(200):
        total = mpmath.mpc(0)
        N = a.conductor
        for j, c in enumerate(a.coeffs):
            if c:
                q = mpmath.mpf(c.numerator) / c.denominator
                total += q * mpmath.expjpi(mpmath.mpf(2 * j) / N)
        return complex(total)
