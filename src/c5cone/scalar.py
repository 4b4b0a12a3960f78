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
positive, arbitrary precision. Every zero coefficient a scalar built here
holds is the one shared Fraction(0), so zero tests compare tuples by
identity at C speed; a zero that is a different object is still a zero,
only slower to find.

Reduction modulo the monic, integer Phi_N runs in Python ints: the
polynomial is scaled by the lcm D of its denominators, Phi_N's nonzero
terms are subtracted with no division, and a Fraction(v, D) is built only
for each nonzero remainder. Products and inverses (extended Euclid by
pseudo-division) run in ints too, and a product or a sum skips the work a
rational or a zero operand never needed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from operator import is_not

import mpmath

from .errors import ConductorLimitExceeded, DivisionByZero

# Largest conductor the engine will build a field for. phi(10080) = 2304, so
# coefficient vectors stay small enough for dense arithmetic.
CONDUCTOR_LIMIT = 10080

_F0 = Fraction(0)
_F1 = Fraction(1)


@lru_cache(maxsize=None)
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
# Integer polynomials. A polynomial is a list of ints indexed by degree; one
# with rational coefficients travels as (ints, den), standing for
# sum(ints[k] * x^k) / den.


def _mobius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


@lru_cache(maxsize=None)
def _cyclotomic(N: int) -> tuple:
    """Phi_N as an int tuple: the product over d | N of (x^d - 1)^mu(N/d),
    multiplying every factor in before dividing any out, so each division
    by x^d - 1 is exact."""
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(N // d) == 1:
            # times x^d - 1
            out = [-c for c in poly] + [0] * d
            for k, c in enumerate(poly):
                out[k + d] += c
            poly = out
    for d in divisors:
        if _mobius(N // d) == -1:
            # poly = q * (x^d - 1), so q[k - d] = poly[k] + q[k] from the top
            q = [0] * len(poly)
            for k in range(len(poly) - 1, d - 1, -1):
                q[k - d] = poly[k] + q[k]
            if any(c + q[k] for k, c in enumerate(poly[:d])):
                raise AssertionError(f"cyclotomic division left a remainder for N={N}")
            poly = q[: len(poly) - d]
    return tuple(poly)


@lru_cache(maxsize=None)
def _fold(N: int):
    """phi(N) and Phi_N's lower terms as (i - phi, -c_i) pairs: Phi_N is
    monic, so x^k = sum(-c_i * x^(k - phi + i)) modulo Phi_N for k >= phi."""
    cyc = _cyclotomic(N)
    phi = len(cyc) - 1
    return phi, tuple((i - phi, -c) for i, c in enumerate(cyc[:-1]) if c)


@lru_cache(maxsize=None)
def _zeros(length: int) -> tuple:
    return (_F0,) * length


def _scaled(coeffs):
    """(ints, den) with coeffs[k] == ints[k] / den, den the lcm of the
    denominators; coefficients are ints or Fractions."""
    den = math.lcm(*[c.denominator for c in coeffs])
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _reduced(N: int, ints: list, den: int) -> "CycloScalar":
    """The scalar sum(ints[k] * zeta_N^k) / den; ints is reduced in place."""
    phi, terms = _fold(N)
    if len(ints) > N:
        # Phi_N divides x^N - 1, so exponents fold mod N first, one add each
        for k in range(N, len(ints)):
            ints[k % N] += ints[k]
        del ints[N:]
    for k in range(len(ints) - 1, phi - 1, -1):
        v = ints[k]
        if v:
            for off, c in terms:
                ints[k + off] += v * c
    del ints[phi:]
    if den == 1:
        coeffs = [Fraction(v) if v else _F0 for v in ints]
    else:
        coeffs = [Fraction(v, den) if v else _F0 for v in ints]
    return CycloScalar(N, coeffs + list(_zeros(phi - len(coeffs))))


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _inverse_mod(a: list, m: list):
    """(s, c) with s * a = c modulo m for a nonzero int c, where a and m are
    coprime and deg a < deg m. Extended Euclid by pseudo-division in ints;
    each remainder and its cofactor are divided by their common content,
    which keeps the integers small."""
    r0, r1 = m, _trim(list(a))
    s0, s1 = [0], [1]  # r0 = s0 * a and r1 = s1 * a, modulo m
    while len(r1) > 1:
        # scale * r0 = q * r1 + r, with deg r < deg r1
        lead, scale = r1[-1], 1
        r, q = list(r0), [0] * (len(r0) - len(r1) + 1)
        while len(r) >= len(r1):
            shift = len(r) - len(r1)
            g = math.gcd(r[-1], lead)
            mult, f = lead // g, r[-1] // g
            if mult != 1:
                r = [mult * c for c in r]
                q = [mult * c for c in q]
                scale *= mult
            for i, c in enumerate(r1):
                r[shift + i] -= f * c
            q[shift] += f
            r.pop()
            _trim(r)
        s = [scale * c for c in s0] + [0] * max(len(q) + len(s1) - 1 - len(s0), 0)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s[i + j] -= qi * sj
        content = math.gcd(*r, *s)
        if content > 1:
            r = [c // content for c in r]
            s = [c // content for c in s]
        r0, r1, s0, s1 = r1, r, s1, s
    if not r1:
        raise AssertionError("cyclotomic polynomial must be coprime to a nonzero element")
    return s1, r1[0]


def cyclotomic_polynomial(N: int):
    """Coefficients of Phi_N as Fractions, lowest degree first; degree is
    phi(N)."""
    if N < 1:
        raise ValueError(f"conductor must be >= 1, got {N}")
    return tuple(Fraction(c) for c in _cyclotomic(N))


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
        """Reduce an arbitrary-degree polynomial in zeta_N whose
        coefficients are ints or Fractions."""
        _check_conductor(N)
        return _reduced(N, *_scaled(poly))

    @classmethod
    def rational(cls, q, conductor: int = 1) -> "CycloScalar":
        if type(q) is not Fraction:
            q = Fraction(q)
        return cls(conductor, (q or _F0,) + _zeros(euler_phi(conductor) - 1))

    # -- embedding -----------------------------------------------------------

    def embed(self, M: int) -> "CycloScalar":
        """Inject into Q(zeta_M) for a multiple M of the conductor."""
        N = self.conductor
        if M == N:
            return self
        if M % N:
            raise ValueError(f"cannot embed conductor {N} into {M}")
        _check_conductor(M)
        if self.is_rational():  # the same constant term in every field
            return CycloScalar.rational(self.coeffs[0], M)
        step = M // N
        ints, den = _scaled(self.coeffs)
        poly = [0] * (step * (len(ints) - 1) + 1)
        poly[::step] = ints
        return _reduced(M, poly, den)

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
        # the constant term answers first; the comparison with the shared
        # zeros then runs on identity
        c = self.coeffs
        return (c[0] is _F0 or not c[0]) and (len(c) == 1 or c == _zeros(len(c)))

    def __bool__(self) -> bool:
        c = self.coeffs
        return (c[0] is not _F0 and bool(c[0])) or (len(c) > 1 and c != _zeros(len(c)))

    def is_rational(self) -> bool:
        c = self.coeffs
        return len(c) == 1 or (not c[1] and c[1:] == _zeros(len(c) - 1))

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
        return CycloScalar(
            a.conductor,
            [
                x if y is _F0 else y if x is _F0 else (x + y or _F0)
                for x, y in zip(a.coeffs, b.coeffs)
            ],
        )

    __radd__ = __add__

    def __neg__(self):
        return CycloScalar(self.conductor, [c if c is _F0 else -c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return CycloScalar(
            a.conductor,
            [
                x if y is _F0 else -y if x is _F0 else (x - y or _F0)
                for x, y in zip(a.coeffs, b.coeffs)
            ],
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        if b.is_rational():
            a, b = b, a
        if a.is_rational():
            # a rational factor scales; zero and one need no work at all
            q = a.coeffs[0]
            if not q:
                return a
            if q == 1:
                return b
            return CycloScalar(a.conductor, [c if c is _F0 else c * q for c in b.coeffs])
        ia, da = _scaled(a.coeffs)
        ib, db = _scaled(b.coeffs)
        nonzero_b = [(j, y) for j, y in enumerate(ib) if y]
        prod = [0] * (len(ia) + len(ib) - 1)
        for i, x in enumerate(ia):
            if x:
                for j, y in nonzero_b:
                    prod[i + j] += x * y
        return _reduced(a.conductor, prod, da * db)

    __rmul__ = __mul__

    def _monomial(self):
        """(j, c) when the reduced form is the single term c*zeta^j, else None."""
        terms = self.terms()
        return terms[0] if len(terms) == 1 else None

    def inverse(self) -> "CycloScalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero in a cyclotomic field")
        if self.is_rational():
            return CycloScalar.rational(1 / self.coeffs[0], self.conductor)
        mono = self._monomial()
        if mono is not None:
            j, c = mono
            poly = [0] * (self.conductor - j) + [1 / c]
            return CycloScalar.from_poly(self.conductor, poly)
        # self = ints / den and ints * s = c, so 1/self = den * s / c
        ints, den = _scaled(self.coeffs)
        s, c = _inverse_mod(ints, list(_cyclotomic(self.conductor)))
        if c < 0:
            s, c = [-v for v in s], -c
        return _reduced(self.conductor, [den * v for v in s], c)

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
            poly = [0] * ((j * k) % self.conductor) + [c**k]
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

    def terms(self) -> list:
        """(k, c) for every nonzero coefficient c of zeta^k, k ascending."""
        c = self.coeffs
        # the shared zeros are skipped by identity, at C speed
        candidates = compress(range(len(c)), map(is_not, c, repeat(_F0)))
        return [(k, c[k]) for k in candidates if c[k]]

    def text(self) -> str:
        """Canonical text form: '+'-joined terms q*z(N,k) ordered by k; the
        k=0 term prints as a bare rational; zero prints as '0'."""
        parts = []
        for k, c in self.terms():
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
        return CycloScalar(N, _zeros(k) + (_F1,) + _zeros(phi - k - 1))
    return CycloScalar.from_poly(N, [0] * k + [1])


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
        for j, c in a.terms():
            q = mpmath.mpf(c.numerator) / c.denominator
            total += q * mpmath.expjpi(mpmath.mpf(2 * j) / N)
        return complex(total)
