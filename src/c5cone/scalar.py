"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element of Q(zeta_N) is the tuple of its nonzero terms (k, c), k
ascending, standing for the sum of c*zeta^k over the power basis 1, zeta,
..., zeta^{phi(N)-1} of Q[x]/(Phi_N). zeta is the class of x and plays the
role of exp(2*pi*i/N). The quotient is taken by the N-th cyclotomic
polynomial Phi_N, not by x^N - 1: Phi_N is irreducible over Q, so the
quotient is a field and every nonzero element is invertible, which the
rank computations downstream rely on. The terms are always fully reduced,
so equality at a fixed conductor is tuple equality, zero is the empty
tuple and a rational is at most the k = 0 term; across conductors both
operands are first embedded into the lcm conductor.

A stored coefficient is an int when it is integral (a bool too) and a
reduced fractions.Fraction with denominator > 1 otherwise (_rat).

Reduction modulo the monic, integer Phi_N runs in Python ints: the
polynomial is scaled by the lcm D of its denominators, Phi_N's nonzero
terms are subtracted with no division, and a Fraction(v, D) is built only
for each nonzero remainder v that D does not divide. Products and inverses
(extended Euclid by pseudo-division) run in ints too, and a product skips
the work a rational operand never needed. A monomial c*zeta_N^k (a power
of zeta, a document summand, the inverse or a power of a one-term scalar)
is c times the reduced terms of zeta_N^(k mod N), which a per-process
table builds once. A vector is divided by its lead by divided(), which
takes no inverse where the quotient is rational.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .errors import ConductorLimitExceeded, DivisionByZero, FloatingPointOverflow

# Largest conductor the engine will build a field for. phi(10080) = 2304, so
# the dense int polynomials of products and reductions stay small.
CONDUCTOR_LIMIT = 10080

@lru_cache(maxsize=None)
def _factors(n: int) -> tuple:
    """n's prime factorization ((p, e), ...), p ascending, by trial division:
    phi(N), Phi_N, sigma(m) and the root orders of m all read it."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    """Euler's totient, the product of p^(e-1) * (p - 1) over n's factorization."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    return math.prod(p ** (e - 1) * (p - 1) for p, e in _factors(n))


# ---------------------------------------------------------------------------
# Integer polynomials. A polynomial is a list of ints indexed by degree; one
# with rational coefficients travels as (ints, den), standing for
# sum(ints[k] * x^k) / den.


@lru_cache(maxsize=None)
def _cyclotomic(N: int) -> tuple:
    """Phi_N as an int tuple: the product over the squarefree e | N of
    (x^(N/e) - 1)^mu(e), mu(e) = (-1)^(number of primes of e), multiplying
    every factor in before dividing any out, so each division by x^d - 1
    is exact."""
    signed = [(1, 1)]
    for p, _ in _factors(N):
        signed += [(e * p, -mu) for e, mu in signed]
    poly = [1]
    for d in (N // e for e, mu in signed if mu == 1):
        # times x^d - 1
        out = [-c for c in poly] + [0] * d
        for k, c in enumerate(poly):
            out[k + d] += c
        poly = out
    for d in (N // e for e, mu in signed if mu == -1):
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


def _rat(v):
    """The int or Fraction v as stored: an int when it is integral."""
    return v.numerator if v.denominator == 1 else v


def _int_terms(terms):
    """([(k, v), ...], den): each term (k, c) as c = v / den, den the lcm."""
    den = math.lcm(*[c.denominator for _, c in terms])
    if den == 1:
        return terms, 1
    return [(k, c.numerator * (den // c.denominator)) for k, c in terms], den


def _spread(pairs, step: int = 1) -> list:
    """The dense int polynomial sum(v * x^(step * k)), pairs k-ascending."""
    poly = [0] * (step * pairs[-1][0] + 1)
    for k, v in pairs:
        poly[step * k] = v
    return poly


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
    return _make(N, tuple([
        (k, Fraction(v, den) if v % den else v // den) for k, v in enumerate(ints) if v
    ]))


def _summed(a: tuple, b: tuple, sign: int) -> tuple:
    """The terms of a + sign * b, for sign 1 or -1, merged by k."""
    out, i, n = [], 0, len(a)
    for k, c in b:
        while i < n and a[i][0] < k:
            out.append(a[i])
            i += 1
        if i < n and a[i][0] == k:
            v = a[i][1] + c if sign == 1 else a[i][1] - c
            i += 1
            if v:
                out.append((k, _rat(v)))
        else:
            out.append((k, c) if sign == 1 else (k, -c))
    out += a[i:]
    return tuple(out)


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


def _check_conductor(N: int):
    if N > CONDUCTOR_LIMIT:
        raise ConductorLimitExceeded(
            f"conductor {N} exceeds the supported limit {CONDUCTOR_LIMIT}",
            conductor=N,
            limit=CONDUCTOR_LIMIT,
        )


def common_conductor(*orders: int) -> int:
    """lcm of the given orders, checked against the conductor cap."""
    N = math.lcm(*orders)
    _check_conductor(N)
    return N


class CycloScalar:
    """An exact element of Q(zeta_N), held as its nonzero terms. Built by
    from_poly, rational, zeta or root_of_unity; the class takes no arguments.

    Unhashable by design: equality spans conductors (operands are embedded
    into a common field first) and no cheap hash can respect that. Code that
    needs dict keys canonicalizes through .text() at a fixed conductor.
    """

    __slots__ = ("conductor", "_terms")

    @property
    def coeffs(self) -> tuple:
        """The dense coefficient tuple of length phi(N), each zero the int 0;
        a view built on every read."""
        dense = [0] * euler_phi(self.conductor)
        for k, c in self._terms:
            dense[k] = c
        return tuple(dense)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_poly(cls, N: int, poly) -> "CycloScalar":
        """Reduce an arbitrary-degree polynomial in zeta_N whose
        coefficients are ints or Fractions."""
        _check_conductor(N)
        den = math.lcm(*[c.denominator for c in poly])
        return _reduced(N, [c.numerator * (den // c.denominator) for c in poly], den)

    @classmethod
    def rational(cls, q, conductor: int = 1) -> "CycloScalar":
        q = _rat(q if isinstance(q, (int, Fraction)) else Fraction(q))
        return _make(conductor, ((0, q),) if q else ())

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
            return _make(M, self._terms)
        pairs, den = _int_terms(self._terms)
        return _reduced(M, _spread(pairs, M // N), den)

    def _common(self, other: "CycloScalar"):
        N, M = self.conductor, other.conductor
        if N == M:
            return self, other
        # a rational meets the other operand in its field: no lcm, no embed
        if M % N == 0 and M <= CONDUCTOR_LIMIT and self.is_rational():
            return _make(M, self._terms), other
        if N % M == 0 and N <= CONDUCTOR_LIMIT and other.is_rational():
            return self, _make(N, other._terms)
        M = common_conductor(N, M)
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
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_rational(self) -> bool:
        return not self._terms or self._terms[-1][0] == 0

    def rational_value(self) -> int | Fraction:
        if not self.is_rational():
            raise ValueError(f"{self.text()} is not rational")
        return self._terms[0][1] if self._terms else 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return _make(a.conductor, _summed(a._terms, b._terms, 1))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, tuple([(k, -c) for k, c in self._terms]))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return _make(a.conductor, _summed(a._terms, b._terms, -1))

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
            if not a._terms:
                return a
            q = a._terms[0][1]
            if q == 1:
                return b
            return _make(b.conductor, tuple([(k, _rat(c * q)) for k, c in b._terms]))
        ia, da = _int_terms(a._terms)
        ib, db = _int_terms(b._terms)
        prod = [0] * (ia[-1][0] + ib[-1][0] + 1)
        for i, x in ia:
            for j, y in ib:
                prod[i + j] += x * y
        return _reduced(a.conductor, prod, da * db)

    __rmul__ = __mul__

    def inverse(self) -> "CycloScalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero in a cyclotomic field")
        if len(self._terms) == 1:  # c*zeta^j, j = 0 for a rational
            ((j, c),) = self._terms
            return _monomial(self.conductor, -j, Fraction(c.denominator, c.numerator))
        # self = ints / den and ints * s = c, so 1/self = den * s / c
        pairs, den = _int_terms(self._terms)
        s, c = _inverse_mod(_spread(pairs), list(_cyclotomic(self.conductor)))
        if c < 0:
            s, c = [-v for v in s], -c
        return _reduced(self.conductor, [den * v for v in s], c)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if len(self._terms) == 1:
            # (c*zeta^j)^k = c^k * zeta^(j*k) for every k: one table lookup
            ((j, c),) = self._terms
            return _monomial(self.conductor, j * k, Fraction(c) ** k)
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloScalar.rational(1, self.conductor)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if type(other) is CycloScalar and other.conductor == self.conductor:
            return self._terms == other._terms
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return a._terms == b._terms

    __hash__ = None  # see class docstring

    # -- rendering -----------------------------------------------------------

    def terms(self) -> tuple:
        """(k, c) for every nonzero coefficient c of zeta^k, k ascending."""
        return self._terms

    def text(self) -> str:
        """Canonical text form: '+'-joined terms q*z(N,k) ordered by k; the
        k=0 term prints as a bare rational; zero prints as '0'."""
        parts = [str(c) if k == 0 else f"{c}*z({self.conductor},{k})" for k, c in self._terms]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self.text()} @ N={self.conductor}>"


def _make(N: int, terms: tuple) -> CycloScalar:
    """The scalar at conductor N with the given reduced, nonzero terms."""
    a = object.__new__(CycloScalar)
    a.conductor, a._terms = N, terms
    return a


@lru_cache(maxsize=None)
def _zeta_terms(N: int, k: int) -> tuple:
    """The reduced terms of zeta_N^k for 0 <= k < N, built once per (N, k):
    at most N entries per conductor, like _fold. For k < phi(N), zeta^k is
    a basis vector of the power basis; above, it is reduced by Phi_N."""
    if k < euler_phi(N):
        return ((k, 1),)
    return _reduced(N, [0] * k + [1], 1)._terms


def _monomial(N: int, k: int, c) -> CycloScalar:
    """c * zeta_N^k for any int k and an int or Fraction c, from the
    table, each coefficient stored by _rat; zero is the empty tuple at
    conductor N. The caller has checked N against the cap."""
    if not c:
        return _make(N, ())
    terms = _zeta_terms(N, k % N)
    if c == 1:
        return _make(N, terms)
    if c == -1:
        return _make(N, tuple([(i, -v) for i, v in terms]))
    return _make(N, tuple([(i, _rat(v * c)) for i, v in terms]))


def divided(entries, lead: CycloScalar) -> list:
    """[e * lead.inverse() for e in entries], or the entries when lead is 1.
    An entry that is 0 or r * lead at lead's conductor for a rational r (the
    same powers, one common ratio) gives r off the terms, and the inverse is
    taken only for the other entries, once: quotients are unique."""
    t, N = lead._terms, lead.conductor
    if t == ((0, 1),):
        return list(entries)
    inv, out = None, []
    for e in entries:
        s = e._terms
        if not s and N % e.conductor == 0:
            out.append(_make(N, ()))
            continue
        if e.conductor == N and len(s) == len(t) and s[0][0] == t[0][0]:
            r = _rat(Fraction(s[0][1]) / t[0][1])
            if all(j == k and c == r * d for (j, c), (k, d) in zip(s, t)):
                out.append(_make(N, ((0, r),)))
                continue
        if inv is None:
            inv = lead.inverse()
        out.append(e * inv)
    return out


def zeta(N: int, k: int = 1) -> CycloScalar:
    """The canonical representative of zeta_N^k (k reduced mod N)."""
    if N < 1:
        raise ValueError(f"conductor must be >= 1, got {N}")
    _check_conductor(N)
    return _make(N, _zeta_terms(N, k % N))


def root_of_unity(conductor: int, order: int, k: int) -> CycloScalar:
    """zeta_order^k expressed directly at a conductor divisible by order."""
    if conductor % order:
        raise ValueError(f"order {order} does not divide conductor {conductor}")
    return zeta(conductor, (conductor // order) * (k % order))


def _atan_inv(x: int) -> int:
    """arctan(1/x) * 2**400, truncated, by its alternating series: each of
    its terms is floored twice, so it is off by under 2.2 per term."""
    t = (1 << 400) // x
    total, k = t, 1
    while t:
        t //= x * x
        total += (-1) ** k * (t // (2 * k + 1))
        k += 1
    return total


# pi * 2**400 by Machin's formula, pi/4 = 4*arctan(1/5) - arctan(1/239):
# 86 and 25 series terms, so it lies within 2**12 of pi * 2**400.
_PI = 16 * _atan_inv(5) - 4 * _atan_inv(239)


@lru_cache(maxsize=None)
def _unit(N: int, j: int) -> tuple:
    """The real and imaginary parts of zeta_N^j = exp(2*pi*i*j/N) as ints
    over 2**320, each within 1 of the exact part times 2**320, computed once
    per (N, j). Callers pass reduced exponents j < phi(N), so the table
    holds at most phi(N) entries per conductor, like _fold.

    With 4j = q*N + r, |r| <= N/2, the angle is q quarter turns plus
    x = pi*r/(2N), |x| <= pi/4. cos x and sin x are Taylor sums of the
    terms x^k/k! in ints over 2**400, each term floored twice. The error
    of x (under 2**10 + 1, from _PI's), of the at most 77 terms (under 5
    each) and of the tail leave both within 2**11 of the exact values
    times 2**400; rounded to 2**320 they are within 1/2 + 2**-69. A
    quarter turn (r = 0) has x = 0, so its parts are exactly 0 and +-1."""
    q, r = divmod(4 * j, N)
    if 2 * r > N:
        q, r = q + 1, r - N
    x = _PI * abs(r) // (2 * N)
    terms, t = [], 1 << 400
    while t:
        terms.append(t)
        t = (t * x >> 400) // len(terms)
    c = sum(terms[::4]) - sum(terms[2::4]) + (1 << 79) >> 80
    s = sum(terms[1::4]) - sum(terms[3::4]) + (1 << 79) >> 80
    if r < 0:
        s = -s
    for _ in range(q % 4):  # times i
        c, s = -s, c
    return c, s


def _rounded(x) -> float:
    """The mpf x rounded once to a double. Below the least normal double,
    2**-1022, float() would round to 53 bits and then again to the
    subnormal grid; there the exact mantissa and exponent go through one
    int true division, which Python rounds correctly (ties to even)."""
    sign, man, exp, bits = x._mpf_  # x = (-1)**sign * man * 2**exp
    if not man or bits + exp > -1022:
        return float(x)
    if bits + exp < -1076:  # below half the least subnormal
        return -0.0 if sign else 0.0
    return (-man if sign else man) / (1 << -exp)


def _fixed_point(a: CycloScalar):
    """a's double by exact int arithmetic over _unit's fixed-point roots, or
    None when this route cannot prove it equal to the mpmath route's.

    With a = sum(n_j * zeta^j) / d, each part S = sum(n_j * C_j) over the
    parts C_j of _unit's roots is exact; scale = d << 320. The mpmath route
    takes its root as expjpi(mpf(2j) / N) at 200 bits. The rounded argument
    moves a part by at most pi * 2**-200, and the one assumption made of
    mpmath is that its expjpi adds at most 1 ulp (2**-200 below 1) and is
    exact at a quarter turn (4j = 0 mod N), as _unit is. So off quarter
    turns its parts times 2**320 are within (pi + 1) * 2**120 + 1 of C_j,
    and E = sum(|n_j|) * (2**124 + 1) over those j bounds both the distance
    from S to its exact sum of products S' and that from T = sum(|n_j*C_j|)
    to its T'. It rounds each coefficient twice (mpf of its numerator,
    then the division), each product once and each of the L - 1 additions
    once, all to 200 bits (roundoff 2**-200), so its sum lies within
    (L + 3) * 2**-199 * T' / scale of S' / scale. Int true division rounds
    correctly, subnormals included, and rounding is monotone: when
    (S - B) / scale and (S + B) / scale, B = ceil((L + 4) * (T + E) *
    2**-199) + E, are the same double bit for bit (a zero's sign counts),
    the mpmath sum rounds to it too. When T = 0 every term is a quarter
    turn whose part is exactly 0 on both routes, E = S = B = 0, and both
    give +0.0."""
    pairs, den = _int_terms(a.terms())
    scale = den << 320
    slack = len(pairs) + 4
    N = a.conductor
    s_re = s_im = t_re = t_im = e = 0
    for j, n in pairs:
        c_re, c_im = _unit(N, j)
        p_re, p_im = n * c_re, n * c_im
        s_re += p_re
        s_im += p_im
        t_re += abs(p_re)
        t_im += abs(p_im)
        if 4 * j % N:
            e += abs(n)
    e *= (1 << 124) + 1
    parts = []
    for s, t in ((s_re, t_re), (s_im, t_im)):
        b = -(-slack * (t + e) >> 199) + e
        try:
            lo, hi = (s - b) / scale, (s + b) / scale
        except OverflowError:
            return None
        if lo != hi or math.copysign(1.0, lo) != math.copysign(1.0, hi):
            return None
        parts.append(lo)
    return complex(*parts)


def to_complex(a: CycloScalar) -> complex:
    """Numeric value of a as a double; raises FloatingPointOverflow when
    that double would be infinite.

    The double is that of a evaluated at 200 bits through mpmath and then
    rounded once (_rounded), so the only error is the unavoidable
    double-precision representation of the exact value, subnormals
    included. A small rational is one int division; every other value goes
    through _fixed_point, which sums it over integer roots of unity and
    proves its double equals the 200-bit one to within the bound stated
    there. The mpmath sum runs only where it cannot (a part that cancels
    exactly, such as that of 1 + 2*zeta_3, or a double out of range), and
    mpmath is imported only then.
    """
    if a.is_rational():
        q = a.rational_value()
        num, den = q.numerator, q.denominator
        if abs(num) < 2**64 and den < 2**64:
            # Int true division is correctly rounded, and gives the double of
            # the 200-bit route: mpf(num) is exact and the 200-bit quotient
            # lies within 2**-200 * |q| of q. A midpoint m = M * 2**t of two
            # adjacent doubles (M odd, below 2**54) other than q lies at
            # least 2**-128 * |q| from q: q - m is a nonzero multiple of
            # 2**min(t, 0) / den, where 1 / den > 2**-64 * |q| and, for every
            # m within |q| / 2 of q, 2**t > 2**-55 * |q|. So both routes round
            # to the same side of each such m. A q that is a midpoint has 54
            # bits, is exact at 200 bits, and both routes break its tie to
            # even. |q| >= 2**-64 keeps both clear of subnormals.
            return complex(num / den)
    z = _fixed_point(a)
    if z is not None:
        return z
    import mpmath

    with mpmath.workprec(200):
        total = mpmath.mpc(0)
        N = a.conductor
        for j, c in a.terms():
            q = mpmath.mpf(c.numerator) / c.denominator
            total += q * mpmath.expjpi(mpmath.mpf(2 * j) / N)
        z = complex(_rounded(total.real), _rounded(total.imag))
    if not cmath.isfinite(z):
        raise FloatingPointOverflow(
            f"a value at conductor {a.conductor} exceeds IEEE double range",
            conductor=a.conductor,
        )
    return z
