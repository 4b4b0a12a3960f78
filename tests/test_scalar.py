"""Exact cyclotomic arithmetic."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c5cone import (
    CONDUCTOR_LIMIT,
    ConductorLimitExceeded,
    CycloScalar,
    DivisionByZero,
    EngineError,
    FloatingPointOverflow,
    c5_cone,
    common_conductor,
    read_curve,
    root_of_unity,
    scalar,
    to_complex,
    zeta,
)
from c5cone.geometry import component_rows
from c5cone.auxiliary import representative_ks
from c5cone.c5 import sigma
from c5cone.scalar import _cyclotomic, _factors, _rounded, _zeta_terms, euler_phi
from random_curves import random_curve
from reference_complex import to_complex as reference_to_complex

_ORDERS = (1, 2, 3, 4, 6, 8, 12)


def scalars():
    rationals = st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    ).map(CycloScalar.rational)
    roots = st.tuples(
        st.sampled_from(_ORDERS),
        st.integers(min_value=0, max_value=11),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ).map(lambda t: zeta(t[0], t[1] % t[0]) * CycloScalar.rational(t[2]))
    return st.one_of(rationals, roots)


# ---------------------------------------------------------------------------
# helpers


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


def test_common_conductor_is_lcm():
    assert common_conductor(4, 6) == 12
    assert common_conductor(3) == 3
    assert common_conductor(2, 5, 7) == 70


def test_common_conductor_respects_limit():
    with pytest.raises(ConductorLimitExceeded):
        common_conductor(CONDUCTOR_LIMIT, CONDUCTOR_LIMIT - 1)


def test_cyclotomic_polynomial_known_values():
    # Phi_N as ints, lowest degree first
    assert _cyclotomic(1) == (-1, 1)
    assert _cyclotomic(2) == (1, 1)
    assert _cyclotomic(4) == (1, 0, 1)
    assert _cyclotomic(6) == (1, -1, 1)
    assert _cyclotomic(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("N", _ORDERS)
def test_cyclotomic_polynomial_annihilates_primitive_root(N):
    value = CycloScalar.rational(0)
    z = zeta(N)
    for j, c in enumerate(_cyclotomic(N)):
        value = value + CycloScalar.rational(c) * z ** j
    assert value.is_zero()


@pytest.mark.parametrize("N", _ORDERS)
def test_cyclotomic_polynomial_degree_is_phi(N):
    assert len(_cyclotomic(N)) == euler_phi(N) + 1


@pytest.mark.parametrize("N", [1, 2, 12, 60, 105, 210, 420, 2310])
def test_cyclotomic_polynomial_matches_sympy(N):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    want = sympy.Poly(sympy.cyclotomic_poly(N, x), x).all_coeffs()[::-1]
    assert _cyclotomic(N) == tuple(int(c) for c in want)


def test_integer_facts_read_off_one_factorization_match_sympy():
    # phi, Phi_N, sigma and the factorization itself against sympy for every
    # n <= 300 and for conductors with many primes, a prime power and the
    # primes 2017 and 10079; sympy builds Phi_p of a prime p by a long
    # division that takes seconds at p = 10079, so for those two the check
    # is sympy's product (x - 1) * Phi_p = x^p - 1, which fixes Phi_p too
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in [*range(1, 301), 1024, 2017, 2310, 2520, 9240, 10079, 10080]:
        factors, want = _factors(n), sympy.factorint(n)
        assert dict(factors) == want and [p for p, _ in factors] == sorted(want), n
        assert math.prod(p**e for p, e in factors) == n
        assert euler_phi(n) == sympy.totient(n), n
        assert sigma(n) == 1 + sum(want.values()), n
        got = sympy.Poly(_cyclotomic(n)[::-1], x)
        if n > 300 and sympy.isprime(n):
            assert got * sympy.Poly(x - 1, x) == sympy.Poly(x**n - 1, x), n
        else:
            assert got == sympy.cyclotomic_poly(n, x, polys=True), n
    for m in range(1, 601):
        assert representative_ks(m) == tuple(m // d for d in range(2, m + 1) if m % d == 0), m


# ---------------------------------------------------------------------------
# roots of unity


@pytest.mark.parametrize("N", _ORDERS)
def test_zeta_has_exact_order(N):
    z = zeta(N)
    assert (z ** N).rational_value() == 1
    for k in range(1, N):
        assert z ** k != CycloScalar.rational(1, conductor=z.conductor)


def test_zeta_numeric_value():
    for N in _ORDERS:
        for k in range(N):
            got = to_complex(zeta(N, k))
            want = complex(
                math.cos(2 * math.pi * k / N), math.sin(2 * math.pi * k / N)
            )
            assert abs(got - want) < 1e-12


def test_root_of_unity_embeds_in_conductor():
    z = root_of_unity(12, 4, 1)
    assert z.conductor == 12
    assert z == zeta(4).embed(12)


def test_sixth_root_identity():
    assert zeta(6) == CycloScalar.rational(1, conductor=6) + zeta(3).embed(6)


def test_primitive_cube_roots_sum_to_minus_one():
    total = zeta(3) + zeta(3, 2)
    assert total.is_rational()
    assert total.rational_value() == -1


@pytest.mark.parametrize("N", [1, 2, 12, 60, 105])
def test_zeta_equals_the_reduced_power_of_x(N):
    phi = euler_phi(N)
    for k in [*range(N), -1, N, 2 * N + 1]:
        z = zeta(N, k)
        assert z.conductor == N and len(z.coeffs) == phi
        assert z.coeffs == CycloScalar.from_poly(N, [0] * (k % N) + [1]).coeffs


def test_conductor_limit_guards_zeta():
    before = _zeta_terms.cache_info().currsize
    with pytest.raises(ConductorLimitExceeded):
        zeta(CONDUCTOR_LIMIT + 1)
    assert _zeta_terms.cache_info().currsize == before


@lru_cache(maxsize=None)
def _dense_monomial(N, r, c):
    """c * zeta_N^r for 0 <= r < N, through from_poly on the dense list of
    r zeros: the route monomials took before the table."""
    return CycloScalar.from_poly(N, [0] * r + [c])


def _as_dense(a, b, text=True):
    same = (a.conductor, a.terms()) == (b.conductor, b.terms())
    return same and (not text or a.text() == b.text())


@pytest.mark.parametrize("N", [1, 2, 3, 4, 12, 60, 105, 120, 360, 420, 2017])
def test_monomials_from_the_table_match_the_dense_route(N):
    phi = euler_phi(N)
    # one-term bases c * zeta^j, j < phi(N): the first, middle and last
    js = sorted({1 % phi, phi // 2, phi - 1})
    for k in range(-2 * N, 2 * N + 1):
        one = _dense_monomial(N, k % N, Fraction(1))
        assert _as_dense(zeta(N, k), one)
        assert _as_dense(root_of_unity(N, N, k), one)
        j = js[k % len(js)]
        for c in (Fraction(1), Fraction(-1), Fraction(3, 7)):
            base = _dense_monomial(N, k % phi, c)
            assert _as_dense(base.inverse(), _dense_monomial(N, -(k % phi) % N, 1 / c))
            power = _dense_monomial(N, j, c) ** k
            if abs(c) == 1:
                expected = _dense_monomial(N, j * k % N, c**k)
            else:  # c**k takes a new value at every k: scale the dense root
                expected = _dense_monomial(N, j * k % N, Fraction(1)) * c**k
            # printing (3/7)^k costs time quadratic in k's digits
            assert _as_dense(power, expected, text=abs(c) == 1 or abs(k) <= 64)
    _dense_monomial.cache_clear()


def test_the_table_of_powers_holds_the_terms_the_readme_states():
    for N, total in ((420, 4544), (2017, 4032)):
        assert sum(len(_zeta_terms(N, k)) for k in range(N)) == total


# ---------------------------------------------------------------------------
# field laws


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inverse()
    else:
        assert (a * a.inverse()).rational_value() == 1
        assert a / a == CycloScalar.rational(1, conductor=a.conductor)


@settings(max_examples=60, deadline=None)
@given(scalars(), st.sampled_from((2, 3, 4)))
def test_embed_preserves_value(a, factor):
    wide = a.embed(a.conductor * factor)
    assert wide == a
    assert abs(to_complex(wide) - to_complex(a)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_arithmetic_matches_complex_embedding(a, b):
    assert abs(to_complex(a * b) - to_complex(a) * to_complex(b)) < 1e-9
    assert abs(to_complex(a + b) - (to_complex(a) + to_complex(b))) < 1e-9


def test_rational_value_rejects_irrational():
    assert not zeta(3).is_rational()
    with pytest.raises(ValueError):
        zeta(3).rational_value()


def test_text_round_trip_readable():
    assert CycloScalar.rational(Fraction(-3, 2)).text() == "-3/2"
    assert zeta(3).text() == "1*z(3,1)"


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        CycloScalar.rational(1) / CycloScalar.rational(0)
    with pytest.raises(DivisionByZero):
        CycloScalar.rational(0, conductor=12) / CycloScalar.rational(0)


# ---------------------------------------------------------------------------
# integer reduction and the fast paths, against a Fraction reference: a
# schoolbook product and long division by Phi_N, with Phi_N itself found as
# (x^N - 1) / prod(Phi_d for proper divisors d of N)

_FIELD_ORDERS = (1, 2, 3, 4, 12, 60, 105, 420)


def _ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _ref_divmod(a, b):
    """Quotient and remainder of a by b over Fraction; b's top entry is
    nonzero."""
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    for shift in range(len(a) - len(b), -1, -1):
        f = a[shift + len(b) - 1] / b[-1]
        q[shift] = f
        if f:
            for i, c in enumerate(b):
                a[shift + i] -= f * c
    return q, a[: len(b) - 1]


@lru_cache(maxsize=None)
def _ref_phi(N):
    num = [Fraction(-1)] + [Fraction(0)] * (N - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, N):
        if N % d == 0:
            den = _ref_mul(den, _ref_phi(d))
    q, r = _ref_divmod(num, den)
    assert not any(r)
    return tuple(q)


def _ref_reduce(N, poly):
    """Coefficients of poly modulo Phi_N, padded to length phi(N)."""
    phi = _ref_phi(N)
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * len(phi)
    return tuple(_ref_divmod(poly, phi)[1])


def _ref_embed(a, M):
    step = M // a.conductor
    poly = [Fraction(0)] * (step * (len(a.coeffs) - 1) + 1)
    poly[::step] = a.coeffs
    return _ref_reduce(M, poly)


_coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=1)
_with_denominators = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def field_elements(draw, N=None):
    """Zero, rational, monomial, dense, or dense with denominators, at one
    of the conductors above."""
    if N is None:
        N = draw(st.sampled_from(_FIELD_ORDERS))
    phi = euler_phi(N)
    kind = draw(st.sampled_from(("zero", "rational", "monomial", "dense", "fractions")))
    if kind == "zero":
        poly = [0]
    elif kind == "rational":
        poly = [draw(_with_denominators.filter(bool))]
    elif kind == "monomial":
        poly = [0] * draw(st.integers(0, phi - 1)) + [draw(_with_denominators.filter(bool))]
    else:
        entries = _coefficients if kind == "dense" else _with_denominators
        poly = draw(st.lists(entries, min_size=phi, max_size=phi))
    return CycloScalar.from_poly(N, poly)


def _canonical_zeros(a):
    """Every dense coefficient, zeros included, is stored as an int when it
    is integral and as a Fraction with a denominator above 1 otherwise."""
    return all(
        type(c) is int if c.denominator == 1 else type(c) is Fraction for c in a.coeffs
    )


def _sparse_canonical(a):
    """The stored terms have strictly increasing exponents in [0, phi(N))
    and no zero coefficient, and from_poly of the dense view is the same
    scalar."""
    ks = [k for k, _ in a.terms()]
    return (
        all(c for _, c in a.terms())
        and all(0 <= k < euler_phi(a.conductor) for k in ks)
        and all(i < j for i, j in zip(ks, ks[1:]))
        and CycloScalar.from_poly(a.conductor, a.coeffs) == a
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_arithmetic_matches_the_fraction_reference(data):
    N = data.draw(st.sampled_from(_FIELD_ORDERS))
    a = data.draw(field_elements(N))
    b = data.draw(field_elements(N))
    assert (a * b).coeffs == _ref_reduce(N, _ref_mul(a.coeffs, b.coeffs))
    assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
    assert (-a).coeffs == tuple(-x for x in a.coeffs)
    quotients = ()
    if b.is_zero():
        with pytest.raises(DivisionByZero):
            a / b
    elif euler_phi(N) <= 48:
        q = a / b
        assert _ref_reduce(N, _ref_mul(q.coeffs, b.coeffs)) == a.coeffs
        assert _ref_reduce(N, _ref_mul(b.inverse().coeffs, b.coeffs)) == (
            _ref_reduce(N, [1])
        )
        quotients = (q, b.inverse())
    else:
        # quotients at phi = 96 carry thousand-digit coefficients, which the
        # Fraction reference takes seconds to multiply
        assert (a / b) * b == a
    for result in (a * b, a + b, a - b, -a):
        assert len(result.coeffs) == euler_phi(N)
        assert _canonical_zeros(result)
    for result in (a, b, a * b, a + b, a - b, -a, *quotients):
        assert _sparse_canonical(result)


@settings(max_examples=30, deadline=None)
@given(field_elements(), field_elements())
def test_mixed_conductors_match_the_fraction_reference(a, b):
    M = math.lcm(a.conductor, b.conductor)
    wa, wb = _ref_embed(a, M), _ref_embed(b, M)
    assert a.embed(M).coeffs == wa
    assert (a * b).conductor == M
    assert (a * b).coeffs == _ref_reduce(M, _ref_mul(wa, wb))
    assert (a + b).coeffs == tuple(x + y for x, y in zip(wa, wb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(wa, wb))
    for result in (a.embed(M), b.embed(M), a * b, a + b, a - b):
        assert _sparse_canonical(result)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_FIELD_ORDERS), st.data())
def test_from_poly_reduces_like_the_fraction_reference(N, data):
    poly = data.draw(st.lists(
        st.one_of(st.just(Fraction(0)), _with_denominators, st.integers(-9, 9)),
        max_size=3 * N + 2,
    ))
    got = CycloScalar.from_poly(N, poly)
    assert got.coeffs == _ref_reduce(N, poly)
    assert _canonical_zeros(got)
    assert _sparse_canonical(got)


@pytest.mark.parametrize("N", _FIELD_ORDERS)
def test_cyclotomic_polynomial_matches_the_fraction_reference(N):
    assert _cyclotomic(N) == tuple(_ref_phi(N))


def test_zeros_that_are_not_shared_still_count_as_zero():
    fresh = CycloScalar.from_poly(12, [Fraction(0), Fraction(0), Fraction(3, 2), Fraction(0)])
    shared = CycloScalar.rational(Fraction(3, 2), 12) * zeta(12, 2)
    assert fresh == shared
    assert fresh.text() == shared.text() == "3/2*z(12,2)"
    assert not fresh.is_rational()
    assert CycloScalar.from_poly(12, [Fraction(0)] * 4).is_zero()
    assert not CycloScalar.from_poly(12, [Fraction(0)] * 4)
    assert CycloScalar.from_poly(12, [Fraction(5)] + [Fraction(0)] * 3).is_rational()
    assert (fresh * fresh.inverse()).rational_value() == 1


def test_dense_int_coefficients_are_stored_as_ints():
    a = CycloScalar.from_poly(12, [2, 0, 3, 0])
    assert a == 2 + 3 * zeta(12, 2)
    assert [type(c) for _, c in a.terms()] == [int, int]
    assert a * a.inverse() == 1
    assert CycloScalar.from_poly(12, [2, 0, 0, 0]).inverse().text() == "1/2"


def test_the_class_takes_no_dense_coefficients():
    # from_poly is the one dense entry point
    with pytest.raises(TypeError):
        CycloScalar(12, [1, 0, 0, 0])


# divisors of 420: the lcm of any two is again one of them
_STORE_ORDERS = (1, 3, 4, 5, 12, 15, 20, 60, 105, 420)


def _ref_text(N, dense):
    parts = [str(c) if k == 0 else f"{c}*z({N},{k})" for k, c in enumerate(dense) if c]
    return " + ".join(parts) if parts else "0"


def _ref_scale_into(dense, N, M):
    """The dense reference of an element of Q(zeta_N) embedded at M."""
    step = M // N
    poly = [Fraction(0)] * (step * (len(dense) - 1) + 1)
    poly[::step] = dense
    return _ref_reduce(M, poly)


@lru_cache(maxsize=None)
def _ref_powers(N):
    """x^k modulo Phi_N for 0 <= k < N, each from the one before: shift up
    and subtract the top coefficient times the monic Phi_N."""
    phi = _ref_phi(N)
    powers = [tuple(Fraction(int(i == 0)) for i in range(len(phi) - 1))]
    for _ in range(1, N):
        prev = powers[-1]
        top = prev[-1]
        powers.append(tuple(
            (prev[i - 1] if i else Fraction(0)) - top * phi[i] for i in range(len(prev))
        ))
    return powers


def test_coefficients_are_ints_when_integral_against_a_fraction_reference():
    # 600 seeded scalars at N <= 420 built by sums, products, inverses,
    # powers, embeddings and rational scaling from sparse leaves whose
    # coefficients are mostly integral: every stored coefficient is an int
    # when integral, a Fraction with denominator > 1 otherwise, and the
    # value and text() are those of a Fraction-only dense reference
    rng = random.Random(26)

    def operand():
        if pool and rng.random() < 0.6:
            return rng.choice(pool)
        if rng.random() < 0.1:
            q = rng.choice((True, False, 4, Fraction(6, 3), Fraction(-1, 2)))
            return CycloScalar.rational(q), (Fraction(q),)
        N = rng.choice(_STORE_ORDERS)
        poly = {rng.randrange(2 * N): Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3)))
                for _ in range(rng.randrange(1, 4))}
        ref = [Fraction(0)] * euler_phi(N)
        for k, c in poly.items():
            ref = [x + c * y for x, y in zip(ref, _ref_powers(N)[k % N])]
        dense = [poly.get(k, 0) for k in range(max(poly) + 1)]
        return CycloScalar.from_poly(N, dense), tuple(ref)

    pool, built, kinds, types = [], 0, set(), set()
    while built < 600:
        (a, ra), (b, rb) = operand(), operand()
        N = a.conductor
        kind = rng.choice(("sum", "product", "inverse", "power", "embed", "scale"))
        if kind in ("sum", "product"):
            if b.conductor != N:
                M = math.lcm(N, b.conductor)
                ra, rb, N = _ref_scale_into(ra, N, M), _ref_scale_into(rb, b.conductor, M), M
            if kind == "sum":
                got, ref = a + b, tuple(x + y for x, y in zip(ra, rb))
            else:
                got, ref = a * b, _ref_reduce(N, _ref_mul(ra, rb))
        elif kind in ("inverse", "power"):
            k = -1 if kind == "inverse" else rng.choice((-2, 0, 2, 3))
            if not a or (k < 0 and len(a.terms()) > 4) or (k > 0 and len(a.terms()) > 6):
                continue
            got = a.inverse() if kind == "inverse" else a ** k
            base = ra
            if k < 0:  # 1/a is the one x with x * a = 1
                base = tuple(Fraction(c) for c in a.inverse().coeffs)
                assert _ref_reduce(N, _ref_mul(base, ra)) == (1,) + (0,) * (len(ra) - 1)
            ref = (Fraction(1),) + (Fraction(0),) * (len(ra) - 1)
            for _ in range(abs(k)):
                ref = _ref_reduce(N, _ref_mul(ref, base))
        elif kind == "embed":
            M = rng.choice([M for M in _STORE_ORDERS if M % N == 0])
            got, ref, N = a.embed(M), _ref_scale_into(ra, N, M), M
        else:
            q = rng.choice((2, -3, Fraction(1, 2), Fraction(-4, 3), Fraction(3, 3), True))
            got, ref = a * q if rng.random() < 0.5 else q * a, tuple(c * q for c in ra)
        assert got.conductor == N
        stored = {type(c) for _, c in got.terms()}
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for _, c in got.terms())
        assert got.coeffs == ref
        assert got.text() == _ref_text(N, ref)
        built += 1
        kinds.add(kind)
        types |= stored
        if max((abs(c.numerator) for _, c in got.terms()), default=0) < 10**6:
            pool.append((got, ref))
    assert len(kinds) == 6 and types == {int, Fraction}


@pytest.mark.parametrize("N", [1, 4, 12, 60, 105, 420])
def test_reduction_matches_sympy_rem(N):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(N, x), x, domain="QQ")
    rng = random.Random(N)
    for _ in range(3):
        poly = [
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)) if rng.random() < 0.3 else 0
            for _ in range(rng.randint(1, 2 * N + 3))
        ]
        p = sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, reversed(poly))],
            x, domain="QQ",
        )
        rem = [Fraction(str(c)) for c in reversed(p.rem(phi).all_coeffs())]
        want = tuple(rem + [Fraction(0)] * (euler_phi(N) - len(rem)))
        assert CycloScalar.from_poly(N, poly).coeffs == want


# ---------------------------------------------------------------------------
# Conversion to doubles: bit for bit the 200-bit reference.


def _bits(z: complex) -> tuple:
    """The two doubles of z as hex text, which tells -0.0 from 0.0."""
    return z.real.hex(), z.imag.hex()


def _assert_as_reference(a):
    assert _bits(to_complex(a)) == _bits(reference_to_complex(a)), a


_EDGES = (2**63, 2**64 - 1, 2**64, 2**200)


def test_rationals_at_the_fast_path_bounds_convert_like_the_reference():
    parts = [1, 3, 7, 2**53 + 1, *(e + d for e in _EDGES for d in (-1, 0, 1))]
    for num in parts:
        for den in parts:
            for sign in (1, -1):
                _assert_as_reference(CycloScalar.rational(Fraction(sign * num, den)))


def test_midpoints_zero_and_negatives_convert_like_the_reference():
    half_ulp = Fraction(1, 2**53)
    values = [
        0, 1, -1, 1 + half_ulp, 1 - half_ulp, 1 - half_ulp / 2, 1 + 3 * half_ulp,
        -(1 + half_ulp), -(1 + 3 * half_ulp), Fraction(1, 3), Fraction(-2, 3),
        Fraction(2**64 - 1, 2**63), Fraction(-(2**53 + 1), 2**64 - 1),
    ]
    for q in values:
        for conductor in (1, 12):
            _assert_as_reference(CycloScalar.rational(q, conductor))
    assert to_complex(CycloScalar.rational(1 + half_ulp)) == 1.0  # tie to even
    assert to_complex(CycloScalar.rational(1 + 3 * half_ulp)) == 1 + 4 * float(half_ulp)


def test_subnormal_rationals_round_once_like_int_division():
    # above 2**64 the value is no longer one int division; rounding its
    # 200-bit value to 53 bits and then to the subnormal grid would send
    # 2**-1075 + 2**-1145, just above half the least subnormal, to 0.0
    q = Fraction(1, 2**1075) + Fraction(1, 2**1145)
    assert to_complex(CycloScalar.rational(q)) == 5e-324
    assert to_complex(CycloScalar.rational(-q)) == -5e-324
    rng = random.Random(1075)
    values = [q, Fraction(1, 2**1075), Fraction(3, 2**1076), Fraction(2**70 - 1, 2**1092)]
    for _ in range(300):
        den = rng.randrange(2**64, 2**90) << rng.randrange(1000, 1030)
        num = rng.randrange(1, 2**40)
        values.append(Fraction(num, den))
    assert any(abs(v.numerator) >= 2**64 or v.denominator >= 2**64 for v in values)
    for v in values:
        for sign in (1, -1):
            a = CycloScalar.rational(sign * v)
            exact = (sign * v.numerator) / v.denominator
            assert abs(exact) <= sys.float_info.min
            assert _bits(to_complex(a)) == _bits(complex(exact)), v
            _assert_as_reference(a)


def test_subnormal_parts_of_irrational_values_round_once():
    # zeta_12 times a subnormal-sized rational: both parts below 2**-1022
    for num, shift in ((1, 1060), (3, 1072), (2**70 + 1, 1140), (5, 1076)):
        _assert_as_reference(CycloScalar.rational(Fraction(num, 2**shift)) * zeta(12))
        _assert_as_reference(CycloScalar.rational(Fraction(-num, 2**shift)) * zeta(8, 3))


_COEFFICIENTS = (
    Fraction(1), Fraction(-1, 3), Fraction(2**64 - 1, 7), Fraction(5, 2**64),
    Fraction(2**200 + 1, 3), Fraction(-(2**63), 2**200 - 1),
)


@pytest.mark.parametrize("N", [3, 4, 12, 60, 420, 2017])
def test_irrational_values_convert_like_the_reference(N):
    rng = random.Random(N)
    for _ in range(12):
        terms = rng.randint(1, 5)
        poly = [0] * N
        for k in rng.sample(range(1, N), min(terms, N - 1)):
            poly[k] = rng.choice(_COEFFICIENTS)
        if rng.random() < 0.5:
            poly[0] = rng.choice(_COEFFICIENTS)
        _assert_as_reference(CycloScalar.from_poly(N, poly))
    # the first roots, and each zeta^k with k >= phi(N), which has many terms
    for k in range(N):
        if k < 6 or k >= euler_phi(N) or k == N - 1:
            _assert_as_reference(zeta(N, k))


@pytest.fixture
def mpmath_sums(monkeypatch):
    """The doubles to_complex rounds off an mpmath sum, which only its
    fallback route makes, listed as they are made."""
    made = []

    def counted(x):
        made.append(x)
        return _rounded(x)

    monkeypatch.setattr(scalar, "_rounded", counted)
    return made


# parts that are exactly zero, or cancel exactly: 1/9 - 2/9 * 1/2 = 0
_CANCELLING = (-3 * zeta(4), zeta(8) + zeta(8, 3), Fraction(1, 9) + Fraction(2, 9) * zeta(3))
# 2**-1070 and 2**-1150 leave subnormal or vanishing parts; 2**1023 puts
# some near the top of double range and 10**400 beyond it
_SCALES = (1, 1, 1, 1, 1, Fraction(1, 2**1070), Fraction(3, 2**1150), 2**1023, 10**400)


def test_to_complex_matches_the_reference_bit_for_bit():
    rng = random.Random(24)
    # the mpmath route too, with subnormal and out-of-range parts
    values = [scale * a for a in _CANCELLING for scale in dict.fromkeys(_SCALES)]
    for N in (3, 4, 8, 12, 16, 60, 120, 360, 420, 2017, 2520, 9240):
        for _ in range(170):
            # powers below phi(N) are basis vectors, so the value has one
            # term per power drawn
            powers = rng.sample(range(euler_phi(N)), min(rng.randint(1, 5), euler_phi(N)))
            value = sum(rng.choice(_COEFFICIENTS) * zeta(N, k) for k in powers)
            values.append(rng.choice(_SCALES) * value)
    assert len(values) >= 2000
    for a in values:
        try:
            want = reference_to_complex(a)
        except OverflowError:
            with pytest.raises(FloatingPointOverflow):
                to_complex(a)
            continue
        assert _bits(to_complex(a)) == _bits(want), a


def _mpmath_root(N: int, j: int) -> tuple:
    """The parts of the mpmath route's root, expjpi(mpf(2j) / N) at 200
    bits, times 2**320: exact ints, as every nonzero part is above 2**-14."""
    with mpmath.workprec(200):
        u = mpmath.expjpi(mpmath.mpf(2 * j) / N)
    out = []
    for x in (u.real, u.imag):
        sign, man, exp, _ = x._mpf_
        assert not man or exp >= -320
        out.append((-man if sign else man) << exp + 320 if man else 0)
    return tuple(out)


_QUARTER_TURNS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def test_integer_roots_are_within_the_slack_of_the_mpmath_roots():
    # _fixed_point's slack allows 2**124 + 1 units of 2**-320 per part
    bound = 2**124 + 1
    cases = [(N, j) for N in range(1, 301) for j in range(euler_phi(N))]
    rng = random.Random(28)
    for N in (2017, 2520, 9240, 10079, 10080):
        cases += [(N, j) for j in rng.sample(range(N), 60)]
    for N, j in cases:
        if 4 * j % N:
            ours, theirs = scalar._unit.__wrapped__(N, j), _mpmath_root(N, j)
            assert all(abs(c - m) <= bound for c, m in zip(ours, theirs)), (N, j)
    for N in range(1, 301):
        for j in range(0, N, N // math.gcd(N, 4)):  # every quarter turn
            exact = tuple(v << 320 for v in _QUARTER_TURNS[4 * j // N])
            assert scalar._unit.__wrapped__(N, j) == _mpmath_root(N, j) == exact, (N, j)


def test_mpmath_roots_meet_the_one_assumption_made_of_them():
    # _fixed_point assumes that the 200-bit argument mpf(2j) / N is within
    # 2**-200 of 2j/N and that expjpi at 200 bits lands within 1 ulp of
    # each part of exp(i*pi*x) at that argument x
    rng = random.Random(2800)
    for _ in range(300):
        N = rng.randint(1, CONDUCTOR_LIMIT)
        j = rng.randrange(N)
        with mpmath.workprec(200):
            x = mpmath.mpf(2 * j) / N
            u = mpmath.expjpi(x)
        man, exp = x.man_exp
        assert abs(Fraction(man) * Fraction(2) ** exp - Fraction(2 * j, N)) <= Fraction(1, 2**200)
        with mpmath.workprec(600):
            exact = mpmath.expjpi(x)
            for got, want in ((u.real, exact.real), (u.imag, exact.imag)):
                _, man, exp, bits = got._mpf_
                ulp = mpmath.ldexp(1, exp + bits - 200) if man else 0
                assert abs(got - want) <= ulp + mpmath.ldexp(1, -500), (N, j)


def test_a_cancelling_part_takes_the_mpmath_route(mpmath_sums):
    a = Fraction(1, 9) + Fraction(2, 9) * zeta(3)
    _assert_as_reference(a)
    assert len(mpmath_sums) == 2  # its real and imaginary parts
    _assert_as_reference(Fraction(1, 9) * zeta(3))
    assert len(mpmath_sums) == 2


def test_fixtures_and_random_curves_convert_without_the_fallback(mpmath_sums, fixtures_dir):
    curves = [read_curve(path) for path in sorted(fixtures_dir.glob("*.json"))]
    assert len(curves) == 17
    rng = random.Random(2024)
    irrational = 0
    while irrational < 100:
        c = random_curve(rng)
        if any(not a.is_rational() for a in _branch_coefficients(c)):
            curves.append(c)
            irrational += 1
    converted = 0
    for c in curves:
        try:
            components = c5_cone(c).components
        except EngineError:
            components = ()
        entries = [e for comp in components for row in component_rows(comp) for e in row]
        for a in _branch_coefficients(c) + entries:
            to_complex(a)
            converted += not a.is_rational()
    assert converted > 100
    assert mpmath_sums == []


def _branch_coefficients(c) -> list:
    return [a for b in c.branches for series in b.param.coords for _, a in series.terms]


def test_values_beyond_double_range_raise_overflow():
    huge = CycloScalar.rational(10**400)
    for a in (huge, -huge, huge * zeta(12), CycloScalar.rational(2**1023) * 2 + zeta(4)):
        with pytest.raises(FloatingPointOverflow):
            to_complex(a)
    assert to_complex(CycloScalar.rational(Fraction(1, 10**400))) == 0


def test_mpmath_is_loaded_only_for_the_fallback_sum():
    src = Path(__file__).resolve().parent.parent / "src"
    fixture = src.parent / "fixtures" / "space_cusp.json"
    script = (
        "import sys\n"
        "import c5cone.cli\n"
        "assert 'mpmath' not in sys.modules, 'import'\n"
        f"assert c5cone.cli.main(['analyze', {str(fixture)!r}, '--json']) == 0\n"
        "assert 'mpmath' not in sys.modules, 'analyze'\n"
        "c5cone.to_complex(c5cone.zeta(3))\n"
        "assert 'mpmath' not in sys.modules, 'irrational'\n"
        # its real part cancels exactly, so only the mpmath sum decides it
        "z = c5cone.to_complex(1 + 2 * c5cone.zeta(3))\n"
        "assert 'mpmath' in sys.modules, 'fallback'\n"
        "assert repr(z) == '(-1.2446030555722283e-60+1.7320508075688772j)', z\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
