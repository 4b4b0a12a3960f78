"""Exact cyclotomic arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c5cone import (
    CONDUCTOR_LIMIT,
    ConductorLimitExceeded,
    CycloScalar,
    DivisionByZero,
    common_conductor,
    cyclotomic_polynomial,
    root_of_unity,
    to_complex,
    zeta,
)
from c5cone.scalar import euler_phi

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
    one = Fraction(1)
    assert tuple(cyclotomic_polynomial(1)) == (-one, one)
    assert tuple(cyclotomic_polynomial(2)) == (one, one)
    assert tuple(cyclotomic_polynomial(4)) == (one, Fraction(0), one)
    assert tuple(cyclotomic_polynomial(6)) == (one, -one, one)
    assert tuple(cyclotomic_polynomial(12)) == (
        one, Fraction(0), -one, Fraction(0), one,
    )


@pytest.mark.parametrize("N", _ORDERS)
def test_cyclotomic_polynomial_annihilates_primitive_root(N):
    value = CycloScalar.rational(0)
    z = zeta(N)
    for j, c in enumerate(cyclotomic_polynomial(N)):
        value = value + CycloScalar.rational(c) * z ** j
    assert value.is_zero()


@pytest.mark.parametrize("N", _ORDERS)
def test_cyclotomic_polynomial_degree_is_phi(N):
    assert len(cyclotomic_polynomial(N)) == euler_phi(N) + 1


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
    with pytest.raises(ConductorLimitExceeded):
        zeta(CONDUCTOR_LIMIT + 1)


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
