"""Parametrization algebra: orders, substitutions, Puiseux-form checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c5cone import (
    CoordinateSeries,
    CycloScalar,
    NotPuiseuxForm,
    Parametrization,
    curve_from_exponents,
    order,
    puiseux_form_check,
    zeta,
)
from c5cone.series import INFINITE, exponent_gcd
from reference_aux import substitute_power, substitute_scale, subtract


def series(terms):
    return CoordinateSeries((e, CycloScalar.rational(c)) for e, c in terms)


def param(*coords):
    return Parametrization([series(t) for t in coords])


@st.composite
def parametrizations(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    coords = []
    for _ in range(n):
        exps = draw(
            st.lists(
                st.integers(min_value=1, max_value=20),
                max_size=3,
                unique=True,
            )
        )
        coeffs = draw(
            st.lists(
                st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
                    bool
                ),
                min_size=len(exps),
                max_size=len(exps),
            )
        )
        coords.append(list(zip(exps, coeffs)))
    return param(*coords)


# ---------------------------------------------------------------------------
# CoordinateSeries basics


def test_series_orders_terms_and_drops_zeros():
    s = CoordinateSeries(
        [(9, CycloScalar.rational(1)), (4, CycloScalar.rational(2)),
         (7, CycloScalar.rational(0))]
    )
    assert [e for e, _ in s.terms] == [4, 9]
    assert s.order() == 4
    assert s.coefficient(4).rational_value() == 2
    assert s.coefficient(7).is_zero()
    # a missing exponent reads one shared zero
    assert s.coefficient(7) is s.coefficient(100) is CoordinateSeries().coefficient(1)


def test_series_rejects_duplicate_exponents():
    with pytest.raises(ValueError):
        CoordinateSeries([(4, CycloScalar.rational(1)), (4, CycloScalar.rational(2))])


def test_series_rejects_nonpositive_exponents():
    with pytest.raises(ValueError):
        CoordinateSeries([(0, CycloScalar.rational(1))])


def test_zero_series_has_infinite_order():
    s = CoordinateSeries([])
    assert s.is_zero()
    assert s.order() == INFINITE


def test_series_text():
    s = series([(6, 1), (9, -1)])
    assert s.text() == "u^6 + (-1)*u^9"
    assert series([]).text() == "0"


def test_parametrization_needs_a_coordinate():
    with pytest.raises(ValueError):
        Parametrization([])


# ---------------------------------------------------------------------------
# substitution laws


def test_order_is_minimum_over_coordinates():
    assert order(param([(6, 1)], [(4, 2)], [])) == 4
    assert order(param([], [])) == INFINITE


@settings(max_examples=50, deadline=None)
@given(parametrizations(), st.integers(min_value=1, max_value=4))
def test_substitute_power_scales_order(p, k):
    q = substitute_power(p, k)
    if p.is_zero():
        assert q.is_zero()
    else:
        assert order(q) == k * order(p)


@settings(max_examples=50, deadline=None)
@given(parametrizations())
def test_substitute_scale_by_one_is_identity(p):
    assert substitute_scale(p, CycloScalar.rational(1)) == p


@settings(max_examples=50, deadline=None)
@given(parametrizations())
def test_scale_substitutions_compose(p):
    a, b = zeta(3), zeta(4)
    one_step = substitute_scale(p, a.embed(12) * b.embed(12))
    two_step = substitute_scale(substitute_scale(p, a), b)
    assert one_step == two_step


@settings(max_examples=50, deadline=None)
@given(parametrizations())
def test_subtract_self_is_zero(p):
    assert subtract(p, p).is_zero()


def test_subtract_cancels_matching_terms():
    p = param([(4, 1), (6, 1)])
    q = param([(4, 1), (7, 2)])
    d = subtract(p, q)
    assert [e for e, _ in d.coords[0].terms] == [6, 7]


def test_scale_substitution_rejects_zero():
    with pytest.raises(ValueError):
        substitute_scale(param([(4, 1)]), CycloScalar.rational(0))


def test_power_substitution_rejects_nonpositive():
    with pytest.raises(ValueError):
        substitute_power(param([(4, 1)]), 0)


# ---------------------------------------------------------------------------
# Puiseux form


def test_primitivity_is_gcd_of_support():
    assert exponent_gcd(param([(4, 1)], [(6, 1)])) == 2
    assert exponent_gcd(param([(4, 1)], [(6, 1), (9, 1)])) == 1
    assert exponent_gcd(param([(1, 1)])) == 1


def test_puiseux_form_check_finds_special_coordinates():
    m, special = puiseux_form_check(param([(4, 1)], [(6, 1), (9, 1)]))
    assert m == 4
    assert special == frozenset({0})

    m, special = puiseux_form_check(param([(6, 1), (9, 1)], [(6, 1)]))
    assert m == 6
    assert special == frozenset({1})


def test_puiseux_form_check_accepts_multiple_special_coordinates():
    m, special = puiseux_form_check(param([(3, 1)], [(3, 1)], [(5, 1)]))
    assert m == 3
    assert special == frozenset({0, 1})


def test_puiseux_form_check_rejects_decorated_minimum():
    with pytest.raises(NotPuiseuxForm):
        puiseux_form_check(param([(4, 1), (5, 1)], [(6, 1)]))


def test_puiseux_form_check_rejects_wrong_unit():
    with pytest.raises(NotPuiseuxForm):
        puiseux_form_check(param([(4, 2)], [(6, 1)]))


def test_puiseux_form_check_rejects_zero():
    with pytest.raises(NotPuiseuxForm):
        puiseux_form_check(param([], []))


def test_curve_from_exponents_round_trip():
    c = curve_from_exponents([[4, [(6, 1), (7, -1)]]])
    assert c.branches[0].param.text() == "(u^4, u^6 + (-1)*u^7)"
