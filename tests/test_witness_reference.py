"""The engine's witness families, read off one Analysis as one contact
difference each, against the former per-kind builders kept in
tests/reference_witness.py.

cone_witness_results must return equal WitnessResults (every float bit for
bit) or raise the same error class with the same payload: on every
fixture, on 200 seeded random curves with computable cones, on random
curves as drawn, and on a tangent pair with no shared special coordinate.
"""

import random
from fractions import Fraction

import pytest

import reference_witness as ref
from c5cone import (
    EngineError,
    FloatingPointOverflow,
    FloatingPointUnderflow,
    IncompatibleSystem,
    cone_witness_results,
    curve_from_exponents,
)
from random_curves import random_curve, random_curve_with_cone

# tangent branches b1, b2 whose special coordinates are 0 and 1
INCOMPATIBLE = (
    [[(2, 1)], [(2, 2), (3, 1)], [(5, 1)]],
    [[(2, Fraction(1, 2)), (7, 1)], [(2, 1)], [(7, 1)]],
)
# two non-tangent smooth branches whose tangents differ by -2**-1100, a
# nonzero witness target whose double is the zero vector
UNDERFLOWING_TARGET = (
    [[(1, 1)], [(1, Fraction(1, 2**1100)), (2, 1)]],
    [[(1, 1)], [(1, Fraction(1, 2**1099)), (3, 1)]],
)


def _outcome(build, *args):
    try:
        return build(*args)
    except EngineError as exc:
        return type(exc).__name__, exc.payload


def test_fixtures_match_the_reference(load, fixture_names):
    for name in fixture_names:
        c = load(name)
        assert cone_witness_results(c) == ref.cone_witness_results(c), name


def test_random_curves_match_the_reference():
    rng = random.Random(7)
    for index in range(200):
        c, cone = random_curve_with_cone(rng)
        assert cone_witness_results(c) == ref.cone_witness_results(c, cone), index


def test_misuse_raises_like_the_reference():
    rng = random.Random(11)
    curves = [curve_from_exponents(INCOMPATIBLE)]
    curves += [random_curve(rng) for _ in range(60)]
    errors = set()
    for index, c in enumerate(curves):
        got = _outcome(cone_witness_results, c)
        assert got == _outcome(ref.cone_witness_results, c), index
        if type(got) is tuple:  # an error, not a list of WitnessResults
            errors.add(got[0])
    # the sweep reaches both outcomes
    assert errors == {"IncompatibleSystem"}
    assert any(type(_outcome(cone_witness_results, c)) is list for c in curves)


def test_contact_family_needs_a_shared_special_coordinate():
    c = curve_from_exponents(INCOMPATIBLE)
    with pytest.raises(IncompatibleSystem) as exc:
        cone_witness_results(c)
    assert exc.value.pair == ("b1", "b2")
    assert str(exc.value) == "tangent branches b1 and b2 share no special coordinate"


def test_an_underflowing_witness_target_raises_like_the_reference():
    c = curve_from_exponents(UNDERFLOWING_TARGET)
    got = _outcome(cone_witness_results, c)
    assert got == _outcome(ref.cone_witness_results, c)
    assert got == (FloatingPointUnderflow.__name__, {"labels": ["b1", "b2"]})


def test_an_overflowing_witness_secant_raises_like_the_reference():
    # every term of y = C*(u^3 + u^5 + ... + u^11), C = 8e307, and the
    # target 2C are finite, but at u = 0.9 the sum is not
    C = 8 * 10**307
    c = curve_from_exponents([
        [2, [(e, C) for e in (3, 5, 7, 9, 11)]],
        [[(2, 1)], [(2, 1), (3, C)]],
    ])
    b1, b2 = c.branches
    window = (0.9, 0.5)
    for build, args in (
        (ref.witness_secant_family, (b1, 1, 1, window)),
        (ref.contact_witness_family, (b1, b2, 1, 1, window)),
    ):
        got = _outcome(build, *args)
        assert got[0] == FloatingPointOverflow.__name__
        assert got[1]["u"] == 0.9
    # one family still measures where the window stays in range
    assert not ref.witness_secant_family(b1, 1, u_values=(0.1, 0.05, 0.01)).skipped
    assert _outcome(cone_witness_results, c) == _outcome(ref.cone_witness_results, c)
