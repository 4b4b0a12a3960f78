"""The witness families, built as one contact difference each, against the
former per-kind builders kept in tests/reference_witness.py.

Every call must return an equal WitnessResult (every float bit for bit) or
raise the same error class with the same payload: on every fixture, on 200
seeded random curves with computable cones, on random curves as drawn,
and on a tangent pair with no shared special coordinate.
"""

import math
import random
from fractions import Fraction

import pytest

import reference_witness as ref
from c5cone import (
    Branch,
    DependentVectors,
    Direction,
    EngineError,
    FloatingPointOverflow,
    IncompatibleSystem,
    NonPrimitiveParametrization,
    Parametrization,
    c5_cone,
    contact_witness_family,
    cone_witness_results,
    curve_from_exponents,
    diagonal_witness_family,
    witness_secant_family,
    zeta,
)
from c5cone.auxiliary import representative_ks
from random_curves import random_curve, random_curve_with_cone

LAMS = (1, 2, zeta(12), 0.5)
WINDOWS = (None, (0.2, 0.05, 0.01, 0.002))
# tangent branches b1, b2 whose special coordinates are 0 and 1
INCOMPATIBLE = (
    [[(2, 1)], [(2, 2), (3, 1)], [(5, 1)]],
    [[(2, Fraction(1, 2)), (7, 1)], [(2, 1)], [(7, 1)]],
)


def _outcome(build, *args):
    try:
        return build(*args)
    except EngineError as exc:
        return type(exc).__name__, exc.payload


def _calls(c, lam, window, ks=None, both_orders=True):
    """(engine builder, reference builder, arguments) for every family of
    c: each branch at each k (k = 0 included) or at ks(m), each branch with
    itself at the same k, and each pair of two branches, in both orders or
    in curve order, at every k of its root group."""
    for b in c.branches:
        for k in range(b.m) if ks is None else ks(b.m):
            yield witness_secant_family, ref.witness_secant_family, (b, k, lam, window)
    for i, bi in enumerate(c.branches):
        for j, bj in enumerate(c.branches):
            if j < i and not both_orders:
                continue
            lcm = math.lcm(bi.m, bj.m)
            for k in range(lcm) if ks is None or i != j else ks(lcm):
                yield (contact_witness_family, ref.contact_witness_family,
                       (bi, bj, k, lam, window))
            yield diagonal_witness_family, ref.diagonal_witness_family, (bi, bj, window)


def _assert_same(c, lam, window, **which) -> set:
    """Assert every call agrees with the reference; the error names seen."""
    errors = set()
    for engine, reference, args in _calls(c, lam, window, **which):
        got = _outcome(engine, *args)
        assert got == _outcome(reference, *args), (engine.__name__, args[:-2])
        if type(got) is tuple:  # an error, not a WitnessResult
            errors.add(got[0])
    return errors


def test_fixtures_match_the_reference(load, fixture_names):
    for name in fixture_names:
        c = load(name)
        cone = c5_cone(c)
        assert cone_witness_results(c, cone) == ref.cone_witness_results(c, cone), name
        ks = representative_ks if name == "prime_multiplicity" else None
        for index, lam in enumerate(LAMS):
            _assert_same(c, lam, WINDOWS[index % 2], ks=ks)


def test_random_curves_match_the_reference():
    rng = random.Random(7)
    for index in range(200):
        c, cone = random_curve_with_cone(rng)
        assert cone_witness_results(c, cone) == ref.cone_witness_results(c, cone), index
        _assert_same(c, LAMS[index % len(LAMS)], WINDOWS[index % 2], both_orders=False)


def test_misuse_raises_like_the_reference():
    rng = random.Random(11)
    curves = [curve_from_exponents(INCOMPATIBLE)]
    curves += [random_curve(rng) for _ in range(60)]
    errors = set()
    for c in curves:
        errors |= _assert_same(c, 1, None)
    # the sweep reaches every misuse the builders reject
    assert {"DependentVectors", "IncompatibleSystem",
            "NonPrimitiveParametrization"} <= errors


# ---------------------------------------------------------------------------
# misuse, one case each


def test_diagonal_family_on_a_tangent_pair_spans_dependent_tangents(load):
    bi, bj = load("four_branches").branches[:2]  # the tangent pair b1, b2
    with pytest.raises(DependentVectors):
        diagonal_witness_family(bi, bj)


def test_contact_family_needs_a_shared_special_coordinate():
    c = curve_from_exponents(INCOMPATIBLE)
    with pytest.raises(IncompatibleSystem) as exc:
        contact_witness_family(*c.branches, 0)
    assert exc.value.pair == ("b1", "b2")
    assert str(exc.value) == "tangent branches b1 and b2 share no special coordinate"


def test_characteristic_family_rejects_the_identity_root(load):
    b = load("space_cusp").branches[0]
    with pytest.raises(NonPrimitiveParametrization):
        witness_secant_family(b, b.m)


def test_characteristic_family_rejects_a_theta_fixing_an_unchecked_branch():
    # (u^4, u^6) bypasses branch validation; theta = -1 leaves it invariant
    square = curve_from_exponents([[4, [(6, 1)], [(7, 1)]]]).branches[0]
    covered = Branch.__new__(Branch)
    for slot in Branch.__slots__:
        setattr(covered, slot, getattr(square, slot))
    covered.param = Parametrization(square.param.coords[:2])
    covered.tangent = Direction(s.coefficient(covered.m) for s in covered.param.coords)
    got = _outcome(witness_secant_family, covered, 2)
    assert got == _outcome(ref.witness_secant_family, covered, 2)
    assert got[0] == "NonPrimitiveParametrization"


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
    for build, reference, args in (
        (witness_secant_family, ref.witness_secant_family, (b1, 1, 1, window)),
        (contact_witness_family, ref.contact_witness_family, (b1, b2, 1, 1, window)),
    ):
        got = _outcome(build, *args)
        assert got == _outcome(reference, *args)
        assert got[0] == FloatingPointOverflow.__name__
        assert got[1]["u"] == 0.9
    # one family still measures where the window stays in range
    assert not witness_secant_family(b1, 1, u_values=(0.1, 0.05, 0.01)).skipped
