"""The secant sampler equals the straightforward reference sampler bit for
bit: the whole SampleReport compares == on the fixtures, on seeded random
curves, and through the degenerate-resample and DegenerateSecant paths."""

import random

import pytest

import reference_sampler
from c5cone import (
    DegenerateSecant,
    EngineError,
    c5_cone,
    curve_from_exponents,
    sample_secant_directions,
)
from c5cone.oracle import SampleReport
from random_curves import random_curve_with_cone

FLAG_SETS = {
    "defaults": {},
    "seed-3": {"seed": 3},
    "three-radii": {"radii": (0.1, 0.01, 0.001), "k": 57},
}


def both(c, **flags):
    """(engine outcome, reference outcome); an outcome is the report, or
    the type and payload of the engine error raised."""
    outcomes = []
    for sampler in (sample_secant_directions, reference_sampler.sample_secant_directions):
        try:
            outcomes.append(sampler(c, **flags))
        except EngineError as exc:
            outcomes.append((type(exc), exc.to_json()))
    return outcomes


@pytest.mark.parametrize("flags", FLAG_SETS.values(), ids=FLAG_SETS.keys())
def test_fixtures_match_the_reference(flags, load, fixture_names):
    for name in fixture_names:
        c = load(name)
        mine, ref = both(c, cone=c5_cone(c), **flags)
        assert mine == ref, name


def test_random_curves_match_the_reference():
    # every other curve is measured against the cone of an earlier curve in
    # the same space: its distances are then of order 1, so the reported
    # extremes keep every bit of the samples they come from
    rng = random.Random(20261018)
    earlier = {}
    for trial in range(200):
        c, cone = random_curve_with_cone(rng, max_n=5, max_r=4)
        flags = {"k": 17, "seed": trial, "cone": cone}
        if trial % 2:
            flags["cone"] = earlier.get(c.n, cone)
        if trial % 3 == 0:
            flags["radii"] = (0.2, 0.05, 0.004)
        earlier[c.n] = cone
        mine, ref = both(c, **flags)
        assert isinstance(mine, SampleReport) and mine == ref, trial


def test_degenerate_resamples_match_the_reference():
    # |u|^40 straddles the 1e-280 floor at radius 1.2e-7: some pairs are
    # resampled, the rest measured
    c = curve_from_exponents([[40, [(41, 1)]]])
    mine, ref = both(c, radii=(1.5e-7, 1.2e-7), k=20)
    assert mine == ref
    assert mine.degenerate_count > 0


def test_persistent_degeneracy_raises_like_the_reference():
    c = curve_from_exponents([[40, [(41, 1)]]])
    mine, ref = both(c, radii=(1e-7,), k=3)
    assert mine == ref
    assert mine[0] is DegenerateSecant
