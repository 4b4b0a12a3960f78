"""The secant sampler equals the straightforward reference sampler bit for
bit: the whole SampleReport compares == on the fixtures, on seeded random
curves, and through the degenerate-resample and DegenerateSecant paths, at
the edges of the column design (an empty cone, one sample, many radii and
components)."""

import cmath
import gc
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import reference_sampler
from c5cone import (
    DegenerateSecant,
    EngineError,
    FloatingPointOverflow,
    c5_cone,
    curve_from_exponents,
    sample_secant_directions,
    zeta,
)
from c5cone import oracle
from c5cone.c5 import C5Cone
from c5cone.oracle import DEFAULT_RADII, SampleReport, component_basis
from random_curves import random_curve_with_cone

FLAG_SETS = {
    "defaults": {},
    "seed-3": {"seed": 3},
    "three-radii": {"radii": (0.1, 0.01, 0.001), "k": 57},
}


FOUR_RADII = (0.1, 0.01, 0.001, 0.0001)


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


def reference_sources(c, cone, radii, k, seed, radius_index):
    """Per source, the reference's (max, per-component minima, degenerate)
    at one radius of a report."""
    bases = [reference_sampler.component_basis(comp) for comp in cone.components]
    cterms = [reference_sampler._complex_terms(b.param) for b in c.branches]
    r = len(c.branches)
    sources = [(i, i) for i in range(r)] + [
        (i, j) for i in range(r) for j in range(i + 1, r)
    ]
    return [
        reference_sampler._sample_source(
            cterms[i], cterms[j], radii[radius_index], k,
            reference_sampler._derived_rng(seed, source_index, radius_index), bases,
        )
        for source_index, (i, j) in enumerate(sources)
    ]


def test_an_empty_cone_matches_the_reference(load):
    c = load("four_branches")
    empty = C5Cone(dimension=2, components=(), provenance=())
    for flags in ({}, {"radii": FOUR_RADII, "k": 7}):
        mine, ref = both(c, cone=empty, **flags)
        assert mine == ref
        assert mine.component_min == ()
        assert all(d == math.inf for _, d in mine.per_radius_max)


def test_one_sample_per_radius_matches_the_reference(load, fixture_names):
    for name in fixture_names:
        c = load(name)
        mine, ref = both(c, cone=c5_cone(c), k=1, radii=FOUR_RADII)
        assert mine == ref, name


def test_four_radii_on_many_components_match_the_reference(load, fixture_names):
    # the largest distance of a pruned radius comes from a later source on
    # some of these, so the floor carried across sources decides
    curves = [(load(name), 60, 0) for name in fixture_names]
    rng = random.Random(14)
    curves += [
        (random_curve_with_cone(rng, max_n=5, max_r=4)[0], 17, seed)
        for seed in range(60)
    ]
    later = measured = 0
    for c, k, seed in curves:
        cone = c5_cone(c)
        if len(cone.components) < 5:
            continue
        mine, ref = both(c, cone=cone, radii=FOUR_RADII, k=k, seed=seed)
        assert isinstance(mine, SampleReport) and mine == ref
        measured += 1
        for radius_index in range(len(FOUR_RADII) - 1):
            maxima = [o[0] for o in reference_sources(c, cone, FOUR_RADII, k, seed, radius_index)]
            later += maxima.index(max(maxima)) > 0
    assert measured >= 5 and later > 0


def test_degenerate_resamples_at_a_pruned_radius_match_the_reference():
    c = curve_from_exponents([
        [40, [(42, 1)], [(45, 1)]],
        [[(41, 1)], 40, [(43, 1)]],
        [[(41, 1)], [(42, 1)], 40],
    ])
    cone = c5_cone(c)
    radii = (1.5e-7, 1.45e-7, 1.4e-7)
    mine, ref = both(c, cone=cone, radii=radii, k=20)
    assert mine == ref
    assert len(cone.components) > 1
    for radius_index in (0, 1):
        outcomes = reference_sources(c, cone, radii, 20, 0, radius_index)
        assert sum(o[2] for o in outcomes) > 0


def test_four_branch_curves_match_the_reference():
    rng = random.Random(20261019)
    trials = 0
    while trials < 100:
        c, cone = random_curve_with_cone(rng, max_n=5, max_r=4)
        if len(c.branches) != 4:
            continue
        flags = {"k": 11, "seed": trials, "cone": cone}
        if trials % 2:
            flags["radii"] = FOUR_RADII
        mine, ref = both(c, **flags)
        assert isinstance(mine, SampleReport) and mine == ref, trials
        trials += 1


# coefficients 1, -1, i, zeta_3 and one whose double is 0 (2**-1100); the
# characteristic planes of each branch share their first basis row, the
# unit vector of the tangent, and hold entries 0 and 1
_TINY = Fraction(1, 2**1100)
SHARED_ROWS = {
    "m16": [[16, [(24, 1), (30, -1)], [(28, -1), (33, zeta(4))], [(30, 1), (35, _TINY)],
             [(33, -1), (37, 1)]]],
    "m30": [[30, [(36, 1), (50, -1)], [(40, -1), (42, 1)],
             [(45, zeta(3)), (47, 1), (49, _TINY)]]],
}


@pytest.mark.parametrize("name", SHARED_ROWS)
def test_shared_rows_and_unit_entries_match_the_reference(name):
    c = curve_from_exponents(SHARED_ROWS[name])
    cone = c5_cone(c)
    rows = Counter(tuple(row) for comp in cone.components for row in component_basis(comp))
    assert len(cone.components) >= 3 and max(rows.values()) == len(cone.components)
    entries = {z for row in rows for z in row}
    assert {0, 1} <= entries
    coefficients = {z for series in reference_sampler._complex_terms(c.branches[0].param)
                    for _, z in series}
    assert {0, 1, -1} <= coefficients
    for flags in ({}, {"seed": 3}, {"radii": FOUR_RADII, "k": 60},
                  {"radii": (0.5, 0.2), "k": 101, "seed": 7}):
        mine, ref = both(c, cone=cone, **flags)
        assert isinstance(mine, SampleReport) and mine == ref, flags


def overflowing_curve():
    """x = u, y = C*(u + u^2 + u^3 + u^4) with C = 1.7e308: every term is
    finite, but secants across the disc of radius 0.5 exceed double range."""
    C = 17 * 10**307
    return curve_from_exponents([[[(1, 1)], [(e, C) for e in (1, 2, 3, 4)]]])


def test_an_overflowing_secant_raises_like_the_reference():
    mine, ref = both(overflowing_curve(), radii=(0.5, 0.45), k=2000)
    assert mine == ref
    assert mine[0] is FloatingPointOverflow
    assert mine[1]["radius"] == 0.5


# points on both axes, signed zeros included, |u| = 0.5, and |u| small
# enough that high powers are subnormal (1e-4**80) or 0 (2**-20**60)
POWER_POINTS = [
    complex(x, y)
    for x, y in [(0.5, 0.0), (-0.5, 0.0), (-0.5, -0.0), (0.0, 0.5), (0.0, -0.5),
                 (-0.0, -0.3), (0.0, 0.0), (-0.25, 0.25), (1e-4, 0.0), (0.0, -1e-4),
                 (2.0**-20, 0.0), (-(2.0**-20), 2.0**-21)]
] + [0.5 * cmath.exp(2j * math.pi * t / 16) for t in range(16)]
_DRAWN = random.Random(5)
POWER_POINTS += [
    0.5 * _DRAWN.random() * cmath.exp(2j * math.pi * _DRAWN.random()) for _ in range(200)
]


def test_the_power_table_matches_pow():
    exponents = list(range(1, 101)) + [101, oracle._MAX_FLOAT_EXPONENT]
    terms = oracle._coordinate_terms([[(e, 1)] for e in exponents])
    columns = oracle._values(terms, POWER_POINTS)
    subnormal = 0
    for e, column in zip(exponents, columns):
        for u, mine in zip(POWER_POINTS, column):
            ref = u**e
            assert mine == ref, (e, u)
            for a, b in ((mine.real, ref.real), (mine.imag, ref.imag)):
                if b:
                    assert a.hex() == b.hex(), (e, u)
                    subnormal += abs(b) < sys.float_info.min
    assert subnormal > 0


def four_branch_batches(k):
    """Per batch of the sampler at k samples a radius on four branches,
    the set of branches it evaluates."""
    sources = [(i, i) for i in range(4)] + [
        (i, j) for i in range(4) for j in range(i + 1, 4)
    ]
    per_batch = oracle.MAX_SAMPLES // k
    return [
        {b for source in sources[first:first + per_batch] for b in source}
        for first in range(0, len(sources), per_batch)
    ]


def test_several_batches_a_radius_match_the_reference(load, monkeypatch):
    # k = 3000: the ten sources of a radius run in batches of 3, 3, 3 and 1
    c = load("four_branches")
    cone = c5_cone(c)
    seen = []
    values = oracle._values

    def counted(terms, points):
        seen.append(len(points))
        return values(terms, points)

    monkeypatch.setattr(oracle, "_values", counted)
    batches = four_branch_batches(3000)
    assert [len(b) for b in batches] == [3, 4, 4, 2]
    for radii in (DEFAULT_RADII, FOUR_RADII):
        seen.clear()
        mine, ref = both(c, cone=cone, radii=radii, k=3000)
        assert isinstance(mine, SampleReport) and mine == ref, radii
        assert mine.degenerate_count == 0
        # each branch is evaluated once per batch, at no more than
        # 2*MAX_SAMPLES points
        assert len(seen) == len(radii) * sum(map(len, batches))
        assert max(seen) <= 2 * oracle.MAX_SAMPLES


def test_degenerate_resamples_in_split_batches_match_the_reference():
    # k = 2500: the six sources run in batches of 4 and 2, and at every
    # radius some pairs are degenerate
    c = curve_from_exponents([
        [40, [(42, 1)], [(45, 1)]],
        [[(41, 1)], 40, [(43, 1)]],
        [[(41, 1)], [(42, 1)], 40],
    ])
    cone = c5_cone(c)
    mine, ref = both(c, cone=cone, radii=(1.5e-7, 1.45e-7, 1.4e-7), k=2500)
    assert isinstance(mine, SampleReport) and mine == ref
    assert mine.degenerate_count > 0


def test_exponents_beyond_the_power_table_in_split_batches_match_the_reference():
    # u^101 and the clamped u^(10**400 + 1) go through pow; k = 2500 splits
    # the six sources into batches of 4 and 2
    c = curve_from_exponents([
        [[(2, 1)], [(3, 1), (101, 1)]],
        [[(2, 1)], [(10**400 + 1, 1)]],
        [[(1, 1)], [(1, 2), (2, 1)]],
    ])
    mine, ref = both(c, cone=c5_cone(c), k=2500)
    assert isinstance(mine, SampleReport) and mine == ref


def test_a_radius_samples_without_the_last_radius_directions(load, monkeypatch):
    # the directions of one batch, and the distance columns of the smallest
    # radius, are freed before _sample_batch draws the next batch: the
    # memory live on entry to the second radius stays that of the first
    # (before, the first radius's 2,000 directions were still held)
    c = load("four_branches")
    cone = c5_cone(c)
    live = []
    draw = oracle._sample_batch

    def traced(*args):
        gc.collect()  # empties the float free list, the same on each entry
        live.append(tracemalloc.get_traced_memory()[0])
        return draw(*args)

    monkeypatch.setattr(oracle, "_sample_batch", traced)
    tracemalloc.start()
    try:
        report = sample_secant_directions(c, k=200, cone=cone)
    finally:
        tracemalloc.stop()
    assert len(DEFAULT_RADII) == len(live) == 2  # one batch a radius
    assert live[1] <= 1.1 * live[0], live
    monkeypatch.undo()
    assert report == reference_sampler.sample_secant_directions(c, k=200, cone=cone)


# two tangent branches (u^60, u^61, u^61) and (u^60, 2u^61, 3u^61): 62 cone
# components
MANY_COMPONENTS = [[60, [(61, 1)], [(61, 1)]], [60, [(61, 2)], [(61, 3)]]]


def test_many_components_match_the_reference():
    # some component's largest total reaches 1, where 1 - total rounds to
    # <= 0 and its least distance clamps to 0.0; several components tie at
    # their least distance; and the two pruned radii carry a floor across
    # 62 components
    c = curve_from_exponents(MANY_COMPONENTS)
    cone = c5_cone(c)
    assert len(cone.components) == 62
    for flags in ({"k": 17}, {"k": 17, "seed": 3}):
        mine, ref = both(c, cone=cone, radii=(0.2, 0.05, 0.004), **flags)
        assert isinstance(mine, SampleReport) and mine == ref, flags
        assert 0.0 in mine.component_min
        held = Counter(d for d in mine.component_min if d)
        assert max(held.values()) > 1


def test_a_square_root_per_reported_figure(load, monkeypatch):
    # distances are compared as totals of squares; sqrt runs on the
    # reported figures only, not on each (direction, component) pair
    c = load("four_branches")
    cone = c5_cone(c)
    calls = []
    sqrt = math.sqrt

    def counted(x):
        calls.append(x)
        return sqrt(x)

    monkeypatch.setattr(math, "sqrt", counted)
    report = sample_secant_directions(c, cone=cone)
    monkeypatch.undo()
    assert len(cone.components) == 7
    assert len(calls) <= 2 * (len(cone.components) + len(DEFAULT_RADII)), len(calls)
    assert report == reference_sampler.sample_secant_directions(c, cone=cone)
