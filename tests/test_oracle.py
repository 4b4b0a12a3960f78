"""Floating-point cross-check: witness families and secant sampling."""

import math
import random

import pytest

from c5cone import (
    Analysis,
    C5Cone,
    CycloScalar,
    DegenerateSecant,
    DimensionMismatch,
    FloatingPointUnderflow,
    Plane,
    c5_cone,
    cone_witness_results,
    curve_from_exponents,
    default_u_values,
    sample_secant_directions,
)
from c5cone import oracle
from c5cone.oracle import (
    DEFAULT_RADII,
    FloatView,
    DEFAULT_SAMPLES,
    DEFAULT_TOLERANCE,
    PRNG_NAME,
)
from random_curves import random_curve_with_cone
from reference_witness import diagonal_witness_family, witness_secant_family


# ---------------------------------------------------------------------------
# evaluation windows


def test_default_window_is_geometric_and_decreasing():
    values, reason = default_u_values(2)
    assert reason is None
    assert len(values) == 4
    assert values[0] == pytest.approx(0.3)
    assert values[-1] == pytest.approx(10 ** (-7 / 2))
    ratios = [values[i] / values[i + 1] for i in range(3)]
    assert ratios[0] == pytest.approx(ratios[1]) == pytest.approx(ratios[2])
    assert list(values) == sorted(values, reverse=True)


def test_default_window_floors_at_the_noise_scale():
    values, reason = default_u_values(0)
    assert reason is None
    assert values[-1] == pytest.approx(1e-4)
    values, reason = default_u_values(-3)
    assert values[-1] == pytest.approx(1e-4)


def test_wide_gaps_are_reported_not_sampled():
    values, reason = default_u_values(14)
    assert values is None
    assert "cancellation noise" in reason


# ---------------------------------------------------------------------------
# witness families: single families at any k, lam and window come from the
# reference builders, which run the engine's measurement (_run_family)


def test_characteristic_witness_converges_to_its_plane(load):
    c = load("space_cusp")
    w = witness_secant_family(c.branches[0], 2)
    assert w.kind == "characteristic"
    assert w.labels == ("b1",)
    assert (w.group_order, w.k_theta) == (4, 7)
    assert not w.skipped
    assert w.monotone
    assert w.final_plane_distance < 1e-4
    assert w.target_distances[-1] < w.target_distances[0]


def test_witness_respects_an_explicit_window(load):
    c = load("space_cusp")
    window = (0.1, 0.05, 0.01)
    w = witness_secant_family(c.branches[0], 1, u_values=window)
    assert w.u_values == window
    assert len(w.target_distances) == len(window)


def test_witness_with_unit_root_scale(load):
    c = load("space_cusp")
    base = witness_secant_family(c.branches[0], 1)
    scaled = witness_secant_family(c.branches[0], 1, lam=2)
    assert not base.skipped and not scaled.skipped
    assert base.final_plane_distance < DEFAULT_TOLERANCE
    assert scaled.final_plane_distance < DEFAULT_TOLERANCE


def test_diagonal_witness_spans_two_branches(load):
    c = load("four_branches")
    w = diagonal_witness_family(c.branches[2], c.branches[3])
    assert w.kind == "non-tangent"
    assert w.labels == ("b3", "b4")
    assert w.monotone
    assert w.final_plane_distance < 1e-3


def test_cone_witnesses_align_with_components(load):
    c = load("four_branches")
    cone = c5_cone(c)
    witnesses = cone_witness_results(c)
    assert len(witnesses) == len(cone.components)
    assert [(w.kind, w.labels, w.k) for w in witnesses] == [
        ("characteristic", ("b1",), 2),
        ("characteristic", ("b2",), 3),
        ("contact", ("b1", "b2"), 0),
        ("characteristic", ("b1",), 1),
        ("characteristic", ("b2",), 2),
        ("non-tangent", ("b1", "b3"), 0),
        ("non-tangent", ("b3", "b4"), 0),
    ]
    for w in witnesses:
        assert not w.skipped
        assert w.monotone
        assert w.final_plane_distance <= DEFAULT_TOLERANCE


def test_far_exponents_skip_instead_of_reporting_noise(load):
    c = load("m16_four_planes")
    witnesses = cone_witness_results(c)
    ran = [w for w in witnesses if not w.skipped]
    skipped = [w for w in witnesses if w.skipped]
    assert len(ran) == 1 and len(skipped) == 3
    assert ran[0].k == 1
    assert ran[0].monotone
    assert ran[0].final_plane_distance <= DEFAULT_TOLERANCE
    for w in skipped:
        assert "cancellation noise" in w.skip_reason
        assert w.target_distances == ()


def test_huge_order_witness_skips_on_underflow():
    c = curve_from_exponents([[150, [(151, 1)]]])
    w = witness_secant_family(c.branches[0], 1)
    assert w.skipped
    assert "underflows IEEE doubles" in w.skip_reason


def test_coincident_witness_points_are_an_error(load):
    c = load("space_cusp")
    with pytest.raises(DegenerateSecant):
        witness_secant_family(c.branches[0], 1, u_values=(1e-100,))


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic(load):
    c = load("space_cusp")
    cone = c5_cone(c)
    first = sample_secant_directions(c, cone=cone)
    second = sample_secant_directions(c, cone=cone)
    assert first == second
    assert first.prng == PRNG_NAME
    assert first.seed == 0
    assert first.radii == DEFAULT_RADII
    assert first.samples_per_radius == DEFAULT_SAMPLES


def test_seed_changes_the_draw(load):
    c = load("space_cusp")
    cone = c5_cone(c)
    a = sample_secant_directions(c, cone=cone, k=50)
    b = sample_secant_directions(c, cone=cone, k=50, seed=1)
    assert a != b
    assert a.component_min != b.component_min


def test_samples_stay_near_the_cone(load):
    for name in ("space_cusp", "four_branches", "family_fiber_1"):
        c = load(name)
        report = sample_secant_directions(c, k=50)
        assert report.max_plane_distance <= DEFAULT_TOLERANCE
        assert len(report.component_min) == len(c5_cone(c).components)
        assert report.degenerate_count >= 0


def test_smooth_branch_samples_hug_the_tangent(load):
    report = sample_secant_directions(load("smooth_space"), k=100)
    assert report.max_plane_distance <= 2e-3
    assert report.component_min[0] <= 2e-3


def test_verdict_distance_is_taken_at_the_finest_radius(load):
    report = sample_secant_directions(load("space_cusp"))
    by_radius = dict(report.per_radius_max)
    assert by_radius[0.001] <= by_radius[0.01]
    assert report.max_plane_distance == report.per_radius_max[-1][1]


def test_sampling_validates_radii(load):
    c = load("smooth_plane")
    with pytest.raises(ValueError):
        sample_secant_directions(c, radii=(0.7,))
    with pytest.raises(ValueError):
        sample_secant_directions(c, radii=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        sample_secant_directions(c, k=0)


def test_sampling_rejects_components_of_another_dimension(load, monkeypatch):
    # a plane of C^2 against a curve in C^3: the sampler would measure
    # each direction by its first two entries only
    c = load("space_cusp")
    plane = Plane([[CycloScalar.rational(v) for v in row] for row in ((1, 0), (0, 1))])
    cone = C5Cone(2, (plane,), ((),))
    monkeypatch.setattr(oracle, "_sample_batch", lambda *args: pytest.fail("sampled"))
    with pytest.raises(DimensionMismatch) as exc:
        sample_secant_directions(c, k=10, cone=cone)
    assert exc.value.payload == {"dims": [2, 3]}


def test_witnesses_refuse_an_analysis_or_view_of_another_curve(load):
    # m16_four_planes' families measured on space_cusp's doubles, or
    # against another cone's planes, would report distance inf
    a, b = load("m16_four_planes"), load("space_cusp")
    analysis = Analysis(a)
    other = FloatView(b.branches, c5_cone(b).components)
    with pytest.raises(ValueError, match="another curve"):
        cone_witness_results(a, Analysis(b))
    with pytest.raises(ValueError, match="float view"):
        cone_witness_results(a, analysis, other)
    with pytest.raises(ValueError, match="float view"):
        cone_witness_results(a, analysis, FloatView(a.branches, other.components))
    own = FloatView(a.branches, analysis.cone.components)
    assert cone_witness_results(a, analysis, own) == cone_witness_results(a)


def test_sampling_refuses_a_view_of_another_curve(load, monkeypatch):
    # a view over space_cusp would sample its branches and report its two
    # component minima for m16_four_planes
    a, b = load("m16_four_planes"), load("space_cusp")
    monkeypatch.setattr(oracle, "_sample_batch", lambda *args: pytest.fail("sampled"))
    with pytest.raises(ValueError, match="another curve's branches"):
        sample_secant_directions(a, k=10, view=FloatView(b.branches, c5_cone(b).components))


def test_high_multiplicity_sampling_raises_underflow():
    c = curve_from_exponents([[150, [(151, 1)]]])
    with pytest.raises(FloatingPointUnderflow) as exc:
        sample_secant_directions(c)
    assert exc.value.to_json()["multiplicity"] == 150


def test_a_radius_whose_half_is_zero_raises_underflow():
    # 5e-324 / 2 rounds to 0.0, which has no log10
    c = curve_from_exponents([[1, [(2, 1)]]])
    with pytest.raises(FloatingPointUnderflow) as exc:
        sample_secant_directions(c, radii=(0.1, 5e-324))
    assert exc.value.to_json()["multiplicity"] == 1
    assert exc.value.to_json()["radius"] == 5e-324


def test_wider_radii_avoid_the_underflow():
    c = curve_from_exponents([[150, [(151, 1)]]])
    report = sample_secant_directions(c, radii=(0.5, 0.25), k=10)
    assert report.samples_per_radius == 10


# ---------------------------------------------------------------------------
# witness convergence at the noise floor


def _seed7_curves(count):
    rng = random.Random(7)
    return [random_curve_with_cone(rng) for _ in range(count)]


def test_noise_floor_distances_count_as_converged():
    # curve 15 of seed 7: a non-tangent family already at the target to
    # double precision, whose last distances read 0, 0, 2.1e-8
    c, _ = _seed7_curves(16)[15]
    (w,) = [w for w in cone_witness_results(c) if w.kind == "non-tangent"]
    tail = w.target_distances[-3:]
    assert not tail[0] >= tail[1] >= tail[2]  # the strict test fails on noise
    assert max(tail) < 3e-8
    assert w.monotone
    assert w.final_plane_distance <= DEFAULT_TOLERANCE


def test_non_tangent_families_converge_on_random_curves():
    for index, (c, _) in enumerate(_seed7_curves(200)):
        for w in cone_witness_results(c):
            if w.kind == "non-tangent":
                assert w.monotone, (index, w.target_distances)
                assert w.final_plane_distance <= DEFAULT_TOLERANCE, index
