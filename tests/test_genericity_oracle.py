"""The 2x2-determinant genericity test and the projection search against
the stacked-kernel rank test they replaced (tests/reference_projection.py)."""

import random
from types import SimpleNamespace

import pytest

from c5cone import (
    DependentVectors,
    Direction,
    EngineError,
    LinearProjection,
    NoCommonSpecialCoordinate,
    c5_cone,
    curve,
    curve_from_exponents,
    find_generic_projection,
    is_c5_generic,
    null_space,
    zeta,
)
from c5cone.c5 import Span
from c5cone.geometry import Plane
from random_curves import (
    engineered_nongeneric_projection,
    random_curve,
    random_curve_with_cone,
    random_normal_shape_projection,
    random_space_branch_curve,
)
from reference_projection import rank_verdict, reference_search


def texts(rows):
    return [[e.text() for e in row] for row in rows]


def verdict_texts(verdict):
    component = verdict.violating_component
    return verdict.generic, None if component is None else repr(component)


def line_projections(v):
    """For a line along v: one projection sending v to 0, and one whose
    first row alone keeps it (r1*v != 0, r2*v = 0)."""
    covectors = null_space([list(v)])
    keep = next(j for j, e in enumerate(v) if e)
    first = [int(j == keep) for j in range(len(v))]
    return [LinearProjection(covectors[:2]), LinearProjection([first, covectors[0]])]


def probe_projections(c, cone, rng):
    """Random, engineered non-generic and line-annihilating projections."""
    n = c.n
    out = [random_normal_shape_projection(rng, n)]
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
        try:
            out.append(LinearProjection(rows))
            break
        except DependentVectors:
            continue
    for component in cone.components[:3]:
        if isinstance(component, Plane):
            out.append(engineered_nongeneric_projection(component))
        else:
            out += line_projections(component.vec)
    return out


def test_determinant_agrees_with_rank_oracle_on_fixtures(load, fixture_names):
    rng = random.Random(21)
    checked = 0
    for name in fixture_names:
        c = load(name)
        if c.n < 3:
            continue
        cone = c5_cone(c)
        if name == "prime_multiplicity":
            # n = 200 over Q(zeta_2017): the rank oracle takes seconds a call
            units = [[int(col == row) for col in range(c.n)] for row in range(2, c.n)]
            projections = [find_generic_projection(c), LinearProjection.from_kernel(units)]
        else:
            projections = probe_projections(c, cone, rng)
            try:
                projections.append(find_generic_projection(c))
            except NoCommonSpecialCoordinate:
                pass
        for proj in projections:
            assert verdict_texts(is_c5_generic(c, proj)) == verdict_texts(
                rank_verdict(c, proj, cone)
            ), (name, texts(proj.matrix))
            checked += 1
    assert checked >= 40


def test_determinant_agrees_with_rank_oracle_on_random_pairs():
    rng = random.Random(22)
    pairs = generic = lines = 0
    while pairs < 300:
        c, cone = random_curve_with_cone(rng)
        if c.n < 3:
            continue
        lines += cone.dimension == 1
        for proj in probe_projections(c, cone, rng):
            verdict = is_c5_generic(c, proj)
            assert verdict_texts(verdict) == verdict_texts(rank_verdict(c, proj, cone))
            pairs += 1
            generic += verdict.generic
    assert 50 < generic < pairs - 50
    assert lines > 0


def test_engineered_kernels_agree_with_rank_oracle():
    rng = random.Random(14)
    for _ in range(10):
        c = random_space_branch_curve(rng)
        cone = c5_cone(c)
        for component in cone.components:
            proj = engineered_nongeneric_projection(component)
            verdict = is_c5_generic(c, proj)
            assert not verdict.generic
            assert verdict_texts(verdict) == verdict_texts(rank_verdict(c, proj, cone))


def test_search_returns_the_reference_loop_projection():
    rng = random.Random(23)
    searched = ones_rejected = 0
    while searched < 100:
        c, _ = random_curve_with_cone(rng, max_n=5)
        if c.n < 3 or not frozenset.intersection(*(b.special_coords for b in c.branches)):
            continue
        expected = reference_search(c)
        found = find_generic_projection(c)
        assert texts(found.matrix) == texts(expected.matrix)
        assert texts(found.kernel_basis) == texts(expected.kernel_basis)
        searched += 1
        ones_rejected += any(e.text() not in ("0", "1") for e in found.matrix[1])
    assert ones_rejected > 0


@pytest.mark.parametrize("name", ["m16_four_planes", "same_order_contact", "space_cusp"])
def test_search_returns_the_reference_loop_projection_on_fixtures(load, name):
    c = load(name)
    assert texts(find_generic_projection(c).matrix) == texts(reference_search(c).matrix)


def test_a_line_off_the_kernel_keeps_every_candidate():
    # the tangent line (1, 1, -1) of a smooth germ: all-ones sends its
    # lambda part to 0, but x_s = 1 keeps the line
    c = curve_from_exponents([[1, [(1, 1)], [(1, -1)]]])
    cone = c5_cone(c)
    assert cone.dimension == 1
    found = find_generic_projection(c)
    assert texts(found.matrix) == [["1", "0", "0"], ["0", "1", "1"]]
    assert is_c5_generic(c, found).generic
    assert rank_verdict(c, found, cone).generic


def test_search_with_the_special_coordinate_off_the_pivots():
    # s = 2; the characteristic plane span{(1, -1, 1), (1, 1, 0)} has RREF
    # rows (1, 0, 1/2) and (0, 1, -1/2), so w_P = (1/2, 1/2, 0) and the
    # all-ones lambda is generic; with p1[s]*p2 + p2[s]*p1 it would not be
    c = curve_from_exponents([[[(2, 1), (3, 1)], [(2, -1), (3, 1)], 2]])
    cone = c5_cone(c)
    assert repr(cone.components[0]) == "<plane span{(1, 0, 1/2); (0, 1, -1/2)}>"
    found = find_generic_projection(c)
    assert texts(found.matrix) == [["0", "0", "1"], ["1", "1", "0"]]
    assert texts(found.matrix) == texts(reference_search(c).matrix)
    assert rank_verdict(c, found, cone).generic


def _search_outcome(search, c):
    """The projection's matrix texts, or the error type and payload."""
    try:
        return texts(search(c).matrix)
    except EngineError as exc:
        return type(exc).__name__, exc.to_json()


def _cone_error(c):
    try:
        c5_cone(c)
    except EngineError as exc:
        return type(exc).__name__, exc.to_json()
    return None


def test_span_search_equals_the_canonical_cone_search(load, fixture_names):
    # the search reads each plane off the spans that collect it; the
    # reference reads the canonical cone by the rank test: same projection
    # (and the same when the search is handed the canonical bases as spans),
    # on the curve and on a branch-permuted copy, and the cone's own error
    # where the cone has one
    rng = random.Random(29)
    fixtures = [load(name) for name in fixture_names]
    # reparametrizations of one branch, beside a third branch: the cone
    # raises DuplicateBranch, and so must the search
    fixtures += [
        curve_from_exponents([
            [2, [(3, 1)], [(5, 1)]], [2, [(3, -1)], [(5, -1)]], [1, [(1, 2)], [(2, 1)]],
        ]),
        curve_from_exponents([
            [3, [(4, 1)], [(5, 2)], [(3, 1)]], [3, [(4, zeta(3))], [(5, 2 * zeta(3, 2))], [(3, 1)]],
        ]),
    ]
    searched = failed = 0
    for index in range(1000):
        c = fixtures[index] if index < len(fixtures) else random_curve(rng, max_n=5, max_r=4)
        if c.n == 2:
            assert texts(find_generic_projection(c).matrix) == [["1", "0"], ["0", "1"]]
            continue
        if not frozenset.intersection(*(b.special_coords for b in c.branches)):
            with pytest.raises(NoCommonSpecialCoordinate):
                find_generic_projection(c)
            continue
        perm = list(range(len(c.branches)))
        rng.shuffle(perm)
        copy = curve(c.branches[i] for i in perm)
        for each in (c, copy):
            error = _cone_error(each)
            got = _search_outcome(find_generic_projection, each)
            if error is not None:
                assert got == error
                failed += 1
            else:
                assert got == texts(reference_search(each).matrix)
                # the basis rows of the canonical planes are spans too
                bases = SimpleNamespace(curve=each, spans=[
                    Span(Direction(p.basis[0]), p.basis[1], ())
                    for p in c5_cone(each).components if isinstance(p, Plane)
                ])
                assert texts(find_generic_projection(each, bases).matrix) == got
        searched += error is None
        if searched >= 200 and index >= len(fixtures):
            break
    assert searched >= 200 and failed > 0
