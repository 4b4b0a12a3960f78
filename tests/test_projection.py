"""Plane projections: genericity against the cone and profile invariance."""

import math
import random
import time
from itertools import chain, count, product
from types import SimpleNamespace

import pytest

from c5cone import (
    Analysis,
    CycloScalar,
    DependentVectors,
    DimensionMismatch,
    Direction,
    LinearProjection,
    NoCommonSpecialCoordinate,
    NonPrimitiveParametrization,
    apply_projection,
    c5_cone,
    characteristic_exponents,
    curve_from_exponents,
    find_generic_projection,
    is_c5_generic,
    verify_projection_invariance,
)
from c5cone.c5 import Span
from c5cone.geometry import Curve, Plane
from random_curves import engineered_nongeneric_projection, random_space_branch_curve


def texts(rows):
    return [[e.text() for e in row] for row in rows]


# ---------------------------------------------------------------------------
# construction


def test_projection_computes_kernel():
    p = LinearProjection([[1, 0, 0], [0, 1, 1]])
    assert texts(p.kernel_basis) == [["0", "1", "-1"]]


def test_normal_shape_kernel_at_n_100_is_quick_and_exact():
    # rref skips the zero entries of the pivot row, so the 98 x 100 kernel
    # basis takes well under a second; it took about 14 s before the skip
    n = 100
    rows = [[1] + [0] * (n - 1), [0] + [1] * (n - 1)]
    start = time.perf_counter()
    p = LinearProjection(rows)
    assert time.perf_counter() - start < 5
    assert len(p.kernel_basis) == n - 2
    for v in p.kernel_basis:
        for row in p.matrix:
            assert sum((a * b for a, b in zip(row, v)), CycloScalar.rational(0)).is_zero()


def test_projection_rejects_rank_deficient_matrix():
    with pytest.raises(DependentVectors):
        LinearProjection([[1, 2, 0], [2, 4, 0]])


def test_projection_rejects_wrong_row_count():
    with pytest.raises(DimensionMismatch):
        LinearProjection([[1, 0, 0]])
    # no row tells the kernel's ambient dimension
    with pytest.raises(DimensionMismatch):
        LinearProjection.from_kernel([])


def test_from_kernel_round_trip():
    p = LinearProjection.from_kernel([[0, 0, 1]])
    assert texts(p.kernel_basis) == [["0", "0", "1"]]
    assert p.n == 3


def test_from_kernel_accepts_redundant_spanning_rows():
    p = LinearProjection.from_kernel([[0, 0, 1], [0, 0, 2]])
    assert texts(p.kernel_basis) == [["0", "0", "1"]]


def test_from_kernel_needs_codimension_two():
    with pytest.raises(DependentVectors):
        LinearProjection.from_kernel([[1, 0, 0], [0, 1, 0]])


def test_identity_projection_for_plane_curves():
    p = LinearProjection.identity()
    assert texts(p.matrix) == [["1", "0"], ["0", "1"]]
    assert p.kernel_basis == ()


# ---------------------------------------------------------------------------
# genericity


def test_generic_kernel_misses_the_cone(load):
    c = load("space_cusp")
    p = LinearProjection([[1, 0, 0], [0, 1, 1]])
    verdict = is_c5_generic(c, p)
    assert verdict.generic
    assert verdict.violating_component is None


def test_kernel_inside_a_cone_plane_is_not_generic(load):
    c = load("space_cusp")
    verdict = is_c5_generic(c, LinearProjection.from_kernel([[0, 0, 1]]))
    assert not verdict.generic
    assert isinstance(verdict.violating_component, Plane)
    assert repr(verdict.violating_component) == "<plane span{(1, 0, 0); (0, 0, 1)}>"


def test_engineered_kernels_hit_their_component():
    rng = random.Random(14)
    for _ in range(10):
        c = random_space_branch_curve(rng)
        cone = c5_cone(c)
        planes = [comp for comp in cone.components if isinstance(comp, Plane)]
        for comp in planes:
            p = engineered_nongeneric_projection(comp)
            assert not is_c5_generic(c, p).generic


# ---------------------------------------------------------------------------
# applying projections


def test_generic_image_is_a_plane_curve(load):
    c = load("space_cusp")
    p = find_generic_projection(c)
    assert texts(p.matrix) == [["1", "0", "0"], ["0", "1", "1"]]
    image = apply_projection(c, p)
    assert isinstance(image, Curve)
    assert image.n == 2
    assert image.branches[0].param.text() == "(u^4, u^6 + u^7)"
    assert characteristic_exponents(image.branches[0]) == (4, 6, 7)


def test_image_outside_normal_form_raises(load):
    c = load("space_cusp")
    proj = LinearProjection.from_kernel([[0, 0, 1]])
    with pytest.raises(NonPrimitiveParametrization):
        apply_projection(c, proj)
    assert not verify_projection_invariance(c, proj)


# ---------------------------------------------------------------------------
# invariance


def test_generic_projection_preserves_the_profile(load):
    c = load("space_cusp")
    assert verify_projection_invariance(c, find_generic_projection(c))


def test_non_generic_projections_break_invariance(load):
    c = load("space_cusp")
    assert not verify_projection_invariance(
        c, LinearProjection.from_kernel([[0, 0, 1]])
    )
    assert not verify_projection_invariance(
        c, LinearProjection.from_kernel([[0, 1, 0]])
    )


def test_valid_image_with_lost_exponent_is_caught(load):
    c = load("space_cusp")
    image = apply_projection(c, LinearProjection.from_kernel([[0, 1, 0]]))
    assert isinstance(image, Curve)
    assert image.branches[0].param.text() == "(u^4, u^7)"
    assert not verify_projection_invariance(
        c, LinearProjection.from_kernel([[0, 1, 0]])
    )


def test_identity_is_the_generic_projection_in_the_plane(load):
    c = load("smooth_plane")
    p = find_generic_projection(c)
    assert texts(p.matrix) == [["1", "0"], ["0", "1"]]
    assert verify_projection_invariance(c, p)


def test_find_generic_projection_skips_non_generic_candidates(load):
    c = load("same_order_contact")
    p = find_generic_projection(c)
    assert is_c5_generic(c, p).generic
    assert verify_projection_invariance(c, p)


def test_find_generic_projection_refuses_an_analysis_of_another_curve(load):
    # the spans of space_cusp pass (1,0,0);(0,1,1), whose kernel lies in a
    # plane of m16_four_planes' cone
    a, b = load("m16_four_planes"), load("space_cusp")
    with pytest.raises(ValueError, match="another curve"):
        find_generic_projection(a, Analysis(b))
    assert not is_c5_generic(a, LinearProjection([[1, 0, 0], [0, 1, 1]])).generic
    p = find_generic_projection(a, Analysis(a))
    assert p.matrix == LinearProjection([[1, 0, 0], [0, -2, -1]]).matrix
    assert is_c5_generic(a, p).generic


def test_find_generic_projection_needs_universal_special_coordinate(load):
    with pytest.raises(NoCommonSpecialCoordinate):
        find_generic_projection(load("four_branches"))


def test_disjoint_special_coordinates_are_rejected():
    c = curve_from_exponents(
        [
            [2, [(5, 1)], [(7, 1)]],
            [[(2, 2), (3, 1)], 2, [(7, 1)]],
        ]
    )
    with pytest.raises(NoCommonSpecialCoordinate):
        find_generic_projection(c)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_search_ends_within_its_bound(K):
    # s = 0: the span of e_0 and (0, -q, p) has w = (0, -q, p), so it
    # rejects exactly the lambda parallel to (p, q). One span per primitive
    # (p, q) of max-norm <= K rejects every candidate up to max-norm K, and
    # P such spans leave a candidate by max-norm ceil(P/2).
    c = curve_from_exponents([[2, [(3, 1)], [(5, 1)]]])
    rejected = set()
    for p, q in product(range(-K, K + 1), repeat=2):
        if (p, q) != (0, 0):
            g = math.gcd(p, q) * (1 if (p or q) > 0 else -1)
            rejected.add((p // g, q // g))
    spans = [
        Span(
            Direction(CycloScalar.rational(v) for v in (1, 0, 0)),
            tuple(CycloScalar.rational(v) for v in (0, -q, p)),
            (),
        )
        for p, q in sorted(rejected)
    ]
    bound = -(-len(rejected) // 2)
    shells = (
        lam
        for norm in count(1)
        for lam in product(range(-norm, norm + 1), repeat=2)
        if max(map(abs, lam)) == norm
    )
    first = next(
        lam for lam in chain([(1, 1)], shells)
        if all(p * lam[1] != q * lam[0] for p, q in rejected)
    )
    assert max(map(abs, first)) == K + 1 <= bound
    found = find_generic_projection(c, SimpleNamespace(curve=c, spans=spans))
    assert texts(found.matrix) == [["1", "0", "0"], ["0", *map(str, first)]]
