"""Exact linear algebra, branches, and tangency classification."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c5cone import (
    Analysis,
    Branch,
    CycloScalar,
    DependentVectors,
    DimensionMismatch,
    Direction,
    DuplicateBranch,
    IncompatibleSystem,
    LinearProjection,
    Plane,
    c5_cone,
    classify,
    component_forms,
    curve,
    curve_from_exponents,
    matrix_rank,
    null_space,
    rref,
    zeta,
)
from c5cone import scalar
from c5cone.errors import EngineError
from c5cone.scalar import common_conductor, divided
from c5cone.series import CoordinateSeries, Parametrization
from fractions import Fraction

from random_curves import random_curve_with_cone


def vec(*entries):
    return [
        e if isinstance(e, CycloScalar) else CycloScalar.rational(e)
        for e in entries
    ]


def small_matrices():
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4
        )
    ).map(lambda rows: [vec(*r) for r in rows])


# ---------------------------------------------------------------------------
# rref / rank / null space


def test_rref_known_matrix():
    reduced, pivots = rref([vec(0, 2, 4), vec(1, 1, 1)])
    assert list(pivots) == [0, 1]
    texts = [[e.text() for e in row] for row in reduced]
    assert texts == [["1", "0", "-1"], ["0", "1", "2"]]


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rref_is_idempotent(rows):
    reduced, pivots = rref(rows)
    again, pivots2 = rref([list(r) for r in reduced])
    assert pivots2 == pivots
    assert [[e.text() for e in r] for r in again] == [
        [e.text() for e in r] for r in reduced
    ]


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_nullity(rows):
    n = len(rows[0])
    rank = matrix_rank(rows)
    kernel = null_space(rows)
    assert rank + len(kernel) == n
    for k in kernel:
        for row in rows:
            dot = sum((a * b for a, b in zip(row, k)), CycloScalar.rational(0))
            assert dot.is_zero()


def test_rank_of_dependent_rows():
    assert matrix_rank([vec(1, 2), vec(2, 4)]) == 1
    assert matrix_rank([vec(0, 0)]) == 0


# ---------------------------------------------------------------------------
# directions and planes


def test_direction_normalizes_leading_entry():
    d = Direction(vec(2, 4, 6))
    assert d.key() == ("1", "2", "3")


def test_direction_ignores_complex_scale():
    z = zeta(3)
    d1 = Direction(vec(1, z, 0))
    d2 = Direction([z, z * z, CycloScalar.rational(0, conductor=3)])
    assert d1 == d2


def test_direction_rejects_zero_vector():
    with pytest.raises(ValueError):
        Direction(vec(0, 0, 0))


def test_plane_basis_is_canonical():
    p1 = Plane((vec(1, 0, 1), vec(0, 1, 1)))
    p2 = Plane((vec(1, 1, 2), vec(1, -1, 0)))
    assert p1 == p2
    assert p1.key() == p2.key()


def test_plane_contains_spanning_combinations():
    w, v = Direction(vec(1, 0, 2)), Direction(vec(0, 1, -1))
    p = Plane((w.vec, v.vec))
    for a, b in ((1, 0), (0, 1), (2, 3), (-1, Fraction(1, 2))):
        combo = [
            CycloScalar.rational(a) * x + CycloScalar.rational(b) * y
            for x, y in zip(w.vec, v.vec)
        ]
        assert p.contains(Direction(combo))
    assert not p.contains(Direction(vec(0, 0, 1)))


def test_plane_rejects_dependent_spans():
    with pytest.raises(DependentVectors):
        Plane((vec(1, 2, 0), vec(2, 4, 0)))


def _entries(plane):
    return [[(e.conductor, e.terms()) for e in row] for row in plane.basis]


def _assert_closed_form_is_rref(w, v):
    """Plane((w, v)) equals rref([w, v]) entry by entry, conductor and
    terms included; below rank 2 it raises DependentVectors with the rank
    rref finds. Returns that rank."""
    reduced, pivots = rref([w, v])
    rank = len(pivots)
    if rank < 2:
        with pytest.raises(DependentVectors) as raised:
            Plane((w, v))
        assert raised.value.to_json() == {
            "error": "DependentVectors",
            "detail": f"expected a rank-2 span, got rank {rank}",
            "rank": rank,
        }
        return rank
    assert _entries(Plane((w, v))) == [[(e.conductor, e.terms()) for e in row] for row in reduced]
    return rank


def test_closed_form_planes_equal_the_rref_route_on_every_span(load, fixture_names):
    curves = [load(name) for name in fixture_names]
    rng = random.Random(41)
    curves += [random_curve_with_cone(rng, max_n=5)[0] for _ in range(200)]
    spans = 0
    for c in curves:
        for span in Analysis(c).spans:
            _assert_closed_form_is_rref(span.tangent.vec, Direction(span.vector).vec)
            spans += 1
    assert spans > 500


def test_closed_form_planes_where_the_vector_leads_first():
    z = zeta(3)
    w = Direction(vec(0, 1, 2, z))
    for v in (vec(3, 1, 0, 1), vec(z, 5, 1, 0), vec(0, 0, z, 1), vec(1, 0, 0, 0)):
        _assert_closed_form_is_rref(w.vec, Direction(v).vec)
    # the vector leads before the tangent: its row comes first
    p = Plane((w.vec, Direction(vec(z, 5, 1, 0)).vec))
    assert [row.index(next(e for e in row if e)) for row in p.basis] == [0, 1]


def test_closed_form_planes_reject_parallel_vectors():
    z = zeta(6)
    w = Direction(vec(0, 1, z, 2))
    for scale in (1, -3, z, z * z + 1):
        v = Direction([scale * e for e in w.vec])
        with pytest.raises(DependentVectors):
            Plane((w.vec, v.vec))
        _assert_closed_form_is_rref(w.vec, v.vec)


def test_closed_form_planes_equal_rref_on_rational_row_pairs():
    # seeded rational pairs of every shape: free, a zero row first, the
    # second row a multiple of the first (zero included), and the second
    # row leading before the first
    rng = random.Random(30)
    entries = (0, 0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2))
    ranks = {0: 0, 1: 0, 2: 0}
    swapped = 0
    for i in range(1600):
        n = rng.randint(1, 5)
        w, v = ([rng.choice(entries) for _ in range(n)] for _ in range(2))
        shape = i % 4
        if shape == 1:
            w = [0] * n
        elif shape == 2:
            v = [rng.choice(entries) * e for e in w]
        elif shape == 3 and n > 1:
            w[0], v[0] = 0, rng.choice(entries[3:])
            swapped += any(w)
        ranks[_assert_closed_form_is_rref(vec(*w), vec(*v))] += 1
    assert min(ranks.values()) >= 50 and swapped >= 250, (ranks, swapped)


def test_a_rational_ratio_vector_is_divided_with_no_inverse(monkeypatch):
    # every entry 0 or a rational multiple of a three-term lead at N = 2017:
    # Direction, rref and Plane read each quotient off the terms, where an
    # inverse by extended Euclid takes seconds
    calls, inverse_mod = [], scalar._inverse_mod
    monkeypatch.setattr(
        scalar, "_inverse_mod", lambda a, m: (calls.append(None), inverse_mod(a, m))[1]
    )
    lead = zeta(2017, 5) + 2 * zeta(2017, 90) - zeta(2017, 1000)
    d = Direction(vec(0, 3 * lead, Fraction(-1, 2) * lead, 0))
    reduced, pivots = rref([vec(0, 2 * lead, lead), vec(lead, 0, Fraction(2, 3) * lead)])
    p = Plane((vec(1, 0, 0), vec(1, lead, 4 * lead)))
    assert calls == []
    assert d.key() == ("0", "1", "-1/6", "0")
    assert pivots == [0, 1]
    assert [[e.text() for e in row] for row in reduced] == [["1", "0", "2/3"], ["0", "1", "1/2"]]
    assert p.key() == (("1", "0", "0"), ("0", "1", "4"))
    # any other entry takes the lead's inverse (here that of 1 + zeta_60^7),
    # once per vector
    Direction(vec(1 + zeta(60, 7), zeta(60, 3), 2 * zeta(60, 11)))
    assert len(calls) == 1


def test_divided_gives_the_terms_and_conductors_of_the_inverse_route():
    # quotients read off the terms equal e * lead.inverse(), conductor and
    # stored coefficient types included, also beside entries of other
    # conductors and entries that take the inverse
    rng = random.Random(14)
    for _ in range(300):
        N = rng.choice((3, 4, 12, 60))
        lead = sum(
            (rng.choice((1, -2, Fraction(1, 3))) * zeta(N, rng.randrange(N)) for _ in range(3)),
            CycloScalar.rational(0),
        )
        if not lead:
            continue
        entries = [
            rng.choice((
                lambda: rng.choice((0, 1, -3, Fraction(5, 2))) * lead,
                lambda: CycloScalar.rational(rng.choice((0, 2))),
                lambda: zeta(rng.choice((2, 5, N)), rng.randrange(5)),
            ))()
            for _ in range(4)
        ]
        got = divided(entries, lead)
        if lead == 1:
            assert got == entries and all(a is b for a, b in zip(got, entries))
            continue
        inv = lead.inverse()
        for a, b in zip(got, (e * inv for e in entries)):
            assert (a.conductor, a.terms()) == (b.conductor, b.terms())
            assert [type(c) for _, c in a.terms()] == [type(c) for _, c in b.terms()]


def test_component_forms_vanish_on_basis():
    plane = Plane((vec(1, 0, 1, 0), vec(0, 1, 0, 1)))
    skew = Plane((vec(1, 0, 2), vec(zeta(3), 1, 1)))
    line = Direction(vec(2, 1, Fraction(1, 3)))
    for component, n, rows in ((plane, 4, plane.basis), (skew, 3, skew.basis),
                               (line, 3, (line.vec,))):
        forms = component_forms(component)
        # n - 2 forms for a plane, n - 1 for a line, independent
        assert len(forms) == n - len(rows)
        assert matrix_rank([list(vec(*f)) for f in forms]) == len(forms)
        for form in forms:
            for row in rows:
                dot = sum((row[i] * e for i, e in enumerate(form)), CycloScalar.rational(0))
                assert dot.is_zero()
            # rational forms are coprime ints, leading with a positive entry
            if all(isinstance(e, int) for e in form):
                assert math.gcd(*form) == 1 and next(e for e in form if e) > 0
    assert component_forms(plane) == [(1, 0, -1, 0), (0, 1, 0, -1)]
    assert component_forms(line) == [(1, 0, -6), (0, 1, -3)]
    assert not all(isinstance(e, int) for e in component_forms(skew)[0])


def test_plane_needs_rank_two():
    with pytest.raises(DependentVectors):
        Plane([vec(1, 1), vec(1, 1)])


@pytest.mark.parametrize("rows", [((1, 0, 0), (0, 1)), ((0, 1), (1, 0, 0))])
def test_ragged_rows_raise_dimension_mismatch(rows):
    # no reduction reads past a short row or drops a long row's tail
    rows = [vec(*row) for row in rows]
    for build in (rref, null_space, matrix_rank, Plane, LinearProjection,
                  LinearProjection.from_kernel):
        with pytest.raises(DimensionMismatch) as raised:
            build(rows)
        assert sorted(raised.value.payload["dims"]) == [2, 3], build


def test_a_plane_takes_two_rows():
    for rows in ([vec(1, 0)], [vec(1, 0), vec(0, 1), vec(1, 1)]):
        with pytest.raises(DimensionMismatch):
            Plane(rows)


# ---------------------------------------------------------------------------
# branches


def test_branch_multiplicity_and_special_coords():
    b = curve_from_exponents([[4, [(6, 1), (9, 1)]]]).branches[0]
    assert b.m == 4
    assert b.special_coords == frozenset({0})
    assert b.conductor % b.m == 0


def test_branch_conductor_covers_coefficients():
    b = curve_from_exponents([[4, [(6, zeta(3)), (9, 1)]]]).branches[0]
    assert b.conductor % 12 == 0


def test_branch_builds_again_only_the_series_at_another_conductor():
    # x = u^4 holds a rational, at conductor 1, so it is embedded at the
    # branch's 12; y is at 12 already and the zero series holds nothing
    x = CoordinateSeries([(4, CycloScalar.rational(1))])
    y = CoordinateSeries([(5, zeta(12)), (7, zeta(12, 5))])
    zero = CoordinateSeries()
    b = Branch(Parametrization([x, y, zero]))
    assert b.conductor == 12
    assert b.param.coords[1] is y and b.param.coords[2] is zero
    assert b.param.coords[0] == x and b.param.coords[0].terms[0][1].conductor == 12
    assert all(s is t for s, t in zip(Branch(b.param).param.coords, b.param.coords))


def test_branch_rejects_shared_exponent_factor():
    from c5cone import NonPrimitiveParametrization

    with pytest.raises(NonPrimitiveParametrization):
        curve_from_exponents([[4, [(6, 1)]]])


def test_tangent_direction_collects_order_m_terms():
    c = curve_from_exponents([[[(1, 1)], [(1, 2)], [(1, 1)]]])
    assert c.branches[0].tangent.key() == ("1", "2", "1")
    c = curve_from_exponents([[[(4, 1)], [(3, 1)], [(5, 1)]]])
    assert c.branches[0].tangent.key() == ("0", "1", "0")


def test_curve_embeds_all_branches_in_one_conductor():
    c = curve_from_exponents(
        [[4, [(6, 1), (7, 1)]], [[(3, zeta(3)), (4, 1)], [(3, 1)]]]
    )
    assert c.conductor == 12
    assert all(b.conductor == 12 for b in c.branches)


def test_curve_rejects_mixed_dimensions():
    b1 = curve_from_exponents([[2, [(3, 1)]]]).branches[0]
    b2 = curve_from_exponents([[2, [(3, 1)], [(5, 1)]]]).branches[0]
    with pytest.raises(DimensionMismatch):
        curve([b1, Branch(b2.param, label="c")])


def _mixed_coefficient(rng):
    """A sum of one to three rational multiples of roots of unity of mixed
    orders, at the lcm of those orders."""
    total = CycloScalar.rational(0)
    for _ in range(rng.randint(1, 3)):
        d = rng.choice((1, 2, 3, 4, 5, 6, 8, 12))
        total = total + rng.choice((1, -1, 2, Fraction(1, 3))) * zeta(d, rng.randrange(d))
    return total


def _mixed_param(rng, n):
    """A Puiseux-form parametrization in C^n: one coordinate exactly u^m,
    the others sums of terms of order >= m with mixed coefficients, the
    first coordinate always with a u^m term."""
    m = rng.randint(1, 4)
    special = rng.randrange(n)
    coords = []
    for i in range(n):
        if i == special:
            coords.append(CoordinateSeries([(m, CycloScalar.rational(1))]))
            continue
        exps = set(rng.sample(range(m, m + 7), rng.randint(0, 3)))
        if i == 0:
            exps.add(m)
        coords.append(CoordinateSeries((e, _mixed_coefficient(rng)) for e in sorted(exps)))
    return Parametrization(coords)


def test_an_embedded_branch_is_the_branch_of_the_embedded_parametrization():
    # embedded() re-fills a checked branch at a larger conductor: each field
    # must be what the checks give on the parametrization embedded there
    rng = random.Random(25)
    curves = irrational_leads = below = 0
    while curves < 200:
        n = rng.randint(2, 4)
        params = [_mixed_param(rng, n) for _ in range(rng.randint(2, 3))]
        try:
            branches = [Branch(p, f"b{i + 1}") for i, p in enumerate(params)]
        except EngineError:
            continue
        curves += 1
        least = common_conductor(*(b.conductor for b in branches))
        joined = curve(branches)
        for M, built in ((least, joined.branches), (least * rng.choice((2, 3, 5)), None)):
            for i, (p, b) in enumerate(zip(params, branches)):
                got = built[i] if built else b.embedded(M)
                want = Branch(Parametrization(s.embedded(M) for s in p.coords), b.label)
                assert got.param.text() == want.param.text()
                assert (got.label, got.m, got.special_coords) == (want.label, want.m,
                                                                  want.special_coords)
                assert got.conductor == want.conductor == M
                assert got.tangent.key() == want.tangent.key()
        irrational_leads += sum(
            not p.coords[0].coefficient(b.m).is_rational() for p, b in zip(params, branches)
        )
        below += sum(b.conductor < least for b in branches)
    # branches that curve() re-fills, and tangents whose first entry needs
    # an inverse, are both common
    assert below > 100 and irrational_leads > 100


# ---------------------------------------------------------------------------
# classification and compatibility


def test_classification_of_mixed_curve(load):
    c = load("four_branches")
    cls = classify(c)
    labels = [b.label for b in c.branches]
    assert [labels[i] for i in sorted(cls.S)] == ["b1", "b2", "b4"]
    assert [(labels[i], labels[j]) for i, j in sorted(cls.T)] == [("b1", "b2")]
    assert [(labels[i], labels[j]) for i, j in sorted(cls.NT)] == [
        ("b1", "b3"), ("b1", "b4"), ("b2", "b3"), ("b2", "b4"), ("b3", "b4"),
    ]


def test_smooth_single_branch_classification(load):
    cls = classify(load("smooth_space"))
    assert cls.S == frozenset() and cls.T == frozenset() and cls.NT == frozenset()


def test_compatibility_picks_common_special_coordinate(load):
    # the one tangent pair b1, b2 shares a special coordinate
    assert Analysis(load("four_branches")).tangent_pairs == [(0, 1)]


def test_incompatible_tangent_pair_is_rejected():
    c = curve_from_exponents(
        [
            [[(2, 1)], [(2, 2), (3, 1)], [(5, 1)]],
            [[(2, Fraction(1, 2)), (7, 1)], [(2, 1)], [(7, 1)]],
        ]
    )
    with pytest.raises(IncompatibleSystem) as exc:
        Analysis(c).tangent_pairs
    assert exc.value.pair == ("b1", "b2")


def test_equal_image_branches_are_rejected():
    c = curve_from_exponents([[4, [(6, 1), (7, 1)]], [4, [(6, 1), (7, 1)]]])
    with pytest.raises(DuplicateBranch):
        c5_cone(c)
