"""Characteristic and contact records, ChAM and CoAM multiplicity sets."""

import math
import random
from fractions import Fraction

import pytest

from c5cone import (
    Analysis,
    AuxRecord,
    Branch,
    CycloScalar,
    Direction,
    DuplicateBranch,
    EngineError,
    IncompatibleSystem,
    NonPrimitiveParametrization,
    Parametrization,
    cham,
    characteristic_aux,
    characteristic_order,
    characteristic_records,
    classify,
    coam,
    contact_aux,
    contact_records,
    curve_from_exponents,
    profile,
    tangent_direction,
    zeta,
)
from random_curves import random_curve, random_curve_with_cone
from reference_aux import characteristic_reference, contact_leading, contact_reference


def direction(*entries):
    return Direction(
        [
            e if isinstance(e, CycloScalar) else CycloScalar.rational(e)
            for e in entries
        ]
    )


# ---------------------------------------------------------------------------
# characteristic records


def test_characteristic_records_enumerate_nontrivial_roots(load):
    b1 = load("four_branches").branches[0]
    recs = characteristic_records(b1)
    assert [(r.k, r.group_order, r.m_theta) for r in recs] == [
        (1, 4, 6), (2, 4, 9), (3, 4, 6),
    ]
    assert recs[0].v_theta == direction(0, 1, 0)
    assert recs[1].v_theta == direction(0, 0, 1)
    assert all(r.kind == "characteristic" for r in recs)
    assert all(r.labels == ("b1",) for r in recs)


def test_characteristic_records_with_higher_group(load):
    b2 = load("four_branches").branches[1]
    recs = characteristic_records(b2)
    assert [(r.k, r.m_theta) for r in recs] == [
        (1, 9), (2, 11), (3, 9), (4, 11), (5, 9),
    ]
    assert recs[0].v_theta == direction(0, 1, -1)
    assert recs[1].v_theta == direction(0, 1, 1)


def test_characteristic_record_planes_contain_tangent(load):
    from c5cone import tangent_direction

    for b in load("four_branches").branches:
        t = tangent_direction(b)
        for rec in characteristic_records(b):
            assert rec.plane.contains(t)
            assert rec.plane.contains(rec.v_theta)


def test_representatives_pick_one_k_per_root_order(load):
    c = load("m16_one_plane")
    b = c.branches[0]
    reps = Analysis(c).representative_records(0)
    assert [(r.k, r.m_theta) for r in reps] == [
        (8, 55), (4, 54), (2, 36), (1, 24),
    ]
    orders = [b.m // math.gcd(r.k, b.m) for r in reps]
    assert orders == [2, 4, 8, 16]


def test_representative_records_agree_with_their_class(load):
    c = load("m16_one_plane")
    b = c.branches[0]
    full = {
        math.gcd(r.k, b.m): (r.m_theta, r.plane.key())
        for r in characteristic_records(b)
    }
    for rep in Analysis(c).representative_records(0):
        assert full[math.gcd(rep.k, b.m)] == (rep.m_theta, rep.plane.key())


def test_smooth_branch_has_no_characteristic_records(load):
    assert characteristic_records(load("smooth_space").branches[0]) == []


def test_same_order_characteristic_vectors_are_cyclotomic(load):
    a, b = load("same_order_contact").branches
    z = zeta(3)
    recs_a = characteristic_records(a)
    assert [(r.k, r.m_theta) for r in recs_a] == [(1, 4), (2, 4)]
    expected = direction(0, CycloScalar.rational(1, 3), z, -1 - z, 0)
    assert all(r.v_theta == expected for r in recs_a)
    recs_b = characteristic_records(b)
    assert all(r.v_theta == direction(0, 1, 1, 1, 0) for r in recs_b)


# ---------------------------------------------------------------------------
# contact records


def test_contact_records_run_over_the_full_common_group(load):
    c = load("four_branches")
    recs = contact_records(c.branches[0], c.branches[1])
    assert [r.k for r in recs] == list(range(12))
    assert all(r.group_order == 12 for r in recs)
    assert all(r.m_theta == 18 for r in recs)
    assert all(r.kind == "contact" for r in recs)
    even = direction(0, 1, CycloScalar.rational(-1) / CycloScalar.rational(2))
    odd = direction(0, 0, 1)
    for r in recs:
        assert r.v_theta == (even if r.k % 2 == 0 else odd)


def test_contact_records_include_the_identity_root(load):
    a, b = load("same_order_contact").branches
    recs = contact_records(a, b)
    z = zeta(3)
    assert [(r.k, r.m_theta) for r in recs] == [(0, 4), (1, 4), (2, 4)]
    assert recs[0].v_theta == direction(0, 1, 1 + z, 0, 0)
    assert recs[1].v_theta == direction(0, 0, CycloScalar.rational(1, 3), 1 + z, 0)
    assert recs[2].v_theta == direction(0, 1, 0, -z, 0)


def test_contact_rejects_reparametrized_equal_images():
    z = zeta(4)
    c = curve_from_exponents(
        [
            [4, [(6, 1)], [(9, 1)]],
            [4, [(6, -1)], [(9, z)]],
        ]
    )
    with pytest.raises(DuplicateBranch):
        contact_records(c.branches[0], c.branches[1])


# ---------------------------------------------------------------------------
# ChAM and CoAM


def test_cham_values(load):
    c = load("four_branches")
    assert sorted(cham(c.branches[0])) == [4, 6, 9]
    assert sorted(cham(c.branches[1])) == [6, 9, 11]
    assert sorted(cham(c.branches[2])) == [1]
    assert sorted(cham(c.branches[3])) == [3, 4]


def test_cham_of_wiggly_space_branch(load):
    for name in (
        "m16_one_plane", "m16_two_planes", "m16_three_planes", "m16_four_planes",
    ):
        assert sorted(cham(load(name).branches[0])) == [16, 24, 36, 54, 55]


def test_cham_is_representative_independent():
    rng = random.Random(5)
    for _ in range(20):
        c = random_curve(rng, max_r=1)
        b = c.branches[0]
        every_theta = characteristic_records(b)
        assert cham(b) == {b.m} | {r.m_theta for r in every_theta}


def test_coam_length_is_the_common_group_order(load):
    c = load("four_branches")
    seq = coam(c.branches[0], c.branches[1])
    assert seq == (18,) * 12
    a, b = load("same_order_contact").branches
    assert coam(a, b) == (4, 4, 4)


def test_coam_matches_the_enumeration(fixture_names, load):
    # prime_multiplicity has a single branch, so no pairs, and is slow to read.
    curves = [load(name) for name in fixture_names if name != "prime_multiplicity"]
    rng = random.Random(13)
    curves += [random_curve(rng) for _ in range(40)]
    checked = {"T": 0, "NT": 0}
    for c in curves:
        cls = classify(c)
        for kind, pairs in (("T", cls.T), ("NT", cls.NT)):
            for i, j in sorted(pairs):
                bi, bj = c.branches[i], c.branches[j]
                lcm = math.lcm(bi.m, bj.m)
                reference = sorted(contact_reference(bi, bj, k).m_theta for k in range(lcm))
                assert coam(bi, bj) == tuple(reference)
                checked[kind] += 1
    assert checked["T"] >= 10 and checked["NT"] >= 40


def test_tangent_pair_without_common_special_coordinate_is_rejected():
    c = curve_from_exponents([
        [[(2, 1)], [(2, 2), (3, 1)], [(5, 1)]],
        [[(2, Fraction(1, 2)), (7, 1)], [(2, 1)], [(7, 1)]],
    ])
    bi, bj = c.branches
    assert tangent_direction(bi) == tangent_direction(bj)
    assert not bi.special_coords & bj.special_coords
    for call in (
        lambda: coam(bi, bj),
        lambda: contact_aux(bi, bj, 0),
        lambda: profile(c),
    ):
        with pytest.raises(IncompatibleSystem) as exc:
            call()
        assert exc.value.pair == ("b1", "b2")


def test_coam_is_symmetric(load):
    c = load("contact_structure_pair")
    forward = coam(c.branches[0], c.branches[1])
    backward = coam(c.branches[1], c.branches[0])
    assert sorted(forward) == sorted(backward)


# ---------------------------------------------------------------------------
# closed forms against the expanded difference series


def assert_records_match_the_difference_series(c):
    """Every characteristic record (every k, read through the analysis that
    shares planes across k) and every contact record of every pair equals
    the one read off the expanded difference series."""
    analysis = Analysis(c)
    checked = 0
    for i, b in enumerate(c.branches):
        records = analysis.characteristic_records(i) if b.m > 1 else []
        assert [r.k for r in records] == list(range(1, b.m))
        for rec in records:
            ref = characteristic_reference(b, rec.k)
            assert rec.m_theta == characteristic_order(b, rec.k) == ref.m_theta
            assert rec.v_theta == ref.v_theta
            assert rec.plane == ref.plane
            checked += 1
    cls = classify(c)
    for i, j in sorted(cls.T | cls.NT):
        bi, bj = c.branches[i], c.branches[j]
        for rec in contact_records(bi, bj):
            ref = contact_reference(bi, bj, rec.k)
            assert rec.m_theta == ref.m_theta
            assert rec.v_theta == ref.v_theta
            assert rec.plane == ref.plane
            m_theta, lowest = contact_leading(bi, bj, rec.k)
            assert m_theta == ref.m_theta
            assert lowest == ref.lowest
            checked += 1
    return checked


def test_records_match_the_difference_series_on_fixtures(fixture_names, load):
    # prime_multiplicity's one branch has 2016 roots at conductor 2017: the
    # expanded series takes seconds per root there.
    for name in fixture_names:
        if name != "prime_multiplicity":
            assert_records_match_the_difference_series(load(name))


def test_records_match_the_difference_series_on_random_curves():
    rng = random.Random(23)
    checked = 0
    for _ in range(40):
        c, _ = random_curve_with_cone(rng)
        checked += assert_records_match_the_difference_series(c)
    assert checked >= 200


def test_records_match_the_difference_series_at_large_conductor():
    z = lambda k: zeta(120, k)  # noqa: E731
    one_branch = curve_from_exponents([
        [12, [(13, z(7)), (17, z(100) + 2)], [(15, zeta(40, 3)), (18, z(59))]],
    ])
    tangent_pair = curve_from_exponents([
        [4, [(4, 1), (6, z(11)), (9, z(97))], [(7, z(35))]],
        [6, [(6, 1), (9, z(64))], [(10, z(3) - 1), (11, 1)]],
    ])
    assert one_branch.conductor == 120 and tangent_pair.conductor == 120
    assert assert_records_match_the_difference_series(one_branch) == 11
    assert classify(tangent_pair).T == {(0, 1)}
    assert assert_records_match_the_difference_series(tangent_pair) == 3 + 5 + 12


def test_records_carry_no_difference_series():
    assert "diff" not in AuxRecord._fields


def test_an_invariant_theta_is_rejected(load):
    b = load("space_cusp").branches[0]
    for k in (0, b.m):
        with pytest.raises(NonPrimitiveParametrization):
            characteristic_reference(b, k)
        with pytest.raises(NonPrimitiveParametrization):
            characteristic_aux(b, k)
    # (u^4, u^6) bypasses branch validation; theta = -1 leaves it invariant
    square = curve_from_exponents([[4, [(6, 1)], [(7, 1)]]]).branches[0]
    covered = Branch.__new__(Branch)
    for slot in Branch.__slots__:
        setattr(covered, slot, getattr(square, slot))
    covered.param = Parametrization(square.param.coords[:2])
    covered.tangent = Direction(s.coefficient(covered.m) for s in covered.param.coords)
    with pytest.raises(NonPrimitiveParametrization):
        characteristic_reference(covered, 2)
    with pytest.raises(NonPrimitiveParametrization):
        characteristic_aux(covered, 2)
    assert characteristic_aux(covered, 1).m_theta == 6


def _contact_outcomes(build, bi, bj):
    out = []
    for k in range(math.lcm(bi.m, bj.m)):
        try:
            out.append(build(bi, bj, k).m_theta)
        except DuplicateBranch:
            out.append("duplicate")
    return out


def reparametrized_pair():
    """Two branches with one image: the second is the first reparametrized
    by u -> i*u, so the first is the second at theta*u for theta = i^3."""
    z = zeta(4)
    return curve_from_exponents([
        [4, [(6, 1)], [(9, 1)]],
        [4, [(6, -1)], [(9, z)]],
    ])


def test_identical_images_are_rejected_at_the_matching_root(load):
    b = load("same_order_contact").branches[0]
    pair = reparametrized_pair().branches
    for bi, bj, duplicate_k in ((b, b, 0), (*pair, 3)):
        closed = _contact_outcomes(contact_aux, bi, bj)
        assert closed == _contact_outcomes(contact_reference, bi, bj)
        assert [k for k, v in enumerate(closed) if v == "duplicate"] == [duplicate_k]


# ---------------------------------------------------------------------------
# contact data of every k against the expanded difference series


def _outcome(call):
    """call()'s result, or the type and payload of the engine error it raised."""
    try:
        return call()
    except EngineError as exc:
        return type(exc), exc.to_json()


def _first_error(outcomes):
    return next((o for o in outcomes if isinstance(o[0], type)), None)


def _facts(rec):
    """What a contact record (or a reference) says about its root."""
    return rec.m_theta, rec.v_theta.key(), rec.plane.key(), rec.theta.text()


def assert_contact_data_match_the_reference(c):
    """Every ordered pair of branches, (b, b) included: at every k the
    record, contact_leading and the reference agree, or raise the same
    error; contact_records and coam agree with them over the whole group."""
    checked = 0
    for bi in c.branches:
        for bj in c.branches:
            ks = range(math.lcm(bi.m, bj.m))
            references = [_outcome(lambda k=k: contact_reference(bi, bj, k)) for k in ks]
            expected = [o if isinstance(o[0], type) else _facts(o) for o in references]
            for k, want, ref in zip(ks, expected, references):
                assert _outcome(lambda: _facts(contact_aux(bi, bj, k))) == want, k
                leading = _outcome(lambda: contact_leading(bi, bj, k))
                if isinstance(ref[0], type):
                    # contact_leading leaves the tangent-pair check to its callers
                    if ref[0] is DuplicateBranch:
                        assert leading == ref, k
                else:
                    assert leading == (ref.m_theta, ref.lowest), k
            error = _first_error(expected)
            records = _outcome(lambda: [_facts(r) for r in contact_records(bi, bj)])
            assert records == (error or expected)
            if error:
                assert _outcome(lambda: coam(bi, bj)) == error
            else:
                assert coam(bi, bj) == tuple(sorted(want[0] for want in expected))
            checked += len(ks)
    return checked


def test_contact_data_match_the_reference_on_fixtures(fixture_names, load):
    # prime_multiplicity has one branch of order 2017: the expanded series
    # of its 2017 self-contact roots takes seconds each
    curves = [load(name) for name in fixture_names if name != "prime_multiplicity"]
    for c in curves + [reparametrized_pair()]:
        assert_contact_data_match_the_reference(c)


def follower(b, s):
    """b reparametrized by u -> zeta_m^s*u, with 1/7 added to one highest
    non-special term: against b, its contact difference vanishes at
    theta = zeta_m^-s up to that term, so the walk cuts its progression
    down at several exponents before the pair parts."""
    top = max(e for series in b.param.coords for e, _ in series.terms)
    coords = [
        [(e, c * zeta(b.m, s * e % b.m)) for e, c in series.terms]
        for series in b.param.coords
    ]
    shifted = next(
        (
            coord for index, coord in enumerate(coords)
            if index not in b.special_coords and coord and coord[-1][0] == top
        ),
        None,
    )
    if shifted is not None:
        e, c = shifted[-1]
        shifted[-1] = (e, c + CycloScalar.rational(Fraction(1, 7)))
    return coords


def test_contact_data_match_the_reference_on_random_curves():
    rng = random.Random(29)
    checked = 0
    for _ in range(200):
        c = random_curve(rng)
        checked += assert_contact_data_match_the_reference(c)
        b = c.branches[0]
        leader = [list(series.terms) for series in b.param.coords]
        try:
            pair = curve_from_exponents([leader, follower(b, rng.randrange(b.m))])
        except EngineError:
            continue
        checked += assert_contact_data_match_the_reference(pair)
    assert checked >= 4000
