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
    DimensionMismatch,
    Direction,
    DuplicateBranch,
    EngineError,
    IncompatibleSystem,
    NonPrimitiveParametrization,
    Parametrization,
    cham,
    characteristic_order,
    classify,
    coam,
    curve_from_exponents,
    profile,
    zeta,
)
from c5cone.auxiliary import _duplicate, _Pair
from c5cone.geometry import check_tangent_pair
from random_curves import random_curve, random_curve_with_cone
from reference_aux import characteristic_reference, contact_leading, contact_reference


def direction(*entries):
    return Direction(
        [
            e if isinstance(e, CycloScalar) else CycloScalar.rational(e)
            for e in entries
        ]
    )


def records_of(c, *labels, representatives=False):
    """The records of the branch or pair labels, in Analysis.records order."""
    return [r for r in Analysis(c).records(representatives) if r.labels == labels]


# ---------------------------------------------------------------------------
# characteristic records


def test_characteristic_records_enumerate_nontrivial_roots(load):
    recs = records_of(load("four_branches"), "b1")
    assert [(r.k, r.group_order, r.m_theta) for r in recs] == [
        (1, 4, 6), (2, 4, 9), (3, 4, 6),
    ]
    assert recs[0].v_theta == direction(0, 1, 0)
    assert recs[1].v_theta == direction(0, 0, 1)
    assert all(r.kind == "characteristic" for r in recs)
    assert all(r.labels == ("b1",) for r in recs)


def test_characteristic_records_with_higher_group(load):
    recs = records_of(load("four_branches"), "b2")
    assert [(r.k, r.m_theta) for r in recs] == [
        (1, 9), (2, 11), (3, 9), (4, 11), (5, 9),
    ]
    assert recs[0].v_theta == direction(0, 1, -1)
    assert recs[1].v_theta == direction(0, 1, 1)


def test_characteristic_record_planes_contain_tangent(load):
    c = load("four_branches")
    for b in c.branches:
        t = b.tangent
        for rec in records_of(c, b.label):
            assert rec.plane.contains(t)
            assert rec.plane.contains(rec.v_theta)


def test_representatives_pick_one_k_per_root_order(load):
    c = load("m16_one_plane")
    b = c.branches[0]
    reps = Analysis(c).records(representatives=True)
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
        for r in Analysis(c).records()
    }
    for rep in Analysis(c).records(representatives=True):
        assert full[math.gcd(rep.k, b.m)] == (rep.m_theta, rep.plane.key())


def test_smooth_branch_has_no_characteristic_records(load):
    c = load("smooth_space")
    assert all(b.m == 1 for b in c.branches)
    assert Analysis(c).records() == Analysis(c).records(representatives=True) == []


def test_same_order_characteristic_vectors_are_cyclotomic(load):
    c = load("same_order_contact")
    a, b = c.branches
    z = zeta(3)
    recs_a = records_of(c, a.label)
    assert [(r.k, r.m_theta) for r in recs_a] == [(1, 4), (2, 4)]
    expected = direction(0, CycloScalar.rational(1, 3), z, -1 - z, 0)
    assert all(r.v_theta == expected for r in recs_a)
    recs_b = records_of(c, b.label)
    assert all(r.v_theta == direction(0, 1, 1, 1, 0) for r in recs_b)


# ---------------------------------------------------------------------------
# contact records


def test_contact_records_run_over_the_full_common_group(load):
    recs = records_of(load("four_branches"), "b1", "b2")
    assert [r.k for r in recs] == list(range(12))
    assert all(r.group_order == 12 for r in recs)
    assert all(r.m_theta == 18 for r in recs)
    assert all(r.kind == "contact" for r in recs)
    even = direction(0, 1, CycloScalar.rational(-1) / CycloScalar.rational(2))
    odd = direction(0, 0, 1)
    for r in recs:
        assert r.v_theta == (even if r.k % 2 == 0 else odd)


def test_contact_records_include_the_identity_root(load):
    c = load("same_order_contact")
    recs = records_of(c, *(b.label for b in c.branches))
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
        Analysis(c).records()


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
        every_theta = [characteristic_reference(b, k) for k in range(1, b.m)]
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
    assert bi.tangent == bj.tangent
    assert not bi.special_coords & bj.special_coords
    for call in (
        lambda: coam(bi, bj),
        lambda: Analysis(c).records(),
        lambda: profile(c),
    ):
        with pytest.raises(IncompatibleSystem) as exc:
            call()
        assert exc.value.pair == ("b1", "b2")


def test_coam_rejects_branches_of_two_dimensions():
    # the cusp in C^2 and in C^3 have tangents of two widths, which would
    # pass for a non-tangent pair with coam (2, 2)
    plane = curve_from_exponents([[[(2, 1)], [(3, 1)]]]).branches[0]
    space = curve_from_exponents([[[(2, 1)], [(3, 1)], [(5, 1)]]]).branches[0]
    with pytest.raises(DimensionMismatch) as exc:
        coam(plane, space)
    assert str(exc.value) == "branch b1 has ambient dimension 3, expected 2"
    assert exc.value.payload == {"dims": [2, 3]}


def test_coam_is_symmetric(load):
    c = load("contact_structure_pair")
    forward = coam(c.branches[0], c.branches[1])
    backward = coam(c.branches[1], c.branches[0])
    assert sorted(forward) == sorted(backward)


# ---------------------------------------------------------------------------
# closed forms against the expanded difference series


def assert_records_match_the_difference_series(c):
    """Every characteristic record (every k, read off the analysis's spans,
    which k of one order share) and every contact record of every tangent
    pair equals the one read off the expanded difference series, and so do
    the class and leading vector of every non-tangent pair at every k."""
    analysis = Analysis(c)
    records = analysis.records()
    checked = 0
    for b in c.branches:
        listed = [r for r in records if r.labels == (b.label,)]
        assert [r.k for r in listed] == list(range(1, b.m))
        for rec in listed:
            ref = characteristic_reference(b, rec.k)
            assert rec.m_theta == characteristic_order(b, rec.k) == ref.m_theta
            assert rec.v_theta == ref.v_theta
            assert rec.plane == ref.plane
            assert rec.theta == ref.theta
            checked += 1
    cls = analysis.classification
    for i, j in sorted(cls.T | cls.NT):
        bi, bj = c.branches[i], c.branches[j]
        pair = analysis.pair(i, j)
        listed = [r for r in records if r.labels == (bi.label, bj.label)]
        assert [r.k for r in listed] == (list(range(pair.lcm)) if (i, j) in cls.T else [])
        for k in range(pair.lcm):
            ref = contact_reference(bi, bj, k)
            m_theta, twist = pair.classes[k]
            assert m_theta == ref.m_theta
            assert pair.vector(m_theta, twist) == ref.lowest
            assert contact_leading(bi, bj, k) == (ref.m_theta, ref.lowest)
            checked += 1
        for rec in listed:
            ref = contact_reference(bi, bj, rec.k)
            assert rec.m_theta == ref.m_theta
            assert rec.v_theta == ref.v_theta
            assert rec.plane == ref.plane
            assert rec.theta == ref.theta
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
            characteristic_order(b, k)
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
        characteristic_order(covered, 2)
    assert characteristic_order(covered, 1) == 6 == characteristic_reference(covered, 1).m_theta


def _reference_outcomes(bi, bj):
    out = []
    for k in range(math.lcm(bi.m, bj.m)):
        try:
            out.append(contact_reference(bi, bj, k).m_theta)
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
        closed = [found[0] if found else "duplicate" for found in _Pair(bi, bj).classes]
        assert closed == _reference_outcomes(bi, bj)
        assert [k for k, v in enumerate(closed) if v == "duplicate"] == [duplicate_k]
    with pytest.raises(DuplicateBranch):
        Analysis(reparametrized_pair()).records()


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


def _class_facts(pair, k):
    """What the pair's class at k says about its root, as the reference
    does: m_theta, the lowest-order vector and its direction's key; the
    pair's DuplicateBranch where the class is None."""
    found = pair.classes[k]
    if found is None:
        raise _duplicate(*pair.branches)
    lowest = pair.vector(*found)
    return found[0], lowest, Direction(lowest).key()


def assert_contact_data_match_the_reference(c):
    """Every ordered pair of branches, (b, b) included: at every k the
    pair's class and leading vector, contact_leading and the reference
    agree, or raise the same error; coam agrees with them over the whole
    group, and the analysis's contact records with those of the tangent
    pairs, or raise the error the first of them raises, the tangent-pair
    check first."""
    checked = 0
    tangent = sorted(classify(c).T)
    listed, errors = [], []
    for i, bi in enumerate(c.branches):
        for j, bj in enumerate(c.branches):
            ks = range(math.lcm(bi.m, bj.m))
            references = [_outcome(lambda k=k: contact_reference(bi, bj, k)) for k in ks]
            error = _first_error(references)
            if error and error[0] is IncompatibleSystem:
                # the reference checks the tangent pair first; the engine
                # checks it apart from the walk
                assert _outcome(lambda: check_tangent_pair(bi, bj)) == error
                assert _outcome(lambda: coam(bi, bj)) == error
            else:
                pair = _Pair(bi, bj)
                for k, ref in zip(ks, references):
                    failed = isinstance(ref[0], type)
                    want = ref if failed else (ref.m_theta, ref.lowest, ref.v_theta.key())
                    assert _outcome(lambda: _class_facts(pair, k)) == want, k
                    leading = _outcome(lambda: contact_leading(bi, bj, k))
                    assert leading == (ref if failed else want[:2]), k
                if error:
                    assert _outcome(lambda: coam(bi, bj)) == error
                else:
                    assert coam(bi, bj) == tuple(sorted(ref.m_theta for ref in references))
            if (i, j) in tangent:
                if error:
                    errors.append(error)
                else:
                    listed += [_facts(ref) for ref in references]
            checked += len(ks)
    records = _outcome(lambda: [_facts(r) for r in Analysis(c).records() if r.kind == "contact"])
    if errors:
        assert records == min(errors, key=lambda e: e[0] is not IncompatibleSystem)
    else:
        assert records == listed
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
