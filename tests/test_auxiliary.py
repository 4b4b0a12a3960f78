"""Characteristic and contact records, ChAM and CoAM multiplicity sets."""

import math
import random

import pytest

from c5cone import (
    CycloScalar,
    Direction,
    DuplicateBranch,
    cham,
    characteristic_records,
    classify,
    coam,
    contact_records,
    curve_from_exponents,
    zeta,
)
from random_curves import random_curve


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
    b = load("m16_one_plane").branches[0]
    reps = characteristic_records(b, representatives=True)
    assert [(r.k, r.m_theta) for r in reps] == [
        (8, 55), (4, 54), (2, 36), (1, 24),
    ]
    orders = [b.m // math.gcd(r.k, b.m) for r in reps]
    assert orders == [2, 4, 8, 16]


def test_representative_records_agree_with_their_class(load):
    b = load("m16_one_plane").branches[0]
    full = {
        math.gcd(r.k, b.m): (r.m_theta, r.plane.key())
        for r in characteristic_records(b)
    }
    for rep in characteristic_records(b, representatives=True):
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
    recs = contact_records(c.branches[0], c.branches[1], 0)
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
    recs = contact_records(a, b, 0)
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
        contact_records(c.branches[0], c.branches[1], 0)


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
        every_theta = characteristic_records(b, representatives=False)
        assert cham(b) == {b.m} | {r.m_theta for r in every_theta}


def test_coam_length_is_the_common_group_order(load):
    c = load("four_branches")
    seq = coam(c.branches[0], c.branches[1], 0)
    assert seq == (18,) * 12
    a, b = load("same_order_contact").branches
    assert coam(a, b, 0) == (4, 4, 4)


def test_non_tangent_coam_matches_the_enumeration(fixture_names, load):
    # prime_multiplicity has a single branch, so no pairs, and is slow to read.
    curves = [load(name) for name in fixture_names if name != "prime_multiplicity"]
    rng = random.Random(13)
    curves += [random_curve(rng) for _ in range(40)]
    checked = 0
    for c in curves:
        for i, j in sorted(classify(c).NT):
            bi, bj = c.branches[i], c.branches[j]
            reference = sorted(r.m_theta for r in contact_records(bi, bj))
            assert coam(bi, bj) == tuple(reference)
            checked += 1
    assert checked >= 40


def test_coam_is_symmetric(load):
    c = load("contact_structure_pair")
    forward = coam(c.branches[0], c.branches[1], 0)
    backward = coam(c.branches[1], c.branches[0], 0)
    assert sorted(forward) == sorted(backward)
