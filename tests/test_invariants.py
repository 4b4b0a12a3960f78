"""Bi-Lipschitz invariants: exponents, intersection numbers, equivalence."""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from c5cone import (
    Analysis,
    DuplicateBranch,
    EngineError,
    NoCommonSpecialCoordinate,
    NonIntegralResult,
    NotPlaneCurve,
    StructureMismatch,
    TooManyBranches,
    bilipschitz_equivalent,
    cham,
    characteristic_exponents,
    coam,
    contact_structure,
    curve_from_exponents,
    intersection_multiplicity,
    profile,
)
from c5cone.geometry import Direction
from c5cone.projection import apply_projection, find_generic_projection
from random_curves import (
    random_curve,
    random_curve_with_cone,
    random_plane_branch_curve,
    random_space_branch_curve,
)
from reference_equivalence import brute_force_equivalent, shared_cham_spec, tangent_family


# ---------------------------------------------------------------------------
# characteristic exponents


def test_characteristic_exponents_of_plane_branch():
    c = curve_from_exponents([[4, [(6, 1), (7, 1)]]])
    assert characteristic_exponents(c.branches[0]) == (4, 6, 7)


def test_characteristic_exponents_skip_non_essential_terms():
    c = curve_from_exponents([[4, [(6, 1), (8, 2), (9, 1), (11, 5)]]])
    assert characteristic_exponents(c.branches[0]) == (4, 6, 9)


def test_characteristic_exponents_need_a_plane_curve():
    c = curve_from_exponents([[4, [(6, 1)], [(7, 1)]]])
    with pytest.raises(NotPlaneCurve):
        characteristic_exponents(c.branches[0])


def test_characteristic_exponents_match_cham():
    rng = random.Random(13)
    for _ in range(30):
        b = random_plane_branch_curve(rng).branches[0]
        assert frozenset(characteristic_exponents(b)) == cham(b)


# ---------------------------------------------------------------------------
# intersection multiplicity


def test_intersection_multiplicity_divides_the_sum():
    assert intersection_multiplicity((6, 6, 7), 1, 1) == 19
    assert intersection_multiplicity((6, 7, 7), 1, 1) == 20
    assert intersection_multiplicity((6, 6, 7, 7), 1, 1) == 26


def test_intersection_multiplicity_scales_by_reduced_multiplicities(load):
    c = load("contact_structure_pair")
    seq = coam(c.branches[0], c.branches[1])
    assert sum(seq) == 1152
    assert intersection_multiplicity(seq, 3, 2) == 192


def test_intersection_multiplicity_rejects_non_integral():
    with pytest.raises(NonIntegralResult):
        intersection_multiplicity((5,), 2, 3)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("tangent_pair_a", 26),
        ("tangent_pair_b", 26),
        ("tangent_pair_i19", 19),
        ("tangent_pair_i20", 20),
    ],
)
def test_intersection_number_matches_resultant_order(load, name, expected):
    """ord_x Res_y(f, g) of the implicit equations, derived without coam."""
    sympy = pytest.importorskip("sympy")
    t, x, y = sympy.symbols("t x y")

    def implicit_equation(branch):
        (e, one), = branch.param.coords[0].terms
        assert (e, one.rational_value()) == (branch.m, 1)
        phi = sum(
            c.rational_value() * t**k for k, c in branch.param.coords[1].terms
        )
        return sympy.resultant(x - t**branch.m, y - phi, t)

    b1, b2 = load(name).branches
    res = sympy.Poly(
        sympy.resultant(implicit_equation(b1), implicit_equation(b2), y), x
    )
    assert min(k for (k,) in res.monoms()) == expected


# ---------------------------------------------------------------------------
# contact structure


def test_contact_structure_of_scaled_pair(load):
    c = load("contact_structure_pair")
    b1, b2 = c.branches
    assert sorted(cham(b1)) == [8, 12, 22, 23]
    assert sorted(cham(b2)) == [12, 18, 33, 34]
    seq = coam(b1, b2)
    assert len(seq) == math.lcm(b1.m, b2.m) == 24
    cs = contact_structure(b1, b2, seq)
    assert cs.tau == 2
    assert cs.betas == (36, 66)
    assert cs.E == (24, 12, 6)
    assert cs.q == 1
    assert cs.delta == 60
    assert cs.counts == {36: 12, 60: 12}


def test_contact_structure_rejects_wrong_counts(load):
    c = load("contact_structure_pair")
    b1, b2 = c.branches
    with pytest.raises(StructureMismatch):
        contact_structure(b1, b2, (36,) * 11 + (60,) * 13)


def test_contact_structure_rejects_alien_values(load):
    c = load("contact_structure_pair")
    b1, b2 = c.branches
    with pytest.raises(StructureMismatch):
        contact_structure(b1, b2, (35,) * 12 + (60,) * 12)


def test_contact_structure_accepts_every_fixture_pair(load):
    c = load("contact_structure_pair")
    b1, b2 = c.branches
    cs = contact_structure(b1, b2, coam(b1, b2))
    assert sum(cs.counts.values()) == 24


@pytest.mark.parametrize(
    "name, delta", [("tangent_pair_i19", 9), ("tangent_pair_i20", 10)]
)
def test_contact_structure_accepts_intersection_pairs(load, name, delta):
    b1, b2 = load(name).branches
    seq = coam(b1, b2)
    assert seq == (5, 5, delta)
    cs = contact_structure(b1, b2, seq)
    assert (cs.betas, cs.counts) == ((5,), {5: 2, delta: 1})


# ---------------------------------------------------------------------------
# profiles and equivalence


def test_profile_shape(load):
    p = profile(load("four_branches"))
    assert p.r == 4
    assert p.chams[0] == frozenset({4, 6, 9})
    assert set(p.coams) == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    assert p.coams[(0, 1)] == (18,) * 12
    assert p.coams[(2, 3)] == (3, 3, 3)


def _profile_outcome(c, read):
    """read(c) as (chams, coams), or the error type and payload it raised."""
    try:
        return read(c)
    except EngineError as exc:
        return type(exc).__name__, str(exc), exc.to_json()


def _profile_by_pairs(c):
    """The profile read pair by pair through the public calls: the
    tangent-pair check first, then cham per branch and coam per pair."""
    Analysis(c).tangent_pairs
    b = c.branches
    return (
        tuple(cham(x) for x in b),
        {(i, j): coam(b[i], b[j]) for i in range(len(b)) for j in range(i + 1, len(b))},
    )


def test_profile_compares_each_pairs_tangents_once(load, fixture_names, monkeypatch):
    curves = [load(name) for name in fixture_names]
    rng = random.Random(13)
    curves += [random_curve(rng, max_r=4) for _ in range(150)]
    equal = Direction.__eq__
    calls = []

    def counted(self, other):
        calls.append(None)
        return equal(self, other)

    def read(c):
        p = profile(c)
        return p.chams, p.coams

    for c in curves:
        expected = _profile_outcome(c, _profile_by_pairs)
        monkeypatch.setattr(Direction, "__eq__", counted)
        calls.clear()
        got = _profile_outcome(c, read)
        count = len(calls)
        monkeypatch.setattr(Direction, "__eq__", equal)
        r = len(c.branches)
        assert count == r * (r - 1) // 2
        assert got == expected


def test_equivalence_of_matching_tangent_pairs(load):
    verdict = bilipschitz_equivalent(load("tangent_pair_a"), load("tangent_pair_b"))
    assert verdict.equivalent
    assert verdict.witness == (0, 1)


def test_equivalence_is_reflexive(load):
    for name in ("four_branches", "space_cusp", "same_order_contact"):
        c = load(name)
        verdict = bilipschitz_equivalent(c, c)
        assert verdict.equivalent
        assert verdict.witness == tuple(range(len(c.branches)))


def test_equivalence_across_ambient_dimensions(load):
    plane = curve_from_exponents([[4, [(6, 1), (7, 1)]]])
    verdict = bilipschitz_equivalent(plane, load("space_cusp"))
    assert verdict.equivalent


def test_multiplicity_profile_does_not_see_plane_count(load):
    verdict = bilipschitz_equivalent(load("m16_one_plane"), load("m16_two_planes"))
    assert verdict.equivalent
    assert verdict.witness == (0,)


def test_non_equivalent_curves(load):
    assert not bilipschitz_equivalent(
        load("smooth_plane"), load("space_cusp")
    ).equivalent
    assert not bilipschitz_equivalent(
        load("four_branches"), load("space_cusp")
    ).equivalent


def test_fiber_pair_is_equivalent(load):
    verdict = bilipschitz_equivalent(load("family_fiber_0"), load("family_fiber_1"))
    assert verdict.equivalent
    assert verdict.witness == (0,)


def test_branch_count_cap():
    lines = curve_from_exponents([[1, [(1, k)]] for k in range(13)])
    with pytest.raises(TooManyBranches):
        bilipschitz_equivalent(lines, lines)


# ---------------------------------------------------------------------------
# the bijection search against all r! bijections


def _reference_pairs(rng, count):
    """Seeded (x, y) curve pairs with r <= 7: relabelled copies, copies
    with the non-special coordinate scaled, independent draws of branches
    sharing every ChAM, random curves with a relabelled copy, and the
    tangent family."""
    pairs = [tuple(map(curve_from_exponents, tangent_family(r))) for r in range(3, 8)]
    while len(pairs) < count:
        r, m = rng.randint(2, 7), rng.randint(1, 3)
        x = shared_cham_spec(rng, r, m)
        kind = len(pairs) % 4
        if kind == 0:
            y = rng.sample(x, r)
        elif kind == 1:
            y = [[m, [(e, 2 * c) for e, c in tail]] for _, tail in rng.sample(x, r)]
        elif kind == 2:
            y = shared_cham_spec(rng, r, m)
        else:
            c = random_curve(rng, max_n=3, max_r=7, max_m=4, max_exp=12)
            try:
                profile(c)
            except EngineError:
                continue
            order = rng.sample(range(len(c.branches)), len(c.branches))
            pairs.append((c, curve_from_exponents([
                [list(s.terms) for s in c.branches[i].param.coords] for i in order
            ])))
            continue
        pairs.append((curve_from_exponents(x), curve_from_exponents(y)))
    return pairs


def test_equivalence_matches_brute_force():
    rng = random.Random(8)
    verdicts = []
    for x, y in _reference_pairs(rng, 320):
        for a, b in ((x, y), (y, x)):
            verdict = bilipschitz_equivalent(a, b)
            assert tuple(verdict) == brute_force_equivalent(profile(a), profile(b))
            verdicts.append(verdict.equivalent)
    # both verdicts are common, so neither side is checked vacuously
    assert sum(verdicts) > 200
    assert len(verdicts) - sum(verdicts) > 100


@pytest.mark.parametrize("r", range(7, 13))
def test_equivalence_of_the_tangent_family_is_fast(r):
    # r - 2 lines between two tangent branches against r lines: each
    # partial bijection keeps the ChAMs and the CoAMs until the last branch
    x, y = map(curve_from_exponents, tangent_family(r))
    for a, b in ((x, y), (y, x)):
        start = time.perf_counter()
        verdict = bilipschitz_equivalent(a, b)
        assert time.perf_counter() - start < 0.1
        assert verdict == (False, None)


# ---------------------------------------------------------------------------
# compare against the classical invariants of plane germs


def _gcd_chain(m, exponents) -> tuple:
    """Characteristic exponents of (u^m, sum c_e u^e): m, then each
    exponent that the gcd of those before does not divide."""
    chain, g = [m], m
    for e in sorted(exponents):
        if e % g:
            chain.append(e)
            g = math.gcd(g, e)
    return tuple(chain)


_REDRAWN = (1, -1, 2, Fraction(1, 2))


def _plane_curve(germ):
    return curve_from_exponents([[m, list(tail)] for m, tail in germ])


def _plane_germs(rng, count):
    """count seeded plane germs of 2 or 3 branches, each branch (m, tail)
    with rational tail coefficients, drawn by random_plane_branch_curve;
    germs with two equal branches are drawn again."""
    germs = []
    while len(germs) < count:
        germ = []
        for _ in range(rng.randint(2, 3)):
            b = random_plane_branch_curve(rng, max_m=6, max_exp=20).branches[0]
            germ.append((b.m, tuple((e, c.rational_value()) for e, c in b.param.coords[1].terms)))
        try:
            profile(_plane_curve(germ))
        except EngineError:
            continue
        germs.append(tuple(germ))
    return germs


def _classical_equivalence(sympy):
    """The classical verdict on two plane germs, each a tuple of branches
    (m, tail), a branch standing for (t^m, sum c t^e over its tail): true
    iff some branch bijection keeps each branch's characteristic exponents
    and each pair's intersection multiplicity (Pham-Teissier; Fernandes
    2003; Neumann-Pichon 2014). Both are derived without the engine: the
    exponents by the gcd chain, and I(a, b) as the order in t of b's
    implicit equation, a sympy resultant, along a's parametrization."""
    t, x, y = sympy.symbols("t x y")
    equations, meets = {}, {}

    def parametrization(branch):
        m, tail = branch
        return sympy.Poly(t**m, t), sympy.Poly(sum(c * t**e for e, c in tail), t)

    def intersection(a, b) -> int:
        if (a, b) not in meets:
            if b not in equations:
                X, Y = parametrization(b)
                implicit = sympy.resultant(x - X.as_expr(), y - Y.as_expr(), t)
                equations[b] = sympy.Poly(implicit, x, y)
            X, Y = parametrization(a)
            along = sympy.Poly(0, t)
            for (i, j), c in equations[b].terms():
                along += c * X**i * Y**j
            meets[(a, b)] = meets[(b, a)] = min(k for (k,) in along.monoms())
        return meets[(a, b)]

    def classically_equivalent(g, h) -> bool:
        if len(g) != len(h):
            return False
        exponents = [_gcd_chain(m, [e for e, _ in tail]) for m, tail in g + h]
        return any(
            all(exponents[i] == exponents[len(g) + perm[i]] for i in range(len(g)))
            and all(
                intersection(g[i], g[j]) == intersection(h[perm[i]], h[perm[j]])
                for i, j in combinations(range(len(g)), 2)
            )
            for perm in permutations(range(len(h)))
        )

    return classically_equivalent


def test_compare_matches_the_classical_invariants_of_plane_germs():
    """compare on plane germs agrees with the classical verdict of
    _classical_equivalence."""
    classically_equivalent = _classical_equivalence(pytest.importorskip("sympy"))
    # each germ is paired with a relabelled copy, a copy whose non-special
    # coordinate is scaled by one rational, an independent germ, and a copy
    # whose tail coefficients are redrawn on the same supports
    rng = random.Random(6)
    germs = _plane_germs(rng, 100)
    verdicts = {"relabelled": [], "scaled": [], "independent": [], "redrawn": []}
    for k, germ in enumerate(germs):
        q = rng.choice((2, -1, Fraction(1, 2), 3, Fraction(-2, 3)))
        pairs = {
            "relabelled": tuple(rng.sample(germ, len(germ))),
            "scaled": tuple((m, tuple((e, q * c) for e, c in tail)) for m, tail in germ),
            "independent": germs[(k + 1) % len(germs)],
            "redrawn": tuple(
                (m, tuple((e, rng.choice(_REDRAWN)) for e, _ in tail)) for m, tail in germ
            ),
        }
        for kind, other in pairs.items():
            verdict = bilipschitz_equivalent(_plane_curve(germ), _plane_curve(other)).equivalent
            assert verdict == classically_equivalent(germ, other), (kind, germ, other)
            verdicts[kind].append(verdict)
    assert all(verdicts["relabelled"]) and all(verdicts["scaled"])
    # a redrawn copy keeps every characteristic exponent, so where its
    # verdict is "not equivalent" an intersection multiplicity decided it
    assert 0 < verdicts["redrawn"].count(False) < len(germs)


# ---------------------------------------------------------------------------
# compare on space germs against the classical invariants of their images


def _rational_spec(rng, c):
    """c as a curve_from_exponents spec of tuples, each irrational
    coefficient replaced by a rational drawn from _REDRAWN."""
    return tuple(
        tuple(
            tuple((e, v.rational_value() if v.is_rational() else rng.choice(_REDRAWN))
                  for e, v in s.terms)
            for s in b.param.coords
        )
        for b in c.branches
    )


def _space_germs(rng, count):
    """count seeded germs in C^3 and C^4 of 1 to 3 branches, by turns joined
    from random_space_branch_curve branches (all tangent, special in
    coordinate 0, a branch in another dimension than the first drawn
    again) and drawn by random_curve_with_cone, their coefficients made
    rational by _rational_spec; a plane germ, or one whose branches share
    no special coordinate, is drawn again."""
    germs = []
    while len(germs) < count:
        if len(germs) % 2:
            c, _ = random_curve_with_cone(rng, max_r=3, max_m=4, max_exp=12)
            spec = _rational_spec(rng, c)
        else:
            spec, r = (), rng.randint(1, 3)
            while len(spec) < r:
                [b] = _rational_spec(rng, random_space_branch_curve(rng, max_m=4, max_exp=12))
                spec += (b,) if not spec or len(b) == len(spec[0]) else ()
        if len(spec[0]) < 3:
            continue
        try:
            find_generic_projection(curve_from_exponents(spec))
        except NoCommonSpecialCoordinate:
            continue
        germs.append(spec)
    return germs


def _redrawn(rng, spec):
    """spec with every coefficient of a coordinate that is not exactly u^m
    redrawn on the same support; drawn again while two branches coincide."""
    ms = [min(e for s in b for e, _ in s) for b in spec]
    while True:
        other = tuple(
            tuple(
                s if s == ((m, 1),) else tuple((e, rng.choice(_REDRAWN)) for e, _ in s)
                for s in b
            )
            for m, b in zip(ms, spec)
        )
        try:
            curve_from_exponents(other)
        except DuplicateBranch:
            continue
        return other


def _contact_pairs(rng, count):
    """count pairs of two-branch germs (b, b') and (b, b'') in C^3 or C^4
    with the same exponents everywhere: b' and b'' are b with every
    coefficient from a tail exponent on changed, from two different tail
    exponents, so the germs differ at most in the one intersection
    multiplicity of their pair."""
    pairs = []
    while len(pairs) < count:
        [b] = _rational_spec(rng, random_space_branch_curve(rng, max_m=4, max_exp=12))
        tail = sorted({e for s in b[1:] for e, _ in s})
        if len(tail) < 2:
            continue

        def changed(start):
            return (b[0],) + tuple(
                tuple((e, c if e < start else rng.choice([q for q in _REDRAWN if q != c]))
                      for e, c in s)
                for s in b[1:]
            )

        first, second = rng.sample(tail, 2)
        pairs.append(((b, changed(first)), (b, changed(second))))
    return pairs


def test_compare_matches_the_classical_invariants_of_generic_plane_images():
    """Two space germs are bi-Lipschitz equivalent iff their images under
    C5-generic plane projections are (Teissier 1982; Fernandes 2003), and
    plane germs are decided by _classical_equivalence. compare on the space
    germs must agree with that verdict on the images of
    find_generic_projection, every time."""
    classically_equivalent = _classical_equivalence(pytest.importorskip("sympy"))
    images = {}

    def image(spec):
        if spec not in images:
            c = curve_from_exponents(spec)
            plane = apply_projection(c, find_generic_projection(c))
            assert all(0 in b.special_coords for b in plane.branches)
            images[spec] = tuple(
                (b.m, tuple((e, v.rational_value()) for e, v in b.param.coords[1].terms))
                for b in plane.branches
            )
        return images[spec]

    # each germ is paired with a relabelled copy, a copy whose coefficients
    # are redrawn on the same supports and an independent germ; the contact
    # pairs share every exponent
    rng = random.Random(10)
    germs = _space_germs(rng, 100)
    assert {len(g[0]) for g in germs} == {3, 4} and {len(g) for g in germs} == {1, 2, 3}
    verdicts = {"relabelled": [], "redrawn": [], "independent": [], "contact": []}
    pairs = [
        (kind, germ, other)
        for k, germ in enumerate(germs)
        for kind, other in (
            ("relabelled", tuple(rng.sample(germ, len(germ)))),
            ("redrawn", _redrawn(rng, germ)),
            ("independent", germs[(k + 1) % len(germs)]),
        )
    ] + [("contact", g, h) for g, h in _contact_pairs(rng, 30)]
    for kind, germ, other in pairs:
        verdict = bilipschitz_equivalent(
            curve_from_exponents(germ), curve_from_exponents(other)
        ).equivalent
        assert verdict == classically_equivalent(image(germ), image(other)), (kind, germ, other)
        verdicts[kind].append(verdict)
    assert all(verdicts["relabelled"])
    # the contact pairs share every exponent, so where their verdict is
    # "not equivalent" their one intersection multiplicity decided it
    assert False in verdicts["contact"] and not all(verdicts["independent"])
