"""Metamorphic checks: a change of coordinates moves the cone with it and
leaves every invariant in place, and a change of parameter changes nothing.

A diffeomorphism phi with dphi(0) = A sends each secant x - y of X to
A(x - y) + o(|x - y|), so C5(phi(X)) = A.C5(X). phi is bi-Lipschitz, so
the auxiliary multiplicities, the profile and compare's verdict do not
change. Turning one branch's parameter, u -> zeta_m^r*u, keeps its image,
so every fact stays the same; only the contact records of its pairs trade
theta for theta*zeta_lcm^(+-r). None of these facts re-derives the
engine's reading of the paper, so a misreading shared by the engine and
the reference oracles still shows here. The maps keep every branch in
Puiseux form: phi keeps x_s = u^m for a coordinate s special in every
branch, and a curve with no such coordinate gets a coordinate permutation
as its linear map; zeta_m^r sends u^m to itself.
"""

import math
import random

from c5cone import (
    Analysis,
    CycloScalar,
    Direction,
    Plane,
    bilipschitz_equivalent,
    classify,
    matrix_rank,
    profile,
    root_of_unity,
)
from c5cone.documents import curve_from_exponents

from random_curves import random_curve_with_cone

_ZERO = CycloScalar.rational(0)


def _common_special(c):
    return sorted(frozenset.intersection(*(b.special_coords for b in c.branches)))


def _coordinate_change(rng, c):
    """An invertible integer matrix whose row s is e_s, for a coordinate s
    special in every branch of c; a permutation matrix when there is none."""
    n = c.n
    common = _common_special(c)
    if not common:
        order = rng.sample(range(n), n)
        return [[int(j == order[i]) for j in range(n)] for i in range(n)]
    s = rng.choice(common)
    while True:
        a = [
            [int(i == j) if i == s else rng.randint(-2, 2) for j in range(n)]
            for i in range(n)
        ]
        if matrix_rank([[CycloScalar.rational(e) for e in row] for row in a]) == n:
            return a


def _applied(a, vec):
    return [sum((x * e for x, e in zip(row, vec) if x), _ZERO) for row in a]


def _product(f, g):
    """The exact product of two series held as {exponent: coefficient}."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, _ZERO) + c1 * c2
    return out


def _image(a, c, added=None):
    """The curve phi(c): coordinate i of the image is sum_j a[i][j] x_j,
    plus, when added is given, each (coefficient, coordinate indices) of
    added[i] as a monomial in the x_j, all multiplied out as exact series
    and summed exponent by exponent."""
    spec = []
    for b in c.branches:
        xs = [dict(series.terms) for series in b.param.coords]
        coords = []
        for i, row in enumerate(a):
            parts = list(zip(row, xs))
            for x, indices in added[i] if added else ():
                monomial = xs[indices[0]]
                for idx in indices[1:]:
                    monomial = _product(monomial, xs[idx])
                parts.append((x, monomial))
            terms = {}
            for x, series in parts:
                if x:
                    for e, coeff in series.items():
                        terms[e] = terms.get(e, _ZERO) + x * coeff
            coords.append(sorted((e, v) for e, v in terms.items() if v))
        spec.append(coords)
    return curve_from_exponents(spec)


def _moved(a, component):
    if isinstance(component, Plane):
        return Plane(tuple(_applied(a, row) for row in component.basis))
    return Direction(_applied(a, component.vec))


def _multiplicities(analysis):
    """m_theta of every record, by kind, branch labels and theta."""
    return {(r.kind, r.labels, r.group_order, r.k): r.m_theta for r in analysis.records()}


def test_a_linear_change_of_coordinates_moves_the_cone_and_keeps_the_invariants():
    rng = random.Random(12)
    permutations = tangent_pairs = 0
    for _ in range(500):
        x, _ = random_curve_with_cone(rng)
        a = _coordinate_change(rng, x)
        y = _image(a, x)
        seen = ([b.param.text() for b in x.branches], a)
        ax, ay = Analysis(x), Analysis(y)
        # by value: the image may sit at a smaller conductor, where a key's
        # text differs
        moved = [_moved(a, component) for component in ax.cone.components]
        assert ay.cone.dimension == ax.cone.dimension, seen
        assert len(ay.cone.components) == len(moved), seen
        assert all(any(p == q for q in moved) for p in ay.cone.components), seen
        assert profile(y) == profile(x), seen
        assert bilipschitz_equivalent(x, y).equivalent, seen
        assert _multiplicities(ay) == _multiplicities(ax), seen
        permutations += not _common_special(x)
        tangent_pairs += len(classify(x).T)
    assert permutations >= 150 and 500 - permutations >= 150, permutations
    assert tangent_pairs >= 100, tangent_pairs


def _polynomial_map(rng, a, s):
    """Per coordinate i, the integer monomials of degree 2 to 3 that phi
    adds to row i of A, as (coefficient, coordinate indices); none at s."""
    return [
        [] if i == s else [
            (rng.choice((-2, -1, 1, 2)), [rng.randrange(len(a)) for _ in range(rng.randint(2, 3))])
            for _ in range(rng.randint(1, 2))
        ]
        for i in range(len(a))
    ]


def test_a_polynomial_change_of_coordinates_moves_the_cone_by_its_linear_part():
    # 500 curves with a coordinate special in every branch
    rng = random.Random(31)
    mapped = tangent_pairs = 0
    while mapped < 500:
        x, _ = random_curve_with_cone(rng)
        common = _common_special(x)
        if not common:
            continue
        a = _coordinate_change(rng, x)
        s = next(i for i in common if a[i] == [int(j == i) for j in range(x.n)])
        added = _polynomial_map(rng, a, s)
        y = _image(a, x, added)
        seen = ([b.param.text() for b in x.branches], a, added)
        ax, ay = Analysis(x), Analysis(y)
        moved = [_moved(a, component) for component in ax.cone.components]
        assert ay.cone.dimension == ax.cone.dimension, seen
        assert len(ay.cone.components) == len(moved), seen
        assert all(any(p == q for q in moved) for p in ay.cone.components), seen
        assert profile(y) == profile(x), seen
        assert bilipschitz_equivalent(x, y).equivalent, seen
        assert _multiplicities(ay) == _multiplicities(ax), seen
        mapped += 1
        tangent_pairs += len(classify(x).T)
    assert tangent_pairs >= 100, tangent_pairs


def _turned(rng, c):
    """c with one branch t reparametrized by u -> zeta_m^r*u, r in 1..m-1
    (r = 0 when every branch is smooth), with t's label and r."""
    singular = [t for t, b in enumerate(c.branches) if b.m > 1] or [0]
    t = rng.choice(singular)
    m = c.branches[t].m
    r = rng.randrange(1, m) if m > 1 else 0
    spec = [
        [
            [(e, coeff * root_of_unity(c.conductor, m, r * e) if i == t else coeff)
             for e, coeff in series.terms]
            for series in b.param.coords
        ]
        for i, b in enumerate(c.branches)
    ]
    return curve_from_exponents(spec), c.branches[t].label, r


def _shift(labels, turned, r):
    """How far turning the branch labelled turned by zeta_m^r moves the k
    of a contact difference of the pair labels: the same difference has
    k + r before the turn when the turned branch is the pair's second,
    k - r when it is the first."""
    return r * ((labels[1] == turned) - (labels[0] == turned))


def _records(analysis, turned="", r=0):
    """m_theta, v_theta and plane of every record, by kind, labels, group
    order and k, a contact k moved by _shift."""
    facts = {}
    for rec in analysis.records():
        k = rec.k
        if rec.kind == "contact":
            k += _shift(rec.labels, turned, r)
        facts[rec.kind, rec.labels, rec.group_order, k % rec.group_order] = (
            rec.m_theta, rec.v_theta.key(), rec.plane.key()
        )
    return facts


def _provenance(c, cone, turned="", r=0):
    """Each component's descriptors, sorted, a contact k moved by _shift
    modulo its pair's lcm."""
    m = {b.label: b.m for b in c.branches}
    moved = []
    for descriptors in cone.provenance:
        out = []
        for kind, labels, k in descriptors:
            if kind == "contact":
                k = (k + _shift(labels, turned, r)) % math.lcm(m[labels[0]], m[labels[1]])
            out.append((kind, labels, k))
        moved.append(sorted(out))
    return moved


def test_turning_one_branch_by_a_root_of_unity_changes_nothing():
    rng = random.Random(32)
    turns = tangent_pairs = 0
    for _ in range(500):
        x, _ = random_curve_with_cone(rng)
        y, turned, r = _turned(rng, x)
        seen = ([b.param.text() for b in x.branches], turned, r)
        assert y.conductor == x.conductor, seen
        ax, ay = Analysis(x), Analysis(y)
        cone = ax.cone
        assert ay.cone.dimension == cone.dimension, seen
        assert [p.key() for p in ay.cone.components] == [p.key() for p in cone.components], seen
        assert _provenance(y, ay.cone, turned, r) == _provenance(x, cone), seen
        assert profile(y) == profile(x), seen
        assert bilipschitz_equivalent(x, y) == bilipschitz_equivalent(x, x), seen
        assert bilipschitz_equivalent(y, x) == bilipschitz_equivalent(x, x), seen
        assert _records(ay, turned, r) == _records(ax), seen
        turns += r > 0
        tangent_pairs += len(classify(x).T)
    assert turns >= 300 and tangent_pairs >= 100, (turns, tangent_pairs)
