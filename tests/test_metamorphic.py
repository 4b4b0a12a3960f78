"""Metamorphic checks: a linear change of coordinates moves the cone with it
and leaves every invariant in place.

An invertible A sends each secant x - y of X to A(x - y), so
C5(A.X) = A.C5(X). A is bi-Lipschitz, so the auxiliary multiplicities, the
profile and compare's verdict do not change. Neither fact re-derives the
engine's reading of the paper, so a misreading shared by the engine and the
reference oracles still shows here. The maps keep every branch in Puiseux
form: A keeps x_s = u^m for a coordinate s special in every branch, and a
curve with no such coordinate gets a coordinate permutation.
"""

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


def _image(a, c):
    """The curve A.c, branch by branch: coordinate i of the image is
    sum_j a[i][j] x_j, summed exponent by exponent."""
    spec = []
    for b in c.branches:
        coords = []
        for row in a:
            terms = {}
            for x, series in zip(row, b.param.coords):
                if x:
                    for e, coeff in series.terms:
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
