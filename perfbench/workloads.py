"""Seeded curve documents for the benchmark workloads.

Every generator takes an explicit random.Random and builds plain curve
documents (schema version 1) without calling the engine, so the inputs
depend on the seed alone. Validity holds by construction:

* every branch has coordinate ``special`` exactly u^m, and every other
  coordinate has order at least m (Puiseux normal form);
* the gcd of m and all exponents is 1 (primitive parametrization);
* all branches share the special coordinate, so tangent pairs always have
  a common special coordinate and a generic projection of normal shape
  exists;
* tangency is chosen explicitly: branches in one tangent class share their
  u^m coefficient vector, classes have distinct rational vectors;
* two branches of one class with the same multiplicity get different
  supports, so no two branches have the same image.
"""

from __future__ import annotations

import json
import math
import pathlib
import random

FROZEN = pathlib.Path(__file__).resolve().parent / "fixtures"

# The fourteen small fixtures of the fixtures-cli workload.
SMALL_FIXTURES = (
    "contact_structure_pair",
    "family_fiber_0",
    "family_fiber_1",
    "four_branches",
    "m16_four_planes",
    "m16_one_plane",
    "m16_three_planes",
    "m16_two_planes",
    "same_order_contact",
    "smooth_plane",
    "smooth_space",
    "space_cusp",
    "tangent_pair_a",
    "tangent_pair_b",
)
PRIME_FIXTURE = "prime_multiplicity"

# compare pairs of the fixtures-cli workload besides each fixture against
# its own branch-reversed copy: the m16 ladder, the family fibers and the
# tangent pairs.
_LADDER = ("m16_one_plane", "m16_two_planes", "m16_three_planes", "m16_four_planes")
FIXTURE_COMPARE_PAIRS = tuple(zip(_LADDER, _LADDER[1:])) + (
    ("family_fiber_0", "family_fiber_1"),
    ("tangent_pair_a", "tangent_pair_b"),
)

_LOWN_RATIONALS = ((1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (1, 2), (-1, 2), (2, 3))
_LOWN_MULTIPLICITIES = (1, 2, 3, 4, 6)  # with roots of order 3, 4, 6: N <= 12


def summand(num, den=1, order=1, power=0) -> dict:
    return {"num": num, "den": den, "zeta_order": order, "zeta_pow": power}


def term(exp: int, coeff) -> dict:
    return {"exp": exp, "coeff": coeff}


def document(n: int, branches) -> dict:
    """branches: list of coordinate lists (each a list of terms)."""
    return {
        "version": 1,
        "n": n,
        "branches": [
            {"label": f"b{i + 1}", "coords": coords}
            for i, coords in enumerate(branches)
        ],
    }


def dumps(doc) -> str:
    """The engine's canonical document text (sorted keys, indent 2)."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def permuted(doc, perm) -> dict:
    """Copy of doc whose branch j is branch perm[j] of doc (labels kept)."""
    out = dict(doc)
    out["branches"] = [doc["branches"][i] for i in perm]
    return out


def _support(coords) -> tuple:
    return tuple(tuple(t["exp"] for t in series) for series in coords)


def _primitive(m: int, coords) -> bool:
    g = m
    for series in coords:
        for t in series:
            g = math.gcd(g, t["exp"])
    return g == 1


def _distinct_images(branches, ms, classes) -> bool:
    seen = set()
    for coords, m, cls in zip(branches, ms, classes):
        key = (cls, m, _support(coords))
        if key in seen:
            return False
        seen.add(key)
    return True


# ---------------------------------------------------------------------------
# random-lowN

_LOWN_ROOT_POWERS = {3: (1, 2), 4: (1, 3), 6: (1, 5)}


def lown_strata(count: int):
    """The structure of every random-lowN curve, from a constant seed: n
    2-5, r 2-4, the special coordinate, the tangent class of each branch and
    which coordinates its slope touches, each branch's multiplicity, and for
    each term of each coordinate the order of its root of unity (1 for a
    rational). Term counts and conductors set the cost of a curve, so every
    run sees the same mix; supports and coefficient values follow --seed."""
    rng = random.Random("random-lowN strata")
    strata = []
    for _ in range(count):
        n = rng.randint(2, 5)
        r = rng.randint(2, 4)
        special = rng.randrange(n)
        others = [k for k in range(n) if k != special]
        patterns = [()] + [
            tuple(sorted(rng.sample(others, rng.randint(1, len(others)))))
            for _ in range(rng.randint(1, r) - 1)
        ]
        branches = []
        for _ in range(r):
            m = rng.choice(_LOWN_MULTIPLICITIES)
            tails = [
                [rng.choice((3, 4, 6)) if rng.random() < 0.2 else 1
                 for _ in range(rng.randint(0, 3))]
                for _ in others
            ]
            if m > 1 and not any(tails):
                tails[0].append(1)  # a primitive branch needs a tail
            branches.append((m, rng.randrange(len(patterns)), tails))
        strata.append((n, special, patterns, branches))
    return strata


def _lown_coefficient(rng, order):
    if order == 1:
        return [summand(*rng.choice(_LOWN_RATIONALS))]
    return [summand(1, 1, order, rng.choice(_LOWN_ROOT_POWERS[order]))]


def lown_curve(rng, stratum, max_exp=20) -> dict:
    """One curve of a stratum; conductor <= 12."""
    n, special, patterns, shape = stratum
    while True:
        slopes = [{k: rng.choice(_LOWN_RATIONALS) for k in pat} for pat in patterns]
        keys = [tuple(sorted(s.items())) for s in slopes]
        if len(set(keys)) == len(keys):
            break
    while True:
        branches = []
        for m, cls, tails in shape:
            while True:
                coords, tail = [], iter(tails)
                for k in range(n):
                    if k == special:
                        coords.append([term(m, [summand(1)])])
                        continue
                    series = []
                    if k in slopes[cls]:
                        series.append(term(m, [summand(*slopes[cls][k])]))
                    orders = next(tail)
                    exps = sorted(rng.sample(range(m + 1, max_exp + 1), len(orders)))
                    series.extend(
                        term(e, _lown_coefficient(rng, order))
                        for e, order in zip(exps, orders)
                    )
                    coords.append(series)
                if _primitive(m, coords):
                    break
            branches.append(coords)
        ms = [m for m, _, _ in shape]
        if _distinct_images(branches, ms, [cls for _, cls, _ in shape]):
            return document(n, branches)


# ---------------------------------------------------------------------------
# cyclo-highN

# (multiplicities, coefficient conductor N): one or two branches in C^3; a
# pair is always tangent.
CYCLO_SHAPES = (
    ((10,), 60),
    ((12,), 60),
    ((30,), 60),
    ((5, 10), 60),
    ((12,), 120),
    ((20,), 120),
    ((24,), 120),
    ((4, 6), 120),
    ((12,), 360),
    ((7,), 420),
)


def cyclo_skeleton(ms, order):
    """Supports and root powers of one cyclo-highN curve, from a constant
    seed per shape: the cost of exact arithmetic in Q(zeta_N) depends on
    which powers of zeta reduce to dense vectors, so these stay fixed."""
    rng = random.Random(f"cyclo-highN {ms} {order}")
    while True:
        branches = []
        for m in ms:
            coords = []
            for _ in range(2):
                exps = rng.sample(range(m + 1, 2 * m + 4), rng.randint(1, 2))
                coords.append([
                    (e, [(rng.choice((1, -1)), p)
                         for p in sorted(rng.sample(range(order), rng.randint(1, 2)))])
                    for e in sorted(exps)
                ])
            branches.append(coords)
        supports = [
            (m, tuple(tuple(e for e, _ in c) for c in coords))
            for m, coords in zip(ms, branches)
        ]
        primitive = all(
            math.gcd(m, *(e for c in coords for e, _ in c)) == 1
            for m, coords in zip(ms, branches)
        )
        if primitive and len(set(supports)) == len(supports):
            return ms, order, branches


def cyclo_curve(rng, skeleton) -> dict:
    """One cyclo-highN curve in C^3, x = u^m special. The seed draws the
    sign of a pair's common tangent slope; which coordinate is special and
    the signs of the summands move the cost of row reduction by a third,
    so they stay fixed."""
    ms, order, skel = skeleton
    special, others = 0, (1, 2)
    slope = rng.choice((1, -1))
    branches = []
    for m, coords in zip(ms, skel):
        full = [None] * 3
        full[special] = [term(m, [summand(1)])]
        for k, terms in zip(others, coords):
            series = []
            if len(ms) > 1 and k == others[0]:
                series.append(term(m, [summand(slope)]))
            for e, summands in terms:
                series.append(term(e, [summand(s, 1, order, p) for s, p in summands]))
            full[k] = series
        branches.append(full)
    return document(3, branches)
