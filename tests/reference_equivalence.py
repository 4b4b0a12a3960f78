"""A brute-force reference for bilipschitz_equivalent, seeded curve specs
whose branches share every ChAM, and the tangent family, on which a
search pruned by ChAM and placed CoAMs alone visits about r! bijections.

No engine import: the reference reads two invariant profiles, and the
curves are curve_from_exponents specs with integer coefficients, so
tools/cli_diff.py can write them as documents (pencil_curves.document).
"""

from itertools import combinations, permutations


def brute_force_equivalent(px, py) -> tuple:
    """(equivalent, witness) of two invariant profiles, trying all r!
    branch bijections in lexicographic order: the first that matches every
    ChAM and every pairwise CoAM is the witness, witness[i] the branch of y
    matched to branch i of x."""
    if px.r != py.r:
        return False, None
    r = px.r

    def coam(p, a, b):
        return p.coams[(a, b) if a < b else (b, a)]

    for perm in permutations(range(r)):
        if all(px.chams[i] == py.chams[perm[i]] for i in range(r)) and all(
            px.coams[(i, j)] == coam(py, perm[i], perm[j]) for i, j in combinations(range(r), 2)
        ):
            return True, perm
    return False, None


def tangent_family(r: int) -> tuple:
    """(x, y) specs in C^2: x is r - 2 pairwise non-tangent lines between
    two mutually tangent smooth branches, placed first and last; y is r
    lines. Every branch has one ChAM and every partial bijection keeps the
    CoAMs until the last branch, so a search pruned by those alone visits
    about r! bijections before it answers "not equivalent"."""
    lines = [[1, [(1, k)]] for k in range(1, r - 1)]
    x = [[1, [(2, 1)]], *lines, [1, [(2, 2)]]]
    y = [[1, [(1, k)]] for k in range(1, r + 1)]
    return x, y


def shared_cham_spec(rng, r: int, m: int, depth: int = 3, values=(0, 1, 2)) -> list:
    """r distinct plane branches (u^m, u^(m+1) + sum c_e u^e) with c_e drawn
    from values for the depth exponents after m + 1: one ChAM for all, and
    contact orders that tie often."""
    tails = []
    while len(tails) < r:
        tail = tuple(rng.choice(values) for _ in range(depth))
        if tail not in tails:
            tails.append(tail)
    return [
        [m, [(m + 1, 1)] + [(m + 2 + i, c) for i, c in enumerate(tail) if c]] for tail in tails
    ]
