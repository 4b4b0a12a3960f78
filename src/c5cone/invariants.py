"""Plane-curve invariants and the bi-Lipschitz equivalence decision.

Characteristic exponents via the gcd chain, intersection multiplicity of
plane branch pairs from contact auxiliary multiplicities, the arithmetic
structure tying a tangent pair's contact multiplicities to its common
scaled characteristic exponents, and the profile comparison that decides
bi-Lipschitz equivalence (outer metric) of two curve germs.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .c5 import Analysis, InvariantProfile
from .errors import (
    NonIntegralResult,
    NotPlaneCurve,
    StructureMismatch,
    TooManyBranches,
)
from .geometry import Branch, Curve

MAX_BRANCHES = 12


def characteristic_exponents(b: Branch) -> tuple:
    """Gcd-chain characteristic exponents of a plane branch, multiplicity
    included: {m} plus every support exponent of the non-special coordinate
    where the running gcd drops."""
    if b.n != 2:
        raise NotPlaneCurve(
            f"branch {b.label} lives in dimension {b.n}, expected 2", n=b.n
        )
    s = min(b.special_coords)
    other = b.param.coords[1 - s]
    exponents = [b.m]
    g = b.m
    for e, _ in other.terms:
        reduced = math.gcd(g, e)
        if reduced < g:
            exponents.append(e)
            g = reduced
    return tuple(exponents)


def intersection_multiplicity(coam_seq, mt1: int, mt2: int) -> int:
    """Sum of the contact auxiliary multiplicities divided by mt1*mt2.

    coam_seq is a pair's full contact sequence, as returned by coam: one
    entry per theta, so lcm(m1, m2) entries for branches of multiplicities
    m1 and m2. mt_i = lcm(m1, m2) / m_i. A hand-written sequence need not
    come from any pair of branches, and then neither does its quotient.

    The division is exact for genuine plane branch pairs; a remainder means
    the inputs do not belong together.
    """
    total = sum(coam_seq)
    denominator = mt1 * mt2
    if total % denominator != 0:
        raise NonIntegralResult(
            f"sum {total} of contact multiplicities is not divisible by {denominator}",
            total=total,
            denominator=denominator,
        )
    return total // denominator


class ContactStructure(NamedTuple):
    """Arithmetic shape of a pair's contact auxiliary multiplicities.

    betas are the common scaled characteristic exponents above the common
    order N = lcm(m_1, m_2); E is the gcd chain E_0 = N,
    E_j = gcd(N, beta_1..beta_j); the multiset of contact multiplicities is
    beta_k repeated E_{k-1} - E_k times for k <= q, then delta = max value
    repeated E_q times.
    """

    tau: int
    betas: tuple
    E: tuple
    q: int
    delta: int
    counts: dict


def contact_structure(bi: Branch, bj: Branch, coam_seq) -> ContactStructure:
    """Derive and validate the structure above against an actual contact
    multiplicity sequence of the pair (bi, bj)."""
    lcm = math.lcm(bi.m, bj.m)
    scale_i, scale_j = lcm // bi.m, lcm // bj.m
    scaled_i = {e * scale_i for e in characteristic_exponents(bi)}
    scaled_j = {e * scale_j for e in characteristic_exponents(bj)}
    betas = tuple(sorted(e for e in scaled_i & scaled_j if e > lcm))
    chain = [lcm]
    for beta in betas:
        chain.append(math.gcd(chain[-1], beta))
    delta = max(coam_seq)
    below = sorted({v for v in coam_seq if v < delta})
    q = len(below)
    if q > len(betas) or tuple(below) != betas[:q]:
        raise StructureMismatch(
            f"values {below} below delta={delta} are not a prefix of the "
            f"common scaled exponents {betas}",
            below=below,
            betas=list(betas),
        )
    expected = {}
    for k in range(1, q + 1):
        expected[betas[k - 1]] = chain[k - 1] - chain[k]
    expected[delta] = expected.get(delta, 0) + chain[q]
    actual = {}
    for v in coam_seq:
        actual[v] = actual.get(v, 0) + 1
    if expected != actual:
        raise StructureMismatch(
            f"multiplicity pattern {expected} does not match the contact "
            f"sequence counts {actual}",
            expected=expected,
            actual=actual,
        )
    return ContactStructure(
        tau=len(betas),
        betas=betas,
        E=tuple(chain),
        q=q,
        delta=delta,
        counts=actual,
    )


def profile(c: Curve) -> InvariantProfile:
    """Every ChAM and CoAM of a curve: Analysis(c).profile."""
    return Analysis(c).profile


class EquivalenceVerdict(NamedTuple):
    equivalent: bool
    witness: Optional[tuple]  # witness[i] = index in Y matched to branch i of X


def bilipschitz_equivalent(x: Curve, y: Curve) -> EquivalenceVerdict:
    """Search for a branch bijection matching every characteristic set and
    every pairwise contact sequence; first witness in lexicographic order.
    Each branch's candidates are the branches of y with its signature
    (ChAM and sorted CoAMs), and curves whose signatures differ as
    multisets are told apart before any search.

    Ambient dimensions may differ: only the multiplicity data is compared.
    """
    if len(x.branches) > MAX_BRANCHES or len(y.branches) > MAX_BRANCHES:
        raise TooManyBranches(
            f"bijection search capped at {MAX_BRANCHES} branches",
            limit=MAX_BRANCHES,
        )
    px, py = profile(x), profile(y)
    if px.r != py.r:
        return EquivalenceVerdict(False, None)
    r = px.r

    def pair_key(a: int, b: int):
        return (a, b) if a < b else (b, a)

    def signatures(p: InvariantProfile) -> list:
        """Per branch, its ChAM and its sorted CoAMs to every other branch:
        a bijection that keeps the profile keeps each branch's signature."""
        coams = [[] for _ in range(r)]
        for (a, b), sequence in p.coams.items():
            coams[a].append(sequence)
            coams[b].append(sequence)
        return [(cham, tuple(sorted(found))) for cham, found in zip(p.chams, coams)]

    by_signature = {}  # signature -> the branches of y that have it, ascending
    for j, signature in enumerate(signatures(py)):
        by_signature.setdefault(signature, []).append(j)
    candidates = [by_signature.get(signature, ()) for signature in signatures(px)]
    # the multisets agree iff each signature has as many branches in x as in y
    if any(len(found) != candidates.count(found) for found in candidates):
        return EquivalenceVerdict(False, None)

    assignment = [None] * r
    used = [False] * r

    def extend(i: int) -> bool:
        if i == r:
            return True
        for j in candidates[i]:
            if used[j]:
                continue
            ok = all(
                px.coams[(p, i)] == py.coams[pair_key(assignment[p], j)]
                for p in range(i)
            )
            if ok:
                assignment[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                assignment[i] = None
                used[j] = False
        return False

    if extend(0):
        return EquivalenceVerdict(True, tuple(assignment))
    return EquivalenceVerdict(False, None)
