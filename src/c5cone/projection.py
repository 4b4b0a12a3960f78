"""Linear projections to the plane, genericity against the bi-secant cone,
and invariance of the auxiliary multiplicities under projection.

A projection is generic exactly when its kernel meets the cone only at the
origin; such a projection is bi-Lipschitz on the curve, so the plane image
carries the same invariant profile. Both directions of that equivalence are
computable and tested against each other.
"""

from __future__ import annotations

import math
from itertools import chain, count, product
from typing import NamedTuple, Optional

from .c5 import Analysis, _analysis_of, c5_cone
from .errors import DependentVectors, DimensionMismatch, EngineError, NoCommonSpecialCoordinate
from .geometry import Branch, Curve, Plane, cached, curve, null_space, spanning_rref
from .invariants import InvariantProfile, profile
from .scalar import CycloScalar, common_conductor
from .series import CoordinateSeries, Parametrization

_ZERO = CycloScalar.rational(0)


def _coerce_rows(rows):
    return [
        tuple(e if isinstance(e, CycloScalar) else CycloScalar.rational(e) for e in row)
        for row in rows
    ]


class LinearProjection:
    """Surjective linear map C^n -> C^2 as a 2 x n matrix. Its kernel basis
    (RREF) is built when first read; only output needs it."""

    def __init__(self, rows):
        rows = _coerce_rows(rows)
        if len(rows) != 2:
            raise DimensionMismatch(f"projection matrix needs 2 rows, got {len(rows)}")
        spanning_rref(rows)  # rows of one width that span a plane
        self.matrix = tuple(rows)

    @cached
    def kernel_basis(self) -> tuple:
        return tuple(tuple(r) for r in null_space([list(r) for r in self.matrix]))

    @property
    def n(self) -> int:
        return len(self.matrix[0])

    @classmethod
    def from_kernel(cls, rows) -> "LinearProjection":
        """Projection whose kernel is the span of the given (n-2) rows."""
        rows = _coerce_rows(rows)
        if not rows:
            raise DimensionMismatch("a kernel basis needs at least one row")
        n = len(rows[0])
        matrix = null_space(rows)
        rank = n - len(matrix)
        if rank != n - 2:
            raise DependentVectors(
                f"kernel basis must have rank {n - 2}, got {rank}", rank=rank
            )
        return cls(matrix)

    @classmethod
    def identity(cls) -> "LinearProjection":
        return cls([(1, 0), (0, 1)])

    def __repr__(self):
        rows = "; ".join(
            "(" + ", ".join(e.text() for e in row) + ")" for row in self.matrix
        )
        return f"<projection {rows}>"


def _check_dimension(c: Curve, proj: LinearProjection) -> None:
    if proj.n != c.n:
        raise DimensionMismatch(
            f"projection acts on dimension {proj.n}, curve lives in {c.n}",
            dims=[proj.n, c.n],
        )


class GenericityVerdict(NamedTuple):
    generic: bool
    violating_component: object  # Plane or Direction, None when generic


def _dot(row, vec) -> CycloScalar:
    return sum((a * b for a, b in zip(row, vec) if a and b), _ZERO)


def is_c5_generic(c: Curve, proj: LinearProjection) -> GenericityVerdict:
    """Generic iff the kernel meets every component of c's cone only at 0,
    that is iff the projection is injective on each: det(pi*p1, pi*p2) != 0
    for a plane with basis rows p1, p2, and pi*v != 0 for a line along v."""
    _check_dimension(c, proj)
    r1, r2 = proj.matrix
    for component in c5_cone(c).components:
        if isinstance(component, Plane):
            p1, p2 = component.basis
            injective = _dot(r1, p1) * _dot(r2, p2) != _dot(r1, p2) * _dot(r2, p1)
        else:
            injective = bool(_dot(r1, component.vec) or _dot(r2, component.vec))
        if not injective:
            return GenericityVerdict(False, component)
    return GenericityVerdict(True, None)


def _project_param(p: Parametrization, matrix) -> Parametrization:
    coords = []
    for row in matrix:
        merged = {}
        for entry, series in zip(row, p.coords):
            if entry.is_zero():
                continue
            for e, coeff in series.terms:
                prev = merged.get(e)
                value = entry * coeff if prev is None else prev + entry * coeff
                merged[e] = value
        coords.append(CoordinateSeries(
            (e, v) for e, v in sorted(merged.items()) if not v.is_zero()
        ))
    return Parametrization(coords)


def apply_projection(c: Curve, proj: LinearProjection) -> Curve:
    """Image curve under the projection. An image branch that is not a valid
    primitive Puiseux-form parametrization raises its validation error
    (NotPuiseuxForm, NonPrimitiveParametrization, ...)."""
    _check_dimension(c, proj)
    return curve(Branch(_project_param(b.param, proj.matrix), b.label) for b in c.branches)


def _transverse(a, b, s: int) -> tuple:
    """w = a[s]*b - b[s]*a for a span of a and b, as int rows: pi =
    (x_s, lambda*x) is injective on the span iff lambda*w != 0, since
    det(pi*a, pi*b) = lambda*w. Another basis of the same plane scales w
    by the nonzero determinant of the change, so any basis gives the same
    test. w's entries, reduced over one power basis, give one row per power
    of zeta of (coordinate, coefficient) pairs, the zero entries skipped;
    the rows are scaled to coprime ints, first one positive, so every
    rational multiple of w gives the same rows."""
    sa, sb = a[s], b[s]
    entries = []
    for idx, (x, y) in enumerate(zip(a, b)):
        # products with a 0 are skipped: spans are sparse, and b[s] is
        # mostly 0, as s is special in every branch
        e = sa * y if y else _ZERO
        if x and sb:
            e = e - sb * x
        if e:
            entries.append((idx, e))
    N = common_conductor(*(e.conductor for _, e in entries))
    rows = {}
    for idx, e in entries:
        for k, q in e.embed(N).terms():
            rows.setdefault(k, []).append((idx, q))
    den = math.lcm(*(q.denominator for row in rows.values() for _, q in row))
    ints = [
        [(idx, q.numerator * (den // q.denominator)) for idx, q in row]
        for _, row in sorted(rows.items())
    ]
    g = math.gcd(*(v for row in ints for _, v in row))
    if ints and ints[0][0][1] < 0:
        g = -g
    return tuple(tuple((idx, v // g) for idx, v in row) for row in ints)


def _search_axis(c: Curve) -> Optional[int]:
    """The least coordinate special in every branch, which the search keeps,
    or None for a plane curve; NoCommonSpecialCoordinate when none is."""
    if c.n == 2:
        return None
    universal = frozenset.intersection(*(b.special_coords for b in c.branches))
    if not universal:
        raise NoCommonSpecialCoordinate(
            "no coordinate is special for every branch",
            special=[sorted(b.special_coords) for b in c.branches],
        )
    return min(universal)


def find_generic_projection(c: Curve, analysis: Optional[Analysis] = None) -> LinearProjection:
    """Deterministic search for a generic projection of the normal shape
    (x_s, sum of lambda_k x_k, k != s) with s = _search_axis(c): all-ones
    lambda first, then integer tuples by increasing max-norm. lambda is
    generic iff lambda*w != 0 for the vector w of every span of c's cone
    (see _transverse), read off analysis.spans (default: those of a new
    Analysis of c; an analysis of another curve raises ValueError). A
    plane curve gets the identity.

    The search ends. Every span holds a branch tangent a, with a[s] != 0,
    and a vector b independent of it, so w = a[s]*b - b[s]*a is 0 at s and
    nonzero elsewhere. The lambda that w rejects therefore lie in a proper
    subspace (a power of zeta gives w a nonzero rational row), which holds
    at most (2K+1)^(n-2) of the (2K+1)^(n-1) tuples of max-norm <= K. With
    P distinct w and 2K+1 > P, some such tuple is rejected by none: the
    search returns by max-norm ceil(P/2). A smooth irreducible germ has no
    span and keeps all-ones."""
    analysis = _analysis_of(c, analysis)
    s, n = _search_axis(c), c.n
    if s is None:
        return LinearProjection.identity()
    spans = analysis.spans
    transverse = list(dict.fromkeys(_transverse(t.vec, v, s) for t, v, _ in spans))
    all_ones = (1,) * (n - 1)
    shells = (
        lam
        for norm in count(1)
        for lam in product(range(-norm, norm + 1), repeat=n - 1)
        if max(map(abs, lam)) == norm and lam != all_ones
    )
    for lam in chain([all_ones], shells):
        row2 = lam[:s] + (0,) + lam[s:]  # lambda, with 0 at s
        if all(
            any(sum(row2[idx] * v for idx, v in row) for row in w) for w in transverse
        ):
            return LinearProjection([[int(idx == s) for idx in range(n)], row2])


def verify_projection_invariance(c: Curve, proj: LinearProjection) -> bool:
    """True iff the image is a valid plane curve and keeps, branch by branch
    under the identity pairing, every characteristic set and every pairwise
    contact sequence. A projection of the wrong dimension still raises
    DimensionMismatch."""
    _check_dimension(c, proj)
    try:
        image = apply_projection(c, proj)
    except EngineError:
        return False
    return image_keeps_profile(profile(c), image)


def image_keeps_profile(source: InvariantProfile, image: Curve) -> bool:
    """True iff the image curve keeps every characteristic set and pairwise
    contact sequence of the source profile, branch by branch; an image
    profile cannot read keeps nothing."""
    try:
        return profile(image) == source
    except EngineError:
        return False
