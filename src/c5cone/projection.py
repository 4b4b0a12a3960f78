"""Linear projections to the plane, genericity against the bi-secant cone,
and invariance of the auxiliary multiplicities under projection.

A projection is generic exactly when its kernel meets the cone only at the
origin; such a projection is bi-Lipschitz on the curve, so the plane image
carries the same invariant profile. Both directions of that equivalence are
computable and tested against each other.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Optional

from .c5 import C5Cone, c5_cone
from .errors import (
    DependentVectors,
    DimensionMismatch,
    EngineError,
    NoCommonSpecialCoordinate,
    ProjectionSearchExhausted,
)
from .geometry import Branch, Curve, curve, matrix_rank, null_space, rref
from .invariants import profile
from .scalar import CycloScalar
from .series import CoordinateSeries, Parametrization

_SEARCH_CAP = 50


def _coerce_rows(rows):
    out = []
    for row in rows:
        out.append(
            tuple(
                e if isinstance(e, CycloScalar) else CycloScalar.rational(e)
                for e in row
            )
        )
    widths = {len(r) for r in out}
    if len(widths) != 1:
        raise DimensionMismatch(f"ragged matrix rows of widths {sorted(widths)}")
    return out


class LinearProjection:
    """Surjective linear map C^n -> C^2 as a 2 x n matrix, with its kernel
    basis (RREF, cached) alongside."""

    __slots__ = ("matrix", "kernel_basis")

    def __init__(self, rows):
        rows = _coerce_rows(rows)
        if len(rows) != 2:
            raise DimensionMismatch(f"projection matrix needs 2 rows, got {len(rows)}")
        if matrix_rank([list(r) for r in rows]) != 2:
            raise DependentVectors("projection matrix has rank < 2")
        self.matrix = tuple(rows)
        self.kernel_basis = tuple(
            tuple(r) for r in null_space([list(r) for r in rows])
        )

    @property
    def n(self) -> int:
        return len(self.matrix[0])

    @classmethod
    def from_kernel(cls, rows) -> "LinearProjection":
        """Projection whose kernel is the span of the given (n-2) rows."""
        rows = _coerce_rows(rows)
        n = len(rows[0])
        reduced, pivots = rref([list(r) for r in rows])
        if len(pivots) != n - 2:
            raise DependentVectors(
                f"kernel basis must have rank {n - 2}, got {len(pivots)}",
                rank=len(pivots),
            )
        return cls(null_space(reduced))

    @classmethod
    def identity(cls) -> "LinearProjection":
        one, zero = CycloScalar.rational(1), CycloScalar.rational(0)
        return cls([(one, zero), (zero, one)])

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


def _component_clears_kernel(component, kernel_rows) -> bool:
    if hasattr(component, "basis"):
        rows = [list(r) for r in component.basis]
    else:
        rows = [list(component.vec)]
    stacked = [list(r) for r in kernel_rows] + rows
    return matrix_rank(stacked) == len(kernel_rows) + len(rows)


def is_c5_generic(c: Curve, proj: LinearProjection, cone: Optional[C5Cone] = None) -> GenericityVerdict:
    """Generic iff the kernel meets every cone component only at 0, checked
    as a full-rank condition on the stacked kernel and component bases."""
    _check_dimension(c, proj)
    if cone is None:
        cone = c5_cone(c)
    for component in cone.components:
        if not _component_clears_kernel(component, proj.kernel_basis):
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
    return curve(
        Branch(_project_param(b.param, proj.matrix), b.label) for b in c.branches
    )


def find_generic_projection(c: Curve) -> LinearProjection:
    """Deterministic search for a generic projection of the normal shape
    (x_s, sum of lambda_k x_k, k != s) with s special in every branch:
    all-ones lambda first, then integer tuples by increasing max-norm, up
    to max-norm _SEARCH_CAP."""
    n = c.n
    if n == 2:
        return LinearProjection.identity()
    universal = frozenset.intersection(*(b.special_coords for b in c.branches))
    if not universal:
        raise NoCommonSpecialCoordinate(
            "no coordinate is special for every branch",
            special=[sorted(b.special_coords) for b in c.branches],
        )
    s = min(universal)
    cone = c5_cone(c)
    zero, one = CycloScalar.rational(0), CycloScalar.rational(1)
    row1 = tuple(one if idx == s else zero for idx in range(n))
    others = [idx for idx in range(n) if idx != s]

    def candidates():
        all_ones = (1,) * len(others)
        yield all_ones
        for norm in range(1, _SEARCH_CAP + 1):
            for lam in product(range(-norm, norm + 1), repeat=len(others)):
                if max(abs(v) for v in lam) != norm or lam == all_ones:
                    continue
                yield lam

    for lam in candidates():
        row2 = [zero] * n
        for idx, value in zip(others, lam):
            row2[idx] = CycloScalar.rational(value)
        proj = LinearProjection([row1, tuple(row2)])
        if is_c5_generic(c, proj, cone).generic:
            return proj
    raise ProjectionSearchExhausted(
        f"no generic projection among the candidates of max-norm up to {_SEARCH_CAP}",
        search_cap=_SEARCH_CAP,
    )


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
    source = profile(c)
    try:
        return profile(image) == source
    except EngineError:
        return False
