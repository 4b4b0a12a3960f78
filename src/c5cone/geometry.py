"""Branches, curves, tangency, and canonical lines/planes in C^n.

Directions are projective representatives scaled so the first nonzero entry
is 1; planes are 2 x n matrices in reduced row-echelon form. Both are
canonical, so equality (and deduplication) is entry-wise comparison, with no
epsilon anywhere: the coefficient field is exact.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import (
    DependentVectors,
    DimensionMismatch,
    IncompatibleSystem,
    NonPrimitiveParametrization,
)
from .scalar import CycloScalar, common_conductor, divided
from .series import (
    Parametrization,
    exponent_gcd,
    puiseux_form_check,
)

_ZERO = CycloScalar.rational(0)
_ONE = CycloScalar.rational(1)


class cached:
    """A property computed on its first read and stored in the instance
    __dict__, where every later read finds it without a call: the
    semantics of functools.cached_property, without the lock that Python
    3.11 takes on each first read."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


# ---------------------------------------------------------------------------
# Exact linear algebra over Q(zeta_N).


def rref(rows):
    """Reduced row-echelon form; returns (rows, pivot column indices).

    Input rows are not modified. Zero rows are dropped from the result.
    """
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    if any(len(row) != ncols for row in work):
        widths = sorted({len(row) for row in work})
        raise DimensionMismatch(f"ragged matrix rows of widths {widths}", dims=widths)
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if not work[i][col].is_zero()), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        work[r] = divided(work[r], work[r][col])
        for i in range(len(work)):
            if i != r:
                work[i] = _eliminated(work[i], work[r], work[i][col])
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return [row for row in work[:r]], pivots


def matrix_rank(rows) -> int:
    return len(rref(rows)[1])


def null_space(rows):
    """Canonical (RREF) basis of {v : M v = 0} for the row matrix M.

    One rref, of M with its columns reversed: for each non-pivot column f
    of that reduction the basis row is e_f minus, at every pivot q, entry f
    of the row whose pivot is q. Every such q lies left of f, so once the
    columns are put back in M's order each row leads with its 1 at f, and
    the rows, taken by decreasing f, are already in RREF.
    """
    if not rows:
        return []
    last = len(rows[0]) - 1
    reduced, pivots = rref([row[::-1] for row in rows])
    pivot_set = set(pivots)
    basis = []
    for f in range(last, -1, -1):
        if f in pivot_set:
            continue
        vec = [_ZERO] * (last + 1)
        vec[last - f] = _ONE
        for row, q in zip(reduced, pivots):
            vec[last - q] = -row[f]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Projective directions and planes.


class Direction:
    """Nonzero vector scaled so its first nonzero entry is 1."""

    __slots__ = ("vec",)

    def __init__(self, entries: Iterable[CycloScalar]):
        entries = tuple(entries)
        lead = next((e for e in entries if not e.is_zero()), None)
        if lead is None:
            raise ValueError("the zero vector has no direction")
        self.vec = tuple(divided(entries, lead))

    @property
    def n(self) -> int:
        return len(self.vec)

    def __eq__(self, other):
        if not isinstance(other, Direction):
            return NotImplemented
        return self.n == other.n and all(a == b for a, b in zip(self.vec, other.vec))

    __hash__ = None

    def key(self):
        return tuple(e.text() for e in self.vec)

    def text(self) -> str:
        return "(" + ", ".join(e.text() for e in self.vec) + ")"

    def __repr__(self):
        return f"<direction {self.text()}>"


def spanning_rref(rows) -> tuple:
    """The RREF of two rows of one width that span a plane, in closed form,
    equal to rref(rows) entry by entry: normalise the first nonzero row w at
    its pivot p, eliminate the other row v at p, normalise v at its pivot
    q, back-substitute into w at q, and put the row with the smaller pivot
    first. When q < p, w is 0 at q and keeps its entries."""
    if len(rows) != 2 or len(rows[0]) != len(rows[1]):
        widths = [len(row) for row in rows]
        raise DimensionMismatch(
            f"expected two rows of one width, got widths {widths}", dims=widths
        )
    w, v = rows
    if not any(w):
        w, v = v, w
    p = next((i for i, e in enumerate(w) if e), None)
    if p is None:
        raise DependentVectors("expected a rank-2 span, got rank 0", rank=0)
    w = divided(w, w[p])
    v = _eliminated(v, w, v[p])
    q = next((i for i, e in enumerate(v) if e), None)
    if q is None:
        raise DependentVectors("expected a rank-2 span, got rank 1", rank=1)
    v = tuple(divided(v, v[q]))
    return (v, tuple(w)) if q < p else (tuple(_eliminated(w, v, w[q])), v)


class Plane:
    """Two-dimensional linear subspace of C^n as a canonical 2 x n RREF basis."""

    __slots__ = ("basis",)

    def __init__(self, rows):
        """The plane spanned by two rows of one width."""
        self.basis = spanning_rref(rows)

    @property
    def n(self) -> int:
        return len(self.basis[0])

    def contains(self, d: Direction) -> bool:
        return matrix_rank([list(self.basis[0]), list(self.basis[1]), list(d.vec)]) == 2

    def __eq__(self, other):
        if not isinstance(other, Plane):
            return NotImplemented
        return self.n == other.n and all(
            a == b for ra, rb in zip(self.basis, other.basis) for a, b in zip(ra, rb)
        )

    __hash__ = None

    def key(self):
        return tuple(tuple(e.text() for e in row) for row in self.basis)

    def __repr__(self):
        rows = "; ".join("(" + ", ".join(e.text() for e in row) + ")" for row in self.basis)
        return f"<plane span{{{rows}}}>"


def _eliminated(row, pivot_row, f):
    """row - f*pivot_row, as rref forms it: entries where pivot_row is 0
    are kept as they are."""
    if not f:
        return row
    return [a - f * b if b else a for a, b in zip(row, pivot_row)]


def component_rows(component) -> tuple:
    """Basis rows of a cone component: a plane's two, a line's direction."""
    return component.basis if isinstance(component, Plane) else (component.vec,)


# ---------------------------------------------------------------------------
# Branches and curves.


class Branch:
    """A validated irreducible germ: primitive Puiseux-form parametrization
    with its multiplicity, special coordinate set and tangent direction,
    every coefficient at one conductor. Built at the least conductor that
    holds its coefficients and the m-th roots of unity; curve() embeds it
    at the curve's."""

    __slots__ = ("param", "m", "special_coords", "label", "conductor", "tangent")

    def __init__(self, param: Parametrization, label: str = "b"):
        """Check that param is a primitive Puiseux-form parametrization whose
        conductor stays within the cap, raising the engine error otherwise,
        then take its coefficients at that conductor and read the tangent
        off them."""
        g = exponent_gcd(param)
        if g != 1:
            raise NonPrimitiveParametrization(
                f"branch {label}: all exponents share the factor {g}",
                label=label,
                gcd=g,
            )
        m, special = puiseux_form_check(param)
        conductor = common_conductor(
            m, *(c.conductor for series in param.coords for _, c in series.terms)
        )
        if any(c.conductor != conductor for series in param.coords for _, c in series.terms):
            param = Parametrization(series.embedded(conductor) for series in param.coords)
        self.param, self.m, self.special_coords = param, m, special
        self.label, self.conductor = label, conductor
        # the coefficients of u^m; nonzero, since a special coordinate is u^m
        self.tangent = Direction(series.coefficient(m) for series in param.coords)

    @property
    def n(self) -> int:
        return self.param.n

    def embedded(self, conductor: int) -> "Branch":
        """The branch with every coefficient at the lcm of its conductor and
        the given one, built again through the constructor."""
        conductor = common_conductor(self.conductor, conductor)
        if conductor == self.conductor:
            return self
        return Branch(
            Parametrization(s.embedded(conductor) for s in self.param.coords), self.label
        )

    def __repr__(self):
        return f"<branch {self.label}: {self.param.text()}>"


class Curve(NamedTuple):
    """A reduced curve germ: ordered branches sharing one ambient dimension
    and one global conductor (all scalars pre-embedded)."""

    n: int
    branches: tuple
    conductor: int


def curve(branches: Iterable[Branch]) -> Curve:
    """The curve of the given branches, each embedded at their common
    conductor."""
    branches = tuple(branches)
    if not branches:
        raise ValueError("a curve needs at least one branch")
    n = branches[0].n
    for b in branches:
        if b.n != n:
            raise DimensionMismatch(
                f"branch {b.label} has ambient dimension {b.n}, expected {n}",
                dims=[n, b.n],
            )
    labels = [b.label for b in branches]
    if len(set(labels)) != len(labels):
        raise ValueError(f"branch labels are not unique: {labels}")
    conductor = common_conductor(*(b.conductor for b in branches))
    return Curve(n, tuple(b.embedded(conductor) for b in branches), conductor)


class TangencyClassification(NamedTuple):
    S: frozenset  # indices of singular branches (m > 1)
    T: frozenset  # pairs (i < j) of tangent branches
    NT: frozenset  # pairs (i < j) of non-tangent branches


def classify(c: Curve) -> TangencyClassification:
    tangents = [b.tangent for b in c.branches]
    r = len(c.branches)
    S = frozenset(i for i, b in enumerate(c.branches) if b.m > 1)
    T, NT = set(), set()
    for i in range(r):
        for j in range(i + 1, r):
            (T if tangents[i] == tangents[j] else NT).add((i, j))
    return TangencyClassification(S, frozenset(T), frozenset(NT))


def check_tangent_pair(bi: Branch, bj: Branch) -> None:
    """Raise IncompatibleSystem when the tangent branches bi and bj share
    no special coordinate: their contact is read in a shared one."""
    if not bi.special_coords & bj.special_coords:
        raise IncompatibleSystem(bi.label, bj.label)

