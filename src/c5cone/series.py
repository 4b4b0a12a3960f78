"""Finite Puiseux-form power series in one variable over Q(zeta_N).

A coordinate series is a sparse polynomial in u: a sorted tuple of
(exponent, coefficient) terms with strictly increasing positive exponents
and nonzero coefficients. A parametrization is an n-tuple of coordinate
series describing a map (C,0) -> (C^n,0). Only polynomials are admitted, so
every order and coefficient computed from them is exact; nothing is ever
truncated.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

from .errors import NotPuiseuxForm
from .scalar import CycloScalar

# Order of the zero series.
INFINITE = math.inf
# The terms of the scalar 1, the same at every conductor.
_ONE_TERMS = ((0, 1),)
# The coefficient of every exponent a series has no term at.
_ZERO = CycloScalar.rational(0)


class CoordinateSeries:
    """Sparse exact polynomial in u; the empty term tuple is the zero series."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Tuple[int, CycloScalar]] = ()):
        self.terms = tuple(_ascending([(e, c) for e, c in terms if c]))

    def is_zero(self) -> bool:
        return not self.terms

    def order(self):
        return self.terms[0][0] if self.terms else INFINITE

    def embedded(self, conductor: int) -> "CoordinateSeries":
        """The same series with every coefficient in Q(zeta_conductor)."""
        return CoordinateSeries((e, c.embed(conductor)) for e, c in self.terms)

    def coefficient(self, exponent: int) -> CycloScalar:
        for e, c in self.terms:
            if e == exponent:
                return c
            if e > exponent:
                break
        return _ZERO

    def __eq__(self, other):
        if not isinstance(other, CoordinateSeries):
            return NotImplemented
        if len(self.terms) != len(other.terms):
            return False
        return all(e1 == e2 and c1 == c2 for (e1, c1), (e2, c2) in zip(self.terms, other.terms))

    __hash__ = None

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            coeff = c.text()
            mono = "u" if e == 1 else f"u^{e}"
            parts.append(mono if coeff == "1" else f"({coeff})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<series {self.text()}>"


def _ascending(terms: list) -> list:
    """The terms sorted by exponent, or ValueError for a repeated exponent or
    one below 1; exponents that ascend from 1 up pass in one scan, unsorted."""
    last = 0
    for e, _ in terms:
        if e <= last:
            break
        last = e
    else:
        return terms
    terms = sorted(terms, key=lambda t: t[0])
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if e1 == e2:
            raise ValueError(f"duplicate exponent {e1} in coordinate series")
    if terms[0][0] < 1:
        raise ValueError(f"exponents must be >= 1, got {terms[0][0]}")
    return terms


class Parametrization:
    """An n-tuple of coordinate series; a finite map germ (C,0) -> (C^n,0).

    This is a plain container: the Puiseux-form and primitivity contracts are
    enforced where branches are built; a parametrization whose every
    coordinate is zero fails them there.
    """

    __slots__ = ("n", "coords")

    def __init__(self, coords: Iterable[CoordinateSeries]):
        self.coords = tuple(coords)
        self.n = len(self.coords)
        if self.n < 1:
            raise ValueError("a parametrization needs at least one coordinate")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, Parametrization):
            return NotImplemented
        return self.n == other.n and all(a == b for a, b in zip(self.coords, other.coords))

    __hash__ = None

    def text(self) -> str:
        return "(" + ", ".join(c.text() for c in self.coords) + ")"

    def __repr__(self):
        return f"<parametrization {self.text()}>"


def order(p: Parametrization):
    """Minimum coordinate order; the multiplicity for a primitive Puiseux
    parametrization. INFINITE only for the all-zero parametrization."""
    return min(c.order() for c in p.coords)


def exponent_gcd(p: Parametrization) -> int:
    """The gcd of all exponents carrying a nonzero coefficient; 0 for the
    zero parametrization. The walk ends at the first 1."""
    g = 0
    for series in p.coords:
        for e, _ in series.terms:
            g = math.gcd(g, e)
            if g == 1:
                return g
    return g


def puiseux_form_check(p: Parametrization):
    """Validate Puiseux normal form; return (m, special coordinate indices).

    m is the order of p and a special coordinate is one whose series is the
    single bare term u^m. Non-special coordinates may still have order m.
    """
    m = min([series.terms[0][0] for series in p.coords if series.terms], default=0)
    if not m:
        raise NotPuiseuxForm("the zero parametrization has no multiplicity")
    special = frozenset([
        j
        for j, series in enumerate(p.coords)
        if len(series.terms) == 1
        and series.terms[0][0] == m
        and series.terms[0][1].terms() == _ONE_TERMS
    ])
    if not special:
        worst = min(
            (j for j in range(p.n) if not p.coords[j].is_zero()),
            key=lambda j: p.coords[j].order(),
        )
        extras = [
            f"({c.text()})*u^{e}" for e, c in p.coords[worst].terms if e != m or not (c == 1)
        ]
        raise NotPuiseuxForm(
            f"no coordinate is exactly u^{m}; minimal-order coordinate "
            f"{worst + 1} has terms {', '.join(extras) or p.coords[worst].text()}",
            multiplicity=m,
            coordinate=worst,
        )
    return m, special
