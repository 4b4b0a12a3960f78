"""Floating-point cross-validation of the symbolic cone.

Two instruments, both in ordinary double precision:

* random bi-secant sampling: pairs of points near the origin on all branch
  combinations; each normalized secant direction must approach some cone
  component as the radius shrinks;
* witness families: explicit point pairs on a contact difference
  psi_i(u) - psi_j(theta*u) (the characteristic difference when i = j) so
  the secant limit is exactly v_theta + lambda*w; their directions must
  converge to that target (and hence to the difference's plane).

Double precision imposes two limits, both made explicit rather than left
to produce noise. Cancellation: the signal of a record of order k on a
branch of order N lives in the top 16 decimal digits only while u**(k - N)
stays well above 1e-16, so witness u-values keep that ratio near 1e-9 at
the smallest point, and a family that would need u beyond 0.3 to do so
(gap of 14 or more) is reported as skipped. Underflow: a leading term
below double range at every admissible scale (multiplicity in the
hundreds) skips the family, or raises FloatingPointUnderflow instead of
sampling unrepresentable points; so does a witness target whose every
entry rounds to zero.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from collections import Counter
from itertools import compress, repeat, starmap
from operator import add, attrgetter, gt, lt, mul, neg, not_, sub, truediv
from typing import NamedTuple, Optional

from .auxiliary import characteristic_order
from .c5 import Analysis, C5Cone, _analysis_of, c5_cone
from .errors import (
    DegenerateSecant,
    DimensionMismatch,
    FloatingPointOverflow,
    FloatingPointUnderflow,
    InvalidSamplingParameter,
)
from .geometry import Curve, component_rows
from .scalar import CycloScalar, common_conductor, root_of_unity, to_complex
from .series import Parametrization

DEFAULT_RADII = (1e-2, 1e-3)
DEFAULT_SAMPLES = 200
# Largest sample count per radius. Sampling time grows linearly with it, so
# a larger count could run for hours.
MAX_SAMPLES = 10_000
# Most radii per call: each batch of a radius costs about as much as 15
# samples, however few samples it holds.
MAX_RADII = 100
# Most secant samples per call, sources x radii x samples per radius, where
# r branches give r*(r+1)/2 sources. 12 branches at 10,000 samples and
# two radii (1,560,000) fit.
MAX_TOTAL_SAMPLES = 2_000_000
DEFAULT_TOLERANCE = 1e-2
PRNG_NAME = "mt19937"
_SKIP_U = 0.3
_NOISE_EXPONENT = 7  # keep cancellation noise near 1e-9 at the smallest u
_FLOOR_U = 1e-4
# Noise floor of a residual distance sqrt(1 - |projection|^2): rounding in
# the projection leaves 1 - |projection|^2 a few ulps of 1 off, which reads
# as distances sqrt(j*eps/2), j = 1..8 (1.1e-8 to 3.0e-8).
_CONVERGED = 2 * math.sqrt(sys.float_info.epsilon)
# Exponents above this are evaluated as this: every evaluation point has
# |u| < 1, where u**e is already 0.0 in doubles, and a larger int would
# overflow its conversion to float.
_MAX_FLOAT_EXPONENT = 10**300
_TURN = 2j * math.pi
_REAL = attrgetter("real")
_IMAG = attrgetter("imag")


# ---------------------------------------------------------------------------
# Complex evaluation helpers.


def _complex_terms(p: Parametrization):
    return [
        [(min(e, _MAX_FLOAT_EXPONENT), to_complex(c)) for e, c in series.terms]
        for series in p.coords
    ]


def _rescaled(cterms, s: int):
    """The terms of u -> u^s: exponents times s, clamped again. The clamp
    commutes with the scaling: min(min(e, M)*s, M) = min(e*s, M) for s >= 1."""
    if s == 1:
        return cterms
    return [[(min(e * s, _MAX_FLOAT_EXPONENT), c) for e, c in series] for series in cterms]


def _eval_param(cterms, u: complex):
    return [sum(c * u**e for e, c in series) for series in cterms]


def _norm(vec) -> float:
    # hypot scales internally, so components near the double-range floor
    # do not lose their squares to underflow.
    return math.hypot(*(part for z in vec for part in (z.real, z.imag)))


def _orthonormalize(rows):
    """Modified Gram-Schmidt over complex rows (assumed independent)."""
    basis = []
    for row in rows:
        v = list(row)
        for b in basis:
            inner = sum(bz.conjugate() * vz for bz, vz in zip(b, v))
            v = [vz - inner * bz for vz, bz in zip(v, b)]
        scale = _norm(v)
        basis.append([z / scale for z in v])
    return basis


def _distance(total: float) -> float:
    """A unit vector's distance to a component on whose orthonormal rows its
    squared projections sum to total; it does not increase with total."""
    return math.sqrt(max(0.0, 1.0 - total))


def _residual(unit_vec, basis) -> float:
    total = 0.0
    for b in basis:
        total += abs(sum(bz.conjugate() * vz for bz, vz in zip(b, unit_vec))) ** 2
    return _distance(total)


def component_basis(component):
    """Orthonormal complex basis of a cone component (plane or line)."""
    return _orthonormalize(
        [[to_complex(e) for e in row] for row in component_rows(component)]
    )


class FloatView:
    """The doubles of some branches and some cone components, each
    converted once, when first read: a branch's complex terms
    (_complex_terms) and a component's orthonormal basis (component_basis).
    The witness families and the sampler of one verify share one view.

    Reading on demand keeps the order in which conversions happen, and so
    which value raises FloatingPointOverflow first, the same as converting
    each family's and then the sampler's values afresh."""

    def __init__(self, branches, components):
        self.branches = tuple(branches)
        self.components = tuple(components)
        self._terms = [None] * len(self.branches)
        self._bases = [None] * len(self.components)

    def terms(self, i: int):
        if self._terms[i] is None:
            self._terms[i] = _complex_terms(self.branches[i].param)
        return self._terms[i]

    def basis(self, idx: int):
        if self._bases[idx] is None:
            self._bases[idx] = component_basis(self.components[idx])
        return self._bases[idx]


# ---------------------------------------------------------------------------
# Witness families.


class WitnessResult(NamedTuple):
    kind: str
    labels: tuple
    k: int
    group_order: int
    k_theta: int
    u_values: tuple
    target_distances: tuple
    plane_distances: tuple
    monotone: bool
    skipped: bool
    skip_reason: Optional[str]

    @property
    def final_plane_distance(self) -> float:
        return self.plane_distances[-1] if self.plane_distances else math.inf


def default_u_values(gap: int):
    """Four geometric evaluation points for a record whose signal exponent
    exceeds the branch order by gap; (None, reason) when doubles cannot
    resolve the record."""
    if gap <= 0:
        u_final = _FLOOR_U
    else:
        u_final = max(10 ** (-_NOISE_EXPONENT / gap), _FLOOR_U)
    if u_final > _SKIP_U:
        return None, (
            f"signal u^{gap} above the leading order needs u > {_SKIP_U} to "
            f"clear double-precision cancellation noise"
        )
    u_high = min(_SKIP_U, 1000 * u_final)
    ratio = (u_final / u_high) ** (1 / 3)
    return tuple(u_high * ratio**i for i in range(4)), None


def _skipped(kind, labels, k, group_order, k_theta, reason) -> WitnessResult:
    return WitnessResult(
        kind, labels, k, group_order, k_theta, (), (), (), False, True, reason
    )


def _run_family(kind, labels, k, group_order, k_theta, u_values, floats) -> WitnessResult:
    """Measure one family at u_values (default: default_u_values). floats()
    gives its doubles (c1, c2, theta, lam, target, plane_basis): the complex
    terms of both sides, theta and lam, and the orthonormal bases of the
    target and of the plane. It is called only once the family is known to
    run, so a skipped family converts nothing."""
    if u_values is None:
        u_values, reason = default_u_values(k_theta - group_order)
        if u_values is None:
            return _skipped(kind, labels, k, group_order, k_theta, reason)
        if k_theta * math.log10(u_values[-1]) < -300:
            return _skipped(
                kind, labels, k, group_order, k_theta,
                f"order-{k_theta} signal underflows IEEE doubles on the "
                f"default evaluation window",
            )
    u_values = tuple(float(u) for u in u_values)
    c1, c2, theta_c, lam_c, target, plane_basis = floats()
    # h(u) = theta*u + c*u^(k-N+1) with c = -lam*theta/N makes the secant
    # direction converge exactly to v_theta + lam*w.
    offset = -lam_c * theta_c / group_order
    power = k_theta - group_order + 1
    target_distances = []
    plane_distances = []
    for u in u_values:
        h = theta_c * u + offset * u**power
        alpha = [
            a - b for a, b in zip(_eval_param(c1, u), _eval_param(c2, h))
        ]
        scale = _norm(alpha)
        if not math.isfinite(scale):
            raise FloatingPointOverflow(
                f"a witness secant at u={u} exceeds IEEE double range",
                u=u, labels=list(labels),
            )
        if scale == 0.0:
            raise DegenerateSecant(
                f"witness points coincide at u={u}", u=u, labels=list(labels)
            )
        direction = [z / scale for z in alpha]
        target_distances.append(_residual(direction, target))
        plane_distances.append(_residual(direction, plane_basis))
    # a distance at the noise floor has converged: no later one must fall
    last = [max(d, _CONVERGED) for d in target_distances[-3:]]
    monotone = len(last) == 3 and last[0] >= last[1] >= last[2]
    return WitnessResult(
        kind, labels, k, group_order, k_theta, u_values,
        tuple(target_distances), tuple(plane_distances), monotone, False, None,
    )


def _family(kind, view: FloatView, i: int, j: int, idx: int, k: int, lam,
            m_theta: int, leading) -> WitnessResult:
    """Secants of the contact difference psi_i(u) - psi_j(theta*u),
    theta = zeta_lcm^k, on view's branches i and j rescaled to order lcm;
    the pair (b, b) is the characteristic difference phi(u) - phi(theta*u).
    The difference starts at u^m_theta with the exact vector leading; the
    target is leading plus lam times psi_i's tangent coefficients, and the
    plane is view's component idx. A target whose every double is zero, as
    a nonzero one below 2**-1074 is, has no direction to measure:
    FloatingPointUnderflow."""
    bi, bj = view.branches[i], view.branches[j]
    lcm = math.lcm(bi.m, bj.m)
    labels = (bi.label,) if kind == "characteristic" else (bi.label, bj.label)
    theta = root_of_unity(common_conductor(bi.conductor, bj.conductor), lcm, k)
    target = [v + lam * s.coefficient(bi.m) for v, s in zip(leading, bi.param.coords)]

    def floats():
        theta_c = to_complex(theta)
        lam_c = to_complex(lam)
        c1 = _rescaled(view.terms(i), lcm // bi.m)
        c2 = _rescaled(view.terms(j), lcm // bj.m)
        target_c = [to_complex(t) for t in target]
        if not any(target_c):
            raise FloatingPointUnderflow(
                f"the witness target of {', '.join(labels)} underflows IEEE doubles",
                labels=list(labels),
            )
        return c1, c2, theta_c, lam_c, _orthonormalize([target_c]), view.basis(idx)

    return _run_family(kind, labels, k, lcm, m_theta, None, floats)


_ONE = CycloScalar.rational(1)
_ZERO = CycloScalar.rational(0)


def cone_witness_results(c: Curve, analysis: Optional[Analysis] = None,
                         view: Optional[FloatView] = None) -> list:
    """One witness family per component of c's cone, read off the
    component's first provenance descriptor, with the component as its
    plane.

    analysis is c's (default: a new one). Each family reads m_theta from
    characteristic_order, or from the pair's class, and the exact leading
    vector from the pair (Analysis.pair) at that class. view (default: a
    new one over c and its cone) supplies the doubles. An analysis or a
    view of another curve or cone raises ValueError."""
    analysis = _analysis_of(c, analysis)
    cone = analysis.cone
    if view is None:
        view = FloatView(c.branches, cone.components)
    elif view.branches != c.branches or view.components != cone.components:
        raise ValueError("the float view is not of this curve and its cone")
    if cone.dimension != 2:
        return []
    index = {b.label: i for i, b in enumerate(c.branches)}
    results = []
    for idx, descriptors in enumerate(cone.provenance):
        kind, labels, k = descriptors[0]
        i, j = index[labels[0]], index[labels[-1]]
        pair = analysis.pair(i, j)
        lam = _ONE
        if kind == "characteristic":
            m_theta = characteristic_order(c.branches[i], k)
        elif kind == "contact":
            m_theta = pair.classes[k][0]
        else:  # non-tangent: provenance k is -1; both sides start at u^lcm
            k, lam, m_theta = 0, _ZERO, pair.lcm
        leading = pair.vector(m_theta, k * m_theta % pair.lcm)
        results.append(_family(kind, view, i, j, idx, k, lam, m_theta, leading))
    return results


# ---------------------------------------------------------------------------
# Random bi-secant sampling.


class SampleReport(NamedTuple):
    seed: int
    prng: str
    radii: tuple
    samples_per_radius: int
    per_radius_max: tuple  # (radius, max distance) pairs, radii descending
    component_min: tuple  # per component, min distance at smallest radius
    degenerate_count: int
    max_plane_distance: float


def _derived_rng(seed: int, source_index: int, radius_index: int) -> random.Random:
    mixed = (
        seed * 0x9E3779B97F4A7C15
        + (source_index + 1) * 0xBF58476D1CE4E5B9
        + (radius_index + 1) * 0x94D049BB133111EB
    ) % (1 << 64)
    return random.Random(mixed)


def _coordinate_terms(cterms):
    """Per coordinate, the complex coefficients and the exponents of its
    terms, as two tuples; and the steps that form the powers of u they
    need (_power_steps)."""
    coords = [
        (tuple(c for _, c in series), tuple(e for e, _ in series))
        for series in cterms
    ]
    return coords, _power_steps({e for _, exps in coords for e in exps})


def _power_steps(exponents):
    """The steps (e, a, b) that form u**e for every e in exponents, in
    order, from u**1 = u: u**e = u**a * u**b, or pow(u, e) where a and b
    are None.

    For 1 <= e <= 100 the power is formed as CPython's complex ** forms it
    for integer exponents up to 100 (c_powu): the product, in ascending
    order, of the repeated squares u**(2**(b+1)) = u**(2**b) * u**(2**b)
    over e's set bits. Each partial product, over e's bits below some b,
    is the power of that smaller exponent, formed once and shared with it
    and with every other exponent of the same lower bits. Larger
    exponents, the clamp _MAX_FLOAT_EXPONENT included, go through pow,
    which CPython computes in polar form there."""
    steps = []
    formed = {1}
    for e in sorted(exponents):
        if not 1 <= e <= 100:
            steps.append((e, None, None))
            continue
        low = 0  # e's bits below bit b
        for b in range(e.bit_length()):
            bit = 1 << b
            if bit not in formed:
                formed.add(bit)
                steps.append((bit, bit >> 1, bit >> 1))
            if e & bit:
                if low and (low | bit) not in formed:
                    formed.add(low | bit)
                    steps.append((low | bit, low, bit))
                low |= bit
    return steps


def _points(radius, a, b):
    """The points radius*(0.5 + 0.5*a)*exp(2j*pi*b) over the columns a, b."""
    return list(map(
        mul,
        map(mul, repeat(radius), map(add, repeat(0.5), map(mul, repeat(0.5), a))),
        map(cmath.exp, map(mul, repeat(_TURN), b)),
    ))


def _combination(pairs):
    """The column sum of c*column over the (c, column) pairs, as a list,
    formed as sum() would form it but for its leading 0: a c equal to 0
    adds no pass, one equal to 1 adds its column with no multiply, and one
    equal to -1 subtracts it. None when every c is 0."""
    total = None
    for c, column in pairs:
        if not c:
            continue
        if total is None:
            if c == 1:
                total = column
            elif c == -1:
                total = list(map(neg, column))
            else:
                total = list(map(mul, repeat(c), column))
        elif c == 1:
            total = list(map(add, total, column))
        elif c == -1:
            total = list(map(sub, total, column))
        else:
            total = list(map(add, total, map(mul, repeat(c), column)))
    return total


def _values(terms, points):
    """Per coordinate, the list of its series' values at points
    (_combination), for terms from _coordinate_terms. Each power u**e is
    formed once (_power_steps) and shared by the coordinates."""
    coords, steps = terms
    powers = {1: points}
    for e, a, b in steps:
        if a is None:
            powers[e] = list(map(pow, points, repeat(e)))
        else:
            powers[e] = list(map(mul, powers[a], powers[b]))
    columns = []
    for coeffs, exps in coords:
        column = _combination((c, powers[e]) for c, e in zip(coeffs, exps))
        # sum() of no terms is the int 0
        columns.append([0] * len(points) if column is None else column)
    return columns


def _branch_points(batch, radius, count):
    """The points of count pairs for each source of batch, each (i, j, rng),
    drawn from rng in stream order, 4*count values, u then v for each pair,
    u on branch i and v on branch j. Returns each branch's points in the
    batch, and per source where its u, then its v, start in them."""
    drawn = []
    for _, _, rng in batch:
        drawn += starmap(rng.random, repeat((), 4 * count))
    u = _points(radius, drawn[0::4], drawn[1::4])
    v = _points(radius, drawn[2::4], drawn[3::4])
    at = {}
    starts = []
    for n, (i, j, _) in enumerate(batch):
        part = slice(n * count, (n + 1) * count)
        for b, points in ((i, u), (j, v)):
            held = at.setdefault(b, [])
            starts.append(len(held))
            held += points[part]
    return at, starts


def _secants(terms, batch, radius, count):
    """The secants of count point pairs for each source of batch
    (_branch_points): one column per coordinate over the batch, source by
    source, and the secant norms. Each branch is evaluated once, at all
    its points."""
    at, starts = _branch_points(batch, radius, count)
    # each branch's points are dropped once evaluated
    values = {b: _values(terms[b], at.pop(b)) for b in list(at)}
    deltas = [[] for _ in values[batch[0][0]]]
    for (i, j, _), left, right in zip(batch, starts[0::2], starts[1::2]):
        for delta, p, q in zip(deltas, values[i], values[j]):
            delta += map(sub, p[left:left + count], q[right:right + count])
    # hypot scales internally: no square underflows
    parts = (m for z in deltas for m in (map(_REAL, z), map(_IMAG, z)))
    return deltas, list(map(math.hypot, *parts))


def _sample_batch(terms, batch, radius, count):
    """The unit secant directions of count point pairs for each source of
    batch, each (i, j, rng): one column per coordinate over the batch,
    source by source, and the number of degenerate pairs drawn again.
    terms holds each branch's _coordinate_terms.

    A source draws 4*need values in stream order, u then v for each pair,
    for the need directions still missing; the first draw of every source
    of the batch is evaluated at once (_secants). Then, source by source,
    a pair whose secant norm falls below 1e-280 is dropped and counted, and
    the source draws one pair for each one dropped from its own rng, so its
    directions are those of its first count non-degenerate pairs, as in a
    loop over the samples. A secant norm that is not finite raises
    FloatingPointOverflow, unless DegenerateSecant comes first in stream
    order: the same error, with the same payload, as sampling one source
    after the other.

    Here and in _totals, each float operation of the plain per-sample
    sampler (tests/reference_sampler.py) up to a total of squares runs over
    a whole column, on the same operands and in the same order. Only the
    extreme totals reach _distance, once per reported figure: 1 - t, max
    and sqrt each round monotonically, so the least distance over some
    totals is that of the largest, bit for bit. Some steps are left out,
    each exactly neutral:

    * sum()'s leading int 0 in front of each series and each inner product:
      0 + z differs from z only where z holds a -0.0, and a zero's sign
      never changes a value that reaches abs or hypot, where every series
      value and inner product ends;
    * in _power_steps, the leading 1* of c_powu's first product
      1*u**(2**b): on a finite power it changes only the signs of zero
      parts;
    * in _combination, the multiply by a coefficient or basis entry equal
      to 1 or -1 (a negation, or the add turned into a sub), and the whole
      multiply-add of one equal to 0. On finite operands, which every
      series term and, once the norm is finite, every direction entry is,
      1*z = z and -1*z = -z exactly but for the sign of a zero part, and
      0*z is a zero: again only zero signs change;
    * a second |<row, d>|**2 over the same directions, for a row that
      several components share: the same operations on the same operands;
    * the 0.0 + in front of each total of squares |<row, d>|**2, which
      is non-negative.
    """
    deltas, scales = _secants(terms, batch, radius, count)
    if all(map(math.isfinite, scales)) and not any(map(lt, scales, repeat(1e-280))):
        return [list(map(truediv, z, scales)) for z in deltas], 0
    columns = [[] for _ in deltas]
    degenerate = 0
    for n, source in enumerate(batch):
        part = slice(n * count, (n + 1) * count)
        degenerate += _redraw(
            columns, terms, source, radius, count, [z[part] for z in deltas], scales[part]
        )
    return columns, degenerate


def _redraw(columns, terms, source, radius, count, deltas, scales):
    """Extend columns by the directions of the count pairs of source, an
    (i, j, rng) of _sample_batch, given the secants and norms of its first
    draw, drawing again from its rng for the degenerate ones. Returns how
    many were degenerate."""
    degenerate = 0
    while True:
        low = list(map(lt, scales, repeat(1e-280)))
        need = low.count(True)
        if not all(map(math.isfinite, scales)):
            first = list(map(math.isfinite, scales)).index(False)
            if degenerate + low[:first].count(True) <= 100 * count:
                raise FloatingPointOverflow(
                    f"a secant at radius {radius} exceeds IEEE double range",
                    radius=radius,
                )
        if need:
            degenerate += need
            if degenerate > 100 * count:
                raise DegenerateSecant(
                    "persistent numerically equal sample points",
                    radius=radius,
                )
            keep = list(map(not_, low))
            scales = list(compress(scales, keep))
            deltas = [list(compress(z, keep)) for z in deltas]
        for column, z in zip(columns, deltas):
            column.extend(map(truediv, z, scales))
        if not need:
            return degenerate
        deltas, scales = _secants(terms, [source], radius, need)


def _squares(row, directions):
    """|<row, d>|**2 per direction (_combination)."""
    return map(pow, map(abs, _combination(zip(row, directions))), repeat(2))


def _totals(basis, directions, shared=None):
    """Per direction d, its total sum |<row, d>|**2 over the orthonormal
    rows, conjugated, of a component: d's distance to the component is
    _distance(total). shared, when given, maps each row that other
    components hold too to its squares over these directions, or to None
    until they are first needed."""
    total = None
    for row in basis:
        if shared is not None and row in shared:
            squares = shared[row]
            if squares is None:
                squares = shared[row] = list(_squares(row, directions))
        else:
            squares = _squares(row, directions)
        total = squares if total is None else map(add, total, squares)
    return list(total)


def _pruned_max(bases, directions, floor, shared):
    """min(floor, the least over the directions of a direction's largest
    total): the total of the largest distance to a nearest component.
    shared lists the rows that several components hold (see _totals).

    Before each component after the first, the direction farthest from the
    components scanned so far (least total) gets its full maximum, which
    may lower floor. A direction whose best total so far has reached floor
    can no longer raise the largest distance and is dropped; the farthest
    one goes too, its full maximum now being part of floor."""
    if not bases:  # no component: every distance is inf
        return -math.inf
    squares = dict.fromkeys(shared)
    best = _totals(bases[0], directions, squares)
    for idx in range(1, len(bases)):
        far = best.index(min(best))
        single = [[column[far]] for column in directions]
        best[far] = max(best[far], *(_totals(b, single)[0] for b in bases[idx:]))
        floor = min(floor, best[far])
        keep = list(map(gt, repeat(floor), best))
        best = list(compress(best, keep))
        if not best:
            return floor
        directions = [list(compress(column, keep)) for column in directions]
        squares = {
            row: None if column is None else list(compress(column, keep))
            for row, column in squares.items()
        }
        best = list(map(max, best, _totals(bases[idx], directions, squares)))
    return min(floor, min(best))


def check_sampling_parameters(radii, k: int, branches: int = 1) -> tuple:
    """The radii as floats, after checking that there are at most
    MAX_RADII of them, that they lie in (0, 0.5] and strictly decrease,
    that 1 <= k <= MAX_SAMPLES, and that the samples of a curve with this
    many branches, sources x radii x k, are at most MAX_TOTAL_SAMPLES."""
    radii = tuple(float(r) for r in radii)
    if not radii or any(not 0 < r <= 0.5 for r in radii):
        raise InvalidSamplingParameter(f"radii must lie in (0, 0.5], got {radii}")
    if any(a <= b for a, b in zip(radii, radii[1:])):
        raise InvalidSamplingParameter(f"radii must be strictly decreasing, got {radii}")
    if len(radii) > MAX_RADII:
        raise InvalidSamplingParameter(
            f"at most {MAX_RADII} radii, got {len(radii)}"
        )
    if k < 1:
        raise InvalidSamplingParameter(f"need at least one sample per radius, got {k}")
    if k > MAX_SAMPLES:
        raise InvalidSamplingParameter(
            f"at most {MAX_SAMPLES} samples per radius, got {k}"
        )
    sources = branches * (branches + 1) // 2
    total = sources * len(radii) * k
    if total > MAX_TOTAL_SAMPLES:
        raise InvalidSamplingParameter(
            f"at most {MAX_TOTAL_SAMPLES} secant samples in all, got {total}: "
            f"{sources} sources x {len(radii)} radii x {k} samples",
            total=total, limit=MAX_TOTAL_SAMPLES,
        )
    return radii


def check_leading_terms(c: Curve, radius: float) -> None:
    """Raise FloatingPointUnderflow when a branch's leading term u^m
    underflows doubles at the smallest radius: m and the radius decide it
    before any cone or sampling work. A radius whose half rounds to 0.0,
    as 5e-324's does, underflows at every m."""
    half = radius / 2
    for b in c.branches:
        if not half or b.m * math.log10(half) < -300:
            raise FloatingPointUnderflow(
                f"branch {b.label} has multiplicity {b.m}; its leading term "
                f"underflows IEEE doubles at radius {radius}",
                label=b.label, multiplicity=b.m, radius=radius,
            )


def _measured(rows, directions, shared):
    """Per component, the largest total of the directions; and the least
    over the directions of a direction's largest total (_pruned_max)."""
    if not rows:  # no component: every distance is inf
        return [], -math.inf
    squares = dict.fromkeys(shared)
    columns = [_totals(basis, directions, squares) for basis in rows]
    nearest = columns[0] if len(columns) == 1 else map(max, *columns)
    return list(map(max, columns)), min(nearest)


def sample_secant_directions(c: Curve, radii=DEFAULT_RADII, k: int = DEFAULT_SAMPLES,
                             seed: int = 0, cone: Optional[C5Cone] = None,
                             view: Optional[FloatView] = None) -> SampleReport:
    """Draw k point pairs per radius on every branch combination (same
    branch and cross branch), and measure how far the normalized secant
    directions sit from the nearest cone component.

    Each radius takes consecutive sources into batches of at most
    MAX_SAMPLES samples (one source when k alone reaches it), measured
    column by column (_sample_batch). The smallest radius measures every
    direction against every component, for the per-component minima;
    every other radius only needs its maximum, and _pruned_max drops the
    directions that can no longer raise it, carrying that floor across the
    batches. Both compare totals of squares (_totals), never distances:
    1 - total and sqrt run once per reported figure, a radius's maximum
    or a component's minimum, not once per column (see _sample_batch).
    view, when given, is the float view of c over cone (or over the
    default cone), shared with the witness families; a view of another
    curve's branches raises ValueError, and a component of another
    dimension than c's DimensionMismatch, before any sampling. The report
    equals that of tests/reference_sampler.py bit for bit."""
    radii = check_sampling_parameters(radii, k, len(c.branches))
    check_leading_terms(c, radii[-1])
    if view is None:
        view = FloatView(c.branches, (c5_cone(c) if cone is None else cone).components)
    elif view.branches != c.branches:
        raise ValueError("the float view is of another curve's branches")
    for component in view.components:
        if component.n != c.n:
            raise DimensionMismatch(
                f"a cone component lives in dimension {component.n}, the curve in {c.n}",
                dims=[component.n, c.n],
            )
    rows = [
        tuple(tuple(z.conjugate() for z in row) for row in view.basis(idx))
        for idx in range(len(view.components))
    ]
    held = Counter(row for basis in rows for row in set(basis))
    shared = [row for row, count in held.items() if count > 1]
    terms = [_coordinate_terms(view.terms(i)) for i in range(len(c.branches))]
    r = len(c.branches)
    sources = [(i, i) for i in range(r)] + [
        (i, j) for i in range(r) for j in range(i + 1, r)
    ]
    per_batch = MAX_SAMPLES // k
    per_radius = []
    degenerate_total = 0
    smallest = len(radii) - 1
    # totals at their extremes; _distance turns each into a reported figure
    component_max = [-math.inf] * len(rows)
    for radius_index, radius in enumerate(radii):
        least = 1.0  # at distance 0.0; over the batches of this radius so far
        for first in range(0, len(sources), per_batch):
            batch = [
                (i, j, _derived_rng(seed, source_index, radius_index))
                for source_index, (i, j) in enumerate(
                    sources[first:first + per_batch], first
                )
            ]
            directions, degenerate = _sample_batch(terms, batch, radius, k)
            degenerate_total += degenerate
            if radius_index < smallest:
                least = _pruned_max(rows, directions, least, shared)
            else:
                maxima, farthest = _measured(rows, directions, shared)
                component_max = list(map(max, component_max, maxima))
                least = min(least, farthest)
            del directions  # freed before the next batch is drawn
        per_radius.append((radius, _distance(least)))
    return SampleReport(
        seed=seed,
        prng=PRNG_NAME,
        radii=radii,
        samples_per_radius=k,
        per_radius_max=tuple(per_radius),
        component_min=tuple(map(_distance, component_max)),
        degenerate_count=degenerate_total,
        max_plane_distance=per_radius[-1][1],
    )
