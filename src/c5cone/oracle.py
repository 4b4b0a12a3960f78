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
sampling unrepresentable points.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from itertools import compress, repeat, starmap
from operator import add, attrgetter, lt, mul, not_, sub, truediv
from typing import NamedTuple, Optional

from .auxiliary import characteristic_order, contact_leading
from .c5 import C5Cone, c5_cone
from .errors import (
    DegenerateSecant,
    FloatingPointUnderflow,
    InvalidSamplingParameter,
)
from .geometry import (
    Branch,
    Curve,
    Direction,
    check_tangent_pair,
    component_rows,
    plane_from_vectors,
)
from .scalar import CycloScalar, common_conductor, root_of_unity, to_complex
from .series import Parametrization, substitute_power

DEFAULT_RADII = (1e-2, 1e-3)
DEFAULT_SAMPLES = 200
# Largest sample count per radius. Sampling time grows linearly with it, so
# a larger count could run for hours.
MAX_SAMPLES = 10_000
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


def _residual(unit_vec, basis) -> float:
    total = 0.0
    for b in basis:
        total += abs(sum(bz.conjugate() * vz for bz, vz in zip(b, unit_vec))) ** 2
    return math.sqrt(max(0.0, 1.0 - total))


def component_basis(component):
    """Orthonormal complex basis of a cone component (plane or line)."""
    return _orthonormalize(
        [[to_complex(e) for e in row] for row in component_rows(component)]
    )


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


def _run_family(kind, labels, k, psi1, psi2, group_order, theta, k_theta,
                lam, target_exact, plane, u_values) -> WitnessResult:
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
    theta_c = to_complex(theta)
    lam_c = to_complex(lam)
    c1 = _complex_terms(psi1)
    c2 = _complex_terms(psi2)
    # h(u) = theta*u + c*u^(k-N+1) with c = -lam*theta/N makes the secant
    # direction converge exactly to v_theta + lam*w.
    offset = -lam_c * theta_c / group_order
    power = k_theta - group_order + 1
    target = _orthonormalize([[to_complex(t) for t in target_exact]])
    plane_basis = component_basis(plane)
    target_distances = []
    plane_distances = []
    for u in u_values:
        h = theta_c * u + offset * u**power
        alpha = [
            a - b for a, b in zip(_eval_param(c1, u), _eval_param(c2, h))
        ]
        scale = _norm(alpha)
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


def _pair_family(kind, bi: Branch, bj: Branch, k: int, lam, u_values,
                 plane=None) -> WitnessResult:
    """Secants of the contact difference psi_i(u) - psi_j(theta*u),
    theta = zeta_lcm^k, on the branches rescaled to order lcm; the pair
    (b, b) is the characteristic difference phi(u) - phi(theta*u). The
    target is the leading vector plus lam times psi_i's tangent
    coefficients. plane defaults to the span of tangent_i and the leading
    vector; the non-tangent family spans the two tangents."""
    if not isinstance(lam, CycloScalar):
        lam = CycloScalar.rational(lam)
    lcm = math.lcm(bi.m, bj.m)
    m_theta, leading = contact_leading(bi, bj, k)
    target = [v + lam * s.coefficient(bi.m) for v, s in zip(leading, bi.param.coords)]
    if plane is None:
        second = bj.tangent if kind == "non-tangent" else Direction(leading)
        plane = plane_from_vectors(bi.tangent, second)
    psi1 = substitute_power(bi.param, lcm // bi.m)
    psi2 = psi1 if bj is bi else substitute_power(bj.param, lcm // bj.m)
    theta = root_of_unity(common_conductor(bi.conductor, bj.conductor), lcm, k)
    labels = (bi.label,) if kind == "characteristic" else (bi.label, bj.label)
    return _run_family(
        kind, labels, k, psi1, psi2, lcm, theta, m_theta, lam, target, plane,
        u_values,
    )


def witness_secant_family(b: Branch, k: int, lam=1, u_values=None) -> WitnessResult:
    """Characteristic witness on one branch: secants between phi(u) and
    phi(theta*u - (lam*theta/m)*u^(k_theta-m+1)), theta = zeta_m^k != 1."""
    characteristic_order(b, k)  # raises when theta leaves b invariant
    return _pair_family("characteristic", b, b, k, lam, u_values)


def contact_witness_family(bi: Branch, bj: Branch, k: int, lam=1,
                           u_values=None) -> WitnessResult:
    """Contact witness on a pair, working on the reparametrized branches
    psi_i(u) = phi_i(u^(lcm/m_i))."""
    if bi.tangent == bj.tangent:
        check_tangent_pair(bi, bj)
    return _pair_family("contact", bi, bj, k, lam, u_values)


def diagonal_witness_family(bi: Branch, bj: Branch, u_values=None) -> WitnessResult:
    """Non-tangent pair witness: secants between psi_i(u) and psi_j(u)
    converge to the difference of the two tangent coefficient vectors,
    which lies in the span of the tangents."""
    return _pair_family("non-tangent", bi, bj, 0, 0, u_values)


def cone_witness_results(c: Curve, cone: Optional[C5Cone] = None) -> list:
    """One witness family per cone component, read off the component's
    first provenance descriptor, with the component as its plane."""
    if cone is None:
        cone = c5_cone(c)
    if cone.dimension != 2:
        return []
    by_label = {b.label: b for b in c.branches}
    results = []
    for plane, descriptors in zip(cone.components, cone.provenance):
        kind, labels, k = descriptors[0]
        bi = by_label[labels[0]]
        bj = by_label[labels[-1]]
        if kind == "non-tangent":  # provenance k is -1
            k, lam = 0, 0
        else:
            lam = 1
        results.append(_pair_family(kind, bi, bj, k, lam, None, plane))
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


def _coordinate_terms(p: Parametrization):
    """Per coordinate, the complex coefficients and the exponents of its
    terms, as two tuples."""
    return [
        (tuple(c for _, c in series), tuple(e for e, _ in series))
        for series in _complex_terms(p)
    ]


def _points(radius, a, b):
    """The points radius*(0.5 + 0.5*a)*exp(2j*pi*b) over the columns a, b."""
    return list(map(
        mul,
        map(mul, repeat(radius), map(add, repeat(0.5), map(mul, repeat(0.5), a))),
        map(cmath.exp, map(mul, repeat(_TURN), b)),
    ))


def _values(terms, points):
    """Per coordinate, the column of its series' values at points. Each
    power u**e is taken once per distinct exponent, shared by the
    coordinates."""
    powers = {}
    columns = []
    for coeffs, exps in terms:
        column = None
        for c, e in zip(coeffs, exps):
            if e not in powers:
                powers[e] = list(map(pow, points, repeat(e)))
            products = map(mul, repeat(c), powers[e])
            column = list(products if column is None else map(add, column, products))
        # sum() of no terms is the int 0
        columns.append(repeat(0, len(points)) if column is None else column)
    return columns


def _sample_source(left, right, radius, count, rng):
    """The unit secant directions of count point pairs of one source at one
    radius, as one column per coordinate, and the number of degenerate pairs
    drawn again. left and right are the two branches' _coordinate_terms.

    A batch draws 4*need values in stream order, u then v for each pair, for
    the need directions still missing. A pair whose secant norm falls below
    1e-280 is dropped and counted, and the next batch draws one pair for each
    one dropped, so the directions are those of the first count
    non-degenerate pairs of the stream, as in a loop over the samples.

    Here and in _distances, each float operation of the plain per-sample
    sampler (tests/reference_sampler.py) runs over a whole column, on the
    same operands and in the same order, so the report is the same bit for
    bit. Three steps are left out, each exactly neutral:

    * sum()'s leading int 0 in front of each series and each inner product:
      0 + z differs from z only where z holds a -0.0, and a zero's sign
      never changes a value that reaches abs or hypot, where every series
      value and inner product ends;
    * the 0.0 + in front of each total of squares |<row, d>|**2, which
      is non-negative;
    * max(0.0, x) over a column whose every x is positive: it returns x.
    """
    draw = rng.random
    columns = [[] for _ in left]
    degenerate = 0
    need = count
    while need:
        drawn = list(starmap(draw, repeat((), 4 * need)))
        u = _points(radius, drawn[0::4], drawn[1::4])
        v = _points(radius, drawn[2::4], drawn[3::4])
        deltas = [
            list(map(sub, p, q)) for p, q in zip(_values(left, u), _values(right, v))
        ]
        # hypot scales internally: no square underflows
        parts = (m for z in deltas for m in (map(_REAL, z), map(_IMAG, z)))
        scales = list(map(math.hypot, *parts))
        low = list(map(lt, scales, repeat(1e-280)))
        need = low.count(True)
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
    return columns, degenerate


def _distances(basis, directions):
    """Per direction, its distance sqrt(max(0, 1 - sum |<row, d>|^2)) to
    the component whose orthonormal rows, conjugated, are basis."""
    total = None
    for row in basis:
        inner = None
        for b, column in zip(row, directions):
            products = map(mul, repeat(b), column)
            inner = products if inner is None else list(map(add, inner, products))
        squares = map(pow, map(abs, inner), repeat(2))
        total = squares if total is None else list(map(add, total, squares))
    rest = list(map(sub, repeat(1.0), total))
    if not all(map(lt, repeat(0.0), rest)):
        rest = map(max, repeat(0.0), rest)
    return list(map(math.sqrt, rest))


def _pruned_max(bases, directions, floor):
    """max(floor, the largest distance from a direction to its nearest
    component), scanning the components column by column.

    Before each component after the first, the direction farthest from the
    components scanned so far gets its full minimum, which may raise floor.
    A direction whose best distance so far is within floor can no longer
    raise the maximum and is dropped; the farthest one goes too, its full
    minimum now being part of floor."""
    best = [math.inf] * len(directions[0])
    for idx, basis in enumerate(bases):
        if idx:
            far = best.index(max(best))
            single = [[column[far]] for column in directions]
            best[far] = min(best[far], *(_distances(b, single)[0] for b in bases[idx:]))
            floor = max(floor, best[far])
            keep = list(map(lt, repeat(floor), best))
            best = list(compress(best, keep))
            if not best:
                return floor
            directions = [list(compress(column, keep)) for column in directions]
        best = list(map(min, best, _distances(basis, directions)))
    return max(floor, max(best))


def check_sampling_parameters(radii, k: int) -> tuple:
    """The radii as floats, after checking that they lie in (0, 0.5] and
    strictly decrease and that 1 <= k <= MAX_SAMPLES."""
    radii = tuple(float(r) for r in radii)
    if not radii or any(not 0 < r <= 0.5 for r in radii):
        raise InvalidSamplingParameter(f"radii must lie in (0, 0.5], got {radii}")
    if any(a <= b for a, b in zip(radii, radii[1:])):
        raise InvalidSamplingParameter(f"radii must be strictly decreasing, got {radii}")
    if k < 1:
        raise InvalidSamplingParameter(f"need at least one sample per radius, got {k}")
    if k > MAX_SAMPLES:
        raise InvalidSamplingParameter(
            f"at most {MAX_SAMPLES} samples per radius, got {k}"
        )
    return radii


def sample_secant_directions(c: Curve, radii=DEFAULT_RADII, k: int = DEFAULT_SAMPLES,
                             seed: int = 0, cone: Optional[C5Cone] = None) -> SampleReport:
    """Draw k point pairs per radius on every branch combination (same
    branch and cross branch), and measure how far the normalized secant
    directions sit from the nearest cone component.

    Each (source, radius) is one batch of k samples, measured column by
    column (_sample_source). The smallest radius measures every direction
    against every component, for the per-component minima; every other
    radius only needs its maximum, and _pruned_max drops the directions
    that can no longer raise it, carrying that floor across the sources.
    The report equals that of tests/reference_sampler.py bit for bit."""
    radii = check_sampling_parameters(radii, k)
    for b in c.branches:
        if b.m * math.log10(radii[-1] / 2) < -300:
            raise FloatingPointUnderflow(
                f"branch {b.label} has multiplicity {b.m}; its leading term "
                f"underflows IEEE doubles at radius {radii[-1]}",
                label=b.label, multiplicity=b.m, radius=radii[-1],
            )
    if cone is None:
        cone = c5_cone(c)
    rows = [
        [[z.conjugate() for z in row] for row in component_basis(comp)]
        for comp in cone.components
    ]
    terms = [_coordinate_terms(b.param) for b in c.branches]
    r = len(c.branches)
    sources = [(i, i) for i in range(r)] + [
        (i, j) for i in range(r) for j in range(i + 1, r)
    ]
    per_radius = []
    degenerate_total = 0
    smallest = len(radii) - 1
    component_min = [math.inf] * len(rows)
    for radius_index, radius in enumerate(radii):
        largest = 0.0  # over the sources of this radius so far
        for source_index, (i, j) in enumerate(sources):
            directions, degenerate = _sample_source(
                terms[i], terms[j], radius, k,
                _derived_rng(seed, source_index, radius_index),
            )
            degenerate_total += degenerate
            if radius_index < smallest:
                largest = _pruned_max(rows, directions, largest)
                continue
            columns = [_distances(basis, directions) for basis in rows]
            component_min = list(map(min, component_min, map(min, columns)))
            # each sample's minimum starts from inf, which an empty cone keeps
            nearest = map(min, zip(repeat(math.inf, k), *columns))
            largest = max(largest, max(nearest))
        per_radius.append((radius, largest))
    return SampleReport(
        seed=seed,
        prng=PRNG_NAME,
        radii=radii,
        samples_per_radius=k,
        per_radius_max=tuple(per_radius),
        component_min=tuple(component_min),
        degenerate_count=degenerate_total,
        max_plane_distance=per_radius[-1][1],
    )
