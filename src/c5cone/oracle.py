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
from itertools import repeat
from operator import mul
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


def _sample_source(pairs, radius, count, rng, rows, track):
    """Max over count samples of the distance to the nearest component.

    pairs holds the two branches' _coordinate_terms, zipped per coordinate;
    rows holds each component's orthonormal basis rows, conjugated. With
    track, also the per-component minimum distances; without, a sample stops
    scanning at the first component within the running maximum, which it
    can no longer raise.

    The loop runs the float operations of _eval_param, _norm and _residual
    inline, on the same operands in the same order, so the report does not
    depend on how it is organized.
    """
    draw = rng.random
    exp = cmath.exp
    hypot = math.hypot
    sqrt = math.sqrt
    turn = 2j * math.pi
    max_distance = 0.0
    mins = [math.inf] * len(rows)
    degenerate = 0
    produced = 0
    while produced < count:
        u = radius * (0.5 + 0.5 * draw()) * exp(turn * draw())
        v = radius * (0.5 + 0.5 * draw()) * exp(turn * draw())
        us = repeat(u)  # u over and over, to raise to each exponent
        vs = repeat(v)
        delta = []
        parts = []  # hypot scales internally: no square underflows
        for (ci, ei), (cj, ej) in pairs:
            z = (sum(map(mul, ci, map(pow, us, ei)))
                 - sum(map(mul, cj, map(pow, vs, ej))))
            delta.append(z)
            parts.append(z.real)
            parts.append(z.imag)
        scale = hypot(*parts)
        if scale < 1e-280:
            degenerate += 1
            if degenerate > 100 * count:
                raise DegenerateSecant(
                    "persistent numerically equal sample points",
                    radius=radius,
                )
            continue
        produced += 1
        direction = [z / scale for z in delta]
        best = math.inf
        for idx, basis in enumerate(rows):
            total = 0.0
            for row in basis:
                total += abs(sum(map(mul, row, direction))) ** 2
            d = sqrt(max(0.0, 1.0 - total))
            if track:
                if d < mins[idx]:
                    mins[idx] = d
            elif d <= max_distance:
                best = d  # so the sample cannot raise the maximum
                break
            if d < best:
                best = d
        if best > max_distance:
            max_distance = best
    return max_distance, mins, degenerate


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
    directions sit from the nearest cone component."""
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
    pairs = [list(zip(terms[i], terms[j])) for i, j in sources]
    per_radius = []
    degenerate_total = 0
    smallest = len(radii) - 1
    for radius_index, radius in enumerate(radii):
        outcomes = [
            _sample_source(
                source_pairs, radius, k,
                _derived_rng(seed, source_index, radius_index), rows,
                radius_index == smallest,
            )
            for source_index, source_pairs in enumerate(pairs)
        ]
        per_radius.append((radius, max(o[0] for o in outcomes)))
        degenerate_total += sum(o[2] for o in outcomes)
    # outcomes are those of the smallest radius here
    component_min = [min(column) for column in zip(*(o[1] for o in outcomes))]
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
