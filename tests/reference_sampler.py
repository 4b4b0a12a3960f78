"""The straightforward secant sampler, kept as a test oracle.

It draws each point, evaluates every coordinate series term by term, and
measures the normalized secant direction against every cone component
through small helper functions, one call per sample. The engine runs the
same float operations, on the same operands and in the same order, in one
tight loop; the tests compare the two reports with ==. Coefficients and
basis entries reach doubles through reference_complex, the 200-bit route,
so the comparison checks the engine's own conversion too.
"""

import cmath
import math
import random

from c5cone import DegenerateSecant, FloatingPointOverflow, FloatingPointUnderflow, c5_cone
from c5cone.oracle import (
    DEFAULT_RADII,
    DEFAULT_SAMPLES,
    PRNG_NAME,
    SampleReport,
    check_sampling_parameters,
)
from reference_complex import to_complex

_MAX_FLOAT_EXPONENT = 10**300


def _complex_terms(p):
    return [
        [(min(e, _MAX_FLOAT_EXPONENT), to_complex(c)) for e, c in series.terms]
        for series in p.coords
    ]


def _eval_param(cterms, u: complex):
    return [sum(c * u**e for e, c in series) for series in cterms]


def _norm(vec) -> float:
    return math.hypot(*(part for z in vec for part in (z.real, z.imag)))


def _orthonormalize(rows):
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
    if hasattr(component, "basis"):
        rows = [[to_complex(e) for e in row] for row in component.basis]
    else:
        rows = [[to_complex(e) for e in component.vec]]
    return _orthonormalize(rows)


def _derived_rng(seed: int, source_index: int, radius_index: int) -> random.Random:
    mixed = (
        seed * 0x9E3779B97F4A7C15
        + (source_index + 1) * 0xBF58476D1CE4E5B9
        + (radius_index + 1) * 0x94D049BB133111EB
    ) % (1 << 64)
    return random.Random(mixed)


def _draw_point(rng: random.Random, radius: float) -> complex:
    r = radius * (0.5 + 0.5 * rng.random())
    return r * cmath.exp(2j * math.pi * rng.random())


def _sample_source(cterms_i, cterms_j, radius, count, rng, bases):
    max_distance = 0.0
    mins = [math.inf] * len(bases)
    degenerate = 0
    produced = 0
    while produced < count:
        u = _draw_point(rng, radius)
        v = _draw_point(rng, radius)
        p = _eval_param(cterms_i, u)
        q = _eval_param(cterms_j, v)
        delta = [a - b for a, b in zip(p, q)]
        scale = _norm(delta)
        if scale < 1e-280:
            degenerate += 1
            if degenerate > 100 * count:
                raise DegenerateSecant(
                    "persistent numerically equal sample points",
                    radius=radius,
                )
            continue
        if not math.isfinite(scale):
            raise FloatingPointOverflow(
                f"a secant at radius {radius} exceeds IEEE double range",
                radius=radius,
            )
        direction = [z / scale for z in delta]
        best = math.inf
        for idx, basis in enumerate(bases):
            d = _residual(direction, basis)
            if d < mins[idx]:
                mins[idx] = d
            if d < best:
                best = d
        if best > max_distance:
            max_distance = best
        produced += 1
    return max_distance, mins, degenerate


def sample_secant_directions(c, radii=DEFAULT_RADII, k=DEFAULT_SAMPLES, seed=0, cone=None):
    radii = check_sampling_parameters(radii, k, len(c.branches))
    for b in c.branches:
        if b.m * math.log10(radii[-1] / 2) < -300:
            raise FloatingPointUnderflow(
                f"branch {b.label} has multiplicity {b.m}; its leading term "
                f"underflows IEEE doubles at radius {radii[-1]}",
                label=b.label, multiplicity=b.m, radius=radii[-1],
            )
    if cone is None:
        cone = c5_cone(c)
    bases = [component_basis(comp) for comp in cone.components]
    cterms = [_complex_terms(b.param) for b in c.branches]
    r = len(c.branches)
    sources = [(i, i) for i in range(r)] + [
        (i, j) for i in range(r) for j in range(i + 1, r)
    ]
    per_radius = []
    degenerate_total = 0
    for radius_index, radius in enumerate(radii):
        outcomes = [
            _sample_source(
                cterms[i], cterms[j], radius, k,
                _derived_rng(seed, source_index, radius_index), bases,
            )
            for source_index, (i, j) in enumerate(sources)
        ]
        per_radius.append((radius, max(o[0] for o in outcomes)))
        degenerate_total += sum(o[2] for o in outcomes)
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
