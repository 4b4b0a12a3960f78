"""Reference work that puts every timing on one fixed scale.

The speed of a shared machine can halve and recover within seconds, for
spans of a tenth of a second up to several seconds, while nothing inside
the benchmark's process changes. A plain wall-clock time then measures the
neighbours as much as the engine. So every timed op is followed at once by
reference work for a fixed share of the op's time, and the op's time is
divided by the mean time of one unit of reference work in that share, then
multiplied by REFERENCE_S. The result reads as the op's time on a machine
where one unit of reference work takes REFERENCE_S: a slow phase that
slows the op slows its reference work alike and cancels out.

The reference work is fixed pure-Python code that exercises what the engine
spends its time on: dense products of Fraction polynomials reduced modulo a
monic polynomial, tuples built from the results, and dict lookups. It does
not call the engine, so a change to the engine never changes the scale.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.001  # one unit of reference work on the nominal machine
SHARE = 0.5  # reference work after an op, as a share of the op's time
MIN_UNITS = 5  # reference work after an op, at least

_MODULUS = [Fraction(c) for c in (1, -1, 0, 1, -1, 0, 1, -1, 1)]  # monic, degree 8
_A = [Fraction(i % 5 - 2, i % 3 + 1) for i in range(8)]
_B = [Fraction(3 - i % 4, i % 7 + 2) for i in range(8)]


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    d = len(_MODULUS) - 1
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            for j in range(d + 1):
                out[k - d + j] -= c * _MODULUS[j]
    return out[:d]


def unit() -> dict:
    """One unit of reference work (about a millisecond); the same inputs
    every time, so every unit does the same work."""
    x = _mul(_mul(_A, _B), _A)
    return {tuple(x): len(x)}


def scale(elapsed: float) -> float:
    """Run reference work for SHARE * elapsed seconds (at least MIN_UNITS
    units) and return the factor that turns elapsed seconds into reference
    seconds."""
    budget = SHARE * elapsed
    units = 0
    start = time.perf_counter()
    while True:
        unit()
        units += 1
        spent = time.perf_counter() - start
        if units >= MIN_UNITS and spent >= budget:
            return REFERENCE_S * units / spent
