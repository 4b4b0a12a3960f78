"""The 200-bit conversion to doubles, kept as a test oracle.

Every value, rational or not, is summed term by term through mpmath at 200
bits and rounded once; the engine's to_complex must return the same double
for every value, and the reference sampler converts through this function.
"""

from fractions import Fraction

import mpmath


def _rounded(x) -> float:
    """The mpf x rounded once to a double: its exact value man * 2**exp
    as a Fraction, which float() rounds correctly, subnormals included
    (mpmath's own float() rounds to 53 bits first, and again below
    2**-1022)."""
    sign, man, exp, _ = x._mpf_  # x = (-1)**sign * man * 2**exp
    return float((-1) ** sign * Fraction(man) * Fraction(2) ** exp)


def to_complex(a) -> complex:
    """Numeric value of a, correctly rounded to a double.

    Evaluated at 200 bits through mpmath before the final rounding, so the
    only error is the unavoidable double-precision representation of the
    exact value.
    """
    with mpmath.workprec(200):
        total = mpmath.mpc(0)
        N = a.conductor
        for j, c in a.terms():
            q = mpmath.mpf(c.numerator) / c.denominator
            total += q * mpmath.expjpi(mpmath.mpf(2 * j) / N)
        return complex(_rounded(total.real), _rounded(total.imag))
