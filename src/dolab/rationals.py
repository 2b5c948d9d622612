"""Exact-rational helpers: canonical "num/den" serialization and the one
int scaling of the exact kernels.

All arithmetic in the package is exact (fractions.Fraction at the API);
floats never enter any certification path.  Rationals are serialized as
"num/den" with an explicit denominator so files round-trip bit-exactly.
as_ints puts a rational vector on ints over the lcm of its denominators;
the LP tableau rows, the POSG int tables and the best-response weights are
all built with it.
"""

from fractions import Fraction
from math import gcd


def fmt(q: Fraction) -> str:
    """Serialize a rational as "num/den" (denominator always explicit)."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse(text: str) -> Fraction:
    """Parse a "num/den" string produced by fmt()."""
    num, _, den = text.partition("/")
    if not den:
        raise ValueError(f"not a num/den rational: {text!r}")
    return Fraction(int(num), int(den))


def as_ints(values):
    """A sequence of ints or Fractions as (ints, den), with
    ints[i] / den == values[i] and den > 0 the lcm of their denominators."""
    den = 1
    for v in values:
        d = v.denominator
        if den % d:
            den = den // gcd(den, d) * d
    return [v.numerator * (den // v.denominator) for v in values], den
