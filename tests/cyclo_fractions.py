"""The tests' one route from rational coordinates to a CycloNum, whose
constructor takes integer numerators over a common denominator."""

from fractions import Fraction
from math import lcm

from kleinepw.cyclo import CycloNum


def cyclo_from_fractions(n, coeffs):
    """The element of conductor n with power-basis coordinates coeffs."""
    fracs = [Fraction(c) for c in coeffs]
    den = lcm(*(f.denominator for f in fracs))
    return CycloNum(n, [int(f * den) for f in fracs], den)
