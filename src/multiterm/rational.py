"""Rationals scaled to integers: the one step in front of every integer exact path."""

from math import lcm


def integer_scaled(values):
    """(integers, scale): `values` (ints or Fractions) times the lcm of their
    denominators."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale
