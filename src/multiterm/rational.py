"""Rationals scaled to integers: the one step in front of every integer exact path."""

from math import lcm

import numpy as np


def integer_scaled(values):
    """(integers, scale): `values` (ints or Fractions) times the lcm of their
    denominators; a list of ints comes back as it is, with scale 1."""
    if set(map(type, values)) <= {int}:
        return values, 1
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def int_array(values, bound: int):
    """`values` as int64 when every magnitude they take part in stays below
    `bound` < 2^63, otherwise as Python integers (object dtype)."""
    return np.asarray(values, dtype=np.int64 if bound < 1 << 63 else object)
