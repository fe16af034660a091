"""Small prime-field helpers: vectors as base-q encoded ints, dense matrices.

Only what the hash ensembles need; q must be prime so every nonzero scalar
is invertible.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConfigurationError


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def require_prime(q: int):
    if not is_prime(q):
        raise ConfigurationError("field size %d is not prime" % q)


def encode(vector: Sequence[int], q: int) -> int:
    """Base-q integer for a vector, most significant coordinate first."""
    value = 0
    for v in vector:
        value = value * q + (v % q)
    return value


def decode(value: int, q: int, length: int) -> tuple:
    digits = []
    for _ in range(length):
        digits.append(value % q)
        value //= q
    return tuple(reversed(digits))


def matvec(rows: Sequence[Sequence[int]], vector: Sequence[int], q: int) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, vector)) % q for row in rows)


def add(u: Sequence[int], v: Sequence[int], q: int) -> tuple:
    return tuple((a + b) % q for a, b in zip(u, v))
