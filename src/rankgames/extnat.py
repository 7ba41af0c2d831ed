"""Naturals extended with an absorbing infinity.

Play costs range over the non-negative integers plus ``INF``.  ``INF`` is
Python's float infinity, held as one module-level object: every producer
returns this object, and :func:`check_extnat` maps any float infinity to
it.  It compares strictly above every int, is a fixed point of max, and
renders as ``inf``.  Finite costs are ints.
"""

from __future__ import annotations

from typing import Union

from .errors import InputError

INF = float("inf")

ExtNat = Union[int, float]


def is_finite(value: ExtNat) -> bool:
    return isinstance(value, int)


def check_extnat(value: ExtNat, what: str = "value") -> ExtNat:
    """Reject anything that is not a non-negative int or ``INF``."""
    if isinstance(value, float) and value == INF:
        return INF
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise InputError(f"{what} must be a non-negative integer or INF, got {value!r}")
