"""Argument checks shared by the library's entry points.

Every size, budget, cap and count passes require_count: a value out of range,
NaN included, gets the range message, then a non-integer (2.5 and 25.0 alike)
gets "<name> must be an integer".  Python and numpy integers pass, bools not.
Both checks return the value as a Python int, and the entry points use that
int, so numpy integers of any width give the results a Python int gives.
"""

from __future__ import annotations

import math
import numbers


def require_integer(name: str, value) -> int:
    """value as a Python int; ValueError("<name> must be an integer") if not integral.

    Python and numpy integers pass; floats do not, even integral ones, since
    range() and numpy indexing refuse them; nor do bools, numpy's masks.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    return int(value)


def require_count(name: str, value, low=1, high=math.inf, high_name=None) -> int:
    """value as a Python int, checked to lie in [low, high]: the range comes first.

    Raises ValueError("<name> must be >= <low>"), "<name> must be <= <high>"
    ("<= <high_name> = <high>" for a named bound) or "<name> must be an integer".
    """
    if not value >= low:  # also rejects NaN
        raise ValueError(f"{name} must be >= {low}")
    if value > high:  # also rejects inf under a finite bound
        bound = f"{high_name} = {high}" if high_name else f"{high}"
        raise ValueError(f"{name} must be <= {bound}")
    return require_integer(name, value)
