"""Argument checks shared by the library's entry points.

Every size, budget, cap and count passes require_count: a value out of range,
NaN included, gets the range message, then a non-integer (2.5 and 25.0 alike)
gets "<name> must be an integer".  Python and numpy integers pass, bools not.
"""

from __future__ import annotations

import math
import numbers


def require_integer(name: str, value) -> None:
    """Raise ValueError("<name> must be an integer") unless value is integral.

    Python and numpy integers pass; floats do not, even integral ones, since
    range() and numpy indexing refuse them; nor do bools, numpy's masks.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")


def require_count(name: str, value, low=1, high=math.inf, high_name=None) -> None:
    """Check that value is an integer in [low, high]: the range comes first.

    Raises ValueError("<name> must be >= <low>"), "<name> must be <= <high>"
    ("<= <high_name> = <high>" for a named bound) or "<name> must be an integer".
    """
    if not value >= low:  # also rejects NaN
        raise ValueError(f"{name} must be >= {low}")
    if value > high:  # also rejects inf under a finite bound
        bound = f"{high_name} = {high}" if high_name else f"{high}"
        raise ValueError(f"{name} must be <= {bound}")
    require_integer(name, value)
