"""Argument checks shared by the library's entry points."""

from __future__ import annotations

import numbers


def require_integer(name: str, value) -> None:
    """Raise ValueError("<name> must be an integer") unless value is integral.

    Python and numpy integers pass; floats do not, even integral ones, since
    range() and numpy indexing refuse them.  Callers check the range first,
    so NaN and out-of-range values keep their range messages.
    """
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
