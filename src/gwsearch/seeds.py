"""Seeding: one seed rule, and one master seed fans out to substreams.

The samplers, mu_mc and run_acceptance take their seed by generator(), the
one place that seeds numpy's PCG64: None, a Generator (used as it is) or an
integer >= 0 of any size, Python or numpy; a bool or anything else is refused.

Substream k of master seed m is the splitmix64 output of state
m + (k+1) * 0x9E3779B97F4A7C15 (the 64-bit golden ratio step).  This is the
standard stateless way to derive independent 64-bit seeds, so a sweep can
regenerate run k without replaying runs 0..k-1.  The master's rule is
narrower, [0, 2^64): the state is taken modulo 2^64, so a larger master
would repeat the substreams of a smaller one.
"""

from __future__ import annotations

import numpy as np

from ._checks import require_count, require_integer

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def generator(seed=None) -> np.random.Generator:
    """The Generator for ``seed``: fresh for None, ``seed`` itself if one."""
    if seed is not None and not isinstance(seed, np.random.Generator):
        require_integer("seed", seed)  # first: a str or list would not compare
        require_count("seed", seed, low=0)
    return np.random.default_rng(seed)  # a Generator comes back as it is


def substream(master: int, index: int) -> int:
    """64-bit seed for substream ``index`` >= 0 of ``master``, 0 <= master < 2^64."""
    require_integer("seed", master)  # first, as in generator()
    if not 0 <= master <= _MASK:
        raise ValueError("seed must be in [0, 2**64)")
    require_count("index", index, low=0)
    # numpy integers would overflow in the 64-bit products below
    z = (int(master) + (int(index) + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)
