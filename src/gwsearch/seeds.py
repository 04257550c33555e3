"""Seeding: one master seed fans out to reproducible substreams.

Substream k of master seed m is the splitmix64 output of state
m + (k+1) * 0x9E3779B97F4A7C15 (the 64-bit golden ratio step).  This is the
standard stateless way to derive independent 64-bit seeds, so a sweep can
regenerate run k without replaying runs 0..k-1.  The master must lie in
[0, 2^64): the state is taken modulo 2^64, so a larger master would repeat
the substreams of a smaller one.  The samplers and mu_mc take a seed, a
numpy Generator or None, and pass it to np.random.default_rng, which returns
a Generator unchanged and seeds a fresh PCG64 from anything else.
"""

from __future__ import annotations

from ._checks import require_count, require_integer

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def substream(master: int, index: int) -> int:
    """64-bit seed for substream ``index`` >= 0 of ``master``, 0 <= master < 2^64."""
    if not 0 <= master <= _MASK:
        raise ValueError("seed must be in [0, 2**64)")
    require_integer("seed", master)
    require_count("index", index, low=0)
    # numpy integers would overflow in the 64-bit products below
    z = (int(master) + (int(index) + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)

