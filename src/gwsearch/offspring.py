"""Offspring distributions for critical Galton-Watson trees.

An offspring law is a pmf (p_0, p_1, ..., p_Delta) on {0..Delta} with
p_0 > 0 and p_1 < 1, so the tree is finite and nontrivial.  Criticality
(mean exactly 1) is asserted by default because every analytic result in
this package (restart-count law, size asymptotics) assumes it; pass
``assert_critical=False`` to make_custom to explore sub/super-critical laws.

Builtin families, all critical:

    catalan          (1/4, 1/2, 1/4)            variance 1/2
    full_binary      (1/2, 0, 1/2)              variance 1,  span 2
    ternary_uniform  (1/3, 1/3, 1/3)            variance 2/3
    harmonic:D       p_i = 1/(i*D), i = 1..D    variance (D-1)/2, D <= 10^6
    geometric        p_i = 2^-(i+1), truncated  variance 2
    poisson          exp(-1)/i!, truncated      variance 1
    binomial:k       Binomial(k, 1/k), k >= 2   variance 1 - 1/k

The unbounded laws (geometric, poisson) are truncated once the tail mass
drops below 1e-13 and renormalized, which moves the mean by < 1e-10 and the
variance by < 1e-9.
The span d = gcd{i > 0 : p_i > 0} controls which tree sizes are reachable
(always n = 1 mod d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._checks import require_count, require_integer

# Unbounded laws are documented as truncated at tail mass < 1e-12; the actual
# cutoff sits a decade inside that bound because at the minimal truncation the
# geometric variance would sit 1.5e-9 from 2, outside the advertised 1e-9.
TRUNCATION_TAIL = 1e-13

# |mean - 1| tolerance: exact families, truncated ones, and custom pmfs
_CRIT_TOL_EXACT = 1e-12
_CRIT_TOL_TRUNCATED = 1e-10
_CRIT_TOL_CUSTOM = 1e-9

# Largest harmonic:D: its pmf builds in under a second, while D = 10^7 takes
# seconds and 650 MB and then fails the criticality test.
HARMONIC_MAX_DEGREE = 10**6

# Offspring draws: buckets of the guide table (a power of two, so scaling a
# uniform or the cdf by it is exact) and uniforms drawn per block.  gwtree
# and mu_mc also work through their per-node arrays DRAW_BLOCK at a time.
GUIDE_SIZE = 1 << 12
DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class OffspringDistribution:
    """Validated offspring pmf with cached moments and span.

    Instances are immutable; construct via make_builtin / make_custom.
    ``name``/``param`` record the builtin recipe (None for custom laws) so
    exact-arithmetic oracles can rebuild the pmf rationally.
    """

    pmf: np.ndarray
    mean: float
    variance: float
    span: int
    name: str | None = None
    param: int | None = None

    @property
    def max_degree(self) -> int:
        return len(self.pmf) - 1

    @cached_property
    def cdf(self) -> np.ndarray:
        c = np.cumsum(self.pmf)
        c[-1] = 1.0  # guard the last bin against float round-off
        return c

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray]:
        """(cdf * GUIDE_SIZE, guide table) for draw.

        Entry j of the table is the number of scaled cdf entries <= j, which
        is the draw for every u * GUIDE_SIZE in [j, j + 1) unless a scaled
        entry lies strictly inside that bucket; such buckets hold -1.
        """
        scaled = self.cdf * GUIDE_SIZE  # a power of two: exact
        edges = np.arange(GUIDE_SIZE + 1, dtype=float)
        at_or_below = np.searchsorted(scaled, edges, side="right")
        table = at_or_below[:-1]
        table[np.searchsorted(scaled, edges[1:], side="left") != table] = -1
        scaled.flags.writeable = False
        table.flags.writeable = False
        return scaled, table

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m i.i.d. offspring counts by inversion of m uniforms from rng.

        Equal, value for value, to
        ``np.searchsorted(self.cdf, rng.random(m), side="right")`` and
        consumes the same m doubles, so every seed gives the same draws.  A
        guide table (Chen and Asau 1974) answers each uniform with one
        lookup; only uniforms in a bucket that holds a cdf breakpoint, about
        max_degree / GUIDE_SIZE of them, are searched.
        """
        if m <= DRAW_BLOCK:  # the common small call: one block, no copy
            return self._invert(rng.random(m))
        out = np.empty(m, dtype=np.intp)
        for start in range(0, m, DRAW_BLOCK):
            block = self._invert(rng.random(min(DRAW_BLOCK, m - start)))
            out[start:start + block.size] = block
        return out

    def _invert(self, u: np.ndarray) -> np.ndarray:
        """Draws for the uniforms u, which are scaled in place."""
        scaled, table = self._guide
        u *= GUIDE_SIZE  # exact, and < GUIDE_SIZE since u < 1
        out = table[u.astype(np.intp)]
        # argmin: a far cheaper call than min() on the many short draws
        if u.size and out[out.argmin()] < 0:  # some u fell in breakpoint buckets
            redo = np.flatnonzero(out < 0)
            out[redo] = np.searchsorted(scaled, u[redo], side="right")
        return out

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self):
        label = self.name or "custom"
        if self.param is not None:
            label += f"({self.param})"
        return (f"OffspringDistribution({label}, max_degree={self.max_degree}, "
                f"mean={self.mean:.6g}, variance={self.variance:.6g}, span={self.span})")


def _moments(pmf: np.ndarray) -> tuple[float, float]:
    i = np.arange(len(pmf), dtype=float)
    mean = float(np.dot(i, pmf))
    var = float(np.dot(i * i, pmf)) - mean * mean
    return mean, var


def _span(pmf: np.ndarray) -> int:
    d = 0
    for i in range(1, len(pmf)):
        if pmf[i] > 0.0:
            d = math.gcd(d, i)
    return d if d > 0 else 1  # no positive support: degenerate single-node law


def _finalize(pmf, name, param, *, assert_critical, crit_tol,
              remedy="spec strings name critical laws only") -> OffspringDistribution:
    """Shared validation path so custom and builtin pmfs get identical treatment.

    remedy ends the message for a non-critical law: what the caller can do.
    """
    arr = np.asarray(pmf, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("pmf must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("pmf entries must be finite and >= 0")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"pmf sums to {total!r}, not within 1e-9 of 1")
    arr = arr / total
    # trim trailing zeros so max_degree is the largest degree with positive mass
    last = int(np.max(np.nonzero(arr)[0]))
    arr = arr[:last + 1]
    if arr[0] <= 0.0:
        raise ValueError("p_0 must be positive (otherwise every tree is infinite)")
    if len(arr) > 1 and arr[1] >= 1.0:
        raise ValueError("p_1 must be < 1 (otherwise the tree is a deterministic path)")
    mean, var = _moments(arr)
    if assert_critical and abs(mean - 1.0) > crit_tol:
        raise ValueError(
            f"offspring mean is {mean!r}, not critical; {remedy}")
    arr.flags.writeable = False
    return OffspringDistribution(pmf=arr, mean=mean, variance=var,
                                 span=_span(arr), name=name, param=param)


def make_custom(pmf, assert_critical: bool = True) -> OffspringDistribution:
    """Build a distribution from an explicit pmf sequence.

    The pmf is renormalized when its sum is within 1e-9 of 1 and rejected
    otherwise.  Criticality (|mean - 1| <= 1e-9) is asserted unless
    assert_critical is False.
    """
    return _finalize(pmf, None, None, assert_critical=assert_critical,
                     crit_tol=_CRIT_TOL_CUSTOM,
                     remedy="pass assert_critical=False to allow sub/super-critical laws")


def _truncate(term) -> list[float]:
    """Accumulate term(i) until the remaining tail mass is below TRUNCATION_TAIL."""
    out = []
    acc = 0.0
    i = 0
    while 1.0 - acc >= TRUNCATION_TAIL:
        p = term(i)
        out.append(p)
        acc += p
        i += 1
        if i > 10_000:
            raise RuntimeError("truncation did not converge")
    return out


def _harmonic_pmf(delta: int) -> list[float]:
    if delta < 2:
        raise ValueError("harmonic family needs max degree >= 2")
    if delta > HARMONIC_MAX_DEGREE:
        raise ValueError(f"harmonic family needs max degree <= {HARMONIC_MAX_DEGREE:,}")
    p = [1.0 / (i * delta) for i in range(1, delta + 1)]
    p0 = 1.0 - math.fsum(p)
    return [p0] + p


def _binomial_pmf(k: int) -> list[float]:
    if k < 2:
        raise ValueError("binomial family needs k >= 2")
    try:
        return [math.comb(k, i) * (1.0 / k) ** i * (1.0 - 1.0 / k) ** (k - i)
                for i in range(k + 1)]
    except OverflowError:  # from k = 1030 on, C(k, k/2) exceeds the float range
        raise ValueError(f"binomial:{k} is too large for float coefficients") from None


# name -> (needs_param, truncated, recipe)
_BUILTINS = {
    "catalan": (False, False, lambda _: [0.25, 0.5, 0.25]),
    "full_binary": (False, False, lambda _: [0.5, 0.0, 0.5]),
    "ternary_uniform": (False, False, lambda _: [1.0 / 3.0] * 3),
    "harmonic": (True, False, _harmonic_pmf),
    "binomial": (True, False, _binomial_pmf),
    "geometric": (False, True, lambda _: _truncate(lambda i: 0.5 ** (i + 1))),
    "poisson": (False, True, lambda _: _truncate(lambda i: math.exp(-1.0) / math.factorial(i))),
}

# the CLI spec-string grammar accepts this alternate name for the harmonic family
_ALIASES = {"paper": "harmonic"}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def make_builtin(name: str, param: int | None = None) -> OffspringDistribution:
    """Build one of the named families listed in the module docstring."""
    key = _ALIASES.get(name, name)
    if key not in _BUILTINS:
        raise ValueError(f"unknown builtin {name!r}; choose from {builtin_names()}")
    needs_param, truncated, recipe = _BUILTINS[key]
    if needs_param and param is None:
        raise ValueError(f"builtin {key!r} requires an integer parameter")
    if not needs_param and param is not None:
        raise ValueError(f"builtin {key!r} takes no parameter")
    if param is not None:
        param = require_integer("parameter", param)  # first: a str would not compare
        require_count("parameter", param, low=0)
    tol = _CRIT_TOL_TRUNCATED if truncated else _CRIT_TOL_EXACT
    return _finalize(recipe(param), key, param, assert_critical=True, crit_tol=tol)


def parse_spec(spec: str) -> OffspringDistribution:
    """Parse a distribution spec string: ``name[:param]`` or ``custom:p0,p1,...``.

    Every spec names a critical law; build others with make_custom.

    Examples: ``catalan``, ``harmonic:10`` (alias ``paper:10``),
    ``binomial:4``, ``custom:0.25,0.5,0.25``.
    """
    name, sep, arg = spec.partition(":")
    name = name.strip()
    if name == "custom":
        if not sep:
            raise ValueError("custom spec needs probabilities: custom:p0,p1,...")
        try:
            probs = [float(tok) for tok in arg.split(",")]
        except ValueError:
            raise ValueError(f"could not parse custom pmf from {arg!r}") from None
        return _finalize(probs, None, None, assert_critical=True, crit_tol=_CRIT_TOL_CUSTOM)
    param = None
    if sep:
        arg = arg.strip(" \t\n\r\v\f")  # ASCII whitespace
        if not (arg.isascii() and arg.isdigit()):  # int() takes "３", "+3", "1_0"
            raise ValueError(f"parameter in {spec!r} must be an integer")
        param = int(arg)
    return make_builtin(name, param)
