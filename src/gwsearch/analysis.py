"""Size laws and the restart-count law for critical Galton-Watson trees.

Everything here hangs off two identities for the total progeny N of a
critical law with variance sigma^2 and span d:

  * the progeny generating function T(x) = sum_t P{N = t} x^t solves
    T(x) = x f(T(x)) with f the offspring pgf; Newton iteration on power
    series doubles the number of correct coefficients per step, cost
    O(max_degree * t_max log t_max) with FFT products;
  * E min(N, b) = sum_{t<=b} t P{N = t} + b P{N > b}, which for large b
    behaves like sqrt(8 b / (pi sigma^2)).

A complete budgeted run restarts once per unexplored subtree root, and
R_n / n converges to 1 / E min(N, b), so R_n * mu_b / n -> 1 and the
normalized count R_n / (sigma n) approaches sqrt(pi / (8 b)).
theorem1_check packages those two ratios for a finished run as a
Theorem1Report; the sweep CSV built from it is written by the CLI.

Large-n size asymptotics: P{N = n} ~ d / (sigma sqrt(2 pi) n^{3/2}) on the
lattice n = 1 mod d, and P{N >= n} ~ sqrt(2 / (pi n sigma^2)).

The rational convolution DP (size_pmf_rational) and the brute-force tree
enumeration are independent oracles for the float Newton path
(size_pmf_exact).  The DP uses the hitting-time identity
P{N = t} = P{xi_1 + ... + xi_t = t - 1} / t: it sums walk paths with no
positivity constraint (the 1/t is the cycle-lemma correction); the
enumeration multiplies pmf entries tree by tree.  Both run in exact rational
arithmetic for builtins with rational pmfs, so their agreement can be
asserted with == rather than a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import require_count, require_integer
from .offspring import DRAW_BLOCK, OffspringDistribution
from .seeds import generator

# size-law ceiling of the Newton path (harmonic:10 at 4 * 10^6 takes about 25 s
# and 380 MB); past this only mu_analytic / mu_mc are offered
DP_LIMIT = 4_000_000
_RATIONAL_DP_LIMIT = 512
_MC_CHUNK = 1 << 20  # trees grown per mu_mc batch, one after another; bounds its sums
_ENUMERATION_LIMIT = 12


@dataclass(frozen=True)
class SizeLaw:
    """P{N = t} for t = 1..t_max plus the remaining tail P{N > t_max}.

    pmf[t] indexes by size (pmf[0] is unused and zero); entries are floats
    or Fractions depending on which path produced them.
    """

    t_max: int
    pmf: tuple
    tail: object

    def __post_init__(self):
        if len(self.pmf) != self.t_max + 1:
            raise ValueError("pmf must have t_max + 1 entries (index 0 unused)")


@dataclass(frozen=True)
class MuEstimate:
    """E min(N, b) by one of the three routes (exact-dp, monte-carlo, analytic)."""

    value: float
    method: str
    std_error: float | None = None


@dataclass(frozen=True)
class Theorem1Report:
    """Restart-law diagnostics for one completed run.

    rho_exact = R * mu_b / n should approach 1; rho_table = R / (sigma n)
    should approach estimate = sqrt(pi / (8 b)).
    """

    n: int
    budget: int
    restarts: int
    sigma: float
    mu: float
    mu_method: str
    rho_exact: float
    rho_table: float
    estimate: float


def mu_analytic(sigma2: float, budget: int) -> float:
    """Leading-order E min(N, b) = sqrt(8 b / (pi sigma^2)).

    Takes the offspring variance rather than a distribution: this is the one
    quantity the leading order depends on.
    """
    if not sigma2 > 0:  # also rejects NaN
        raise ValueError("sigma2 must be positive")
    if not budget >= 1:
        raise ValueError("budget must be >= 1")
    return math.sqrt(8.0 * budget / (math.pi * sigma2))


def rational_pmf(dist: OffspringDistribution) -> list | None:
    """Exact rational pmf for builtins that have one, else None."""
    # imported on use, like in the other exact oracles: fractions loads
    # decimal, 0.4 MB of RSS that the float paths never need
    from fractions import Fraction
    name, p = dist.name, dist.param
    if name == "catalan":
        return [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
    if name == "full_binary":
        return [Fraction(1, 2), Fraction(0), Fraction(1, 2)]
    if name == "ternary_uniform":
        return [Fraction(1, 3)] * 3
    if name == "harmonic":
        tail = [Fraction(1, i * p) for i in range(1, p + 1)]
        return [1 - sum(tail)] + tail
    if name == "binomial":
        q = Fraction(1, p)
        return [math.comb(p, i) * q ** i * (1 - q) ** (p - i) for i in range(p + 1)]
    return None


def size_pmf_exact(dist: OffspringDistribution, t_max: int) -> SizeLaw:
    """Exact P{N = t} for t <= t_max, the coefficients of T(x) = x f(T(x)).

    Solves that equation in floats by Newton iteration on power series in
    O(max_degree * t_max log t_max); entries off the lattice t = 1 (mod span)
    are exactly 0.0 and none is negative.  size_pmf_rational is its exact
    oracle.
    """
    require_count("t_max", t_max)
    if t_max > DP_LIMIT:
        raise ValueError(
            f"t_max {t_max} above the convolution limit {DP_LIMIT}; "
            "use mu_analytic or mu_mc at that scale")
    pmf = tuple(_progeny_series(dist.pmf, t_max + 1, dist.span).tolist())
    tail = 1.0 - math.fsum(pmf)
    return SizeLaw(t_max=t_max, pmf=pmf, tail=tail)


def _progeny_series(p, n, span):
    """First n coefficients of T(x) = x f(T(x)), f(s) = sum_k p[k] s^k.

    With T correct below x^m, one Newton step
    T <- T + (x f(T) - T) / (1 - x f'(T)) is correct below x^2m (Brent and
    Kung, J. ACM 1978).  The numerator vanishes below x^m, so the step only
    writes coefficients m..2m-1 and the denominator is needed mod x^m.
    """
    series = np.zeros(1)
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        k = m2 - m
        # f(T) mod x^(m2-1) and f'(T) mod x^k together, by Horner's rule
        f = np.zeros(m2 - 1)
        f[0] = p[-1]
        df = np.zeros(k)
        for pk in p[-2::-1]:
            df = _mul(df, series, k) + f[:k]
            f = _mul(f, series, m2 - 1)
            f[0] += pk
        denominator = np.concatenate(([1.0], -df[:k - 1]))
        step = _mul(f[m - 1:], _reciprocal(denominator, k), k)
        if span > 1:  # sizes off t = 1 (mod span) have probability exactly 0
            step[(np.arange(m, m2) - 1) % span != 0] = 0.0
        np.maximum(step, 0.0, out=step)  # round-off can dip below a true 0
        series = np.concatenate((series, step))
        m = m2
    return series


def _reciprocal(a, n):
    """First n coefficients of 1 / a for a power series with a[0] == 1."""
    r = np.ones(1)
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        error = _mul(a[:k2], r, k2)[k:]  # a r = 1 - error x^k mod x^k2
        r = np.concatenate((r, -_mul(r, error, k2 - k)))
        k = k2
    return r


# np.convolve beats an FFT product until the shorter factor passes about 500
# terms (measured on a 2-core x86_64 VM, numpy 2.4)
_FFT_CUTOFF = 512


def _mul(a, b, n):
    """First n coefficients of the product of the power series a and b."""
    a, b = a[:n], b[:n]
    if min(len(a), len(b)) <= _FFT_CUTOFF:
        return np.convolve(a, b)[:n]
    # imported here: numpy.fft costs 0.4 MB of RSS that short products never need
    from numpy import fft
    size = _fft_size(len(a) + len(b) - 1)
    return fft.irfft(fft.rfft(a, size) * fft.rfft(b, size), size)[:n]


def _fft_size(k):
    """Smallest 2^i or 3 * 2^i that is >= k; FFTs of those lengths are fast."""
    return min(1 << (k - 1).bit_length(), 3 << ((k - 1) // 3).bit_length())


def size_pmf_rational(dist: OffspringDistribution, t_max: int) -> SizeLaw:
    """Exact rational P{N = t} for t <= t_max by the truncated convolution DP.

    Runs in integers over a common denominator; builtins with rational pmfs
    only, t_max <= 512.  The oracle for size_pmf_exact.
    """
    require_count("t_max", t_max)
    if t_max > _RATIONAL_DP_LIMIT:
        raise ValueError(f"rational path capped at t_max = {_RATIONAL_DP_LIMIT}")
    p = rational_pmf(dist)
    if p is None:
        raise ValueError(f"no exact rational pmf for {dist!r}; use the float path")
    from fractions import Fraction
    # P{xi_1 + ... + xi_t = s} = conv[s] / q^t in integers: no step pays for a gcd
    q = math.lcm(*(pk.denominator for pk in p))
    support = [(k, int(pk * q)) for k, pk in enumerate(p) if pk]
    conv = [1] + [0] * (t_max - 1)
    pmf = [Fraction(0)] * (t_max + 1)
    for t in range(1, t_max + 1):
        nxt = [0] * t_max
        for k, ak in support:
            for s in range(k, t_max):
                nxt[s] += conv[s - k] * ak
        conv = nxt
        pmf[t] = Fraction(conv[t - 1], t * q ** t)
    tail = 1 - sum(pmf)
    return SizeLaw(t_max=t_max, pmf=tuple(pmf), tail=tail)


def mu_exact(dist: OffspringDistribution, budget: int) -> MuEstimate:
    """E min(N, b) from the exact size law: sum_{t<=b} t P{N=t} + b P{N>b}."""
    require_count("budget", budget)
    law = size_pmf_exact(dist, budget)
    value = math.fsum(t * law.pmf[t] for t in range(1, budget + 1)) + budget * law.tail
    return MuEstimate(value=value, method="exact-dp")


def mu_mc(dist: OffspringDistribution, budget: int, samples: int = 1_000_000,
          seed=None) -> MuEstimate:
    """Monte Carlo E min(N, b): grow each tree at most b nodes, vectorized.

    All live trees advance one node per step, so a batch costs b draws in
    the worst case but only sum(min(N_i, b)) draws in total.  Returns the
    sample mean with its standard error.  The sums of min(N_i, b) and of its
    square are exact Python ints, so the mean is correctly rounded at any
    sample count.
    """
    require_count("budget", budget)
    require_count("samples", samples)  # it feeds range
    rng = generator(seed)
    total = total_sq = 0
    for start in range(0, samples, _MC_CHUNK):
        s, sq = _min_size_batch(dist, budget, min(_MC_CHUNK, samples - start), rng)
        total += s
        total_sq += sq
    mean = total / samples
    if samples == 1:
        return MuEstimate(value=mean, method="monte-carlo", std_error=None)
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return MuEstimate(value=mean, method="monte-carlo",
                      std_error=math.sqrt(var / samples))


def _min_size_batch(dist, budget, m, rng):
    """Sum of min(N_i, b) and of its square over m fresh trees, as ints.

    A live tree is kept as 1 + the sum of its draws so far, which is t when
    it closes at step t (its open branches are that sum minus t).  Each step
    draws, adds, tests and compacts the live trees one DRAW_BLOCK slice at a
    time, writing the kept sums forward in place in their order, so each
    tree reads the same uniforms at every step as one draw of all the live
    trees would give it (such a draw is made of the same slices in order).
    A tree that closes at step t <= b adds t, and every tree still open
    after step b adds b.  So the batch holds its sums (4 bytes a tree) and
    one slice of temporaries: a peak of 5.6 bytes per sample at 10^6
    samples (tracemalloc).  The sums stay below 1 + budget * max_degree,
    which int32 holds unless budget * max_degree reaches 2^31.
    """
    sum_type = np.int32 if budget * len(dist.pmf) < 2 ** 31 else np.int64
    sums = np.ones(m, dtype=sum_type)
    mask = np.empty(min(m, DRAW_BLOCK), dtype=bool)
    total = total_sq = 0
    live = m
    for t in range(1, budget + 1):
        kept = 0
        for lo in range(0, live, DRAW_BLOCK):
            block = sums[lo:min(lo + DRAW_BLOCK, live)]
            block += dist.draw(rng, block.size)
            keep = np.not_equal(block, t, out=mask[:block.size])
            k = int(np.count_nonzero(keep))
            sums[kept:kept + k] = block[keep]
            kept += k
        closed = live - kept
        total += t * closed
        total_sq += t * t * closed
        live = kept
        if live == 0:
            return total, total_sq
    return total + budget * live, total_sq + budget * budget * live


def size_pmf_asymptotic(dist: OffspringDistribution, n: int) -> float:
    """Local limit d / (sigma sqrt(2 pi) n^(3/2)); only sizes 1 mod d exist."""
    require_count("n", n)
    if (n - 1) % dist.span != 0:
        raise ValueError(f"P{{N={n}}} = 0: sizes are 1 mod {dist.span}")
    return dist.span / (dist.sigma * math.sqrt(2.0 * math.pi) * n ** 1.5)


def tail_asymptotic(dist: OffspringDistribution, n: int) -> float:
    """Tail estimate P{N >= n} ~ sqrt(2 / (pi n sigma^2))."""
    if not n >= 1:  # also rejects NaN
        raise ValueError("n must be >= 1")
    return math.sqrt(2.0 / (math.pi * n * dist.variance))


def theorem1_check(restarts: int, n: int, dist: OffspringDistribution, budget: int,
                   mu_method: str = "exact") -> Theorem1Report:
    """Package the two restart-law ratios for a finished run.

    mu_b always comes from the exact size law (mu_exact), so budgets above
    DP_LIMIT raise; mu_mc and mu_analytic remain for those.  mu_method takes
    only "exact": it stays so that callers which name the route keep working.
    """
    if mu_method != "exact":
        raise ValueError("mu_method must be 'exact'; mu_mc is the Monte Carlo route")
    require_count("restarts", restarts, low=0)
    require_count("n", n)
    est = mu_exact(dist, budget)
    sigma = dist.sigma
    return Theorem1Report(
        n=n, budget=budget, restarts=restarts, sigma=sigma,
        mu=est.value, mu_method=est.method,
        rho_exact=restarts * est.value / n,
        rho_table=restarts / (sigma * n),
        estimate=math.sqrt(math.pi / (8.0 * budget)))


def enumerate_small_trees(dist: OffspringDistribution, n_max: int) -> SizeLaw:
    """Brute-force size law: walk every ordered tree with at most n_max nodes.

    Recursion over preorder degree choices, pruning branches that cannot
    close within n_max nodes; each completed tree contributes the product of
    its degree probabilities.  Independent of the convolution DP (their
    agreement is the hitting-time identity, not a shared code path).  Exact
    rational arithmetic whenever the builtin has a rational pmf.
    """
    if not 1 <= n_max <= _ENUMERATION_LIMIT:
        raise ValueError(f"n_max must be in 1..{_ENUMERATION_LIMIT} "
                         "(tree count grows like 4^n)")
    require_integer("n_max", n_max)
    p = rational_pmf(dist)
    if p is None:
        p = [float(x) for x in dist.pmf]
        one, zero = 1.0, 0.0
    else:
        from fractions import Fraction
        one, zero = Fraction(1), Fraction(0)
    support = [(k, pk) for k, pk in enumerate(p) if pk]
    totals = [zero] * (n_max + 1)

    def grow(nodes, open_branches, prob):
        if open_branches == 0:
            totals[nodes] += prob
            return
        if nodes + open_branches > n_max:  # cannot close in time
            return
        for k, pk in support:
            grow(nodes + 1, open_branches + k - 1, prob * pk)

    grow(0, 1, one)
    tail = one - sum(totals)
    return SizeLaw(t_max=n_max, pmf=tuple(totals), tail=tail)

