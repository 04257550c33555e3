"""Size law, mu estimators, asymptotics, restart-law report."""

import math
import subprocess
import sys
from fractions import Fraction

import pytest

from gwsearch import analysis, offspring
from gwsearch.analysis import (DP_LIMIT, SizeLaw, enumerate_small_trees,
                               mu_analytic, mu_exact, mu_mc, rational_pmf,
                               size_pmf_asymptotic, size_pmf_exact,
                               size_pmf_rational, tail_asymptotic,
                               theorem1_check)

CATALAN = offspring.make_builtin("catalan")
FULL_BINARY = offspring.make_builtin("full_binary")

# P{N=t} = C(2t, t-1) / (t 4^t) for the catalan law
CATALAN_SIZES = [Fraction(1, 4), Fraction(1, 8), Fraction(5, 64),
                 Fraction(7, 128), Fraction(21, 512)]
# P{N=t} = C(t, (t-1)/2) / (t 2^t) for full binary, odd t only
FULL_BINARY_SIZES = {1: Fraction(1, 2), 3: Fraction(1, 8), 5: Fraction(1, 16),
                     7: Fraction(5, 128), 9: Fraction(7, 256)}


def test_size_pmf_rational_catalan():
    law = size_pmf_rational(CATALAN, 5)
    assert law.pmf[0] == 0
    assert list(law.pmf[1:]) == CATALAN_SIZES
    assert law.tail == 1 - sum(CATALAN_SIZES)


def test_size_pmf_rational_full_binary():
    law = size_pmf_rational(FULL_BINARY, 9)
    for t in range(1, 10):
        assert law.pmf[t] == FULL_BINARY_SIZES.get(t, Fraction(0))
    assert law.tail == 1 - sum(FULL_BINARY_SIZES.values())


def test_size_pmf_float_matches_rational():
    law = size_pmf_exact(CATALAN, 5)
    for t in range(1, 6):
        assert law.pmf[t] == pytest.approx(float(CATALAN_SIZES[t - 1]), abs=1e-15)
    assert law.tail == pytest.approx(float(1 - sum(CATALAN_SIZES)), abs=1e-12)


@pytest.mark.parametrize("spec", ["catalan", "ternary_uniform", "harmonic:3",
                                  "binomial:4"])
def test_size_pmf_newton_matches_rational(spec):
    dist = offspring.parse_spec(spec)
    exact = size_pmf_rational(dist, 300)
    law = size_pmf_exact(dist, 300)
    for t in range(1, 301):
        assert law.pmf[t] == pytest.approx(float(exact.pmf[t]), rel=1e-12, abs=0)


# (spec, b, mu_exact, pmf[b]) from the O(b^2 D) float convolution DP that the
# Newton path replaced
DP_PINS = [("harmonic:10", 10_000, 75.3983895222824, 1.8806115212147313e-07),
           ("geometric", 2000, 50.45949662186937, 3.1545071658265768e-06),
           ("full_binary", 10_001, 158.5888800799222, 7.977050729236306e-07)]


@pytest.mark.parametrize("spec, budget, mu, last", DP_PINS)
def test_size_pmf_matches_convolution_dp(spec, budget, mu, last):
    dist = offspring.parse_spec(spec)
    assert size_pmf_exact(dist, budget).pmf[budget] == pytest.approx(last, rel=1e-10)
    assert mu_exact(dist, budget).value == pytest.approx(mu, rel=1e-10)


def _ternary_uniform_count(t):
    """c_t = [s^(t-1)] (1 + s + s^2)^t = sum_j t! / ((j+1)! j! (t-1-2j)!), so
    that P{N = t} = c_t / (t 3^t) for ternary_uniform (Lagrange inversion)."""
    total = term = t  # j = 0
    for j in range((t - 1) // 2):
        term = term * (t - 1 - 2 * j) * (t - 2 - 2 * j) // ((j + 1) * (j + 2))
        total += term
    return total


def test_ternary_uniform_oracle_matches_rational():
    law = size_pmf_rational(offspring.make_builtin("ternary_uniform"), 12)
    for t in range(1, 13):
        assert law.pmf[t] == Fraction(_ternary_uniform_count(t), t * 3 ** t)


def test_size_pmf_deep_coefficients_match_exact_oracle():
    # the bound was fixed before any rewrite of the Newton path was measured
    # against it; that path's worst error here was 2.0e-12
    law = size_pmf_exact(offspring.make_builtin("ternary_uniform"), 10_000)
    for t in (100, 1001, 5000, 9999, 10_000):
        exact = _ternary_uniform_count(t) / (t * 3 ** t)  # correctly rounded
        assert law.pmf[t] == pytest.approx(exact, rel=1e-10, abs=0)


def test_size_pmf_lattice_and_sign():
    law = size_pmf_exact(FULL_BINARY, 10_000)
    assert all(law.pmf[t] == 0.0 for t in range(0, 10_001, 2))
    assert all(type(x) is float and x >= 0.0 for x in law.pmf)
    assert law.tail == 1.0 - math.fsum(law.pmf)


def test_size_pmf_shortest_series():
    assert size_pmf_exact(CATALAN, 1).pmf == (0.0, 0.25)
    assert size_pmf_exact(CATALAN, 2).pmf == (0.0, 0.25, 0.125)
    assert size_pmf_exact(FULL_BINARY, 2).pmf == (0.0, 0.5, 0.0)
    assert size_pmf_exact(CATALAN, 2).tail == 0.625


def test_size_pmf_subcritical_matches_enumeration():
    dist = offspring.make_custom([0.5, 0.2, 0.2, 0.1], assert_critical=False)
    enum = enumerate_small_trees(dist, 12)
    law = size_pmf_exact(dist, 12)
    for t in range(1, 13):
        assert law.pmf[t] == pytest.approx(enum.pmf[t], rel=1e-13, abs=1e-16)


def test_short_size_laws_leave_numpy_fft_unloaded(child_env):
    code = ("import sys, gwsearch; "
            "gwsearch.mu_exact(gwsearch.parse_spec('ternary_uniform'), 500); "
            "print('numpy.fft' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_library_writes_no_csv(child_env):
    # every CSV is an output of the CLI, which alone imports csv
    code = "import sys, gwsearch; print('csv' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_size_pmf_resource_limits():
    with pytest.raises(ValueError, match="t_max must be >= 1"):
        size_pmf_exact(CATALAN, 0)
    with pytest.raises(ValueError, match="above the convolution limit"):
        size_pmf_exact(CATALAN, DP_LIMIT + 1)
    with pytest.raises(ValueError, match="t_max must be >= 1"):
        size_pmf_rational(CATALAN, 0)
    with pytest.raises(ValueError, match="rational path capped at t_max = 512"):
        size_pmf_rational(CATALAN, 513)
    with pytest.raises(ValueError, match="no exact rational pmf"):
        size_pmf_rational(offspring.make_builtin("geometric"), 5)


def test_size_law_shape_guard():
    with pytest.raises(ValueError, match="t_max \\+ 1 entries"):
        SizeLaw(t_max=2, pmf=(0.0, 0.5), tail=0.5)


def test_rational_pmf_coverage():
    assert rational_pmf(offspring.make_builtin("geometric")) is None
    assert rational_pmf(offspring.make_builtin("poisson")) is None
    assert rational_pmf(offspring.make_custom([0.25, 0.5, 0.25])) is None
    har = rational_pmf(offspring.make_builtin("harmonic", 3))
    assert har == [Fraction(7, 18), Fraction(1, 3), Fraction(1, 6), Fraction(1, 9)]
    assert sum(har) == 1
    assert rational_pmf(offspring.make_builtin("binomial", 2)) == \
        rational_pmf(CATALAN)


def test_enumeration_agrees_with_convolution():
    # independent oracle: brute-force walk of every tree up to 9 nodes
    enum = enumerate_small_trees(CATALAN, 9)
    dp = size_pmf_rational(CATALAN, 9)
    assert enum.pmf == dp.pmf  # exact Fractions on both sides
    geo = offspring.make_builtin("geometric")
    enum_f = enumerate_small_trees(geo, 9)
    dp_f = size_pmf_exact(geo, 9)
    for t in range(1, 10):
        assert abs(enum_f.pmf[t] - dp_f.pmf[t]) <= 1e-12
    with pytest.raises(ValueError, match="n_max must be in 1..12"):
        enumerate_small_trees(CATALAN, 13)


def test_mu_exact_small_budgets():
    assert mu_exact(FULL_BINARY, 2).value == pytest.approx(1.5, abs=1e-12)
    assert mu_exact(FULL_BINARY, 3).value == pytest.approx(2.0, abs=1e-12)
    assert mu_exact(CATALAN, 1).value == pytest.approx(1.0, abs=1e-15)
    assert mu_exact(CATALAN, 13).value == pytest.approx(6.368974924087524, abs=1e-12)
    assert mu_exact(CATALAN, 5).method == "exact-dp"
    with pytest.raises(ValueError, match="budget must be >= 1"):
        mu_exact(CATALAN, 0)


def test_mu_exact_monotone_and_bounded():
    values = [mu_exact(CATALAN, b).value for b in range(1, 31)]
    assert all(b >= v for b, v in enumerate(values, start=1))
    assert values == sorted(values)


def test_mu_analytic():
    assert mu_analytic(8 / math.pi, 1) == 1.0
    assert mu_analytic(1.0, 50) == math.sqrt(400 / math.pi)
    assert mu_analytic(0.5, 100) == pytest.approx(math.sqrt(1600 / math.pi))
    with pytest.raises(ValueError, match="sigma2 must be positive"):
        mu_analytic(0.0, 10)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        mu_analytic(1.0, 0)


def test_mu_mc_matches_exact():
    exact = mu_exact(CATALAN, 10).value
    est = mu_mc(CATALAN, 10, samples=200_000, seed=1)
    assert est.method == "monte-carlo"
    assert est.std_error < 0.01
    assert abs(est.value - exact) <= 3 * est.std_error
    again = mu_mc(CATALAN, 10, samples=200_000, seed=1)
    assert (again.value, again.std_error) == (est.value, est.std_error)


def test_mu_mc_edge_cases():
    est = mu_mc(CATALAN, 5, samples=1, seed=0)
    assert est.std_error is None
    assert est.value == 3.0
    with pytest.raises(ValueError, match="budget must be >= 1"):
        mu_mc(CATALAN, 0)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        mu_mc(CATALAN, 5, samples=0)


def test_nan_arguments_rejected():
    for call, message in ((lambda: mu_mc(CATALAN, math.nan), "budget must be >= 1"),
                          (lambda: mu_mc(CATALAN, 5, samples=math.nan),
                           "samples must be >= 1"),
                          (lambda: mu_exact(CATALAN, math.nan), "budget must be >= 1"),
                          (lambda: mu_analytic(1.0, math.nan), "budget must be >= 1"),
                          (lambda: mu_analytic(math.nan, 10), "sigma2 must be positive"),
                          (lambda: size_pmf_exact(CATALAN, math.nan),
                           "t_max must be >= 1"),
                          (lambda: size_pmf_rational(CATALAN, math.nan),
                           "t_max must be >= 1"),
                          (lambda: size_pmf_asymptotic(CATALAN, math.nan),
                           "n must be >= 1"),
                          (lambda: tail_asymptotic(CATALAN, math.nan), "n must be >= 1"),
                          (lambda: mu_mc(CATALAN, 10, samples=math.inf),
                           "samples must be an integer"),
                          (lambda: mu_mc(CATALAN, 10, samples=2.5),
                           "samples must be an integer")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_size_pmf_asymptotic_ratio():
    for dist in (CATALAN, FULL_BINARY):
        exact = size_pmf_exact(dist, 2001).pmf[2001]
        ratio = exact / size_pmf_asymptotic(dist, 2001)
        assert 0.99 < ratio < 1.01
    with pytest.raises(ValueError, match="sizes are 1 mod 2"):
        size_pmf_asymptotic(FULL_BINARY, 2000)
    with pytest.raises(ValueError, match="n must be >= 1"):
        size_pmf_asymptotic(CATALAN, 0)


def test_tail_asymptotic():
    # sqrt(1/n) scaling: quartering n doubles the tail
    assert tail_asymptotic(CATALAN, 400) == pytest.approx(
        2 * tail_asymptotic(CATALAN, 1600), rel=1e-12)
    for dist in (CATALAN, FULL_BINARY):
        dp_tail = size_pmf_exact(dist, 1000).tail  # P{N > 1000} = P{N >= 1001}
        assert dp_tail / tail_asymptotic(dist, 1001) == pytest.approx(1.0, abs=0.01)
    with pytest.raises(ValueError, match="n must be >= 1"):
        tail_asymptotic(CATALAN, 0)


def test_theorem1_check_fields():
    rep = theorem1_check(5, 25, CATALAN, 13)
    assert (rep.n, rep.budget, rep.restarts) == (25, 13, 5)
    assert rep.sigma == math.sqrt(0.5)
    assert rep.mu_method == "exact-dp"
    assert rep.mu == pytest.approx(6.368974924087524, abs=1e-12)
    assert rep.rho_exact == pytest.approx(5 * rep.mu / 25)
    assert rep.rho_table == pytest.approx(5 / (math.sqrt(0.5) * 25))
    assert rep.estimate == pytest.approx(math.sqrt(math.pi / (8 * 13)))
    assert theorem1_check(0, 1, CATALAN, 5).rho_exact == 0.0  # restarts may be 0


def test_theorem1_check_dispatch(monkeypatch):
    rep = theorem1_check(5, 25, CATALAN, 13, mu_method="exact")
    assert (rep.mu_method, rep.mu) == ("exact-dp", mu_exact(CATALAN, 13).value)
    for method in ("auto", "mc"):
        with pytest.raises(ValueError, match="mu_mc is the Monte Carlo route"):
            theorem1_check(5, 25, CATALAN, 13, mu_method=method)

    def no_series(*args):
        raise AssertionError("size law computed past DP_LIMIT")

    monkeypatch.setattr(analysis, "_progeny_series", no_series)
    with pytest.raises(ValueError, match="above the convolution limit"):
        theorem1_check(1000, 10 ** 6, CATALAN, DP_LIMIT + 1)
