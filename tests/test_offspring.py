"""Offspring law construction: moments, span, truncation, spec parsing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gwsearch import offspring


def test_catalan_moments():
    d = offspring.make_builtin("catalan")
    assert np.array_equal(d.pmf, [0.25, 0.5, 0.25])
    assert d.mean == 1.0
    assert d.variance == 0.5
    assert d.sigma == math.sqrt(0.5)
    assert d.span == 1
    assert d.max_degree == 2


def test_full_binary_moments():
    d = offspring.make_builtin("full_binary")
    assert np.array_equal(d.pmf, [0.5, 0.0, 0.5])
    assert d.mean == 1.0
    assert d.variance == 1.0
    assert d.span == 2  # only even positive degrees, sizes are odd


def test_ternary_uniform_family():
    t = offspring.make_builtin("ternary_uniform")
    assert np.array_equal(t.pmf, [1.0 / 3.0] * 3)
    assert t.variance == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert t.span == 1


def test_uniform_builtin_removed():
    # uniform:k was critical only at k = 2, which is ternary_uniform
    for call in (lambda: offspring.make_builtin("uniform", 2),
                 lambda: offspring.parse_spec("uniform:2")):
        with pytest.raises(ValueError, match="unknown builtin 'uniform'"):
            call()


def test_harmonic_family():
    # p_i = 1/(i*D) for i=1..D gives mean 1 and variance (D-1)/2 exactly
    for delta in (2, 3, 10):
        d = offspring.make_builtin("harmonic", delta)
        assert d.max_degree == delta
        assert d.mean == pytest.approx(1.0, abs=1e-12)
        assert d.variance == pytest.approx((delta - 1) / 2.0, abs=1e-12)
        assert d.pmf[1] == pytest.approx(1.0 / delta, abs=1e-15)
    with pytest.raises(ValueError, match="max degree >= 2"):
        offspring.make_builtin("harmonic", 1)


def test_paper_alias():
    a = offspring.parse_spec("paper:10")
    b = offspring.parse_spec("harmonic:10")
    assert np.array_equal(a.pmf, b.pmf)
    assert a.variance == pytest.approx(4.5, abs=1e-12)


def test_binomial_moments():
    d = offspring.make_builtin("binomial", 4)
    # Binomial(4, 1/4): mean 1, variance 1 - 1/4
    assert d.mean == pytest.approx(1.0, abs=1e-12)
    assert d.variance == pytest.approx(0.75, abs=1e-12)
    assert d.max_degree == 4
    # Binomial(2, 1/2) is the catalan law
    assert np.allclose(offspring.make_builtin("binomial", 2).pmf,
                       offspring.make_builtin("catalan").pmf, atol=1e-15)
    with pytest.raises(ValueError, match="k >= 2"):
        offspring.make_builtin("binomial", 1)
    assert offspring.make_builtin("binomial", 1029).mean == pytest.approx(1.0)
    with pytest.raises(ValueError, match="binomial:1030 is too large"):
        offspring.make_builtin("binomial", 1030)


def test_geometric_truncation_against_rational_oracle():
    d = offspring.make_builtin("geometric")
    # terms 2^-(i+1) are collected while tail 2^-(i+1) >= 1e-13, so the
    # support ends at the first degree with 2^-(i+2) < 1e-13
    assert d.max_degree == 43
    exact = [Fraction(1, 2 ** (i + 1)) for i in range(d.max_degree + 1)]
    total = sum(exact)
    mean = sum(i * p for i, p in enumerate(exact)) / total
    second = sum(i * i * p for i, p in enumerate(exact)) / total
    var = second - mean * mean
    assert d.mean == pytest.approx(float(mean), abs=1e-15)
    assert d.variance == pytest.approx(float(var), abs=1e-12)
    # advertised truncation quality
    assert abs(d.mean - 1.0) < 1e-10
    assert abs(d.variance - 2.0) < 1e-9
    assert d.span == 1


def test_poisson_truncation():
    d = offspring.make_builtin("poisson")
    assert abs(d.mean - 1.0) < 1e-10
    assert abs(d.variance - 1.0) < 1e-9
    assert d.max_degree >= 12
    assert d.pmf[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_make_custom_matches_builtin_bits():
    d = offspring.make_custom([0.25, 0.5, 0.25])
    c = offspring.make_builtin("catalan")
    assert d.pmf.tobytes() == c.pmf.tobytes()
    assert (d.mean, d.variance, d.span) == (c.mean, c.variance, c.span)
    assert d.name is None and c.name == "catalan"


def test_custom_validation():
    with pytest.raises(ValueError, match="not critical"):
        offspring.make_custom([0.5, 0.5])
    sub = offspring.make_custom([0.5, 0.5], assert_critical=False)
    assert sub.mean == 0.5
    with pytest.raises(ValueError, match="p_0 must be positive"):
        offspring.make_custom([0.0, 0.5, 0.5], assert_critical=False)
    with pytest.raises(ValueError, match="p_0 must be positive"):
        offspring.make_custom([0.0, 1.0], assert_critical=False)
    with pytest.raises(ValueError, match="sums to"):
        offspring.make_custom([0.25, 0.5, 0.5])
    with pytest.raises(ValueError, match="finite"):
        offspring.make_custom([0.25, 0.5, -0.25, 0.5])
    with pytest.raises(ValueError, match="non-empty"):
        offspring.make_custom([])


def test_trailing_zeros_trimmed():
    d = offspring.make_custom([0.25, 0.5, 0.25, 0.0, 0.0])
    assert d.max_degree == 2
    assert len(d.pmf) == 3


def test_pmf_is_readonly_and_cdf_closes():
    d = offspring.make_builtin("geometric")
    assert not d.pmf.flags.writeable
    assert d.cdf[-1] == 1.0
    assert np.all(np.diff(d.cdf) >= 0)


def test_parse_spec():
    assert offspring.parse_spec("catalan").name == "catalan"
    assert offspring.parse_spec("harmonic:3").param == 3
    custom = offspring.parse_spec("custom:0.25,0.5,0.25")
    assert np.array_equal(custom.pmf, [0.25, 0.5, 0.25])
    with pytest.raises(ValueError, match="unknown builtin"):
        offspring.parse_spec("cayley")
    with pytest.raises(ValueError, match="requires an integer parameter"):
        offspring.parse_spec("harmonic")
    with pytest.raises(ValueError, match="takes no parameter"):
        offspring.parse_spec("catalan:3")
    with pytest.raises(ValueError, match="must be an integer"):
        offspring.parse_spec("harmonic:x")
    assert offspring.parse_spec("harmonic: 3\t").param == 3
    with pytest.raises(ValueError, match="could not parse"):
        offspring.parse_spec("custom:a,b")
    with pytest.raises(ValueError, match="needs probabilities"):
        offspring.parse_spec("custom")


@pytest.mark.parametrize("param", ["\uff13", "\u0663", "\u00b3", "+3", "-3", "1_0",
                                   "3.0", "", "\u00a03"])
def test_parse_spec_parameter_is_ascii_digits(param):
    # int() takes the fullwidth and Arabic-Indic digits, a sign and underscores
    with pytest.raises(ValueError, match="parameter in .* must be an integer"):
        offspring.parse_spec(f"harmonic:{param}")


def test_builtin_names_listed():
    names = offspring.builtin_names()
    assert "catalan" in names and "harmonic" in names and "ternary_uniform" in names
    assert "uniform" not in names
    assert names == sorted(names)
