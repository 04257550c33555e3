"""Sizes, budgets, caps, indices and seeds must be integers: Python or numpy ones."""

import math

import numpy as np
import pytest

from gwsearch import analysis, gwtree, offspring, scheduler, verify
from gwsearch.bdfs import bdfs
from gwsearch.seeds import generator, substream

CAT = offspring.make_builtin("catalan")

# each call passes one non-integer where an integer is needed: a float, a bool,
# a str or a seed object
NON_INTEGER = {
    "run_single": (lambda t: scheduler.run_single(t, 2.5), "budget"),
    "run_adaptive": (lambda t: scheduler.run_adaptive(t, 2.5, 1, 3, 2), "budget"),
    "simulate_parallel": (lambda t: scheduler.simulate_parallel(t, 2.5, 2), "budget"),
    "mu_mc": (lambda t: analysis.mu_mc(CAT, 2.5), "budget"),
    "mu_exact": (lambda t: analysis.mu_exact(CAT, 2.5), "budget"),
    "theorem1_check": (lambda t: analysis.theorem1_check(10, 25, CAT, 2.5), "budget"),
    "theorem1_check n": (lambda t: analysis.theorem1_check(10, 2.5, CAT, 5), "n"),
    "theorem1_check restarts": (
        lambda t: analysis.theorem1_check(2.5, 25, CAT, 5), "restarts"),
    "size_pmf_exact": (lambda t: analysis.size_pmf_exact(CAT, 2.5), "t_max"),
    "size_pmf_rational": (lambda t: analysis.size_pmf_rational(CAT, 2.5), "t_max"),
    "size_pmf_asymptotic": (lambda t: analysis.size_pmf_asymptotic(CAT, 2.5), "n"),
    "enumerate_small_trees": (
        lambda t: analysis.enumerate_small_trees(CAT, 2.5), "n_max"),
    "sample_exact": (lambda t: gwtree.sample_exact(CAT, 25.0, 0), "n"),
    "sample_exact attempts": (
        lambda t: gwtree.sample_exact(CAT, 25, 0, max_attempts=1.5), "max_attempts"),
    "sample_unconditional": (
        lambda t: gwtree.sample_unconditional(CAT, 0, cap=10.5), "cap"),
    "sample_at_least": (lambda t: gwtree.sample_at_least(CAT, 10.5, 0), "n_min"),
    "sample_at_least cap": (
        lambda t: gwtree.sample_at_least(CAT, 10, 0, cap=20.5), "cap"),
    "sample_at_least attempts": (
        lambda t: gwtree.sample_at_least(CAT, 10, 0, max_attempts=1.5), "max_attempts"),
    "adj j": (lambda t: t.adj(0, 2.5), "child index j"),
    "adj v": (lambda t: t.adj(1.0, 1), "vertex"),
    "bdfs budget": (lambda t: bdfs(t.adj, 0, 4, 2.5), "budget"),
    "bdfs max_degree": (lambda t: bdfs(t.adj, 0, 4.5, 3), "max_degree"),
    "substream master": (lambda t: substream(2.5, 0), "seed"),
    "substream index": (lambda t: substream(0, 2.5), "index"),
    "run_acceptance seed": (lambda t: verify.run_acceptance("fast", seed=2.5), "seed"),
    "run_acceptance NaN seed": (
        lambda t: verify.run_acceptance("fast", seed=math.nan), "seed"),
    "run_acceptance Generator seed": (
        lambda t: verify.run_acceptance("fast", seed=np.random.default_rng(1)), "seed"),
    # bools are integers to Python, masks to numpy
    "run_single True": (lambda t: scheduler.run_single(t, True), "budget"),
    "adj True": (lambda t: t.adj(True, 1), "vertex"),
    "substream True": (lambda t: substream(True, 0), "seed"),
    "substream str": (lambda t: substream("7", 0), "seed"),
    "sample_exact True": (lambda t: gwtree.sample_exact(CAT, True, 0), "n"),
}

# the samplers and mu_mc take None, a Generator or an integer >= 0 as seed
SEED_CALLS = {
    "sample_unconditional": lambda seed: gwtree.sample_unconditional(CAT, seed),
    "sample_at_least": lambda seed: gwtree.sample_at_least(CAT, 5, seed),
    "sample_exact": lambda seed: gwtree.sample_exact(CAT, 5, seed),
    "mu_mc": lambda seed: analysis.mu_mc(CAT, 5, 10, seed=seed),
}
NON_INTEGER_SEEDS = {
    "True": True, "2.5": 2.5, "NaN": math.nan, "float64": np.float64(3),
    "str": "7", "list": [1, 2], "SeedSequence": np.random.SeedSequence(1),
    "BitGenerator": np.random.PCG64(1),
}
NON_INTEGER.update({
    f"{call} {kind} seed": (lambda t, c=SEED_CALLS[call], s=bad: c(s), "seed")
    for call in SEED_CALLS for kind, bad in NON_INTEGER_SEEDS.items()})

# each call passes one value below its range, or NaN
OUT_OF_RANGE = {
    "theorem1_check n": (lambda: analysis.theorem1_check(3, 0, CAT, 5), "n must be >= 1"),
    "theorem1_check NaN n": (
        lambda: analysis.theorem1_check(3, math.nan, CAT, 5), "n must be >= 1"),
    "theorem1_check restarts": (
        lambda: analysis.theorem1_check(-1, 25, CAT, 5), "restarts must be >= 0"),
    "theorem1_check NaN restarts": (
        lambda: analysis.theorem1_check(math.nan, 25, CAT, 5), "restarts must be >= 0"),
    "substream index": (lambda: substream(0, -3), "index must be >= 0"),
    "run_acceptance seed": (
        lambda: verify.run_acceptance("fast", seed=-1), "seed must be >= 0"),
}
OUT_OF_RANGE.update({
    f"{call} {kind} seed": (lambda c=SEED_CALLS[call], s=bad: c(s), "seed must be >= 0")
    for call in SEED_CALLS for kind, bad in (("-1", -1), ("int8", np.int8(-2)))})


@pytest.mark.parametrize("case", NON_INTEGER)
def test_non_integer_sizes_and_budgets_rejected(case, tree25):
    call, name = NON_INTEGER[case]
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        call(tree25)


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_counts_rejected(case):
    call, message = OUT_OF_RANGE[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_numpy_integer_sizes_and_budgets_accepted(tree25):
    for kind in (np.int32, np.int64, np.uint16):
        b = kind(13)
        assert scheduler.run_single(tree25, b) == scheduler.run_single(tree25, 13)
        assert scheduler.simulate_parallel(tree25, b, kind(2)) == \
            scheduler.simulate_parallel(tree25, 13, 2)
        assert analysis.mu_exact(CAT, b) == analysis.mu_exact(CAT, 13)
        assert analysis.mu_mc(CAT, b, kind(100), seed=1) == \
            analysis.mu_mc(CAT, 13, 100, seed=1)
        assert tree25.adj(kind(7), kind(5)) == 15
        assert bdfs(tree25.adj, 0, kind(6), b) == bdfs(tree25.adj, 0, 6, 13)
        got, _ = gwtree.sample_at_least(CAT, kind(10), 0, cap=kind(500),
                                        max_attempts=kind(99))
        want, _ = gwtree.sample_at_least(CAT, 10, 0, cap=500, max_attempts=99)
        assert np.array_equal(got.degrees, want.degrees)
        got, _ = gwtree.sample_exact(CAT, kind(25), 0, max_attempts=kind(99))
        want, _ = gwtree.sample_exact(CAT, 25, 0, max_attempts=99)
        assert np.array_equal(got.degrees, want.degrees)
    # values that a numpy integer's own arithmetic would wrap
    big = 10 ** 18
    got = scheduler.simulate_parallel(tree25, 5, np.int64(big))
    assert got == scheduler.simulate_parallel(tree25, 5, big)
    assert got.idle_time == 17999999999999999976
    got = scheduler.simulate_parallel(tree25, 1, 1, restart_cost=np.int64(big))
    assert got == scheduler.simulate_parallel(tree25, 1, 1, restart_cost=big)
    assert got.makespan == 25000000000000000024
    for n_min in (np.int32(25_000_000), 25_000_000):  # the default cap is 100 * n_min
        with pytest.raises(gwtree.AttemptsExhausted, match="after 1 attempts$"):
            gwtree.sample_at_least(CAT, n_min, seed=1, max_attempts=1)
    with pytest.raises(ValueError, match="^workers or restart_cost too large"):
        scheduler.simulate_parallel(tree25, 1, 1, restart_cost=np.float64(1e308))
    for flag in (True, np.True_):  # a bool is no cost, as it is no budget
        with pytest.raises(ValueError, match="^restart_cost must be a number, not a bool$"):
            scheduler.simulate_parallel(tree25, 1, 1, restart_cost=flag)
    got = scheduler.simulate_parallel(tree25, 5, 2, restart_cost=np.float32(0.5))
    assert got == scheduler.simulate_parallel(tree25, 5, 2, restart_cost=0.5)
    assert type(got.restart_cost) is float
    # results carry Python ints, and floats computed from them
    assert type(analysis.theorem1_check(np.int32(5), np.int32(25), CAT, 5).n) is int
    assert type(scheduler.simulate_parallel(tree25, 5, np.int64(2)).workers) is int
    assert type(analysis.mu_mc(CAT, 5, np.int32(100), seed=1).value) is float


def test_numpy_integer_parameters_and_seeds_accepted():
    for kind in (np.int32, np.int64, np.uint16):
        dist = offspring.make_builtin("harmonic", kind(10))
        assert type(dist.param) is int
        assert np.array_equal(dist.pmf, offspring.make_builtin("harmonic", 10).pmf)
        assert substream(kind(5), kind(1)) == substream(5, 1)
        assert analysis.theorem1_check(kind(3), kind(25), CAT, 5) == \
            analysis.theorem1_check(3, 25, CAT, 5)
    assert substream(np.uint64(2 ** 64 - 1), 0) == substream(2 ** 64 - 1, 0)
    with pytest.raises(ValueError, match="^parameter must be an integer$"):
        offspring.make_builtin("harmonic", True)
    with pytest.raises(ValueError, match="^parameter must be >= 0$"):
        offspring.make_builtin("harmonic", -1)


def test_generator_is_the_callers_or_seeded_as_numpy_seeds_it():
    rng = np.random.default_rng(4)
    assert generator(rng) is rng
    for seed in (0, 7, 2 ** 64, 2 ** 200, np.int64(7), np.uint64(2 ** 64 - 1)):
        want = np.random.default_rng(int(seed)).integers(2 ** 62, size=4)
        assert np.array_equal(generator(seed).integers(2 ** 62, size=4), want)
    assert generator().bit_generator.state != generator().bit_generator.state
