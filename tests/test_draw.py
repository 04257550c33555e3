"""The guide-table offspring draw: exact inversion, and frozen sampler outputs."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwsearch import analysis, gwtree, offspring
from gwsearch.offspring import DRAW_BLOCK, GUIDE_SIZE


def reference(dist, rng, m):
    """The plain inverse-cdf draw that dist.draw must reproduce."""
    return np.searchsorted(dist.cdf, rng.random(m), side="right")


def assert_draw_exact(dist, seed, m):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = dist.draw(ours, m), reference(dist, theirs, m)
    assert got.dtype == want.dtype == np.intp
    assert np.array_equal(got, want)
    assert ours.bit_generator.state == theirs.bit_generator.state


BUILTINS = ["catalan", "full_binary", "ternary_uniform", "harmonic:2",
            "harmonic:10", "harmonic:300", "geometric", "poisson", "binomial:2",
            "binomial:1000"]

# custom laws: breakpoints on bucket edges (dyadic masses), masses below
# 1/GUIDE_SIZE, several breakpoints in one bucket, and support up to 1000
DYADIC = [0.5, 0.125, 0.0625, 0.3125]  # every breakpoint a multiple of 1/16
TINY = [0.5 - 3e-5, 1e-5, 1e-5, 0.0, 1e-5, 0.5]
CROWDED = [0.25] + [0.5 / 200] * 200 + [0.25]
LONG = [0.999] + [0.001 / 1000] * 1000


@st.composite
def laws(draw):
    kind = draw(st.sampled_from(["builtin", "dyadic", "fine", "random"]))
    if kind == "builtin":
        return offspring.parse_spec(draw(st.sampled_from(BUILTINS)))
    if kind == "dyadic":  # masses k / GUIDE_SIZE put breakpoints on bucket edges
        k = draw(st.lists(st.integers(0, 64), min_size=1, max_size=40))
        total = sum(k) + 1
        pmf = [1 / total] + [x / total for x in k]
        pmf = [x * GUIDE_SIZE // 1 / GUIDE_SIZE for x in pmf]
        pmf[0] += 1.0 - sum(pmf)
    elif kind == "fine":  # masses well below 1 / GUIDE_SIZE
        k = draw(st.integers(1, 1000))
        pmf = [0.5] + [0.5 / k] * k
    else:
        pmf = draw(st.lists(st.floats(0, 1), min_size=1, max_size=1000)
                   .filter(lambda p: sum(p) > 0))
        pmf = [max(pmf[0], 1e-3)] + pmf[1:]
        pmf = [x / sum(pmf) for x in pmf]
    return offspring.make_custom(pmf, assert_critical=False)


@given(dist=laws(), seed=st.integers(0, 2**32 - 1),
       m=st.sampled_from([0, 1, 31, DRAW_BLOCK + 1]))
@settings(max_examples=60, deadline=None)
def test_draw_equals_searchsorted(dist, seed, m):
    assert_draw_exact(dist, seed, m)


@pytest.mark.parametrize("pmf", [DYADIC, TINY, CROWDED, LONG],
                         ids=["dyadic", "tiny", "crowded", "long"])
def test_draw_custom_laws(pmf):
    dist = offspring.make_custom(pmf, assert_critical=False)
    for m in (0, 1, 31, DRAW_BLOCK + 1, 3 * DRAW_BLOCK):
        assert_draw_exact(dist, 7, m)


class FixedUniforms:
    """A stand-in generator whose random(m) hands out the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def random(self, m):
        out = self.values[self.used:self.used + m].copy()
        self.used += m
        return out


@pytest.mark.parametrize("spec", BUILTINS + ["custom:" + ",".join(map(str, DYADIC))])
def test_draw_at_breakpoints_and_bucket_edges(spec):
    # DYADIC is not critical, so only make_custom builds it
    dist = (offspring.make_custom(DYADIC, assert_critical=False)
            if spec.startswith("custom:") else offspring.parse_spec(spec))
    points = np.concatenate([dist.cdf, np.arange(GUIDE_SIZE) / GUIDE_SIZE])
    u = np.concatenate([points, np.nextafter(points, 0), np.nextafter(points, 1)])
    u = u[(u >= 0) & (u < 1)]  # the range of Generator.random
    fixed = FixedUniforms(u)
    got = dist.draw(fixed, u.size)
    assert fixed.used == u.size
    assert np.array_equal(got, np.searchsorted(dist.cdf, u, side="right"))


def test_guide_table_is_lazy():
    dist = offspring.parse_spec("harmonic:10")
    assert "_guide" not in vars(dist)
    dist.draw(np.random.default_rng(0), 1)
    assert "_guide" in vars(dist)


def digest(tree, attempts, rng):
    """Degrees, attempt count and the generator's next double, hashed."""
    h = hashlib.sha256(np.ascontiguousarray(tree.degrees, dtype=np.int32).tobytes())
    h.update(f"{attempts} {rng.random().hex()}".encode())
    return h.hexdigest()


# Outputs of the searchsorted draw before the guide table replaced it
# (numpy's PCG64 stream): the table must not move a single tree.
AT_LEAST = [
    ("ternary_uniform", 3000, 11, 3794, 221,
     "c4bb8d516a4a7ac5d58107c7bccc73e1ac3fd6e5f615222467524ff13736c01b"),
    ("harmonic:10", 1000, 12, 2411, 7,
     "b44094654307fb73067f5f066a91e2172c8ecb6cc835ebeb8f907c2e13d44d36"),
    ("full_binary", 500, 13, 2001, 3,
     "cdabd0efb4928ba0f4b6f2b04c696572b5f437bdc4f91d3798603991b366826c"),
    ("poisson", 2000, 14, 5597, 37,
     "3b9cff705de7286cb32aa988a9d9255d90299a238ce6d0ababf02b3bff743908"),
    ("binomial:1000", 300, 15, 596, 5,
     "06dc43684e75218299c12ee3493521cb11647e59c502cba7132dcaa04503596b"),
    ("catalan", 20, 18, 21, 3,  # accepted inside its first 32-draw chunk
     "9677da7004718f7a545902e37ebca230e54de658a9c1beb06c2be00c005c21a0"),
]
# (spec, n_min, cap, max_attempts, seed, digest or attempts and next double)
AT_LEAST_CAPPED = [
    ("catalan", 10, 17, None, 17,  # first chunks shorter than 32 draws
     "97f02c8d89929f829144177ba8038f8934a24dbf836a665347de6e5facfdfdc2"),
    ("harmonic:10", 1000, 50_000, 100, 23, "exhausted 100 0x1.f08628fa97224p-3"),
]
EXACT = [
    ("ternary_uniform", 2001, 21, 11,
     "107e8afb1f2eebf93da6ab70eba94e6a59d36e5224030c938dfac182ea1e4f1c"),
    ("harmonic:10", 1001, 22, 210,
     "6060b91247037f362b244308a9a37dbc5913cbcf0d764f4a03f946f317eb6dac"),
    ("full_binary", 501, 23, 6,
     "7ef751fcd86ca0259965f416cbd5cc5ed54c2a8a653f15ce218fa5c08e01b871"),
    ("geometric", 700, 24, 103,
     "984b99a023396b9f524e526f9bf2ec97dc88a30cc0ba837bb0757c423d16b857"),
]
# mu_mc value and, keyed by seed, its standard error
MU_MC = [
    ("harmonic:10", 100, 20_000, 31, "0x1.e8fd21ff2e48fp+2"),
    ("ternary_uniform", 1000, 3000, 32, "0x1.e8ee402bb0cf8p+5"),
    ("geometric", 50, 70_000, 33, "0x1.f95810624dd2fp+2"),
    ("catalan", 3, (1 << 20) + 5, 34, "0x1.2fe969070f2ddp+1"),  # two batches
]
MU_MC_SE = {31: "0x1.2f1081cf4d6c1p-3", 32: "0x1.ceaaed78e1f21p+1",
            33: "0x1.b896c7ab2dae0p-5", 34: "0x1.b6dd1a93d3865p-11"}


@pytest.mark.parametrize("spec,n_min,seed,n,attempts,expected", AT_LEAST)
def test_sample_at_least_frozen(spec, n_min, seed, n, attempts, expected):
    rng = np.random.default_rng(seed)
    tree, got = gwtree.sample_at_least(offspring.parse_spec(spec), n_min, seed=rng,
                                       cap=50 * n_min)
    assert (tree.n, got) == (n, attempts)
    assert digest(tree, got, rng) == expected


@pytest.mark.parametrize("spec,n_min,cap,max_attempts,seed,expected", AT_LEAST_CAPPED)
def test_sample_at_least_frozen_capped(spec, n_min, cap, max_attempts, seed, expected):
    rng = np.random.default_rng(seed)
    try:
        tree, got = gwtree.sample_at_least(offspring.parse_spec(spec), n_min, seed=rng,
                                           max_attempts=max_attempts, cap=cap)
    except gwtree.AttemptsExhausted as exc:
        assert f"exhausted {exc.attempts} {rng.random().hex()}" == expected
    else:
        assert n_min <= tree.n <= cap
        assert digest(tree, got, rng) == expected


@pytest.mark.parametrize("spec,n,seed,attempts,expected", EXACT)
def test_sample_exact_frozen(spec, n, seed, attempts, expected):
    rng = np.random.default_rng(seed)
    tree, got = gwtree.sample_exact(offspring.parse_spec(spec), n, seed=rng)
    assert got == attempts
    assert digest(tree, got, rng) == expected


@pytest.mark.parametrize("spec,budget,samples,seed,expected", MU_MC)
def test_mu_mc_frozen(spec, budget, samples, seed, expected):
    dist = offspring.parse_spec(spec)
    est = analysis.mu_mc(dist, budget, samples=samples, seed=seed)
    assert (est.value.hex(), est.std_error.hex()) == (expected, MU_MC_SE[seed])
