"""Property-based checks over randomly generated preorder trees."""

import math
import pathlib
import subprocess
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gwsearch import analysis, scheduler
from gwsearch.bdfs import bdfs
from gwsearch.gwtree import (AttemptsExhausted, Overflow, PreorderTree, _grow,
                             _rotation, read_tree, sample_at_least)
from gwsearch.offspring import DRAW_BLOCK, parse_spec
from gwsearch.scheduler import (SearchStats, _call_extent, run_adaptive,
                                run_single, simulate_parallel)
from gwsearch.seeds import substream


def close_to_tree(draws):
    """Turn any degree draw sequence into a valid preorder sequence.

    Walk the open-branch count; cut at the first return to zero, or append
    leaves until it closes.  Positivity holds throughout by construction.
    """
    pending = 1
    out = []
    for d in draws:
        out.append(d)
        pending += d - 1
        if pending == 0:
            break
    out.extend([0] * pending)
    return out


tree_degrees = st.lists(st.integers(0, 5), max_size=80).map(close_to_tree)
# the root's degree keeps the walk from closing at once: wider job lists
bushy_trees = st.tuples(st.integers(2, 5), st.lists(st.integers(0, 5), min_size=20,
                                                    max_size=150)).map(
    lambda draws: close_to_tree([draws[0], *draws[1]]))


@given(degrees=tree_degrees, budget=st.integers(1, 30))
@settings(max_examples=50, deadline=None)
def test_every_node_evaluated_once(degrees, budget):
    tree = PreorderTree(degrees)
    stats = run_single(tree, budget)
    assert stats.evaluations == tree.n - 1
    assert stats.calls == stats.restarts + 1


def reference_loop(tree, budget, low_mark, high_mark, scale_factor, policy):
    """The master loop one _call_extent at a time, as run_adaptive states it.

    It never hands over to the block tiling, so it is the reference for it;
    test_call_extent_matches_bdfs holds _call_extent to bdfs.
    """
    ext = memoryview(tree.extent)
    jobs = deque([0])
    pop = jobs.pop if policy == "lifo" else jobs.popleft
    restarts = evaluations = 0
    sizes, budgets = [], []
    while jobs:
        pressure = len(jobs)
        if pressure < low_mark:
            budget = max(2, math.floor(budget / scale_factor))
        elif pressure > high_mark:
            budget = math.floor(min(budget * scale_factor, sys.maxsize))
        sizes.append(pressure - 1)
        budgets.append(budget)
        generated, unexplored = _call_extent(ext, pop(), budget)
        evaluations += generated
        restarts += len(unexplored)
        jobs.extend(unexplored)
    return SearchStats(n=tree.n, policy=policy, restarts=restarts, calls=len(sizes),
                       evaluations=evaluations, list_sizes=sizes, budgets=budgets)


def check_block_tiling(tree, budget):
    """run_single's block tiling against the call-by-call loop, field by field."""
    for policy in ("lifo", "fifo"):
        tiled = run_single(tree, budget, policy=policy)
        assert tiled == reference_loop(tree, budget, 0, math.inf, 2, policy)


@given(degrees=tree_degrees, budget=st.integers(1, 30))
@settings(max_examples=50, deadline=None)
def test_restarts_policy_invariant(degrees, budget):
    tree = PreorderTree(degrees)
    runs = [run_single(tree, budget, policy=p) for p in ("lifo", "fifo")]
    assert len({s.restarts for s in runs}) == 1
    assert len({s.evaluations for s in runs}) == 1
    check_block_tiling(tree, budget)


@given(degrees=tree_degrees, budget=st.integers(1, 30))
@settings(max_examples=50, deadline=None)
def test_call_extent_matches_bdfs(degrees, budget):
    # max(..., 1): bdfs probes at least j = 1, which a lone leaf answers None
    tree = PreorderTree(degrees)
    ext, q = memoryview(tree.extent), tree.q_path()
    for s in range(tree.n):
        out = bdfs(tree.adj, s, max(tree.max_degree, 1), budget)
        generated, unexplored = _call_extent(ext, s, budget)
        assert (generated, list(unexplored)) == (out.generated, out.unexplored())
        # _tiled_run's root count, which needs no case for a whole subtree
        assert q[s + min(budget, ext[s])] - q[s] + 1 == len(unexplored)


@given(degrees=bushy_trees, picks=st.lists(st.integers(0, 200), max_size=12),
       block=st.integers(3, 9))
@settings(max_examples=100, deadline=None)
def test_parity_starts_match_the_chase(degrees, picks, block):
    # slices of 3-9 positions: every slice boundary, with either carry, falls
    # inside jobs as well as at their ends
    tree = PreorderTree(degrees)
    ext = memoryview(tree.extent)
    jobs, end = [], 0
    for s in sorted({p % tree.n for p in picks}) or [0]:
        if s >= end:  # outside the jobs so far: the intervals stay disjoint
            jobs.append(s)
            end = s + ext[s]
    chased = []
    for s in jobs:
        end = s + ext[s]
        while s < end:
            chased.append(s)
            s += 2 if ext[s] > 2 else ext[s]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "DRAW_BLOCK", block)
        starts = scheduler._parity_starts(tree, jobs)
    assert starts.dtype == np.int32
    assert starts.tolist() == chased


@pytest.mark.parametrize("spec", ["ternary_uniform", "harmonic:10", "catalan"])
def test_block_tiling_on_sampled_trees(spec):
    tree, _ = sample_at_least(parse_spec(spec), 10_000, seed=0, cap=20_000)
    for budget in (1, 2, 7, 50, 500):
        check_block_tiling(tree, budget)


@pytest.fixture(scope="module")
def tree70k():
    """A tree of more than DRAW_BLOCK nodes, in which the budget-2 starts
    are read one slice at a time.  Seed 6: a budget-2 call at DRAW_BLOCK - 1
    explores DRAW_BLOCK too, so the first slice's last call reaches into
    the second."""
    tree, _ = sample_at_least(parse_spec("ternary_uniform"), 70_000, seed=6, cap=200_000)
    assert tree.n > DRAW_BLOCK
    return tree


def test_budget_2_tiling_across_draw_blocks(tree70k):
    # a call at the end of one slice may explore the first position of the next
    check_block_tiling(tree70k, 2)


def test_budget_2_tiling_of_many_jobs(tree70k, monkeypatch):
    # a budget-2 tile of many jobs, each read off the parity rule in turn
    tree = tree70k
    handed = []

    def spy(tree, budget, jobs, policy):
        handed.append((budget, len(jobs)))
        return tiled_run(tree, budget, jobs, policy)

    tiled_run = scheduler._tiled_run
    monkeypatch.setattr(scheduler, "_tiled_run", spy)
    for policy in ("lifo", "fifo"):
        # a low mark above every list size: the budget divides at every
        # call, slowly, and the list it reaches 2 with is tiled in one go
        args = (tree, 500, tree.n, math.inf, 1.01, policy)
        handed.clear()
        assert run_adaptive(*args) == reference_loop(*args)
        [(budget, jobs)] = handed
        assert budget == 2 and jobs > 20


@given(degrees=bushy_trees, budget=st.integers(1, 40),
       low_mark=st.integers(2, 12) | st.floats(2, 12),
       scale_factor=st.sampled_from([1.5, 2, 3]) | st.floats(1.01, 8),
       policy=st.sampled_from(["lifo", "fifo"]))
@example(degrees=[2, 0, 1, 3, 1, 1, 1, 1, 0, 0, 1, 1, 0], budget=12, low_mark=3,
         scale_factor=3.0, policy="fifo")  # two FIFO generations at the pin
@settings(max_examples=300, deadline=None)
def test_adaptive_tail_matches_reference_loop(degrees, budget, low_mark,
                                              scale_factor, policy):
    # with high_mark = inf and low_mark >= 2 the budget pins once it reaches
    # 2, usually mid-run, and the rest of the run is read off the tiling
    tree = PreorderTree(degrees)
    args = (tree, budget, low_mark, math.inf, scale_factor, policy)
    assert run_adaptive(*args) == reference_loop(*args)


@given(degrees=tree_degrees, budget=st.integers(1, 40),
       low_mark=st.floats(0, 12), spread=st.integers(1, 90) | st.just(math.inf),
       scale_factor=st.floats(1.01, 8), policy=st.sampled_from(["lifo", "fifo"]))
# on this 9-node tree the pinned LIFO run tiles, calls, tiles and calls
@example(degrees=[2, 2, 0, 0, 3, 1, 0, 0, 0], budget=13, low_mark=3.0, spread=6,
         scale_factor=2.0, policy="lifo")  # high_mark = n: pinned
@example(degrees=[2, 2, 0, 0, 3, 1, 0, 0, 0], budget=13, low_mark=3.0, spread=5,
         scale_factor=2.0, policy="lifo")  # high_mark = n - 1: not pinned
@example(degrees=[2, 2, 0, 0, 3, 1, 0, 0, 0], budget=13, low_mark=3.0, spread=6,
         scale_factor=2.0, policy="fifo")
@settings(max_examples=150, deadline=None)
def test_adaptive_matches_reference_loop(degrees, budget, low_mark, spread,
                                         scale_factor, policy):
    # a high mark below n keeps the whole run call by call; one of at least
    # n pins it, and tiles what no divide can reach
    tree = PreorderTree(degrees)
    args = (tree, budget, low_mark, low_mark + spread, scale_factor, policy)
    assert run_adaptive(*args) == reference_loop(*args)


@pytest.mark.parametrize("policy", ["lifo", "fifo"])
def test_adaptive_pin_at_the_high_mark(policy):
    # a star's root call at b = 1 pushes n - 1 jobs, past any high mark < n - 1
    star = PreorderTree([9] + [0] * 9)
    for high_mark in (7, 8, 9, 10, math.inf):
        for low_mark in (0, 1, 2):
            args = (star, 1, low_mark, high_mark, 2, policy)
            assert run_adaptive(*args) == reference_loop(*args)


def test_adaptive_tail_with_two_fifo_generations(monkeypatch):
    # this tree collapses to b = 2 under FIFO with two job generations queued
    tree, _ = sample_at_least(parse_spec("ternary_uniform"), 10**5,
                              seed=substream(7, 4), cap=5 * 10**5)
    handed = []

    def spy(tree, budget, jobs, policy):
        handed.append((budget, list(jobs)))
        return tiled_run(tree, budget, jobs, policy)

    tiled_run = scheduler._tiled_run
    monkeypatch.setattr(scheduler, "_tiled_run", spy)
    args = (tree, 500, 8, math.inf, 2, "fifo")
    assert run_adaptive(*args) == reference_loop(*args)
    [(budget, jobs)] = handed
    assert budget == 2
    assert any(later < earlier for earlier, later in zip(jobs, jobs[1:]))


def test_pinned_lifo_run_tiles_above_the_low_mark(monkeypatch):
    # the jobs from stack index 7 up see a pressure of at least 8, so only
    # the calls below the low mark, each of which divides the budget, are
    # made one at a time: at most one per budget 250, 125, ..., 3
    tree, _ = sample_at_least(parse_spec("ternary_uniform"), 10**5, seed=0,
                              cap=5 * 10**5)
    single = []

    def spy(ext, s, budget):
        single.append(budget)
        return call_extent(ext, s, budget)

    call_extent = scheduler._call_extent
    monkeypatch.setattr(scheduler, "_call_extent", spy)
    args = (tree, 500, 8, math.inf, 2, "lifo")
    stats = run_adaptive(*args)
    assert stats.calls > 1000
    assert len(single) <= math.ceil(math.log2(250)) + 2
    assert stats == reference_loop(*args)


TALL = 100_000


@pytest.mark.parametrize("shape", ["path", "broom"])
def test_block_tiling_on_tall_trees(shape):
    # a path has one job per level at b = 1; the broom's star ends it with
    # a call that pushes TALL / 2 roots at once
    if shape == "path":
        degrees = [1] * (TALL - 1) + [0]
    else:
        half = TALL // 2
        degrees = [1] * (half - 1) + [half] + [0] * half
    tree = PreorderTree(degrees)
    for budget in (1, 2, 50):
        check_block_tiling(tree, budget)


@given(degrees=tree_degrees, budget=st.integers(1, 30),
       workers=st.integers(1, 4),
       cost=st.integers(0, 3) | st.floats(0, 5, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_simulation_matches_serial_counts(degrees, budget, workers, cost):
    tree = PreorderTree(degrees)
    serial = run_single(tree, budget)
    report = simulate_parallel(tree, budget, workers, restart_cost=cost)
    assert report.restarts == serial.restarts
    assert report.jobs == serial.calls
    assert report.evaluations == tree.n - 1
    total = report.evaluations + report.restart_overhead
    assert total / workers - 1e-9 <= report.makespan <= total


@given(degrees=tree_degrees, budget=st.integers(1, 30))
@settings(max_examples=50, deadline=None)
def test_bdfs_tiling(degrees, budget):
    tree = PreorderTree(degrees)
    seen = []
    starts = [0]
    while starts:
        out = bdfs(tree.adj, starts.pop(), max(tree.max_degree, 1), budget)
        assert out.explored <= budget - 1
        flags = [flag for _, flag in out.records]
        assert flags == sorted(flags)
        seen.extend(v for v, _ in out.records)
        starts.extend(out.unexplored())
    assert sorted(seen) == list(range(1, tree.n))


# digits, ASCII whitespace, the signs and underscore that int() accepts, and
# one byte outside ASCII
TREE_FILE_BYTES = b"0123456789 \t\n\r\x0b\x0c+-_\xa0"


@st.composite
def tree_files(draw):
    """A written tree file with a few bytes inserted or overwritten."""
    degrees = draw(tree_degrees)
    text = bytearray(f"{len(degrees)}\n{' '.join(map(str, degrees))}\n".encode())
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        byte = draw(st.sampled_from(TREE_FILE_BYTES))
        text[at:at + draw(st.integers(0, 1))] = bytes([byte])
    return bytes(text)


@given(data=tree_files()
       | st.lists(st.sampled_from(TREE_FILE_BYTES), max_size=40).map(bytes))
@settings(max_examples=200, deadline=None)
def test_read_tree_accepts_only_ascii_digit_files(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.tree"
    path.write_bytes(data)
    try:
        tree = read_tree(path)
    except ValueError:
        return
    tokens = data.split()  # bytes.split() splits on ASCII whitespace only
    assert len(tokens) == tree.n + 1
    assert all(token.isdigit() for token in tokens)  # ASCII digits only
    assert [int(token) for token in tokens] == [tree.n] + tree.degrees.tolist()


@given(degrees=tree_degrees)
@settings(max_examples=50, deadline=None)
def test_extent_identities(degrees):
    tree = PreorderTree(degrees)
    ext = tree.extent
    assert ext[0] == tree.n
    for v in range(tree.n):
        children = []
        j = 1
        while True:
            c = tree.adj(v, j)
            if c is None:
                break
            children.append(c)
            j += 1
        assert len(children) == degrees[v]
        assert ext[v] == 1 + sum(ext[c] for c in children)


@given(degrees=tree_degrees)
@settings(max_examples=50, deadline=None)
def test_open_branch_path_positive(degrees):
    q = PreorderTree(degrees).q_path()
    assert q[0] == 1 and q[-1] == 0
    assert np.all(q[:-1] >= 1)


def _valid_preorder(seq):
    walk = 1 + np.cumsum(np.asarray(seq) - 1)
    return walk[-1] == 0 and (len(seq) == 1 or walk[:-1].min() >= 1)


@given(degrees=tree_degrees.filter(lambda d: len(d) <= 50),
       shift=st.integers(0, 49))
@settings(max_examples=50, deadline=None)
def test_cycle_lemma_unique_rotation(degrees, shift):
    # any cyclic shift of a closing degree sequence has exactly one valid
    # rotation, the one starting right after the first prefix-sum minimum
    n = len(degrees)
    seq = np.roll(degrees, shift % n)
    valid = [r for r in range(n) if _valid_preorder(np.roll(seq, -r))]
    assert valid == [_rotation(seq)]


SAMPLER_SPECS = ["catalan", "full_binary", "ternary_uniform", "harmonic:10", "poisson",
                 "binomial:1000"]


def at_least_by_attempts(dist, n_min, rng, max_attempts, cap):
    """sample_at_least as its docstring states it: every attempt grown by
    _grow straight from dist.draw.  Degrees and attempts, or None and the
    attempts at exhaustion."""
    attempts = 0
    while True:
        attempts += 1
        got = _grow(lambda m: dist.draw(rng, m), cap)
        if not isinstance(got, Overflow) and sum(map(len, got)) >= n_min:
            return np.concatenate(got), attempts
        if max_attempts is not None and attempts >= max_attempts:
            return None, attempts


@given(spec=st.sampled_from(SAMPLER_SPECS), n_min=st.integers(1, 300),
       cap_extra=st.none() | st.integers(0, 40) | st.integers(0, 3000),
       max_attempts=st.none() | st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_sample_at_least_matches_attempt_by_attempt(spec, n_min, cap_extra,
                                                    max_attempts, seed):
    # the bulk-settled first chunks and the read-ahead must not move a tree,
    # an attempt count or the caller's generator
    dist = parse_spec(spec)
    # an unbounded search needs a likely size range, which the default cap
    # gives: [300, 300] holds no full_binary tree at all
    cap = None if cap_extra is None or max_attempts is None else n_min + cap_extra
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    want, want_attempts = at_least_by_attempts(dist, n_min, theirs, max_attempts,
                                               100 * n_min if cap is None else cap)
    try:
        tree, attempts = sample_at_least(dist, n_min, seed=ours,
                                         max_attempts=max_attempts, cap=cap)
    except AttemptsExhausted as exc:
        assert want is None and exc.attempts == want_attempts
    else:
        assert want is not None and attempts == want_attempts
        assert np.array_equal(tree.degrees, want)
    assert ours.bit_generator.state == theirs.bit_generator.state


def min_sizes(dist, budget, m, rng):
    """min(N_i, b) of m trees grown side by side, one node a step, kept per
    tree; the live trees draw in the order of their ids."""
    sizes = np.full(m, budget)
    pending = np.ones(m, dtype=np.int64)
    live = np.arange(m)
    for t in range(1, budget + 1):
        pending[live] += dist.draw(rng, live.size) - 1
        closed = pending[live] == 0
        sizes[live[closed]] = t
        live = live[~closed]
        if not live.size:
            break
    return sizes


@given(spec=st.sampled_from(SAMPLER_SPECS), budget=st.integers(1, 60),
       m=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_min_size_batch_matches_per_tree_sizes(spec, budget, m, seed):
    dist = parse_spec(spec)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    sizes = min_sizes(dist, budget, m, theirs)
    got = analysis._min_size_batch(dist, budget, m, ours)
    assert got == (int(sizes.sum()), int((sizes * sizes).sum()))
    assert ours.bit_generator.state == theirs.bit_generator.state


FAILING_PROPERTY = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 0

def test_passes():
    pass
"""


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # Hypothesis imports libcst to report a failure, and libcst warns on import;
    # under the repository's warning filters that must not abort the session
    (tmp_path / "test_child.py").write_text(FAILING_PROPERTY)
    config = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(config), "test_child.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
