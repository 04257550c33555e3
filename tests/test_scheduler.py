"""Master loop, adaptive budgets, and the parallel-worker simulation."""

import dataclasses
import heapq
import math
import subprocess
import sys
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwsearch import scheduler
from gwsearch.bdfs import bdfs
from gwsearch.gwtree import PreorderTree, sample_at_least
from gwsearch.offspring import parse_spec
from gwsearch.scheduler import run_adaptive, run_single, simulate_parallel
from test_properties import close_to_tree


def test_run_single_fixture(tree25):
    stats = run_single(tree25, 13)
    assert stats.n == 25
    assert stats.policy == "lifo"
    assert stats.restarts == 5
    assert stats.calls == 6
    assert stats.evaluations == 24
    assert stats.list_sizes.tolist() == [0, 4, 3, 2, 1, 0]
    assert stats.budgets.tolist() == [13] * 6


def test_run_single_budget_extremes(tree25):
    one = run_single(tree25, 1)
    assert (one.restarts, one.calls, one.evaluations) == (24, 25, 24)
    for b in (25, 26, 1000):
        full = run_single(tree25, b)
        assert (full.restarts, full.calls) == (0, 1)
        assert full.list_sizes.tolist() == [0]
    eight = run_single(tree25, 8)
    assert (eight.restarts, eight.calls) == (8, 9)


def test_calls_equal_restarts_plus_one(tree25):
    for b in range(1, 27):
        stats = run_single(tree25, b)
        assert stats.calls == stats.restarts + 1
        assert stats.evaluations == 24  # every node generated exactly once


def test_call_extent_matches_bdfs(tree25):
    # every (s, b) of the example tree: the closed form against bdfs over adj
    ext = memoryview(tree25.extent)
    for s in range(25):
        for b in range(1, 27):
            out = bdfs(tree25.adj, s, tree25.max_degree, b)
            generated, unexplored = scheduler._call_extent(ext, s, b)
            assert (generated, list(unexplored)) == (out.generated, out.unexplored())


def test_policies_agree(tree25):
    for b in range(1, 27):
        lifo = run_single(tree25, b)
        fifo = run_single(tree25, b, policy="fifo")
        assert fifo.restarts == lifo.restarts
        assert fifo.calls == lifo.calls


def test_pop_order(tree25):
    # lifo pops the newest job, fifo the oldest; the list sizes show which
    lifo = run_single(tree25, 2, policy="lifo")
    fifo = run_single(tree25, 2, policy="fifo")
    assert lifo.list_sizes.tolist() == [0, 7, 7, 6, 7, 6, 5, 9, 8, 7, 7, 6, 5, 4, 3, 2, 1, 0]
    assert fifo.list_sizes.tolist() == [0, 7, 6, 5, 4, 3, 2, 6, 7, 7, 6, 5, 5, 4, 3, 2, 1, 0]
    for b in (8, 13):  # every job after the first fits: the order cannot show
        assert run_single(tree25, b, policy="lifo").list_sizes.tolist() == \
               run_single(tree25, b, policy="fifo").list_sizes.tolist()


def test_run_single_validation(tree25):
    with pytest.raises(ValueError, match="budget must be >= 1"):
        run_single(tree25, 0)
    with pytest.raises(ValueError, match="policy must be one of"):
        run_single(tree25, 5, policy="stack")


def test_adaptive_wide_marks_match_run_single(tree25):
    fixed = run_single(tree25, 13)
    adaptive = run_adaptive(tree25, 13, 0, math.inf, 2)
    assert adaptive.budgets.tolist() == [13] * 6
    assert (adaptive.restarts, adaptive.calls, adaptive.evaluations,
            adaptive.list_sizes.tolist()) == (fixed.restarts, fixed.calls,
                                              fixed.evaluations,
                                              fixed.list_sizes.tolist())


def test_adaptive_single_call(tree25):
    stats = run_adaptive(tree25, 25, 1, 10, 5)
    assert stats.budgets.tolist() == [25]
    assert stats.calls == 1 and stats.restarts == 0


def test_adaptive_growth_is_monotone(tree25):
    # low_mark 0 never triggers a divide, so budgets can only grow
    stats = run_adaptive(tree25, 13, 0, 3, 2)
    assert stats.budgets.tolist() == [13, 26, 52, 52, 52, 52]
    assert stats.budgets.tolist() == sorted(stats.budgets.tolist())
    assert stats.restarts == 5  # all restarts come from the first call
    assert stats.list_sizes.tolist() == [0, 4, 3, 2, 1, 0]


def test_adaptive_divide_clamps_at_two(tree25):
    stats = run_adaptive(tree25, 2, 10, 100, 5)
    assert stats.budgets.tolist() == [2] * stats.calls
    assert stats.restarts == run_single(tree25, 2).restarts


def test_adaptive_validation(tree25):
    with pytest.raises(ValueError, match="^budget must be >= 1$"):
        run_adaptive(tree25, 0, 0, 10, 2)
    with pytest.raises(ValueError, match="scale_factor must be > 1"):
        run_adaptive(tree25, 13, 0, 10, 1.0)
    with pytest.raises(ValueError, match="need 0 <= low_mark < high_mark"):
        run_adaptive(tree25, 13, 10, 10, 2)
    with pytest.raises(ValueError, match="need 0 <= low_mark < high_mark"):
        run_adaptive(tree25, 13, -1, 10, 2)


def test_adaptive_multiply_saturates():
    # past pressure 1 every check multiplies: about 3,000 in a row
    star = PreorderTree([2999] + [0] * 2999)
    for factor in (2.0, 2, math.inf):
        stats = run_adaptive(star, 1, 0, 1, factor)
        assert stats.restarts == 2999
        assert max(stats.budgets) == sys.maxsize
    # a budget above the ceiling comes down to it on entry
    assert run_adaptive(star, 2 * sys.maxsize, 0, 0.5, 2).budgets.tolist() == [sys.maxsize]
    with pytest.raises(ValueError, match="scale_factor must be > 1"):
        run_adaptive(star, 1, 0, 1, math.nan)


def test_budget_past_64_bits_saturates(tree25):
    # the int64 series hold sys.maxsize; no tree has that many nodes
    for policy in scheduler.POLICIES:
        stats = run_single(tree25, 2**70, policy)
        assert (stats.restarts, stats.calls, stats.evaluations) == (0, 1, 24)
        assert stats.budgets.tolist() == [sys.maxsize]


def test_series_are_read_only_int64_arrays(tree25):
    # all tiled, all call by call, and a run handed to the tiling mid-way
    for stats in (run_single(tree25, 2), run_adaptive(tree25, 13, 0, 3, 2),
                  run_adaptive(tree25, 13, 10, math.inf, 2)):
        for series in (stats.list_sizes, stats.budgets):
            assert series.dtype == np.int64 and series.shape == (stats.calls,)
            assert not series.flags.writeable


def test_search_stats_equality(tree25):
    fixed = run_single(tree25, 13)
    assert fixed == run_adaptive(tree25, 13, 0, math.inf, 2)
    assert fixed != run_single(tree25, 13, policy="fifo")
    assert fixed != dataclasses.replace(fixed, list_sizes=fixed.list_sizes + 1)
    assert fixed != dataclasses.replace(fixed, budgets=fixed.budgets + 1)
    assert fixed != "fixed"

def test_simulate_single_worker(tree25):
    report = simulate_parallel(tree25, 13, 1, restart_cost=0)
    assert report.makespan == 24
    assert report.idle_time == 0
    assert report.speedup == 1.0
    report = simulate_parallel(tree25, 13, 1, restart_cost=2)
    assert report.jobs == 6
    assert report.makespan == 36
    assert report.idle_time == 0
    assert report.restart_overhead == 12
    assert report.speedup == pytest.approx(24 / 36)


def test_simulate_two_workers(tree25):
    report = simulate_parallel(tree25, 13, 2, restart_cost=2)
    assert report.makespan == 29
    assert report.idle_time == 22
    assert report.jobs == 6 and report.restarts == 5
    report = simulate_parallel(tree25, 13, 2, restart_cost=0)
    assert report.makespan == 21
    assert report.speedup == pytest.approx(24 / 21)


def test_simulate_lone_job_leaves_second_worker_idle(tree25):
    # budget >= n: one job, so worker 2 idles for the whole makespan
    for cost in (0, 3, 7):
        report = simulate_parallel(tree25, 25, 2, restart_cost=cost)
        assert report.jobs == 1
        assert report.makespan == 24 + cost
        assert report.idle_time == report.makespan


def test_simulate_work_conservation(tree25):
    for workers in (1, 2, 3, 5):
        for cost in (0, 1, 2.5):
            for b in (1, 5, 13, 25):
                report = simulate_parallel(tree25, b, workers, restart_cost=cost)
                assert report.evaluations == 24
                total = report.evaluations + report.restart_overhead
                assert report.makespan >= total / workers - 1e-9
                assert report.makespan <= total
                assert report.idle_time == pytest.approx(
                    workers * report.makespan - total)
                assert report.restarts == run_single(tree25, b).restarts


def test_simulate_more_workers_than_nodes(tree25):
    few = simulate_parallel(tree25, 13, 25, restart_cost=2)
    many = simulate_parallel(tree25, 13, 10**6, restart_cost=2)
    assert (many.jobs, many.makespan) == (few.jobs, few.makespan)
    assert many.idle_time == 10**6 * many.makespan - 24 - many.restart_overhead


def test_simulate_trivial_tree():
    from gwsearch.gwtree import PreorderTree
    report = simulate_parallel(PreorderTree([0]), 5, 3)
    assert report.makespan == 0
    assert report.speedup == 1.0
    assert report.jobs == 1 and report.evaluations == 0


def test_nan_budget_rejected(tree25, child_env):
    for run in (lambda: run_single(tree25, math.nan),
                lambda: run_adaptive(tree25, math.nan, 8, math.inf, 2)):
        with pytest.raises(ValueError, match="^budget must be >= 1$"):
            run()
    for workers, message in ((math.nan, "workers must be >= 1"),
                             (2.5, "workers must be an integer"),
                             (math.inf, "workers must be an integer")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_parallel(tree25, 5, workers)
    # a NaN budget past the check never ends the event loop: the child's
    # timeout turns a hang into a failure
    code = ("import math\n"
            "from gwsearch import simulate_parallel\n"
            "from gwsearch.verify import example_tree\n"
            "try:\n"
            "    simulate_parallel(example_tree(), math.nan, 2)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "budget must be >= 1\n"


def test_simulate_validation(tree25):
    with pytest.raises(ValueError, match="budget must be >= 1"):
        simulate_parallel(tree25, 0, 1)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        simulate_parallel(tree25, 13, 0)
    for cost in (-1, math.nan, math.inf):
        with pytest.raises(ValueError, match="restart_cost must be >= 0 and finite"):
            simulate_parallel(tree25, 13, 1, restart_cost=cost)
    for workers, cost in ((1, 1e308), (1, 10 ** 400), (10 ** 400, 0),
                          (10 ** 400, 0.0), (10 ** 300, 1e10)):
        with pytest.raises(ValueError, match="too large: times overflow a float"):
            simulate_parallel(tree25, 13, workers, restart_cost=cost)


def test_policies_tuple():
    assert scheduler.POLICIES == ("lifo", "fifo")


def exact_replay(tree, budget, workers, cost, policy):
    """simulate_parallel's event loop in Fraction time, summed along chains.

    Returns the exact makespan, the jobs started and the exact idle time:
    the workers' time less the evaluations and the starts' costs.
    """
    ext = memoryview(tree.extent)
    jobs = deque([0])
    pop = jobs.pop if policy == "lifo" else jobs.popleft
    idle = list(range(workers))
    busy = []  # (finish time, worker, nodes to push)
    now = Fraction(0)
    started = 0
    while True:
        while jobs and idle:
            w = heapq.heappop(idle)
            generated, unexplored = scheduler._call_extent(ext, pop(), budget)
            started += 1
            heapq.heappush(busy, (now + cost + generated, w, unexplored))
        if not busy:
            return now, started, workers * now - (tree.n - 1) - started * cost
        now = busy[0][0]
        while busy and busy[0][0] == now:
            _, w, unexplored = heapq.heappop(busy)
            jobs.extend(unexplored)
            heapq.heappush(idle, w)


def test_simulate_exact_rational_costs():
    dist = parse_spec("ternary_uniform")
    trees = [sample_at_least(dist, 2000, seed=seed, cap=20_000)[0] for seed in range(3)]
    configs = mismatches = 0
    for tree in trees:
        for budget in (20, 50):
            for workers in (3, 8, 25):
                # floats are taken at their exact binary value
                for cost in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 3),
                             Fraction(1, 10), 1 / 3, 0.1):
                    makespan, jobs, _ = exact_replay(tree, budget, workers,
                                                     Fraction(cost), "lifo")
                    report = simulate_parallel(tree, budget, workers, restart_cost=cost)
                    configs += 1
                    # a split or merged tie moves the makespan by far more
                    # than the float rounding of the reported time
                    mismatches += (report.jobs != jobs or not math.isclose(
                        report.makespan, makespan, rel_tol=1e-12))
                    assert report.restart_cost == float(cost)
    assert (configs, mismatches) == (108, 0)


# a bushy root over draws of mean 1: chains of many calls, whose events tie
# often enough at small budgets for a changed tie order to move the makespan
chained_trees = st.tuples(st.integers(2, 5), st.lists(st.integers(0, 2), min_size=100,
                                                       max_size=400)).map(
    lambda draws: close_to_tree([draws[0], *draws[1]]))


@given(degrees=chained_trees, budget=st.integers(1, 12), workers=st.integers(1, 6),
       cost=st.integers(0, 5) | st.builds(Fraction, st.integers(0, 40),
                                          st.sampled_from([2, 4, 8])),
       policy=st.sampled_from(scheduler.POLICIES))
@settings(max_examples=200, deadline=None)
def test_simulate_matches_exact_replay(degrees, budget, workers, cost, policy):
    # dyadic costs keep the reported float times exact
    tree = PreorderTree(degrees)
    makespan, jobs, idle_time = exact_replay(tree, budget, workers, Fraction(cost), policy)
    report = simulate_parallel(tree, budget, workers, restart_cost=cost, policy=policy)
    assert (report.jobs, report.makespan, report.idle_time) == (jobs, makespan, idle_time)


def test_simulate_cost_types_agree(tree25):
    # an int, its float, and its Fraction give the same schedule; only an int
    # cost keeps integer times
    for cost in (0, 2, 7):
        whole = simulate_parallel(tree25, 5, 3, restart_cost=cost)
        for same in (float(cost), Fraction(cost)):
            other = simulate_parallel(tree25, 5, 3, restart_cost=same)
            assert (other.makespan, other.idle_time, other.jobs) == (
                whole.makespan, whole.idle_time, whole.jobs)
            assert isinstance(other.makespan, float)
        assert isinstance(whole.makespan, int)
