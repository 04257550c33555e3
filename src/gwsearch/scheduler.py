"""Master/job-list scheduling of budgeted searches over one tree.

A run seeds the job list with the root, then repeatedly pops a start vertex,
searches it with budget b, and pushes every returned unexplored node as a
new job.  The list size is observed immediately after each pop, so a run
whose first call explores everything records the series (0,).  Restarts
R = total flag-True records; every non-start node is generated exactly once
across the whole run, so evaluations always sum to n - 1.  R depends only on
(tree, b): pop policy and worker count redistribute work without changing
which subtree roots exceed the budget.

A search call is computed in closed form on the preorder layout: the
explored prefix of a call at s is the slots s+1 .. s+b-1, and what remains
of the subtree interval is tiled left to right by the unexplored subtrees.
So the call at s explores exactly the block [s, s + min(b, ext[s])), the
blocks of a run tile [0, n), and a fixed-budget run is read off that
tiling (_tiled_run): one chase through the extents finds the starts, and
both pop orders and their list sizes follow from a sort.  run_adaptive
makes one call at a time (_call_extent, repeated extent jumps, O(restarts)
per call) while its budget can still move, since the budget depends on the
list size the loop has reached; once no update can fire again, it hands the
pending jobs to _tiled_run.  run_single is run_adaptive at marks (0, inf),
which hand the root job to _tiled_run at the first pressure check.
simulate_parallel keeps one call at a time: a simulator that replayed
precomputed calls inside its event loop measured no faster.  The tests hold
_call_extent to bdfs over tree.adj, call by call, and run_single and
run_adaptive to a call-by-call master loop.

simulate_parallel replays the same job stream under W workers with a fixed
per-job start cost, at job granularity: node-level interleaving cannot change
any reported aggregate, so jobs execute atomically in sim time.

Runs return SearchStats and SimReport and write no files; the search and
simulate CSVs are formatted by the CLI.  SearchStats keeps the list size and
budget of every call as read-only int64 arrays, 16 bytes a call, since a run
at b = 2 makes about 0.6 calls a node; a tiled run holds its starts,
extents, ends and roots in int32 and peaks at about 20 bytes a call under
LIFO and 25 under FIFO (tracemalloc, b = 2, on 10^5-10^6-node
ternary_uniform trees).  Budgets are saturated at sys.maxsize, which an
int64 holds.
"""

from __future__ import annotations

import heapq
import math
import numbers
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._checks import require_count
from .gwtree import PreorderTree

POLICIES = ("lifo", "fifo")


def _job_list(policy: str):
    """A job list holding the root, and its pop for the given policy."""
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    jobs = deque((0,))
    return jobs, jobs.pop if policy == "lifo" else jobs.popleft


@dataclass
class SearchStats:
    """Aggregates of one complete run over a tree.

    list_sizes and budgets hold one entry per call, in call order, as
    read-only int64 arrays, 16 bytes a call.  Two runs compare equal when
    every field does, the series by np.array_equal.
    """

    n: int
    policy: str
    restarts: int
    calls: int
    evaluations: int
    list_sizes: np.ndarray = field(repr=False)
    budgets: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, SearchStats):
            return NotImplemented
        return ((self.n, self.policy, self.restarts, self.calls, self.evaluations)
                == (other.n, other.policy, other.restarts, other.calls, other.evaluations)
                and np.array_equal(self.list_sizes, other.list_sizes)
                and np.array_equal(self.budgets, other.budgets))


@dataclass(frozen=True)
class SimReport:
    """Timing aggregates of one simulated parallel run."""

    workers: int
    restart_cost: float
    jobs: int
    restarts: int
    evaluations: int
    makespan: float
    idle_time: float
    restart_overhead: float
    speedup: float


def _call_extent(ext, s: int, b: int):
    """(nodes generated, unexplored roots) for one call, from subtree extents.

    ext is memoryview(tree.extent), whose items are plain Python ints.
    """
    m = ext[s]
    if m <= b:  # whole subtree fits: everything explored, nothing returned
        return m - 1, ()
    end = s + m
    w = s + b
    out = []
    while w < end:
        out.append(w)
        w += ext[w]
    return b - 1 + len(out), out


def _tiled_run(tree: PreorderTree, budget: int, jobs, policy: str):
    """(restarts, evaluations, list sizes) of a fixed-budget run from a job list.

    jobs is a job list that a run under this policy can hold, in list order;
    its jobs root disjoint subtree intervals.  The call at s explores
    [s, s + min(b, ext[s])), and these blocks tile every interval, so the
    starts are the orbits of the jobs under s -> s + min(b, ext[s]), chased
    in position order.  Every start but the jobs is a pushed root, and every
    node of the jobs' subtrees but the jobs is generated once.  A call with
    ext[s] > b returns k = Q[s+b] - Q[s] + 1 roots (s + b, then one per
    level its walk climbs back down).
    A LIFO stack ascends, so it pops by subtree end, latest first.  A FIFO
    queue holds at most two generations, each ascending, and the later one
    is exactly the jobs that lie before the head; it pops by generation:
    that offset plus the number of job subtrees enclosing the start.  In
    either pop order the list size after the i-th pop is len(jobs) - 1 plus
    the roots pushed before it minus i.
    Positions and counts are int32 (n < 2^31), freed once used; the list
    sizes are an int64 array.
    """
    b = min(budget, tree.n)  # larger budgets cut no subtree either
    ext = memoryview(tree.extent)  # indexes to Python ints, unlike numpy
    chased = array("i")  # C int: int32
    push = chased.append
    for s in sorted(jobs):
        end = s + ext[s]
        while s < end:  # one step per call: the hot loop of a small budget
            push(s)
            e = ext[s]
            s += b if e > b else e
    restarts = len(chased) - len(jobs)
    evaluations = sum(ext[s] for s in jobs) - len(jobs)
    starts = np.frombuffer(chased, dtype=np.int32)
    ends = tree.extent[starts]  # the extents, until the starts are added
    cut = ends > b
    at = starts[cut]
    q = tree.q_path()
    roots = np.zeros_like(starts)
    roots[cut] = q[at + b] - q[at] + 1
    del cut, at
    ends += starts
    # starts ascend, so a stable sort breaks ties by start (LIFO: outermost first)
    if policy == "fifo":  # job subtrees enclosing the start, plus the offset
        generation = np.arange(starts.size, dtype=np.int32)
        ends.sort()
        generation -= np.searchsorted(ends, starts, side="right")
        generation[:np.searchsorted(starts, jobs[0])] += 1
        order = np.argsort(generation, kind="stable")
    else:
        np.negative(ends, out=ends)
        order = np.argsort(ends, kind="stable")
    del starts, chased, ends
    pushed = roots[order]
    del roots, order
    sizes = np.empty(pushed.size, dtype=np.int64)
    sizes[0] = len(jobs) - 1
    np.subtract(pushed[:-1], 1, out=sizes[1:])  # a call's roots in, its pop out
    np.cumsum(sizes, out=sizes)  # in place: no int64 copy of the input
    return restarts, evaluations, sizes


def run_single(tree: PreorderTree, budget: int, policy: str = "lifo") -> SearchStats:
    """Run the master loop at a fixed budget until the job list drains.

    This is run_adaptive at marks (0, inf), where no budget update can fire,
    so the whole run is read off the preorder block tiling (_tiled_run).
    """
    return run_adaptive(tree, budget, 0, math.inf, 2, policy)


def run_adaptive(tree: PreorderTree, initial_budget: int, low_mark: float,
                 high_mark: float, scale_factor: float,
                 policy: str = "lifo") -> SearchStats:
    """Fixed-budget run, except the budget reacts to job-list pressure.

    The decision uses the list size as the master sees it when assigning
    work, i.e. before the next start vertex is popped: below low_mark the
    budget divides by scale_factor (floored, never below 2), above high_mark
    it multiplies (floored, never above sys.maxsize: no tree has that many
    nodes, so a saturated budget cuts nothing; a larger initial budget
    starts there).  Marks (0, inf) are run_single.  The budget used by each
    call is reported in SearchStats.budgets.

    The loop makes one call at a time until no update can fire again: the
    list never holds more than n jobs, so with high_mark >= n the budget
    stops moving once low_mark <= 1 (the pressure is at least 1) or once it
    has reached 2 (the floored divide's fixed point).  From that pressure
    check on, the rest of the run is a fixed-budget run from the current job
    list, read off the block tiling (_tiled_run).
    """
    require_count("budget", initial_budget)
    if not scale_factor > 1:  # also rejects NaN
        raise ValueError("scale_factor must be > 1")
    if not 0 <= low_mark < high_mark:
        raise ValueError("need 0 <= low_mark < high_mark")
    ext = memoryview(tree.extent)
    pinned = high_mark >= tree.n  # no multiply can fire
    budget = min(int(initial_budget), sys.maxsize)
    jobs, pop = _job_list(policy)
    restarts = evaluations = 0
    sizes = array("q")  # the calls made one at a time
    budgets = array("q")
    tail = np.empty(0, dtype=np.int64)  # list sizes of the tiled rest of the run
    while jobs:
        pressure = len(jobs)
        if pressure < low_mark:
            budget = max(2, math.floor(budget / scale_factor))
        elif pressure > high_mark:
            budget = math.floor(min(budget * scale_factor, sys.maxsize))
        if pinned and (budget == 2 or low_mark <= 1):
            tail_restarts, tail_evaluations, tail = _tiled_run(tree, budget, jobs, policy)
            restarts += tail_restarts
            evaluations += tail_evaluations
            break
        sizes.append(pressure - 1)
        budgets.append(budget)
        generated, unexplored = _call_extent(ext, pop(), budget)
        evaluations += generated
        restarts += len(unexplored)
        jobs.extend(unexplored)
    list_sizes = np.concatenate((sizes, tail))
    del sizes, tail
    # the tail ran at the final budget; the calls made one at a time differ
    all_budgets = np.full(list_sizes.size, budget, dtype=np.int64)
    all_budgets[:len(budgets)] = budgets
    list_sizes.flags.writeable = all_budgets.flags.writeable = False
    return SearchStats(n=tree.n, policy=policy, restarts=restarts,
                       calls=list_sizes.size, evaluations=evaluations,
                       list_sizes=list_sizes, budgets=all_budgets)


def simulate_parallel(tree: PreorderTree, budget: int, workers: int,
                      restart_cost=0, policy: str = "lifo") -> SimReport:
    """Discrete-event simulation of W workers sharing the job list.

    Each node evaluation takes one time unit and each job start costs
    restart_cost on top: an int, a float, or a fractions.Fraction such as
    Fraction(1, 3), taken at its exact value.  An idle worker takes the next
    job the moment the list is nonempty; simultaneous events resolve by
    ascending worker index.
    idle_time counts worker-units spent waiting on an empty list, including
    workers that never receive a job; speedup compares against the n - 1
    units a single uninterrupted traversal would need.
    """
    require_count("budget", budget)
    require_count("workers", workers)  # it feeds range
    if not 0 <= restart_cost < math.inf:
        raise ValueError("restart_cost must be >= 0 and finite")
    # no event ends after horizon, and idle_time is at most workers * horizon
    horizon = tree.n - 1 + tree.n * restart_cost
    if horizon > sys.float_info.max or workers > sys.float_info.max / max(horizon, 1):
        raise ValueError("workers or restart_cost too large: times overflow a float")
    # An event time is units + starts * restart_cost, where units and starts
    # count the evaluations and job starts on the chain of jobs behind it.
    # Events are ordered by the integer key units * q + starts * p, with
    # restart_cost = p / q exactly, so events simultaneous in exact
    # arithmetic tie whatever the cost.  Reported times are computed afresh
    # from units and starts in floats (ints for an integral cost), which
    # keeps the makespan within evaluations + restart_overhead.
    if isinstance(restart_cost, numbers.Integral):
        cost, p, q = restart_cost, int(restart_cost), 1
    else:
        cost = float(restart_cost)
        p, q = restart_cost.as_integer_ratio()
    ext = memoryview(tree.extent)
    jobs, pop = _job_list(policy)
    # A run has at most n jobs and the lowest idle index always goes first,
    # so workers n, n+1, ... never start one: leave them out of the heap.
    idle = list(range(min(workers, tree.n)))  # ascending, hence a heap
    busy = []  # (finish key, worker index, units, starts, nodes to push)
    now = units = starts = 0
    started = restarts = evaluations = 0
    while True:
        while jobs and idle:
            w = heapq.heappop(idle)
            generated, unexplored = _call_extent(ext, pop(), budget)
            started += 1
            evaluations += generated
            restarts += len(unexplored)
            u, k = units + generated, starts + 1
            heapq.heappush(busy, (u * q + k * p, w, u, k, unexplored))
        if not busy:
            break
        now, _, units, starts, _ = busy[0]
        while busy and busy[0][0] == now:
            _, w, _, _, unexplored = heapq.heappop(busy)
            jobs.extend(unexplored)
            heapq.heappush(idle, w)
    makespan = units + starts * cost
    overhead = cost * started
    idle_time = (workers * units - evaluations
                 + (workers * starts - started) * cost)
    speedup = evaluations / makespan if makespan > 0 else 1.0
    return SimReport(workers=workers, restart_cost=cost, jobs=started,
                     restarts=restarts, evaluations=evaluations, makespan=makespan,
                     idle_time=idle_time, restart_overhead=overhead, speedup=speedup)

