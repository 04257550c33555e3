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
tiling (_tiled_run): a chase through the extents finds the starts, one
Python step per call, except at b = 2, where a parity rule finds them in
numpy, job by job, at about 10 ns a node; each start's roots are read off
the open-branch path Q, and both pop orders and their list sizes follow
from a sort.  run_adaptive hands every stretch of calls that no budget
update can reach to _tiled_run as one job list at the current budget, and
makes the other calls one at a time (_call_extent, repeated extent jumps,
O(restarts) per call), since the budget depends on the list size the loop
has reached: a pinned LIFO run only about log(b0 / 2) / log(scale_factor)
+ 1 of them from an initial budget b0, FIFO and unpinned runs every call
before the budget pins.  run_single is run_adaptive at marks (0, inf),
which hand the root job to _tiled_run at the first pressure check.
simulate_parallel needs each job's call when the job starts: a job whose
subtree fits the budget (most jobs) is settled inline, since a function
call for every job costs 15-25% of the loop, and the others go through
_call_extent.  Its busy workers are plain int heap keys, and a
worker whose event is alone at its time, with no worker idle, takes the
next job with one heapreplace instead of a pass through the idle heap:
about 0.45-0.6 us a job at (b, W) = (500, 8) and (50, 2) on
10^5-5*10^5-node ternary_uniform trees (2-core x86_64 VM, Python 3.11).
The tests hold _call_extent to bdfs over tree.adj, call by call,
run_single and run_adaptive to a call-by-call master loop, and
simulate_parallel to an event loop in exact rational time.

simulate_parallel replays the same job stream under W workers with a fixed
per-job start cost, at job granularity: node-level interleaving cannot change
any reported aggregate, so jobs execute atomically in sim time.

Runs return SearchStats and SimReport and write no files; the search and
simulate CSVs are formatted by the CLI.  SearchStats keeps the list size and
budget of every call as read-only int64 arrays, 16 bytes a call, since a run
at b = 2 makes about 0.6 calls a node; a tiled run holds its starts,
extents, ends and roots in int32 and peaks at about 16-17 bytes a call
under either policy on a 1.3*10^6-node ternary_uniform tree, and at 20-26
on a 10^5-node one, where its fixed DRAW_BLOCK buffers weigh more
(tracemalloc, b = 2; the b = 2 starts are found one DRAW_BLOCK slice at
a time).
Budgets are saturated at sys.maxsize, which an int64 holds.
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
from .offspring import DRAW_BLOCK

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


def _parity_starts(tree: PreorderTree, jobs):
    """The starts of a budget-2 run from ascending jobs, as an int32 array.

    The parity rule of _tiled_run over each job's interval, DRAW_BLOCK
    positions at a time: no temporary holds a position for every node.  A
    one-node job starts only itself and needs no numpy call; such jobs
    collect in a list until the next longer job.
    """
    ext = memoryview(tree.extent)
    step = np.arange(DRAW_BLOCK, dtype=np.int32)
    degrees = tree.degrees
    pieces = []
    leaves = []  # one-node jobs since the last piece
    for s in jobs:
        end = s + ext[s]
        if end == s + 1:
            leaves.append(s)
            continue
        if leaves:
            pieces.append(np.array(leaves, dtype=np.int32))
            leaves = []
        spill = 0  # 1 when the last call of a slice also explores the next position
        for lo in range(s, end, DRAW_BLOCK):
            size = min(DRAW_BLOCK, end - lo)
            leaf = degrees[lo:lo + size] == 0
            mark = np.empty(size, dtype=np.int32)  # the latest index after a leaf
            mark[0] = spill  # or the parity carried over
            np.multiply(step[1:size], leaf[:-1], out=mark[1:])
            np.maximum.accumulate(mark, out=mark)
            keep = (mark ^ step[:size]) & 1 == 0
            pieces.append(np.compress(keep, step[:size]) + lo)
            spill = int(keep[-1] and not leaf[-1])
    pieces.append(np.array(leaves, dtype=np.int32))
    return np.concatenate(pieces)


def _tiled_run(tree: PreorderTree, budget: int, jobs, policy: str):
    """(restarts, evaluations, list sizes) of a fixed-budget run from a job list.

    jobs is a job list that a run under this policy can hold, in list order;
    its jobs root disjoint subtree intervals.  The call at s explores
    [s, s + min(b, ext[s])), and these blocks tile every interval, so the
    starts are the orbits of the jobs under s -> s + min(b, ext[s]), chased
    in position order.  Every start but the jobs is a pushed root, and every
    node of the jobs' subtrees but the jobs is generated once.  The call at
    s returns k = Q[s + min(b, ext[s])] - Q[s] + 1 roots: with ext[s] > b,
    s + b and then one per level its walk climbs back down; a whole
    subtree lowers Q by exactly 1, so k = 0.
    At b = 2 the call at s explores s, and s + 1 too unless s is a leaf.
    Within a job's interval a leaf ends a block whether or not it starts
    one, so the position after a leaf starts a call, and each call at an
    internal node covers the next position, so starts alternate along a run
    of internal nodes.  A position starts a call exactly when its distance
    to the job or to the latest position after a leaf, whichever is later,
    is even; _parity_starts evaluates that in numpy.
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
    if b == 2:
        starts = _parity_starts(tree, sorted(jobs))
    else:
        chased = array("i")  # C int: int32
        push = chased.append
        for s in sorted(jobs):
            end = s + ext[s]
            while s < end:  # one step per call
                push(s)
                e = ext[s]
                s += b if e > b else e
        starts = np.frombuffer(chased, dtype=np.int32)
        del chased
    restarts = starts.size - len(jobs)
    evaluations = sum(ext[s] for s in jobs) - len(jobs)
    ends = tree.extent[starts]  # the extents, until the starts are added
    q = tree.q_path()
    roots = q[np.minimum(ends, b) + starts] - q[starts] + 1
    ends += starts
    if policy == "fifo":  # job subtrees enclosing the start, plus the offset
        keys = np.arange(starts.size, dtype=np.int32)
        ends.sort()
        for lo in range(0, starts.size, DRAW_BLOCK):  # no int64 array of every call
            block = slice(lo, lo + DRAW_BLOCK)
            keys[block] -= np.searchsorted(ends, starts[block], side="right")
        # an int32 needle: a Python int would cast the starts to int64
        keys[:np.searchsorted(starts, np.int32(jobs[0]))] += 1
    else:
        keys = np.negative(ends, out=ends)
    del starts, ends
    # starts ascend, so a stable sort breaks ties by start (LIFO: outermost first)
    order = np.argsort(keys, kind="stable")
    del keys
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

    The list never holds more than n jobs, so with high_mark >= n the run is
    pinned: no multiply can fire, and a stretch of calls that no divide can
    reach runs at a fixed budget, read off the block tiling (_tiled_run):
    * at budget 2 (the floored divide's fixed point), or with low_mark <= 1
      (the pressure is at least 1), the whole pending list;
    * under LIFO, once the pressure is at least low_mark, the jobs from
      stack index ceil(low_mark) - 1 up: every call in the subtree of the
      job at index i sees a pressure of at least i + 1.  The calls of that
      stretch see the jobs kept below on top of the tile's own list sizes.
    Every other call is made one at a time (_call_extent).  A pinned LIFO
    run makes such a call only below low_mark, where each divides the
    budget, so about log(initial_budget / 2) / log(scale_factor) + 1 of
    them; FIFO and unpinned runs make every call before the pin that way.
    """
    initial_budget = require_count("budget", initial_budget)
    if not scale_factor > 1:  # also rejects NaN
        raise ValueError("scale_factor must be > 1")
    if not 0 <= low_mark < high_mark:
        raise ValueError("need 0 <= low_mark < high_mark")
    ext = memoryview(tree.extent)
    pinned = high_mark >= tree.n  # no multiply can fire
    budget = min(initial_budget, sys.maxsize)
    jobs, pop = _job_list(policy)
    restarts = evaluations = 0
    pieces = []  # the list sizes, in call order
    sizes = array("q")  # those of the calls made one at a time since the last tile
    values, counts = array("q", [budget]), array("q", [0])  # budgets, run-length coded
    while jobs:
        pressure = len(jobs)
        if pressure < low_mark:
            budget = max(2, math.floor(budget / scale_factor))
        elif pressure > high_mark:
            budget = math.floor(min(budget * scale_factor, sys.maxsize))
        if budget != values[-1]:
            values.append(budget)
            counts.append(0)
        if pinned and (budget == 2 or low_mark <= 1):
            keep = 0
        elif pinned and policy == "lifo" and pressure >= low_mark:
            keep = math.ceil(low_mark) - 1
        else:
            sizes.append(pressure - 1)
            counts[-1] += 1
            generated, unexplored = _call_extent(ext, pop(), budget)
            evaluations += generated
            restarts += len(unexplored)
            jobs.extend(unexplored)
            continue
        tile = [jobs.pop() for _ in range(pressure - keep)][::-1]  # the top, in list order
        tile_restarts, tile_evaluations, tile_sizes = _tiled_run(tree, budget, tile, policy)
        restarts += tile_restarts
        evaluations += tile_evaluations
        tile_sizes += keep
        counts[-1] += tile_sizes.size
        if sizes:
            pieces.append(np.frombuffer(sizes, dtype=np.int64))
            sizes = array("q")
        pieces.append(tile_sizes)
        del tile_sizes  # held by pieces alone, so the join below frees it
    if sizes:
        pieces.append(np.frombuffer(sizes, dtype=np.int64))
    list_sizes = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    del pieces, sizes
    budgets = np.repeat(np.frombuffer(values, dtype=np.int64),
                        np.frombuffer(counts, dtype=np.int64))
    list_sizes.flags.writeable = budgets.flags.writeable = False
    return SearchStats(n=tree.n, policy=policy, restarts=restarts,
                       calls=list_sizes.size, evaluations=evaluations,
                       list_sizes=list_sizes, budgets=budgets)


def simulate_parallel(tree: PreorderTree, budget: int, workers: int,
                      restart_cost=0, policy: str = "lifo") -> SimReport:
    """Discrete-event simulation of W workers sharing the job list.

    Each node evaluation takes one time unit and each job start costs
    restart_cost on top: an int, a float, or a fractions.Fraction such as
    Fraction(1, 3), taken at its exact value; numpy numbers count as the
    Python ones of their value, and bools are refused.  An idle worker takes the next
    job the moment the list is nonempty; simultaneous events resolve by
    ascending worker index.
    idle_time counts worker-units spent waiting on an empty list, including
    workers that never receive a job; speedup compares against the n - 1
    units a single uninterrupted traversal would need.
    """
    budget = require_count("budget", budget)
    workers = require_count("workers", workers)
    if isinstance(restart_cost, (bool, np.bool_)):  # not a cost of 1 or 0
        raise ValueError("restart_cost must be a number, not a bool")
    if not 0 <= restart_cost < math.inf:
        raise ValueError("restart_cost must be >= 0 and finite")
    if isinstance(restart_cost, numbers.Integral):
        restart_cost = int(restart_cost)
    elif isinstance(restart_cost, (float, np.floating)):  # numpy floats overflow, warning
        restart_cost = float(restart_cost)
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
    cost = restart_cost if isinstance(restart_cost, int) else float(restart_cost)
    p, q = restart_cost.as_integer_ratio()
    ext = memoryview(tree.extent)
    jobs, pop = _job_list(policy)
    push, heappush, heappop, heapreplace = (jobs.extend, heapq.heappush, heapq.heappop,
                                            heapq.heapreplace)
    # A run has at most n jobs and the lowest idle index always goes first,
    # so workers n, n+1, ... never start one: only lanes 0 .. lanes-1 work.
    lanes = min(workers, tree.n)
    idle = list(range(lanes))  # ascending, hence a heap
    # A busy lane w is the int key * lanes + w in the heap, which orders as
    # (key, w); a job started at key K that generates g nodes ends at key
    # K + g * q + p.  The starts behind each lane and the roots it will push
    # wait in per-lane lists.
    busy = []
    second, third = lanes > 1, lanes > 2
    unit_step, start_step = q * lanes, p * lanes
    lane_starts, lane_roots = [0] * lanes, [()] * lanes
    at = starts = 0  # the key * lanes, and the starts, of the latest event
    started = restarts = evaluations = 0
    while True:
        if jobs and idle:
            w = heappop(idle)
            enter = heappush
        elif not busy:
            break
        else:
            at = busy[0]
            w = at % lanes
            at -= w
            starts = lane_starts[w]
            ties = at + lanes
            # with no lane idle, busy holds every lane, so second and third say
            # whether busy[1] and busy[2], the candidates for a tie, exist
            if (idle or not (jobs or lane_roots[w]) or second and busy[1] < ties
                    or third and busy[2] < ties):
                while busy and busy[0] < ties:  # every event at this key
                    w = heappop(busy) - at
                    push(lane_roots[w])
                    heappush(idle, w)
                continue
            # alone at its time, with no lane idle, the lane takes the next job anyway
            push(lane_roots[w])
            enter = heapreplace
        s = pop()
        m = ext[s]
        if m <= budget:  # the whole subtree, inline: most jobs
            generated, roots = m - 1, ()
        else:
            generated, roots = _call_extent(ext, s, budget)
            restarts += len(roots)
        started += 1
        evaluations += generated
        lane_starts[w] = starts + 1
        lane_roots[w] = roots
        enter(busy, at + generated * unit_step + start_step + w)
    units = (at // lanes - starts * p) // q  # the latest event's, from its key
    makespan = units + starts * cost
    overhead = cost * started
    idle_time = (workers * units - evaluations
                 + (workers * starts - started) * cost)
    speedup = evaluations / makespan if makespan > 0 else 1.0
    return SimReport(workers=workers, restart_cost=cost, jobs=started,
                     restarts=restarts, evaluations=evaluations, makespan=makespan,
                     idle_time=idle_time, restart_overhead=overhead, speedup=speedup)

