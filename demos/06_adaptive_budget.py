"""Letting job-list pressure steer the budget.

The adaptive loop watches the job-list size the master sees before handing
out work: below the low mark it divides the budget by the scale factor
(never under 2), above the high mark it multiplies.  Wide-open marks
reproduce the fixed-budget run exactly.

On a critical tree the list is bursty: one undersized call floods it with
restart roots, so mid-run starvation is rare and the budget mostly moves at
the two ends of a run -- once at the start if the initial budget is
oversized, and again while the list drains at the end.  Both shifts are
visible in the trajectories below.
"""

import math

from gwsearch import gwtree, offspring, scheduler
from gwsearch.verify import example_tree


def compress(budgets):
    out = []
    for b in budgets:
        if not out or out[-1][0] != b:
            out.append([b, 1])
        else:
            out[-1][1] += 1
    return " ".join(f"{b}x{k}" for b, k in out)


def summarize(tag, stats):
    print(f"{tag:<30} calls={stats.calls:<6d} R={stats.restarts:<6d} "
          f"trajectory: {compress(stats.budgets.tolist())}")


def main():
    print("growth direction, on the 25-node example with high mark 3:")
    small = example_tree()
    summarize("  adaptive 13 / marks 0,3 x2", scheduler.run_adaptive(small, 13, 0, 3, 2))
    print("  (call 1 floods the list with 5 roots, so calls 2-3 see pressure")
    print("   above the mark and double the budget; R is unchanged at 5)")
    print()

    dist = offspring.parse_spec("catalan")
    tree, _ = gwtree.sample_at_least(dist, 50_000, seed=3)
    print(f"shrink direction, on a sampled catalan tree with n = {len(tree)}:")
    for b in (1000, 32768, 65536):
        summarize(f"  fixed b={b}", scheduler.run_single(tree, b))
    summarize("  adaptive 65536 / low mark 8",
              scheduler.run_adaptive(tree, 65536, 8, math.inf, 2))
    print("  (one halving the moment the empty list is seen at the start,")
    print("   then again at every call of the final drain)")
    print()

    wide = scheduler.run_adaptive(tree, 1000, 0, math.inf, 4)
    fixed = scheduler.run_single(tree, 1000)
    print("marks (0, inf) change nothing:",
          (wide.restarts, wide.calls, wide.budgets.tolist()) ==
          (fixed.restarts, fixed.calls, fixed.budgets.tolist()))
    print()

    print("the divide clamps at 2, so a tiny initial budget cannot collapse:")
    clamped = scheduler.run_adaptive(tree, 2, 10, 10 ** 9, 5)
    print(f"  adaptive 2 / low mark 10: every budget is "
          f"{sorted(set(clamped.budgets.tolist()))}, calls={clamped.calls}")


if __name__ == "__main__":
    main()
