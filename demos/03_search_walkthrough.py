"""Budgeted depth-first search on the 25-node example tree, step by step.

One search call explores depth-first until it has generated b nodes, then
sweeps back to the start flagging every further node it meets as the root
of an unexplored subtree.  The master loop feeds those roots back through
the job list until nothing is left; every node of the tree is generated
exactly once overall, and the number of extra calls is the restart count R.
"""

from gwsearch.bdfs import bdfs
from gwsearch.scheduler import run_single
from gwsearch.verify import example_tree


def main():
    tree = example_tree()
    print(f"tree: {tree!r}")
    print("preorder degrees:", tree.degrees.tolist())
    print("subtree sizes:   ", tree.extent.tolist())
    print()

    out = bdfs(tree.adj, 0, tree.max_degree, 13)
    print("single call from the root with budget 13:")
    print("  explored  :", [v for v, flag in out.records if not flag])
    print("  unexplored:", out.unexplored())
    print(f"  generated {out.generated} nodes "
          f"({out.explored} explored + {len(out.unexplored())} handed back)")
    print()

    print("master loop at budget 13 (lifo job list):")
    stats = run_single(tree, 13)
    print(f"{'call':>5} {'list size after pop':>20} {'budget':>7}")
    for call, (size, budget) in enumerate(zip(stats.list_sizes, stats.budgets), 1):
        print(f"{call:>5} {size:>20} {budget:>7}")
    print(f"restarts R = {stats.restarts}, calls = {stats.calls}, "
          f"evaluations = {stats.evaluations} (= n - 1)")
    print()

    print("the budget knob trades calls against wasted depth:")
    print(f"{'b':>4} {'R':>4} {'calls':>6}")
    for b in (1, 2, 4, 8, 13, 16, 24, 25):
        s = run_single(tree, b)
        print(f"{b:>4} {s.restarts:>4} {s.calls:>6}")
    print()

    print("the same run, driving bdfs call by call from a lifo job list:")
    for b in (1, 8, 13):
        restarts, jobs = 0, [0]
        while jobs:
            unexplored = bdfs(tree.adj, jobs.pop(), tree.max_degree, b).unexplored()
            restarts += len(unexplored)
            jobs.extend(unexplored)
        print(f"  b={b:<3d} bdfs R={restarts}, "
              f"run_single R={run_single(tree, b).restarts}")


if __name__ == "__main__":
    main()
