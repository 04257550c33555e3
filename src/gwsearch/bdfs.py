"""Budget-limited depth-first search over an adjacency oracle.

The oracle is any callable adj(v, j) returning the j-th child of v (j is
1-based, j <= max_degree) or None.  Search descends depth-first from a start
vertex, counting every node it generates.  While the count is below the
budget b each generated node is output with flag False and descended into;
once the count reaches b, every further generated node -- the current one
and the unexplored siblings met while unwinding back to the start -- is
output with flag True and not descended into.  The start vertex itself is
never output.

Flag-True nodes are exactly the roots of the unexplored subtrees: re-running
the search on each of them (same b, any order) eventually outputs every node
of the original subtree exactly once.  A search that never exhausts b
outputs the whole subtree minus the start, all False, in preorder.
The records are returned in a BudgetedSearchOutput, never written out.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._checks import require_count


@dataclass(frozen=True)
class BudgetedSearchOutput:
    """Ordered (node_id, flag) records from one budgeted search call.

    All flag-False records precede the first flag-True record, and there are
    at most budget - 1 of them.
    """

    start: int
    budget: int
    records: tuple

    @property
    def generated(self) -> int:
        return len(self.records)

    @property
    def explored(self) -> int:
        return sum(1 for _, flag in self.records if not flag)

    def unexplored(self) -> list:
        return [node for node, flag in self.records if flag]


def bdfs(oracle, start, max_degree: int, budget: int) -> BudgetedSearchOutput:
    """Run one budget-limited depth-first search and return its records.

    Parameters
    ----------
    oracle : callable (v, j) -> node or None, 1 <= j <= max_degree
    start : vertex the search descends from (never output)
    max_degree : largest child index the oracle will be probed at
    budget : b >= 1, nodes generated before exploration stops

    Two explicit stacks (vertex, child index) make the walk iterative; the
    pair popped on backtrack resumes the parent's child scan where it left
    off.  A None child advances j without pushing, counting, or outputting.
    """
    budget = require_count("budget", budget)
    max_degree = require_count("max_degree", max_degree)
    records = []
    stack_v = []
    stack_j = []
    v = start
    j = 0
    count = 0
    while True:
        unexplored = False
        while j < max_degree and not unexplored:
            j += 1
            child = oracle(v, j)
            if child is None:
                continue
            stack_v.append(v)
            stack_j.append(j)
            v = child
            count += 1
            if count >= budget:
                unexplored = True
            records.append((v, unexplored))
            if count < budget:
                j = 0
        if stack_v:
            v = stack_v.pop()
            j = stack_j.pop()
        else:
            break
    return BudgetedSearchOutput(start=start, budget=budget, records=tuple(records))

