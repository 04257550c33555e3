"""Budgeted depth-first search: frozen traces, ordering, tiling."""

import pytest

from gwsearch.bdfs import bdfs

FALSE_PREFIX_13 = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
TRUE_SUFFIX_13 = [13, 15, 16, 18, 22]


def test_trace_budget_13(tree25):
    out = bdfs(tree25.adj, 0, tree25.max_degree, 13)
    assert out.start == 0 and out.budget == 13
    assert out.records == tuple([(v, False) for v in FALSE_PREFIX_13]
                                + [(v, True) for v in TRUE_SUFFIX_13])
    assert out.generated == 17
    assert out.explored == 12
    assert out.unexplored() == TRUE_SUFFIX_13


def test_trace_budget_8(tree25):
    out = bdfs(tree25.adj, 0, tree25.max_degree, 8)
    assert [v for v, flag in out.records if not flag] == [1, 2, 3, 4, 5, 6, 7]
    assert out.unexplored() == [8, 9, 10, 11, 15, 16, 18, 22]


def test_trace_budget_1(tree25):
    # count reaches the budget on the first node: every record is a root handed back
    out = bdfs(tree25.adj, 0, tree25.max_degree, 1)
    assert out.records == ((1, True), (7, True), (18, True), (22, True))
    assert out.explored == 0


def test_budget_covers_whole_subtree(tree25):
    for b in (25, 100):
        out = bdfs(tree25.adj, 0, tree25.max_degree, b)
        assert out.records == tuple((v, False) for v in range(1, 25))
        assert out.unexplored() == []
    # b = n - 1 is one short: the very last node generated trips the budget
    out = bdfs(tree25.adj, 0, tree25.max_degree, 24)
    assert out.unexplored() == [24]


def test_start_below_root(tree25):
    # subtree of 7 is [7, 18); the start itself is never output
    out = bdfs(tree25.adj, 7, tree25.max_degree, 100)
    assert out.records == tuple((v, False) for v in range(8, 18))
    out = bdfs(tree25.adj, 2, tree25.max_degree, 5)
    assert out.records == ()


def test_record_order_property(tree25):
    for b in range(1, 26):
        out = bdfs(tree25.adj, 0, tree25.max_degree, b)
        flags = [flag for _, flag in out.records]
        assert flags == sorted(flags)  # all False before the first True
        assert out.explored <= b - 1


def test_none_gaps_are_skipped():
    # sparse child indices: missing j advances the scan without counting
    edges = {("a", 2): "b", ("b", 3): "c"}
    out = bdfs(lambda v, j: edges.get((v, j)), "a", 3, 10)
    assert out.records == (("b", False), ("c", False))


def test_tiling_outputs_every_node_once(tree25):
    for b in (1, 2, 3, 4, 5, 6, 7, 8, 13, 24, 25):
        seen = []
        starts = [0]
        while starts:
            out = bdfs(tree25.adj, starts.pop(), tree25.max_degree, b)
            seen.extend(v for v, _ in out.records)
            starts.extend(out.unexplored())
        assert sorted(seen) == list(range(1, 25))


def test_validation(tree25):
    for budget in (0, float("nan")):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            bdfs(tree25.adj, 0, tree25.max_degree, budget)
    for max_degree in (0, float("nan")):
        with pytest.raises(ValueError, match="max_degree must be >= 1"):
            bdfs(tree25.adj, 0, max_degree, 5)
