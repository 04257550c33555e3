"""Peak memory per tree node of the gwtree layers, per sample of mu_mc,
and per call of the scheduler's runs.

tracemalloc sees numpy's array buffers.  Each bound is what the layer must
hold in full plus room for its DRAW_BLOCK-sized buffers (1-2.5 MB, so 5-12
bytes a node at the 2.2*10^5-node trees here, and 1-2.5 a sample at 10^6
samples):

* sample_at_least: the chunks of the accepted tree in the draws' dtype
  (one byte a node for these laws), their int32 concatenation and Q, 9
  bytes a node; bound 24.
* extent: the int64 leaf keys (8 bytes a leaf; 2.7 and 5.7 bytes a node
  for these laws) and the int32 extents; bound 18.
* write_tree: nothing in full; bound 8.
* read_tree: the text (about 2 bytes a node), its word mask, the int32
  word starts and ends, then the int32 degrees and Q; bound 28.
* mu_mc: its int16 sums, 2 bytes a sample; bound 10.
* run_single and run_adaptive at b = 2 (about 0.6 calls a node): the int32
  starts, ends and roots, the int32 sort keys (FIFO's generations take
  their searchsorted one DRAW_BLOCK slice at a time), an int64 pop order,
  then the int64 list sizes and budgets, which the result keeps; bounds 24
  at peak and 17 kept (Python lists of Python ints took 75-89 and 18-39;
  FIFO peaked at 25 with an int64 searchsorted of every call).

The seeds are those in 0..3 whose trees come nearest 2*10^5 nodes.

On a small tree the DRAW_BLOCK buffers are most of the peak.  sample_at_least
must release each read-ahead block before it draws the next: with 8-byte
draws a 26,554-node tree then peaked at about 1.6 MB, against 2.1 MB when
the old block was held over the draw; bound 1.75 MB.  Its blocks now take
one byte a draw, and the tree peaks at about 0.7 MB.
"""

import math
import tracemalloc

import pytest

from gwsearch import analysis, gwtree, offspring, scheduler


def traced(fn):
    """(fn(), its peak and its kept traced bytes above what was held before)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, kept - base


@pytest.mark.parametrize("spec, seed", [("ternary_uniform", 2), ("harmonic:10", 0)])
def test_tree_layers_peak_bytes_per_node(spec, seed, tmp_path):
    dist = offspring.parse_spec(spec)
    (tree, _), peak, _ = traced(
        lambda: gwtree.sample_at_least(dist, 200_000, seed=seed, cap=300_000))
    n = tree.n
    assert peak / n <= 24
    _, peak, _ = traced(lambda: tree.extent)
    assert peak / n <= 18
    path = tmp_path / "t.tree"
    _, peak, _ = traced(lambda: gwtree.write_tree(tree, path))
    assert peak / n <= 8
    back, peak, _ = traced(lambda: gwtree.read_tree(path))
    assert peak / n <= 28
    assert (back.degrees == tree.degrees).all()


def test_sample_at_least_releases_read_ahead_blocks():
    dist = offspring.parse_spec("ternary_uniform")

    def sample():
        return gwtree.sample_at_least(dist, 20_000, seed=2, cap=30_000)

    sample()  # untraced: numpy's lazy imports are not the sampler's
    (tree, attempts), peak, _ = traced(sample)
    assert (tree.n, attempts) == (26_554, 378)
    assert peak <= 1.75e6


def test_mu_mc_peak_bytes_per_sample():
    samples = 10**6
    _, peak, _ = traced(
        lambda: analysis.mu_mc(offspring.parse_spec("harmonic:10"), 100, samples, seed=1))
    assert peak / samples <= 10


def test_scheduler_peak_bytes_per_call():
    tree, _ = gwtree.sample_at_least(offspring.parse_spec("ternary_uniform"), 200_000,
                                     seed=2, cap=300_000)
    tree.extent  # untraced: the tree's, not the run's
    # the adaptive run divides from 500 at every check and pins at 2 after eight calls
    for run in (lambda: scheduler.run_single(tree, 2, policy="lifo"),
                lambda: scheduler.run_single(tree, 2, policy="fifo"),
                lambda: scheduler.run_adaptive(tree, 500, tree.n, math.inf, 2)):
        stats, peak, kept = traced(run)
        assert stats.calls > tree.n / 2
        assert peak / stats.calls <= 24
        assert kept / stats.calls <= 17
