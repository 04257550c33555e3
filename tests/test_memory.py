"""Peak memory per tree node of the gwtree layers, and per sample of mu_mc.

tracemalloc sees numpy's array buffers.  Each bound is what the layer must
hold in full plus room for its DRAW_BLOCK-sized buffers (1-2.5 MB, so 5-12
bytes a node at the 2.2*10^5-node trees here, and 1-2.5 a sample at 10^6
samples):

* sample_at_least: the int32 chunks of the accepted tree, their
  concatenation and Q, 12 bytes a node; bound 24.
* extent: the int64 leaf keys (8 bytes a leaf; 2.7 and 5.7 bytes a node
  for these laws) and the int32 extents; bound 18.
* write_tree: nothing in full; bound 8.
* read_tree: the text (about 2 bytes a node), its word mask, the int32
  word starts and ends, then the int32 degrees and Q; bound 28.
* mu_mc: its int32 sums, 4 bytes a sample; bound 10.

The seeds are those in 0..3 whose trees come nearest 2*10^5 nodes.

On a small tree the DRAW_BLOCK buffers are most of the peak.  sample_at_least
must release each read-ahead block before it draws the next: a
26,554-node tree then peaks at about 1.6 MB, against 2.1 MB when the
old block is held over the draw; bound 1.75 MB.
"""

import tracemalloc

import pytest

from gwsearch import analysis, gwtree, offspring


def traced_peak(fn):
    """(fn(), its peak traced bytes above what was held before the call)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("spec, seed", [("ternary_uniform", 2), ("harmonic:10", 0)])
def test_tree_layers_peak_bytes_per_node(spec, seed, tmp_path):
    dist = offspring.parse_spec(spec)
    (tree, _), peak = traced_peak(
        lambda: gwtree.sample_at_least(dist, 200_000, seed=seed, cap=300_000))
    n = tree.n
    assert peak / n <= 24
    _, peak = traced_peak(lambda: tree.extent)
    assert peak / n <= 18
    path = tmp_path / "t.tree"
    _, peak = traced_peak(lambda: gwtree.write_tree(tree, path))
    assert peak / n <= 8
    back, peak = traced_peak(lambda: gwtree.read_tree(path))
    assert peak / n <= 28
    assert (back.degrees == tree.degrees).all()


def test_sample_at_least_releases_read_ahead_blocks():
    dist = offspring.parse_spec("ternary_uniform")

    def sample():
        return gwtree.sample_at_least(dist, 20_000, seed=2, cap=30_000)

    sample()  # untraced: numpy's lazy imports are not the sampler's
    (tree, attempts), peak = traced_peak(sample)
    assert (tree.n, attempts) == (26_554, 378)
    assert peak <= 1.75e6


def test_mu_mc_peak_bytes_per_sample():
    samples = 10**6
    _, peak = traced_peak(
        lambda: analysis.mu_mc(offspring.parse_spec("harmonic:10"), 100, samples, seed=1))
    assert peak / samples <= 10
