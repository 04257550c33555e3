"""Peak and kept memory of each gwtree layer, the scheduler and mu_mc.

    python3 scripts/mem_profile.py [--spec ternary_uniform] [--n 200000] [--seed 1]
                                   [--budget 1000] [--samples 1000000]

Run it from anywhere inside a checkout of the repository: the library is
imported from the checkout's ``src/``.  For one tree, sampled by
``sample_at_least(spec, n, seed)``, each layer runs once under tracemalloc,
which sees numpy's array buffers as well as Python objects, after one
untraced small sampling call has loaded what numpy imports lazily:

* ``sample_at_least`` (the accepted tree's size is the base of every
  per-node row below it), ``sample_exact`` at the first size >= n that the
  law reaches (per node of that tree), ``PreorderTree`` rebuilt from the
  first tree's degrees, ``extent``, ``write_tree`` and ``read_tree``;
* ``run_single(tree, 2)`` under each pop policy, and
  ``run_adaptive(tree, 500, n, inf, 2)``, which halves its budget at every
  check and runs at b = 2 from its ninth call on, per call: at b = 2 a run
  makes about 0.6 calls a node, the most of any budget but 1;
* ``mu_mc(spec, budget, samples, seed)``, per sample.

A row gives the layer's peak above the memory held before it started, and
what it keeps once it returns, in bytes per node, call or sample; temporary
is peak minus kept.  Last, a fresh interpreter runs check 5's pipeline on
its first case (ternary_uniform, n >= 5*10^6, seed 5: sample, extent,
write, read, extent) and the script prints that child's ru_maxrss.
The per-layer rows are deterministic for a given numpy; the ru_maxrss is
not, as it also counts the interpreter and whatever the allocator keeps.
"""

from __future__ import annotations

import argparse
import math
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CHECK5_CODE = """
import sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from gwsearch import gwtree, offspring, verify
spec, n_min, seed, cap = verify.SCALE_CASES[0]
tree, _ = gwtree.sample_at_least(offspring.parse_spec(spec), n_min, seed=seed, cap=cap)
tree.extent
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "tree.txt"
    gwtree.write_tree(tree, path)
    del tree
    back = gwtree.read_tree(path)
back.extent
print(back.n)
"""


def traced(fn):
    """(result, peak bytes, kept bytes) of fn(), both above what was held before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, kept - base


def check5_maxrss_mb() -> tuple[int, float]:
    """(tree size, ru_maxrss in MB) of check 5's first pipeline in a child."""
    out = subprocess.run([sys.executable, "-c", CHECK5_CODE, str(SRC)], check=True,
                         capture_output=True, text=True).stdout
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # Linux: KiB
    return int(out), kb / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", default="ternary_uniform")
    parser.add_argument("--n", type=int, default=200_000, help="n_min of the tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--budget", type=int, default=1000, help="mu_mc budget")
    parser.add_argument("--samples", type=int, default=1_000_000, help="mu_mc samples")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from gwsearch import analysis, gwtree, offspring, scheduler

    dist = offspring.parse_spec(args.spec)
    # untraced: numpy's lazy imports (numpy.random._pickle, about 0.7 MB, on
    # the first read of a generator's state) are not the sampler's
    gwtree.sample_at_least(dist, 2, seed=args.seed)
    rows = []  # (layer, peak, kept, count, unit)
    (tree, attempts), peak, kept = traced(
        lambda: gwtree.sample_at_least(dist, args.n, seed=args.seed))
    n = tree.n
    rows.append(("sample_at_least", peak, kept, n, "node"))
    n_exact = args.n + -(args.n - 1) % dist.span  # sizes are 1 mod the span
    (exact, _), peak, kept = traced(
        lambda: gwtree.sample_exact(dist, n_exact, seed=args.seed))
    rows.append(("sample_exact", peak, kept, exact.n, "node"))
    del exact
    _, peak, kept = traced(lambda: gwtree.PreorderTree(tree.degrees))
    rows.append(("PreorderTree", peak, kept, n, "node"))
    _, peak, kept = traced(lambda: tree.extent)
    rows.append(("extent", peak, kept, n, "node"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tree.txt"
        _, peak, kept = traced(lambda: gwtree.write_tree(tree, path))
        rows.append(("write_tree", peak, kept, n, "node"))
        back, peak, kept = traced(lambda: gwtree.read_tree(path))
        rows.append(("read_tree", peak, kept, n, "node"))
    if not (back.degrees == tree.degrees).all():
        sys.exit("mem_profile: read_tree did not give back the written degrees")
    del back
    for name, run in (
            ("run_single lifo", lambda: scheduler.run_single(tree, 2, "lifo")),
            ("run_single fifo", lambda: scheduler.run_single(tree, 2, "fifo")),
            ("run_adaptive", lambda: scheduler.run_adaptive(tree, 500, n, math.inf, 2))):
        stats, peak, kept = traced(run)
        rows.append((name, peak, kept, stats.calls, "call"))
    _, peak, kept = traced(
        lambda: analysis.mu_mc(dist, args.budget, args.samples, seed=args.seed))
    rows.append(("mu_mc", peak, kept, args.samples, "sample"))

    print(f"{args.spec}: n = {n:,} (n_min {args.n:,}, seed {args.seed}, "
          f"{attempts} attempts); runs at b = 2; mu_mc at b = {args.budget}, "
          f"{args.samples:,} samples")
    print(f"{'layer':<16} {'peak':>8} {'kept':>8} {'temporary':>10}  bytes per")
    for name, peak, kept, count, unit in rows:
        print(f"{name:<16} {peak / count:8.2f} {kept / count:8.2f} "
              f"{(peak - kept) / count:10.2f}  {unit}")
    size, mb = check5_maxrss_mb()
    print(f"check 5 pipeline (n = {size:,}: sample, extent, write, read, extent): "
          f"ru_maxrss {mb:.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
