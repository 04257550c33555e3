"""Peak and kept memory of each gwtree layer and of mu_mc, per node or sample.

    python3 scripts/mem_profile.py [--spec ternary_uniform] [--n 200000] [--seed 1]
                                   [--budget 1000] [--samples 1000000]

Run it from anywhere inside a checkout of the repository: the library is
imported from the checkout's ``src/``.  For one tree, sampled by
``sample_at_least(spec, n, seed)``, each layer runs once under tracemalloc,
which sees numpy's array buffers as well as Python objects:

* ``sample_at_least`` (the accepted tree's size is the per-node base of
  every row), ``PreorderTree`` rebuilt from that tree's degrees,
  ``extent``, ``write_tree`` and ``read_tree``;
* ``mu_mc(spec, budget, samples, seed)``, per sample.

A row gives the layer's peak above the memory held before it started, and
what it keeps once it returns, in bytes per node (per sample for mu_mc);
temporary is peak minus kept.  Last, a fresh interpreter runs check 5's
pipeline on its first case (ternary_uniform, n >= 5*10^6, seed 5: sample,
extent, write, read, extent) and the script prints that child's ru_maxrss.
The per-layer rows are deterministic for a given numpy; the ru_maxrss is
not, as it also counts the interpreter and whatever the allocator keeps.
"""

from __future__ import annotations

import argparse
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
    from gwsearch import analysis, gwtree, offspring

    dist = offspring.parse_spec(args.spec)
    rows = []
    (tree, attempts), peak, kept = traced(
        lambda: gwtree.sample_at_least(dist, args.n, seed=args.seed))
    n = tree.n
    rows.append(("sample_at_least", peak / n, kept / n))
    _, peak, kept = traced(lambda: gwtree.PreorderTree(tree.degrees))
    rows.append(("PreorderTree", peak / n, kept / n))
    _, peak, kept = traced(lambda: tree.extent)
    rows.append(("extent", peak / n, kept / n))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tree.txt"
        _, peak, kept = traced(lambda: gwtree.write_tree(tree, path))
        rows.append(("write_tree", peak / n, kept / n))
        back, peak, kept = traced(lambda: gwtree.read_tree(path))
        rows.append(("read_tree", peak / n, kept / n))
    if not (back.degrees == tree.degrees).all():
        sys.exit("mem_profile: read_tree did not give back the written degrees")
    del back
    _, peak, kept = traced(
        lambda: analysis.mu_mc(dist, args.budget, args.samples, seed=args.seed))
    mc = ("mu_mc", peak / args.samples, kept / args.samples)

    print(f"{args.spec}: n = {n:,} (n_min {args.n:,}, seed {args.seed}, "
          f"{attempts} attempts); mu_mc at b = {args.budget}, {args.samples:,} samples")
    print(f"{'layer':<16} {'peak':>8} {'kept':>8} {'temporary':>10}  bytes per")
    for name, peak, kept in rows + [mc]:
        unit = "sample" if name == "mu_mc" else "node"
        print(f"{name:<16} {peak:8.2f} {kept:8.2f} {peak - kept:10.2f}  {unit}")
    size, mb = check5_maxrss_mb()
    print(f"check 5 pipeline (n = {size:,}: sample, extent, write, read, extent): "
          f"ru_maxrss {mb:.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
