"""The size law of a critical tree, three independent ways.

P{N = t} comes out of (1) the truncated convolution DP size_pmf_rational,
built on the identity P{N = t} = P{xi_1 + ... + xi_t = t - 1} / t,
(2) brute-force enumeration of every ordered tree with at most 9 nodes, and
(3) a histogram of sampled trees.  All three agree.  At large sizes the
float law of size_pmf_exact, computed by Newton iteration on
T(x) = x f(T(x)), converges to the local limit
d / (sigma sqrt(2 pi) t^(3/2)) -- the heavy tail that makes budgeted
restarts necessary in the first place.
"""

import numpy as np

from gwsearch import analysis, gwtree, offspring


def main():
    cat = offspring.make_builtin("catalan")

    law = analysis.size_pmf_rational(cat, 9)
    enum = analysis.enumerate_small_trees(cat, 9)
    print("catalan size law, exact rational arithmetic:")
    print(f"{'t':>3} {'convolution DP':>16} {'enumeration':>16} {'sampled':>9}")

    m = 100_000
    rng = np.random.default_rng(0)
    counts = np.zeros(10, dtype=int)
    for _ in range(m):
        got = gwtree.sample_unconditional(cat, rng, cap=4096)
        if isinstance(got, gwtree.PreorderTree) and got.n <= 9:
            counts[got.n] += 1
    for t in range(1, 10):
        print(f"{t:>3} {str(law.pmf[t]):>16} {str(enum.pmf[t]):>16} "
              f"{counts[t] / m:>9.5f}")

    print()
    print("tail mass P{N > 9}:", float(law.tail))
    print()
    print("approach to the local limit (ratio exact/asymptotic):")
    for t in (11, 101, 1001, 10_001):
        exact = analysis.size_pmf_exact(cat, t).pmf[t]
        ratio = exact / analysis.size_pmf_asymptotic(cat, t)
        print(f"  t={t:<6d} ratio={ratio:.5f}")

    print()
    fb = offspring.make_builtin("full_binary")
    print("parity: a full binary tree can never have an even size")
    fb_law = analysis.size_pmf_rational(fb, 8)
    print("  P{N=t} for t=1..8:", [str(p) for p in fb_law.pmf[1:]])

    print()
    print("conditioned sampling hits an exact size via the cycle lemma:")
    tree, attempts = gwtree.sample_exact(cat, 1001, seed=7)
    print(f"  catalan n=1001 in {attempts} attempts, "
          f"root degree {int(tree.degrees[0])}, height proxy max(Q) = "
          f"{int(tree.q_path().max())}")


if __name__ == "__main__":
    main()
