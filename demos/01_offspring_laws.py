"""Tour of the built-in critical offspring laws.

Every law here has mean 1 (criticality), so the tree each one generates is
finite with probability 1 but has infinite expected size.  The variance is
the single number the search asymptotics care about; the span decides which
tree sizes exist at all.  Truncated families (geometric, poisson) are cut
once the tail drops below 1e-13 and renormalized, which moves their moments
by less than 1e-9.
"""

from gwsearch import offspring

SPECS = ["catalan", "full_binary", "ternary_uniform", "harmonic:3", "harmonic:10",
         "geometric", "poisson", "binomial:4"]


def main():
    print(f"{'law':<16} {'mean':>10} {'variance':>10} {'span':>5} {'max deg':>8}")
    for spec in SPECS:
        d = offspring.parse_spec(spec)
        print(f"{spec:<16} {d.mean:>10.6f} {d.variance:>10.6f} "
              f"{d.span:>5d} {d.max_degree:>8d}")

    print()
    print("harmonic:D has variance (D-1)/2, so D tunes sigma^2 directly:")
    for delta in (2, 3, 5, 10):
        d = offspring.make_builtin("harmonic", delta)
        print(f"  D={delta:<3d} variance={d.variance:.6f} target={(delta - 1) / 2}")

    print()
    print("truncation quality of the infinite-support families:")
    for name, var_target in (("geometric", 2.0), ("poisson", 1.0)):
        d = offspring.make_builtin(name)
        print(f"  {name}: support 0..{d.max_degree}, |mean-1| = {abs(d.mean - 1):.2e}, "
              f"|variance-{var_target:g}| = {abs(d.variance - var_target):.2e}")

    print()
    print("the span in action: full_binary only ever closes at odd sizes")
    fb = offspring.make_builtin("full_binary")
    print(f"  full_binary span = {fb.span} (degrees 0 and 2 only)")
    print("  custom laws go through the same validation:")
    custom = offspring.parse_spec("custom:0.25,0.5,0.25")
    print(f"  custom:0.25,0.5,0.25 == catalan? "
          f"{custom.pmf.tolist() == offspring.make_builtin('catalan').pmf.tolist()}")


if __name__ == "__main__":
    main()
