"""Command-line front end: generate trees, search them, sweep, simulate, verify.

Subcommands
    dist      print the moments, span, and max degree of an offspring law
    gen       sample a tree (exact size or at-least size) to a file
    search    run the budgeted master loop over a stored tree
    sweep     sample trees and emit restart-law verification rows
    simulate  replay one run on W simulated workers with restart cost r
    verify    run the acceptance checks (fast or full)

search --out/--trace, simulate --out and sweep --out are CSV files written
here, by _write_csv; the library returns dataclasses and writes no CSV.
Floats in the output carry 6 significant digits (_fmt).

A single 64-bit --seed drives every subcommand; sweeps expand it into one
substream per sampled tree (indices 0, 1, ...) via the splitmix derivation
in `seeds.substream`, and take mu_b from the exact size law, so reruns with
the same configuration are byte-identical.
verify is the exception: its randomized checks draw a fresh seed and print
it unless --seed replays one.
Exit codes: 0 on success, 1 on a domain or usage error, 2 when verification
fails.

Examples:
    gwsearch dist --dist harmonic:10
    gwsearch gen --dist catalan --n 25 --seed 7 --out tree.txt
    gwsearch search --tree tree.txt --budget 13 --out summary.csv --trace trace.csv
    gwsearch sweep --dist ternary_uniform --n-min 100000 --budget 50,500 \\
        --runs 3 --seed 42 --out sweep.csv
    gwsearch simulate --tree tree.txt --budget 13 --workers 4 --restart-cost 2
    gwsearch verify --level full
    gwsearch verify --seed 12345
"""

import argparse
import csv
import re
import sys

from . import analysis, gwtree, offspring, scheduler, verify
from .seeds import substream


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; reserve 2 for verification failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _budget_list(text: str):
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    # checked before any tree is sampled; the exact size law stops at DP_LIMIT
    if not values or not all(1 <= b <= analysis.DP_LIMIT for b in values):
        raise argparse.ArgumentTypeError(
            f"need one or more budgets, each in 1..{analysis.DP_LIMIT}")
    return values


def _integer(text: str, name: str) -> int:
    # argparse would name the private type function in a plain ValueError
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{name} must be an integer") from None


def _runs(text: str) -> int:
    runs = _integer(text, "runs")
    if runs < 1:
        raise argparse.ArgumentTypeError("runs must be >= 1")
    return runs


def _seed(text: str) -> int:
    seed = _integer(text, "seed")
    if seed < 0:  # at parse time, before sweep or gen samples anything
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


# a non-negative decimal such as 2.5 or 1e-3, or a ratio p/q such as 1/3; the
# exponent is bounded so that the exact value is cheap to build
_COST = re.compile(r"\s*(\d+/\d+|(\d+\.?\d*|\.\d+)([eE][-+]?\d{1,3})?)\s*")


def _restart_cost(text: str):
    """--restart-cost, kept exact: "0.1" is 1/10 and "1/3" is 1/3."""
    try:
        if _COST.fullmatch(text):
            from fractions import Fraction  # loads decimal: only on use
            return Fraction(text)
    except (ValueError, ZeroDivisionError):  # q = 0, or over 4300 digits
        pass
    raise ValueError(
        "restart_cost must be >= 0 and finite: a decimal such as 2.5 or a "
        f"ratio p/q such as 1/3, got {text!r}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_dist(args) -> int:
    dist = offspring.parse_spec(args.dist)
    print("pmf:", " ".join(f"{p:.6g}" for p in dist.pmf))
    print(f"mean: {dist.mean:.6g}")
    print(f"variance: {dist.variance:.6g}")
    print(f"span: {dist.span}")
    print(f"max degree: {dist.max_degree}")
    return 0


def cmd_gen(args) -> int:
    dist = offspring.parse_spec(args.dist)
    if (args.n is None) == (args.n_min is None):
        raise ValueError("exactly one of --n (exact) or --n-min (at least) is required")
    if args.n is not None and args.cap is not None:
        raise ValueError("--cap bounds --n-min attempts only; it does not apply with --n")
    if args.n is not None:
        tree, attempts = gwtree.sample_exact(dist, args.n, seed=args.seed,
                                             max_attempts=args.max_attempts)
    else:
        tree, attempts = gwtree.sample_at_least(dist, args.n_min, seed=args.seed,
                                                max_attempts=args.max_attempts,
                                                cap=args.cap)
    gwtree.write_tree(tree, args.out)
    with open(args.out + ".meta", "w") as fh:
        fh.write(f"n={len(tree)} seed={args.seed} attempts={attempts}\n")
    print(f"wrote {args.out}: n={len(tree)} attempts={attempts}")
    return 0


def cmd_search(args) -> int:
    tree = gwtree.read_tree(args.tree)
    stats = scheduler.run_single(tree, args.budget, policy=args.policy)
    print(f"n={stats.n} b={args.budget} policy={stats.policy} R={stats.restarts} "
          f"calls={stats.calls} evaluations={stats.evaluations}")
    if args.out:
        _write_csv(args.out, ["n", "b", "policy", "R", "calls", "evaluations"],
                   [[stats.n, args.budget, stats.policy, stats.restarts,
                     stats.calls, stats.evaluations]])
    if args.trace:
        _write_csv(args.trace, ["call", "list_size", "budget"],
                   zip(range(1, stats.calls + 1), stats.list_sizes, stats.budgets))
    return 0


def cmd_sweep(args) -> int:
    dist = offspring.parse_spec(args.dist)
    rows = []
    for run in range(args.runs):
        tree, _ = gwtree.sample_at_least(dist, args.n_min,
                                         seed=substream(args.seed, run),
                                         cap=args.cap)
        n = len(tree)
        for budget in args.budget:
            stats = scheduler.run_single(tree, budget, policy=args.policy)
            report = analysis.theorem1_check(stats.restarts, n, dist, budget)
            rows.append([args.dist, report.budget, report.n, report.restarts,
                         _fmt(report.rho_table), _fmt(report.rho_exact),
                         _fmt(report.estimate)])
            print(f"{args.dist} b={budget} n={n} R={stats.restarts} "
                  f"rho_table={report.rho_table:.6g} rho_exact={report.rho_exact:.6g} "
                  f"estimate={report.estimate:.6g}")
        del tree
    if args.out:
        _write_csv(args.out, ["dist", "b", "n", "R", "rho_table", "rho_exact",
                              "estimate_sqrt_pi_over_8b"], rows)
    return 0


def cmd_simulate(args) -> int:
    tree = gwtree.read_tree(args.tree)
    report = scheduler.simulate_parallel(tree, args.budget, workers=args.workers,
                                         restart_cost=_restart_cost(args.restart_cost),
                                         policy=args.policy)
    print(f"workers={report.workers} restart_cost={_fmt(report.restart_cost)} "
          f"jobs={report.jobs} restarts={report.restarts} "
          f"evaluations={report.evaluations} makespan={_fmt(report.makespan)} "
          f"idle_time={_fmt(report.idle_time)} "
          f"restart_overhead={_fmt(report.restart_overhead)} "
          f"speedup={_fmt(report.speedup)}")
    if args.out:
        _write_csv(args.out, ["workers", "restart_cost", "jobs", "makespan",
                              "idle_time", "restart_overhead", "speedup"],
                   [[report.workers, _fmt(report.restart_cost), report.jobs,
                     _fmt(report.makespan), _fmt(report.idle_time),
                     _fmt(report.restart_overhead), _fmt(report.speedup)]])
    return 0


def cmd_verify(args) -> int:
    results = verify.run_acceptance(args.level, seed=args.seed)
    return 0 if all(r.passed for r in results) else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="gwsearch",
                     description="Budgeted depth-first search over Galton-Watson trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="print moments and span of an offspring law")
    p.add_argument("--dist", required=True,
                   help="law spec, e.g. catalan, harmonic:10, custom:0.25,0.5,0.25")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("gen", help="sample a tree to a file")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, help="exact number of nodes")
    p.add_argument("--n-min", type=int, help="minimum number of nodes")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="tree file; sidecar <out>.meta records n/seed/attempts")
    p.add_argument("--max-attempts", type=int, default=None)
    p.add_argument("--cap", type=int, default=None,
                   help="with --n-min: abort any single attempt beyond this many nodes")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("search", help="run the budgeted master loop on a stored tree")
    p.add_argument("--tree", required=True, help="tree file from gen")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--policy", choices=scheduler.POLICIES, default="lifo")
    p.add_argument("--out", help="summary CSV (n,b,policy,R,calls,evaluations)")
    p.add_argument("--trace", help="per-call CSV (call,list_size,budget)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="sample trees and emit restart-law rows")
    p.add_argument("--dist", required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--budget", type=_budget_list, required=True,
                   help="comma-separated budgets, e.g. 50,500,5000")
    p.add_argument("--runs", type=_runs, default=1, help="trees per sweep")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--policy", choices=scheduler.POLICIES, default="lifo")
    p.add_argument("--cap", type=int, default=None,
                   help="abort any single attempt beyond this many nodes "
                        "(default: 100 * n-min, at most 2**31 - 1)")
    p.add_argument("--out", help="verification CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="replay one run on simulated workers")
    p.add_argument("--tree", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--restart-cost", default="0",
                   help="time to start a job, exact: e.g. 2, 0.1 or 1/3")
    p.add_argument("--policy", choices=scheduler.POLICIES, default="lifo")
    p.add_argument("--out", help="simulation CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--level", choices=verify.LEVELS, default="fast")
    p.add_argument("--seed", type=int, default=None,
                   help="replay checks 6 and 7 from the seed a run printed")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, gwtree.AttemptsExhausted) as exc:
        print(f"gwsearch: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. gen --n 10**12
        print(f"gwsearch: error: out of memory{': ' if str(exc) else ''}{exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
