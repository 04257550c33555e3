"""Acceptance suite: eight numbered checks of the search and its restart law.

Each check guards one verified property of the package.  The fast tier runs
the deterministic fixtures and exact oracles (checks 1-4, 6, 7).  The full
tier adds the million-node sweeps (checks 5, 8), which sample large trees,
run budgeted searches on them, and compare the observed restart counts with
the exact expected work.

Checks 1 and 7 pin the 25-node example tree used throughout the docs: its
search traces, restart counts, job-list sizes, and simulated makespans are
known in closed form and must match exactly.  Checks 2-4 cross-validate the
independent routes to the size law and expected work (enumeration, the
rational convolution DP, the float Newton path, Monte Carlo, closed-form
asymptotic).  Checks 6 and 7 run on freshly seeded random trees, so every
invocation exercises new instances; each prints its seed, and
run_acceptance(seed=N) (CLI: verify --seed N) replays it.  Checks 5 and 8
verify the restart-count law R/n -> 1/mu_b and its sqrt(b) budget scaling on
trees with n >= 10^6.
"""

import dataclasses
import time

import numpy as np

from . import analysis, gwtree, offspring, scheduler
from ._checks import require_integer
from .bdfs import bdfs
from .seeds import generator, substream

# Degree sequence (preorder) of the 25-node example tree.  Node ids are
# preorder ranks 0..24; the root has four children.
EXAMPLE_TREE_DEGREES = (4, 5, 0, 0, 0, 0, 0, 6, 0, 0, 0, 2, 0, 1, 0,
                        0, 1, 0, 3, 0, 0, 0, 2, 0, 0)

ORACLE_DISTRIBUTIONS = ("catalan", "full_binary", "ternary_uniform", "harmonic:3")

# Frozen scale cases: (spec, n_min, seed, cap).  Seeds were chosen after a
# typicality scan (eight seeds per law, all passing); caps bound memory.
SCALE_CASES = (
    ("ternary_uniform", 5_000_000, 5, 25_000_000),
    ("harmonic:3", 1_000_000, 2, 20_000_000),
    ("harmonic:10", 1_000_000, 2, 20_000_000),
)
SCALE_BUDGETS = (50, 500, 5000)
MC_MASTER_SEED = 42


def example_tree() -> gwtree.PreorderTree:
    """The 25-node example tree shared by fixtures, tests, and demos."""
    return gwtree.PreorderTree(np.array(EXAMPLE_TREE_DEGREES, dtype=np.int32))


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _check_fixtures():
    tree = example_tree()
    out13 = bdfs(tree.adj, 0, tree.max_degree, 13)
    flag_false = [v for v, flag in out13.records if not flag]
    flag_true = {v for v, flag in out13.records if flag}
    if flag_false != list(range(1, 13)) or flag_true != {13, 15, 16, 18, 22}:
        return False, f"b=13 trace mismatch: {flag_false} / {sorted(flag_true)}"
    out8 = bdfs(tree.adj, 0, tree.max_degree, 8)
    flag_true8 = {v for v, flag in out8.records if flag}
    if flag_true8 != {8, 9, 10, 11, 15, 16, 18, 22}:
        return False, f"b=8 frontier mismatch: {sorted(flag_true8)}"
    stats = scheduler.run_single(tree, 13)
    if (stats.restarts, stats.calls) != (5, 6) or tuple(stats.list_sizes) != (0, 4, 3, 2, 1, 0):
        return False, f"b=13 run mismatch: R={stats.restarts} sizes={stats.list_sizes.tolist()}"
    for b in (25, 100):
        if scheduler.run_single(tree, b).restarts != 0:
            return False, f"b={b} should explore everything in one call"
    if scheduler.run_single(tree, 1).restarts != 24:
        return False, "b=1 should flag every non-root node"
    return True, "25-node traces, restart counts, and list sizes match exactly"


def _check_size_law_oracles():
    worst = 0.0
    for spec in ORACLE_DISTRIBUTIONS:
        dist = offspring.parse_spec(spec)
        enum = analysis.enumerate_small_trees(dist, 9)
        rational = analysis.size_pmf_rational(dist, 9)
        if rational.pmf != enum.pmf:
            return False, f"rational path disagrees with enumeration for {spec}"
        floats = analysis.size_pmf_exact(dist, 9)
        for t in range(1, 10):
            worst = max(worst, abs(floats.pmf[t] - float(enum.pmf[t])))
    if worst > 1e-12:
        return False, f"float path off by {worst:.2e} (limit 1e-12)"
    return True, f"DP equals enumeration for n <= 9, float error {worst:.1e}"


def _check_mu_monte_carlo():
    worst = 0.0
    index = 0
    for spec in ORACLE_DISTRIBUTIONS:
        dist = offspring.parse_spec(spec)
        for budget in (10, 100, 1000):
            exact = analysis.mu_exact(dist, budget)
            mc = analysis.mu_mc(dist, budget, samples=1_000_000,
                                seed=substream(MC_MASTER_SEED, index))
            deviation = abs(mc.value - exact.value) / mc.std_error
            if deviation > 3.0:
                return False, (f"{spec} b={budget}: {deviation:.2f} SE "
                               f"(mc={mc.value:.4f}, exact={exact.value:.4f})")
            worst = max(worst, deviation)
            index += 1
    return True, f"12 estimates within 3 SE of the DP (worst {worst:.2f} SE)"


def _check_mu_asymptotic():
    budget = 10_000
    ratios = []
    for spec in ORACLE_DISTRIBUTIONS:
        dist = offspring.parse_spec(spec)
        ratio = analysis.mu_exact(dist, budget).value / analysis.mu_analytic(dist.variance, budget)
        ratios.append(ratio)
    lo, hi = min(ratios), max(ratios)
    if lo < 0.99 or hi > 1.01:
        return False, f"mu_exact/mu_analytic in [{lo:.4f}, {hi:.4f}], limit [0.99, 1.01]"
    return True, f"mu_exact/mu_analytic in [{lo:.4f}, {hi:.4f}] at b=10^4"


def _check_restart_law_scale():
    rho_lo, rho_hi, table_worst = float("inf"), 0.0, 0.0
    for spec, n_min, seed, cap in SCALE_CASES:
        dist = offspring.parse_spec(spec)
        tree, _ = gwtree.sample_at_least(dist, n_min, seed=seed, cap=cap)
        n = len(tree)
        for budget in SCALE_BUDGETS:
            stats = scheduler.run_single(tree, budget)
            report = analysis.theorem1_check(stats.restarts, n, dist, budget)
            if not 0.9 <= report.rho_exact <= 1.1:
                return False, (f"{spec} b={budget}: rho_exact={report.rho_exact:.4f} "
                               f"outside [0.9, 1.1]")
            table_error = abs(report.rho_table - report.estimate) / report.estimate
            if table_error > 0.2:
                return False, (f"{spec} b={budget}: R/(sigma n)={report.rho_table:.5f} "
                               f"vs sqrt(pi/8b)={report.estimate:.5f}, off by "
                               f"{table_error:.0%}")
            rho_lo = min(rho_lo, report.rho_exact)
            rho_hi = max(rho_hi, report.rho_exact)
            table_worst = max(table_worst, table_error)
        del tree
    return True, (f"9 runs: rho_exact in [{rho_lo:.3f}, {rho_hi:.3f}], "
                  f"table column within {table_worst:.0%} of sqrt(pi/8b)")


def _check_structural_invariants(rng):
    specs = ("catalan", "full_binary", "ternary_uniform", "harmonic:3",
             "geometric", "poisson", "binomial:4")
    tree_count = 0
    for spec in specs:
        dist = offspring.parse_spec(spec)
        tree, _ = gwtree.sample_at_least(dist, 50, seed=rng, cap=200_000)
        n = len(tree)
        tree_count += 1
        q = tree.q_path()
        if q[-1] != 0 or (q[1:-1] <= 0).any():
            return False, f"degree walk of a sampled {spec} tree is not positive"
        for budget in (1, 2, 7, 33, 1000):
            lifo = scheduler.run_single(tree, budget, policy="lifo")
            fifo = scheduler.run_single(tree, budget, policy="fifo")
            if lifo.evaluations != n - 1 or fifo.evaluations != n - 1:
                return False, f"{spec} b={budget}: evaluations != n-1"
            if lifo.restarts != fifo.restarts:
                return False, f"{spec} b={budget}: LIFO/FIFO restart counts differ"
            if n <= 2000:  # the same run by bdfs over tree.adj, call by call
                restarts = evaluations = 0
                jobs = [0]
                while jobs:
                    out = bdfs(tree.adj, jobs.pop(), tree.max_degree, budget)
                    unexplored = out.unexplored()
                    evaluations += out.generated
                    restarts += len(unexplored)
                    jobs.extend(unexplored)
                if (restarts, evaluations) != (lifo.restarts, lifo.evaluations):
                    return False, f"{spec} b={budget}: bdfs-driven run disagrees"
        for workers in (1, 2, 5):
            report = scheduler.simulate_parallel(tree, 33, workers=workers)
            if report.restarts != scheduler.run_single(tree, 33).restarts:
                return False, f"{spec} W={workers}: simulated restarts depend on W"
            if report.evaluations != n - 1:
                return False, f"{spec} W={workers}: simulated evaluations != n-1"
    rotations = 0
    for spec in ("catalan", "harmonic:3", "full_binary"):
        dist = offspring.parse_spec(spec)
        done = 0
        while done < 9:
            n = int(rng.integers(2, 51))
            if spec == "full_binary" and n % 2 == 0:
                continue
            draws = dist.draw(rng, n)
            if draws.sum() != n - 1:
                continue
            valid = []
            for r in range(n):
                rolled = np.roll(draws, -r)
                c = np.cumsum(rolled - 1)
                if c[-1] == -1 and (c[:-1] >= 0).all():
                    valid.append(r)
            if valid != [gwtree._rotation(draws)]:
                return False, f"{spec} n={n}: {len(valid)} valid rotations, expected 1"
            done += 1
            rotations += 1
    return True, (f"{tree_count} fresh trees x 5 budgets: evaluations, policy/W "
                  f"invariance, positivity; {rotations} unique rotations")


def _check_simulation(rng):
    tree = example_tree()
    report = scheduler.simulate_parallel(tree, 13, workers=1, restart_cost=0)
    if report.makespan != 24 or report.idle_time != 0:
        return False, f"W=1 r=0: makespan={report.makespan}, idle={report.idle_time}"
    report = scheduler.simulate_parallel(tree, 13, workers=1, restart_cost=2)
    if report.makespan != 36:
        return False, f"W=1 r=2 on the example tree: makespan={report.makespan} != 36"
    trees = [tree]
    for spec in ("catalan", "ternary_uniform"):
        dist = offspring.parse_spec(spec)
        sampled, _ = gwtree.sample_at_least(dist, 200, seed=rng, cap=100_000)
        trees.append(sampled)
    for sampled in trees:
        n = len(sampled)
        base = scheduler.run_single(sampled, 13).restarts
        for workers in (1, 2, 3, 5):
            for cost in (0, 1, 2, 7):
                report = scheduler.simulate_parallel(sampled, 13, workers=workers,
                                                     restart_cost=cost)
                bound = -(-(n - 1 + cost * report.jobs) // workers)
                if report.makespan < bound:
                    return False, (f"n={n} W={workers} r={cost}: makespan "
                                   f"{report.makespan} below bound {bound}")
                if workers == 1 and cost == 0 and report.makespan != n - 1:
                    return False, f"n={n}: serial zero-cost makespan != n-1"
                if report.restarts != base:
                    return False, f"n={n} W={workers}: restarts depend on schedule"
    return True, "serial identity, example makespan 36, lower bound over 48 configs"


def _check_budget_scaling():
    spec, n_min, seed, cap = SCALE_CASES[0]
    dist = offspring.parse_spec(spec)
    tree, _ = gwtree.sample_at_least(dist, n_min, seed=seed, cap=cap)
    restarts = {b: scheduler.run_single(tree, b).restarts
                for b in (50, 500, 5000, 50_000, 500_000)}
    ratios = [restarts[50] / restarts[5000],
              restarts[500] / restarts[50_000],
              restarts[5000] / restarts[500_000]]
    if any(not 8.0 <= r <= 12.5 for r in ratios):
        return False, ("R(b)/R(100b) = " + ", ".join(f"{r:.2f}" for r in ratios) +
                       " outside [8, 12.5]")
    return True, ("R(b)/R(100b) = " + ", ".join(f"{r:.2f}" for r in ratios) +
                  " for b=50,500,5000 (sqrt(100)=10 expected)")


_CHECKS = (
    (1, "example-tree fixtures", "fast", _check_fixtures),
    (2, "size-law oracle agreement", "fast", _check_size_law_oracles),
    (3, "Monte Carlo expected work", "fast", _check_mu_monte_carlo),
    (4, "square-root work asymptotic", "fast", _check_mu_asymptotic),
    (5, "restart law at scale", "full", _check_restart_law_scale),
    (6, "structural invariants", "fast", _check_structural_invariants),
    (7, "simulation sanity", "fast", _check_simulation),
    (8, "budget scaling of restarts", "full", _check_budget_scaling),
)

LEVELS = ("fast", "full")


_SEEDED_CHECKS = (6, 7)


def run_acceptance(level: str = "fast", seed=None):
    """Run the acceptance checks; return a list of CriterionResult.

    level "fast" runs the fixture and oracle checks; "full" runs everything
    including the million-node sweeps.  One line per check is printed to
    sys.stdout, plus a closing summary naming failures.  The randomized
    checks 6 and 7 each get a generator seeded with the same seed, drawn
    afresh unless seed (an int >= 0) replays a printed one, and their lines
    end with it.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    if seed is None:
        # not secrets.randbits: importing secrets here would load hashlib and
        # OpenSSL (about 4 MB of RSS) on every import of gwsearch
        seed = int(generator().integers(2 ** 63))
    require_integer("seed", seed)  # a Generator would print no seed to replay
    generator(seed)  # the seed rule, checked before any check runs
    results = []
    for number, name, tier, check in _CHECKS:
        if tier == "full" and level != "full":
            continue
        start = time.perf_counter()
        if number in _SEEDED_CHECKS:
            passed, detail = check(generator(seed))
            detail = f"{detail}, seed={seed}"
        else:
            passed, detail = check()
        elapsed = time.perf_counter() - start
        results.append(CriterionResult(number, name, passed, detail, elapsed))
        status = "PASS" if passed else "FAIL"
        print(f"check {number} {name:<28s} {status}  {detail}  ({elapsed:.2f}s)")
    failed = [r for r in results if not r.passed]
    if failed:
        names = ", ".join(f"{r.number} ({r.name})" for r in failed)
        print(f"{len(failed)} of {len(results)} checks FAILED: {names}")
    else:
        print(f"all {len(results)} checks passed")
    return results
