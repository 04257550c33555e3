"""The benchmark's three workloads: one pass each, its output checks, its pins.

A run repeats passes of one workload until its time is up, then runs the
workload's finish step once.  Pass ``p`` of master seed ``s`` draws every
random input from ``substream(s, p)``, so a seed fixes the inputs of the
whole run.  Each pass reports the work units it did; the end-to-end time is
the body time per unit.  Trees are drawn afresh every pass, and the cost of
a tree varies a lot with its random size and the sampler's random attempt
count, so a run averages over many passes instead of repeating one input.

Why each workload exists and which layer it loads:

* restart-sweep -- the restart-law sweep of check 5: sample a ternary tree,
  round-trip it through the text format, read its extents, search it at
  b = 50/500/5000 (LIFO) and 50 (FIFO), simulate the workers and run the
  adaptive master loop; theorem1_check per budget on the pooled totals.
  Sampling, extent and I/O in gwtree plus the scheduler do nearly all the
  work; analysis is a small fixed cost per run.  Trees are 10^5..5*10^5
  nodes (check 5 uses 5*10^6..2.5*10^7) so that a run holds enough of them
  for its cost per node to settle; the unit is 10^6 tree nodes.
* size-law -- theorem1_check with the exact size law at b = 10^4, plus
  mu_mc at b = 1000 with 10^6 samples, on harmonic:10.  analysis does about
  95% of the work; the scheduler runs at a large budget with few calls.
  The unit is one pass.
* exact-gen -- sample_exact for ternary_uniform and harmonic:10 at fixed n,
  then run_single at b = 500 on each tree.  The exact sampler does nearly
  all the work and no other workload calls it.  Its attempt count is
  geometric, so n is kept small enough (5,001) for a run to hold hundreds
  of trees.  The unit is one pass (one tree per law).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gwsearch import (mu_exact, mu_mc, parse_spec, read_tree, run_adaptive,
                      run_single, sample_at_least, sample_exact,
                      simulate_parallel, substream, theorem1_check, write_tree)

PINS_PATH = Path(__file__).with_name("pins.json")

# mu_mc must land within this many standard errors of mu_exact.  At 3 SE a
# correct estimator fails one check in 370; comparing two commits over ten
# seeds makes a few hundred of them, so 4 SE (one in 16,000) keeps false
# alarms out.
MC_TOLERANCE_SE = 4
RHO_RANGE = (0.9, 1.1)


class Checks:
    """Counts output checks; keeps the first few failures for the record."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")


def check_search(checks: Checks, label: str, stats, n: int) -> None:
    checks.check(f"{label}: evaluations == n - 1", stats.evaluations == n - 1,
                 f"{stats.evaluations} vs n={n}")
    checks.check(f"{label}: calls == restarts + 1", stats.calls == stats.restarts + 1,
                 f"calls={stats.calls} restarts={stats.restarts}")


def searched(tracer, tree, budget: int, policy: str = "lifo"):
    with tracer.span("scheduler.run_single") as sp:
        stats = run_single(tree, budget, policy=policy)
    sp.update(calls=stats.calls, restarts=stats.restarts, evaluations=stats.evaluations)
    return stats


def read_extent(tracer, tree) -> None:
    with tracer.span("gwtree.extent"):
        tree.extent


# -- restart-sweep --------------------------------------------------------

def restart_sweep_pass(cfg, seed, tracer, checks, state, workdir) -> dict:
    dist = cfg["dist"]
    with tracer.span("gwtree.sample_at_least") as sp:
        tree, attempts = sample_at_least(dist, cfg["n_min"], seed=seed, cap=cfg["cap"])
    sp.update(attempts=attempts, nodes=tree.n)
    n = tree.n
    checks.check("sample_at_least: n_min <= n <= cap", cfg["n_min"] <= n <= cfg["cap"],
                 f"n={n}")

    path = workdir / "tree.txt"
    with tracer.span("gwtree.write_tree") as sp:
        write_tree(tree, path)
    sp["bytes"] = path.stat().st_size
    with tracer.span("gwtree.read_tree"):
        back = read_tree(path)
    checks.check("read_tree: degrees equal the written ones",
                 back.n == n and np.array_equal(back.degrees, tree.degrees))
    tree = back  # search the tree read back, as gen followed by search would
    read_extent(tracer, tree)

    summary = {"n": n, "attempts": attempts, "R": {}, "calls": {}, "jobs": []}
    restarts = {}
    pooled = state.setdefault("R", dict.fromkeys(cfg["budgets"], 0))
    for b in cfg["budgets"]:
        stats = searched(tracer, tree, b)
        check_search(checks, f"run_single lifo b={b}", stats, n)
        restarts[b] = stats.restarts
        pooled[b] += stats.restarts
        summary["R"][str(b)] = stats.restarts
        summary["calls"][str(b)] = stats.calls

    b = cfg["fifo_budget"]
    fifo = searched(tracer, tree, b, policy="fifo")
    check_search(checks, f"run_single fifo b={b}", fifo, n)
    checks.check(f"LIFO R == FIFO R at b={b}", fifo.restarts == restarts[b],
                 f"{restarts[b]} vs {fifo.restarts}")

    for b, workers, cost in cfg["sims"]:
        with tracer.span("scheduler.simulate_parallel") as sp:
            sim = simulate_parallel(tree, b, workers, restart_cost=cost)
        sp.update(jobs=sim.jobs, restarts=sim.restarts, evaluations=sim.evaluations,
                  idle_frac=sim.idle_time / (workers * sim.makespan))
        label = f"simulate_parallel b={b} W={workers}"
        checks.check(f"{label}: restarts == run_single restarts",
                     sim.restarts == restarts[b], f"{sim.restarts} vs {restarts[b]}")
        checks.check(f"{label}: evaluations == n - 1", sim.evaluations == n - 1,
                     f"{sim.evaluations} vs n={n}")
        checks.check(f"{label}: jobs == restarts + 1", sim.jobs == sim.restarts + 1,
                     f"jobs={sim.jobs} restarts={sim.restarts}")
        summary["jobs"].append(sim.jobs)

    b, low, high, factor = cfg["adaptive"]
    with tracer.span("scheduler.run_adaptive") as sp:
        adaptive = run_adaptive(tree, b, low, high, factor)
    sp.update(calls=adaptive.calls, restarts=adaptive.restarts,
              evaluations=adaptive.evaluations)
    check_search(checks, "run_adaptive", adaptive, n)
    summary["adaptive_calls"] = adaptive.calls

    state["nodes"] = state.get("nodes", 0) + n
    return {"units": n / 1e6, "summary": summary}


def restart_sweep_finish(cfg, tracer, checks, state) -> dict:
    """theorem1_check per budget on the restarts and nodes of every pass."""
    rho = {}
    for b in cfg["budgets"]:
        with tracer.span("analysis.theorem1_check") as sp:
            report = theorem1_check(state["R"][b], state["nodes"], cfg["dist"], b)
        sp["mu_method"] = report.mu_method
        rho[str(b)] = report.rho_exact
        checks.check(f"pooled rho_exact in {RHO_RANGE} at b={b}",
                     RHO_RANGE[0] <= report.rho_exact <= RHO_RANGE[1],
                     f"{report.rho_exact:.4f}")
    return {"rho_exact": rho, "nodes": state["nodes"]}


# -- size-law -------------------------------------------------------------

def size_law_pass(cfg, seed, tracer, checks, state, workdir) -> dict:
    dist = cfg["dist"]
    with tracer.span("gwtree.sample_at_least") as sp:
        tree, attempts = sample_at_least(dist, cfg["n_min"], seed=seed, cap=cfg["cap"])
    sp.update(attempts=attempts, nodes=tree.n)
    n = tree.n
    checks.check("sample_at_least: n_min <= n <= cap", cfg["n_min"] <= n <= cfg["cap"],
                 f"n={n}")
    read_extent(tracer, tree)
    b = cfg["budget"]
    stats = searched(tracer, tree, b)
    check_search(checks, f"run_single b={b}", stats, n)
    del tree

    with tracer.span("analysis.theorem1_check") as sp:
        report = theorem1_check(stats.restarts, n, dist, b, mu_method="exact")
    sp["mu_method"] = report.mu_method
    state["R"] = state.get("R", 0) + stats.restarts
    state["nodes"] = state.get("nodes", 0) + n
    state["mu"] = report.mu

    mb, samples = cfg["mc_budget"], cfg["mc_samples"]
    with tracer.span("analysis.mu_mc") as sp:
        est = mu_mc(dist, mb, samples=samples, seed=substream(seed, 0))
    sp["samples"] = samples
    with tracer.span("analysis.mu_exact"):
        exact = mu_exact(dist, mb)
    checks.check(f"mu_mc within {MC_TOLERANCE_SE} SE of mu_exact at b={mb}",
                 abs(est.value - exact.value) <= MC_TOLERANCE_SE * est.std_error,
                 f"mc={est.value:.5f} se={est.std_error:.5f} exact={exact.value:.5f}")
    summary = {"n": n, "attempts": attempts, "R": stats.restarts, "calls": stats.calls,
               "mu_method": report.mu_method}
    return {"units": 1.0, "summary": summary}


def size_law_finish(cfg, tracer, checks, state) -> dict:
    """Pooled rho, recorded only: with n / b of 10..50 the law has not set in."""
    rho = state["R"] * state["mu"] / state["nodes"]
    return {"rho_exact": {str(cfg["budget"]): rho}, "nodes": state["nodes"]}


# -- exact-gen ------------------------------------------------------------

def exact_gen_pass(cfg, seed, tracer, checks, state, workdir) -> dict:
    n, b = cfg["n"], cfg["budget"]
    summary = {}
    for i, (spec, dist) in enumerate(zip(cfg["specs"], cfg["dists"])):
        with tracer.span("gwtree.sample_exact") as sp:
            tree, attempts = sample_exact(dist, n, seed=substream(seed, i))
        sp.update(attempts=attempts, nodes=tree.n)
        checks.check(f"sample_exact {spec}: exactly n nodes", tree.n == n, f"{tree.n}")
        read_extent(tracer, tree)
        stats = searched(tracer, tree, b)
        check_search(checks, f"run_single {spec} b={b}", stats, n)
        pooled = state.setdefault(spec, [0, 0])
        pooled[0] += stats.restarts
        pooled[1] += n
        summary[spec] = {"attempts": attempts, "R": stats.restarts, "calls": stats.calls}
    return {"units": 1.0, "summary": summary}


def exact_gen_finish(cfg, tracer, checks, state) -> dict:
    rho = {}
    for spec, dist in zip(cfg["specs"], cfg["dists"]):
        restarts, nodes = state[spec]
        with tracer.span("analysis.theorem1_check") as sp:
            report = theorem1_check(restarts, nodes, dist, cfg["budget"])
        sp["mu_method"] = report.mu_method
        rho[spec] = report.rho_exact
        checks.check(f"pooled rho_exact in {RHO_RANGE} for {spec}",
                     RHO_RANGE[0] <= report.rho_exact <= RHO_RANGE[1],
                     f"{report.rho_exact:.4f}")
    return {"rho_exact": rho}


# -- registry -------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    run_pass: Callable
    finish: Callable
    configs: dict  # "full" is what the benchmark runs; "smoke" is the warm-up and test size

    def prepare(self, label: str) -> dict:
        """The config with its offspring laws parsed, once per run."""
        cfg = dict(self.configs[label])
        if "spec" in cfg:
            cfg["dist"] = parse_spec(cfg["spec"])
        if "specs" in cfg:
            cfg["dists"] = [parse_spec(s) for s in cfg["specs"]]
        return cfg


WORKLOADS = {
    "restart-sweep": Workload(
        "restart-sweep", "10^6 tree nodes", restart_sweep_pass, restart_sweep_finish, {
            "full": {"spec": "ternary_uniform", "n_min": 100_000, "cap": 500_000,
                     "budgets": (50, 500, 5000), "fifo_budget": 50,
                     "sims": ((500, 8, 5), (50, 2, 1)),
                     "adaptive": (500, 8, math.inf, 2)},
            "smoke": {"spec": "ternary_uniform", "n_min": 2_000, "cap": 10_000,
                      "budgets": (5, 20, 50), "fifo_budget": 5,
                      "sims": ((20, 8, 5), (5, 2, 1)),
                      "adaptive": (20, 8, math.inf, 2)},
        }),
    "size-law": Workload(
        "size-law", "pass", size_law_pass, size_law_finish, {
            "full": {"spec": "harmonic:10", "n_min": 100_000, "cap": 500_000,
                     "budget": 10_000, "mc_budget": 1000, "mc_samples": 1_000_000},
            "smoke": {"spec": "harmonic:10", "n_min": 2_000, "cap": 10_000,
                      "budget": 200, "mc_budget": 50, "mc_samples": 20_000},
        }),
    "exact-gen": Workload(
        "exact-gen", "pass", exact_gen_pass, exact_gen_finish, {
            "full": {"specs": ("ternary_uniform", "harmonic:10"), "n": 5_001,
                     "budget": 500},
            "smoke": {"specs": ("ternary_uniform", "harmonic:10"), "n": 1_001,
                      "budget": 20},
        }),
}


def check_pins(checks: Checks, workload: str, label: str, first: dict) -> str:
    """Compare a first pass of the default seed with the counts pinned for it."""
    pins = json.loads(PINS_PATH.read_text()).get(workload, {}).get(label)
    if pins is None:
        return "none pinned"
    for key, want in pins.items():
        got = first.get(key)
        checks.check(f"pinned {key}", got == want, f"got {got}, pinned {want}")
    return "checked"
