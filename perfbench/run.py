"""Benchmark of gwsearch: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload restart-sweep --seed 0 --seconds 40 --trace 0

Run it from anywhere inside a checkout of the repository: the library is
imported from the checkout's ``src/``, in this one process.  The run

1. does one untimed warm-up pass at smoke size;
2. repeats passes of the workload for about ``--seconds``, each pass
   with fresh inputs drawn from the seed, checking every output, then runs
   the workload's finish step once;
3. between passes, times the set-up a user pays before any work: a fresh
   interpreter that imports gwsearch and parses the offspring spec.  The
   samples are spread over the run, because the host's speed drifts over
   seconds, and their median is ``setup_s``;
4. prints a record line (environment, counts, failures, per-call table when
   traced) and, as its last line, the result JSON.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (body
seconds per work unit, output checks included), ``setup_s`` and
``peak_rss_mb``.  With ``--trace 1`` every call into gwsearch is a span; the
metrics are per-layer self times and counts per work unit, and the spans are
written to ``perfbench/out/``.  ``failed / attempted`` is the share of output
checks that failed; the run is correct when none did.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SAMPLES = 10
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import gwsearch; "
              "gwsearch.parse_spec(sys.argv[2])")
DEFAULT_SEED = 0  # the seed whose first pass is pinned in pins.json
WARMUP_STREAM = 1 << 32  # substream index of the warm-up pass, apart from the timed ones


def load_library():
    """Import gwsearch from this checkout's src/; exit with status 1 if it is not there."""
    if not (SRC / "gwsearch" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'gwsearch'} not found; "
                 "run the benchmark inside a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import gwsearch
    if Path(gwsearch.__file__).resolve().parent != SRC / "gwsearch":
        sys.exit(f"perfbench: imported gwsearch from {gwsearch.__file__}, not {SRC}")
    return gwsearch


def measure_setup(spec: str) -> float:
    """Wall seconds of a fresh interpreter importing gwsearch and parsing ``spec``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), spec],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def environment(numpy_version: str) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


def want_another_pass(elapsed: float, passes: int, seconds: float) -> bool:
    """Whether another pass of average length would end nearer to ``seconds``.

    So a run stops at the pass boundary nearest to ``seconds``, and a
    workload with long passes (size-law, 7 s) does not overshoot by a pass.
    """
    return elapsed + elapsed / passes / 2 < seconds


def run_workload(workload, label: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    """Warm up, repeat passes for ``seconds``, finish; return totals and tracer.

    Set-up samples are taken outside the passes, one each time another
    tenth of ``seconds`` has gone by, and at least three in all.
    """
    # imported here because they need load_library() to have put src/ on the path
    from gwsearch import substream
    from tracing import Tracer
    from workloads import Checks

    cfg = workload.prepare(label)
    spec = cfg["spec"] if "spec" in cfg else cfg["specs"][0]
    setup = [measure_setup(spec)]
    checks = Checks()
    workload.run_pass(workload.prepare("smoke"), substream(seed, WARMUP_STREAM),
                      Tracer(False), checks, {}, workdir)

    tracer = Tracer(trace)
    state: dict = {}
    body = units = 0.0
    passes = 0
    first = None
    start = time.perf_counter()
    while passes == 0 or want_another_pass(time.perf_counter() - start, passes, seconds):
        tracer.run_id = passes
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            out = workload.run_pass(cfg, substream(seed, passes), tracer, checks,
                                    state, workdir)
        body += time.perf_counter() - t0
        units += out["units"]
        if first is None:
            first = out["summary"]
        passes += 1
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(measure_setup(spec))
    while len(setup) < 3:
        setup.append(measure_setup(spec))
    tracer.run_id = "finish"
    t0 = time.perf_counter()
    with tracer.span("bench.finish"):
        pooled = workload.finish(cfg, tracer, checks, state)
    body += time.perf_counter() - t0
    return {"checks": checks, "tracer": tracer, "body_s": body, "units": units,
            "passes": passes, "first": first, "pooled": pooled, "setup_s": setup}


def per_layer_metrics(run: dict, span_cost: float) -> tuple[dict, dict]:
    """Per-layer metrics (per work unit) and the per-call table for the record."""
    from tracing import layer_self_times, rss_raised_mb, summarize

    tracer, units = run["tracer"], run["units"]
    table = summarize(tracer.spans)
    layers = layer_self_times(tracer.spans)

    def row(name):
        return table.get(name, {})

    samplers = [row("gwtree.sample_at_least"), row("gwtree.sample_exact")]
    sample_s = sum(r.get("s", 0.0) for r in samplers)
    attempts = sum(r.get("attempts", 0) for r in samplers)
    trees = sum(r.get("count", 0) for r in samplers)
    single = row("scheduler.run_single")
    values = {
        "traced.wall_s": (run["body_s"] / units, "s"),
        "bench.self_s": (layers.get("bench", 0.0) / units, "s"),
        "gwtree.self_s": (layers.get("gwtree", 0.0) / units, "s"),
        "scheduler.self_s": (layers.get("scheduler", 0.0) / units, "s"),
        "analysis.self_s": (layers.get("analysis", 0.0) / units, "s"),
        "gwtree.sample.s": (sample_s / units, "s"),
        "gwtree.sample.attempts": (attempts / units, "count"),
        "gwtree.sample.accept_frac": (trees / attempts, "ratio"),
        "gwtree.extent.s": (row("gwtree.extent").get("s", 0.0) / units, "s"),
        "scheduler.run_single.s": (single.get("s", 0.0) / units, "s"),
        "scheduler.run_single.calls": (single.get("calls", 0) / units, "count"),
        "scheduler.run_single.restarts": (single.get("restarts", 0) / units, "count"),
        "analysis.theorem1_check.s": (row("analysis.theorem1_check").get("s", 0.0) / units, "s"),
        "trace.overhead_frac": (len(tracer.spans) * span_cost / run["body_s"], "ratio"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    detail = {"calls": table, "layer_self_s": layers,
              "rss_raised_mb": rss_raised_mb(tracer.spans, tracer.start_maxrss_kb),
              "span_cost_s": span_cost}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is the reduced size the self-test uses")
    args = parser.parse_args(argv)

    gwsearch = load_library()
    import numpy
    from tracing import maxrss_kb, span_cost_s
    from workloads import WORKLOADS, check_pins

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run = run_workload(workload, args.size, args.seed, args.seconds, bool(args.trace),
                           Path(tmp))
    checks = run["checks"]
    pins = (check_pins(checks, workload.name, args.size, run["first"])
            if args.seed == DEFAULT_SEED else "not the default seed")

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "gwsearch": gwsearch.__version__,
        "env": environment(numpy.__version__),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "setup_samples_s": run["setup_s"], "passes": run["passes"],
        "unit": workload.unit, "units": run["units"], "body_s": run["body_s"],
        "first_pass": run["first"], "pooled": run["pooled"], "pins": pins,
        "checks_attempted": checks.attempted, "checks_failed": checks.failed,
        "fail_frac": checks.failed / checks.attempted, "failures": checks.failures,
    }
    if args.trace:
        metrics, detail = per_layer_metrics(run, span_cost_s())
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        run["tracer"].write(trace_path)
        record.update(detail, trace_file=str(trace_path.relative_to(ROOT)))
    else:
        metrics = {
            "wall_s": {"value": run["body_s"] / run["units"], "unit": "s"},
            "setup_s": {"value": statistics.median(run["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": maxrss_kb() / 1024.0, "unit": "MB"},
        }
    print(json.dumps(record))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
