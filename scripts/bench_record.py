"""Record the benchmark's end-to-end metrics of one checkout in BENCH_<sha>.json.

    python3 scripts/bench_record.py [--checkout DIR] [--out DIR]

For every workload in the checkout's BENCHMARK.json, the script runs the
benchmark command (``perfbench/run.py``) RUNS times untraced, at the
benchmark's own run length, with seeds 0, 1, 2 in turn, one run at a time.
It writes every run's metrics, whether its outputs were correct, and the
median of each metric over the runs, with the machine's description and its
load average before and after each run, and the size of the library:
``src_lines``, the line count of ``src/gwsearch/*.py`` as ``wc -l`` gives it.

The file is named after the checkout's commit, ``BENCH_<short-sha>.json``.
When the measured code (MEASURED: the library, the benchmark and its
declaration) differs from that commit, the file is
``BENCH_<short-sha>-dirty.json`` and the record holds the SHA-256 of
``git diff HEAD`` over MEASURED, which names the code that ran.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3  # runs per workload, seeds 0..RUNS-1
MEASURED = ("src", "perfbench", "BENCHMARK.json")


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((line.split(":", 1)[1].strip()
                      for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu_model": model, "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def src_lines(checkout: Path) -> int:
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "gwsearch").glob("*.py"))


def run_once(checkout: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced benchmark run; its seed, load average, outcome and metrics."""
    load_before = os.getloadavg()
    proc = subprocess.run([sys.executable, *command[1:], "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="repository checkout to benchmark (default: this one)")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory for the BENCH file (default: this repository)")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    sha = git(checkout, "rev-parse", "--short", "HEAD").strip()
    diff = git(checkout, "diff", "HEAD", "--", *MEASURED)
    dirty = bool(diff)
    record = {"commit": sha, "dirty": dirty,
              "diff_sha256": hashlib.sha256(diff.encode()).hexdigest() if dirty else None,
              "machine": machine(), "src_lines": src_lines(checkout),
              "command": spec["command"], "seconds": spec["run_seconds"],
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(RUNS):
            runs.append(run_once(checkout, spec["command"], workload, seed,
                                 spec["run_seconds"]))
            print(f"{workload} seed={seed}: {runs[-1]['metrics']}", file=sys.stderr)
        medians = {name: statistics.median(r["metrics"][name] for r in runs)
                   for name in runs[0]["metrics"]}
        record["workloads"][workload] = {"median": medians, "runs": runs}

    path = args.out / f"BENCH_{sha}{'-dirty' if dirty else ''}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
