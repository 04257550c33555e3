"""Self-test of the benchmark at reduced size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at smoke size, traced and untraced, through the same
command line the benchmark is run with, and checks that the result line has
exactly the metrics BENCHMARK.json names, that every output check and pin
passes, and that the traced self times account for the body time.  Also
checks that the benchmark refuses to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, seed=0):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes_its_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result, record = json.loads(result_line), json.loads(record_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    assert record["pins"] == "checked"
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]

    if trace:
        assert (ROOT / record["trace_file"]).is_file()
        accounted = sum(record["layer_self_s"].values())
        assert accounted == pytest.approx(record["body_s"], rel=0.01)
        assert set(record["layer_self_s"]) == {"bench", "gwtree", "scheduler", "analysis"}


def test_other_seed_skips_pins_but_still_checks():
    proc = run_bench(ROOT, "exact-gen", 0, seed=7)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    assert json.loads(record_line)["pins"] == "not the default seed"
    assert json.loads(result_line)["correct"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
