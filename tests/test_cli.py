"""Command-line interface: argument handling, outputs, exit codes."""

import ast
import hashlib
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import gwsearch
from gwsearch import analysis, cli

PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"


def run_cli(*argv):
    return cli.main(list(argv))


def declared_script(name):
    """The ``module:attr`` target of ``name`` in ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert name in scripts, f"{name} not declared in [project.scripts]"
    return scripts[name]


@pytest.mark.parametrize("message", ["", "Unable to allocate 7.28 TiB for an array"])
def test_memory_error_exits_1_with_one_line(monkeypatch, capsys, message):
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "cmd_gen", exhausted)
    assert run_cli("gen", "--dist", "catalan", "--n", "5", "--out", "t.txt") == 1
    err = capsys.readouterr().err
    assert err == f"gwsearch: error: out of memory{': ' if message else ''}{message}\n"


def test_dist_output(capsys):
    assert run_cli("dist", "--dist", "paper:10") == 0
    out = capsys.readouterr().out
    assert out.startswith("pmf: 0.707103 0.1 0.05")
    assert "mean: 1\n" in out
    assert "variance: 4.5\n" in out
    assert "span: 1\n" in out
    assert "max degree: 10\n" in out


def test_dist_rejects_non_critical(capsys):
    assert run_cli("dist", "--dist", "custom:0.5,0.5") == 1
    assert "not critical" in capsys.readouterr().err
    assert run_cli("dist", "--dist", "binomial:100000") == 1
    assert "too large for float coefficients" in capsys.readouterr().err
    assert run_cli("dist", "--dist", "harmonic:1000001") == 1
    assert "max degree <= 1,000,000" in capsys.readouterr().err


def test_gen_exact(tmp_path, capsys):
    out = tmp_path / "one.tree"
    assert run_cli("gen", "--dist", "catalan", "--n", "1",
                   "--seed", "3", "--out", str(out)) == 0
    assert out.read_text() == "1\n0\n"
    assert (tmp_path / "one.tree.meta").read_text() == "n=1 seed=3 attempts=1\n"
    assert capsys.readouterr().out == f"wrote {out}: n=1 attempts=1\n"


def test_gen_at_least(tmp_path, capsys):
    out = tmp_path / "big.tree"
    assert run_cli("gen", "--dist", "catalan", "--n-min", "40",
                   "--seed", "11", "--out", str(out)) == 0
    assert (tmp_path / "big.tree.meta").read_text() == "n=379 seed=11 attempts=13\n"
    first = out.read_bytes()
    assert run_cli("gen", "--dist", "catalan", "--n-min", "40",
                   "--seed", "11", "--out", str(out)) == 0
    assert out.read_bytes() == first  # same seed, same tree


def test_gen_size_flags_are_exclusive(tmp_path, capsys):
    out = str(tmp_path / "t.tree")
    assert run_cli("gen", "--dist", "catalan", "--out", out) == 1
    assert "exactly one of" in capsys.readouterr().err
    assert run_cli("gen", "--dist", "catalan", "--n", "5",
                   "--n-min", "5", "--out", out) == 1
    assert "exactly one of" in capsys.readouterr().err


def test_gen_parity_error(tmp_path, capsys):
    assert run_cli("gen", "--dist", "full_binary", "--n", "4",
                   "--out", str(tmp_path / "t.tree")) == 1
    assert "no trees with 4 nodes" in capsys.readouterr().err


def test_gen_rejects_sizes_above_the_ceiling(tmp_path, capsys):
    # rejected before any draw: no allocation of terabytes, no endless retries
    for size, name in (("--n", "n"), ("--n-min", "n_min")):
        assert run_cli("gen", "--dist", "catalan", size, str(10 ** 12),
                       "--out", str(tmp_path / "t.tree")) == 1
        assert (capsys.readouterr().err
                == f"gwsearch: error: {name} must be <= MAX_NODES = 2147483647\n")
    assert not (tmp_path / "t.tree").exists()


def test_gen_attempts_exhausted(tmp_path, capsys):
    assert run_cli("gen", "--dist", "catalan", "--n", "100", "--seed", "0",
                   "--max-attempts", "2", "--out", str(tmp_path / "t.tree")) == 1
    assert "not reached after 2 attempts" in capsys.readouterr().err
    for size in ("--n", "--n-min"):
        for attempts in ("0", "-3"):
            assert run_cli("gen", "--dist", "catalan", size, "25", "--max-attempts",
                           attempts, "--out", str(tmp_path / "t.tree")) == 1
            assert "max_attempts must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "t.tree").exists()


def test_search_fixture(tree25_path, tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    trace = tmp_path / "trace.csv"
    assert run_cli("search", "--tree", tree25_path, "--budget", "13",
                   "--out", str(summary), "--trace", str(trace)) == 0
    assert capsys.readouterr().out == \
        "n=25 b=13 policy=lifo R=5 calls=6 evaluations=24\n"
    assert summary.read_bytes() == (b"n,b,policy,R,calls,evaluations\r\n"
                                    b"25,13,lifo,5,6,24\r\n")
    assert trace.read_bytes() == (b"call,list_size,budget\r\n"
                                  b"1,0,13\r\n2,4,13\r\n3,3,13\r\n"
                                  b"4,2,13\r\n5,1,13\r\n6,0,13\r\n")


def test_search_budget_extremes(tree25_path, tmp_path, capsys):
    assert run_cli("search", "--tree", tree25_path, "--budget", "1") == 0
    assert capsys.readouterr().out == \
        "n=25 b=1 policy=lifo R=24 calls=25 evaluations=24\n"
    summary = tmp_path / "summary.csv"
    assert run_cli("search", "--tree", tree25_path, "--budget", "100",
                   "--out", str(summary)) == 0
    assert summary.read_bytes().splitlines()[1] == b"25,100,lifo,0,1,24"
    assert run_cli("search", "--tree", tree25_path, "--budget", "0") == 1
    assert capsys.readouterr().err == "gwsearch: error: budget must be >= 1\n"


def test_search_budget_past_64_bits(tree25_path, tmp_path, capsys):
    # the trace reports the budget saturated at sys.maxsize, the summary as given
    budget = str(10**30)
    summary, trace = tmp_path / "summary.csv", tmp_path / "trace.csv"
    assert run_cli("search", "--tree", tree25_path, "--budget", budget,
                   "--out", str(summary), "--trace", str(trace)) == 0
    assert capsys.readouterr().out == \
        f"n=25 b={budget} policy=lifo R=0 calls=1 evaluations=24\n"
    assert summary.read_bytes().splitlines()[1] == f"25,{budget},lifo,0,1,24".encode()
    assert trace.read_bytes() == f"call,list_size,budget\r\n1,0,{sys.maxsize}\r\n".encode()

def test_search_malformed_tree(tmp_path, capsys):
    bad = tmp_path / "bad.tree"
    bad.write_text("abc\n0\n")
    assert run_cli("search", "--tree", str(bad), "--budget", "5") == 1
    assert "first line must be the node count" in capsys.readouterr().err
    for degree, message in (("4294967298", "degrees must be <= 2147483647"),
                            ("99999999999999999999", "degrees must be in [0, ")):
        bad.write_text(f"3\n{degree} 0 0\n")
        assert run_cli("search", "--tree", str(bad), "--budget", "5") == 1
        assert message in capsys.readouterr().err


def test_simulate(tree25_path, tmp_path, capsys):
    csv_path = tmp_path / "sim.csv"
    assert run_cli("simulate", "--tree", tree25_path, "--budget", "13",
                   "--workers", "1", "--restart-cost", "2",
                   "--out", str(csv_path)) == 0
    assert capsys.readouterr().out == (
        "workers=1 restart_cost=2 jobs=6 restarts=5 evaluations=24 "
        "makespan=36 idle_time=0 restart_overhead=12 speedup=0.666667\n")
    assert csv_path.read_bytes() == (
        b"workers,restart_cost,jobs,makespan,idle_time,restart_overhead,speedup\r\n"
        b"1,2,6,36,0,12,0.666667\r\n")
    assert run_cli("simulate", "--tree", tree25_path, "--budget", "13",
                   "--workers", "2", "--restart-cost", "2") == 0
    assert "makespan=29" in capsys.readouterr().out
    for cost in ("nan", "inf"):
        assert run_cli("simulate", "--tree", tree25_path, "--budget", "13",
                       "--restart-cost", cost) == 1
        assert "restart_cost must be >= 0 and finite" in capsys.readouterr().err
    for flag, value in (("--restart-cost", "1e308"), ("--workers", "9" * 400)):
        assert run_cli("simulate", "--tree", tree25_path, "--budget", "13",
                       flag, value) == 1
        assert "too large: times overflow a float" in capsys.readouterr().err


def test_simulate_exact_restart_costs(tree25_path, capsys):
    def simulate(cost):
        assert run_cli("simulate", "--tree", tree25_path, "--budget", "5",
                       "--workers", "3", "--restart-cost", cost) == 0
        return capsys.readouterr().out

    assert simulate("2.5") == simulate("5/2")
    assert simulate("0.1") == simulate("1/10")
    assert "restart_cost=0.333333 " in simulate("1/3")
    for cost in ("-1", "-1/3", "1/0", "1/-3", "abc", "1e-99999", "9" * 5000, ""):
        assert run_cli("simulate", "--tree", tree25_path, "--budget", "5",
                       f"--restart-cost={cost}") == 1
        assert "restart_cost must be >= 0 and finite" in capsys.readouterr().err


def test_sweep_reruns_are_byte_identical(tmp_path, capsys):
    args = ("sweep", "--dist", "catalan", "--n-min", "200",
            "--budget", "5,17", "--runs", "2", "--seed", "9")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(first)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # runs x budgets
    assert all("rho_table=" in line and "estimate=" in line for line in lines)
    assert run_cli(*args, "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()
    rows = first.read_bytes().splitlines()
    assert rows[0] == b"dist,b,n,R,rho_table,rho_exact,estimate_sqrt_pi_over_8b"
    assert len(rows) == 5
    assert all(row.startswith(b"catalan,") for row in rows[1:])


# SHA-256 of outputs frozen on a sampled tree; a scheduler refactor must keep
# them byte for byte.  The tree (gen ternary_uniform --n-min 20000 --seed 4)
# has 237,892 nodes, so FIFO and LIFO pop orders differ at every budget.
FROZEN_TRACES = {
    ("lifo", 1): "45484626851e20124eb557bb6922463c837d29630411525b3907b1e9acbbb236",
    ("lifo", 7): "99729412d373106926c7a7f41649c3e7f6d1ef97ef1f0d5af08b1f4d4e1140d9",
    ("lifo", 50): "c14602c802e33e235abf8ac9017ea57adb3574036e3d6e7ef42986d83f4a467e",
    ("lifo", 500): "6d0020cfe8c182d37b710f9a920c168a2c676771b48f132719a05fe858b5a19d",
    ("fifo", 1): "c3581e517303663e42810f9dadb6c8ceec4989e31e63b1bc10481492d1a1cdd4",
    ("fifo", 7): "0575f70f4d96ae275c11fb588552661d627bc9648a70172cd2946f45938729b8",
    ("fifo", 50): "d292394332aa0823bf3724c67b2af2fa701ecc82007035f6e15814ae81e1d118",
    ("fifo", 500): "647ae90549af1317805b8b8767abfeb67fc343f4c78aa80e7c5dade455d5f997",
}
FROZEN_FIFO_SWEEP = "e7531b5a4d17fec3776cecb9885aefc02681779be550e63cfcedaf05a09edb7b"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_frozen_outputs_on_a_sampled_tree(tmp_path, capsys):
    tree = tmp_path / "t.tree"
    assert run_cli("gen", "--dist", "ternary_uniform", "--n-min", "20000",
                   "--seed", "4", "--out", str(tree)) == 0
    assert (tmp_path / "t.tree.meta").read_text() == \
        "n=237892 seed=4 attempts=117\n"
    trace = tmp_path / "trace.csv"
    for (policy, budget), digest in FROZEN_TRACES.items():
        assert run_cli("search", "--tree", str(tree), "--budget", str(budget),
                       "--policy", policy, "--trace", str(trace)) == 0
        assert sha256(trace) == digest, (policy, budget)
    sweep = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--dist", "ternary_uniform", "--n-min", "2000",
                   "--budget", "5,50", "--runs", "2", "--seed", "3",
                   "--policy", "fifo", "--out", str(sweep)) == 0
    assert sha256(sweep) == FROZEN_FIFO_SWEEP


def test_sweep_cap_defaults_to_the_samplers(monkeypatch):
    caps = []
    sample = cli.gwtree.sample_at_least

    def spy(*args, **kwargs):
        caps.append(kwargs["cap"])
        return sample(*args, **kwargs)

    monkeypatch.setattr(cli.gwtree, "sample_at_least", spy)
    common = ("sweep", "--dist", "catalan", "--n-min", "20", "--budget", "5")
    assert run_cli(*common) == 0
    assert run_cli(*common, "--cap", "5000") == 0
    assert caps == [None, 5000]


def test_empty_budget_list_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli("sweep", "--dist", "catalan", "--n-min", "10", "--budget", "")
    assert info.value.code == 1


def test_runs_and_seed_are_checked_when_parsed(tmp_path, capsys):
    out = str(tmp_path / "out")
    sweep = ("sweep", "--dist", "catalan", "--n-min", "10", "--budget", "5",
             "--out", out)
    gen = ("gen", "--dist", "catalan", "--n", "5", "--out", out)
    cases = [(sweep + ("--runs", runs), "runs must be >= 1") for runs in ("0", "-2")]
    cases += [(sweep + ("--runs", "abc"), "runs must be an integer"),
              (sweep + ("--budget", "x"),
               f"need one or more budgets, each in 1..{analysis.DP_LIMIT}")]
    cases += [(argv + ("--seed", seed), message) for argv in (sweep, gen)
              for seed, message in (("-1", "seed must be >= 0"),
                                    ("q", "seed must be an integer"))]
    for argv, message in cases:
        with pytest.raises(SystemExit) as info:
            run_cli(*argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert message in err
        assert not re.search(r"\b_\w", err), err  # no private type function
    assert not (tmp_path / "out").exists()


def test_sweep_seed_past_64_bits_fails_before_sampling(tmp_path, monkeypatch,
                                                       capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("tree sampled for a seed that aliases another")

    monkeypatch.setattr(cli.gwtree, "sample_at_least", no_sampling)
    assert run_cli("sweep", "--dist", "catalan", "--n-min", "10", "--budget", "5",
                   "--seed", str(2 ** 64)) == 1
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err
    # gen seeds numpy directly, where a large seed aliases nothing
    out = tmp_path / "t.tree"
    assert run_cli("gen", "--dist", "catalan", "--n", "1", "--seed", str(2 ** 64),
                   "--out", str(out)) == 0
    assert out.read_text() == "1\n0\n"


def test_sweep_budget_past_exact_law_fails_before_sampling(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("tree sampled before the budgets were checked")

    monkeypatch.setattr(cli.gwtree, "sample_at_least", no_sampling)
    for budget in (f"5,{analysis.DP_LIMIT + 1}", "0"):
        with pytest.raises(SystemExit) as info:
            run_cli("sweep", "--dist", "catalan", "--n-min", "10", "--budget", budget)
        assert info.value.code == 1
        assert f"each in 1..{analysis.DP_LIMIT}" in capsys.readouterr().err


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as info:
        run_cli("solve")
    assert info.value.code == 1


def test_verify_fast(capsys):
    assert run_cli("verify", "--level", "fast") == 0
    out = capsys.readouterr().out
    assert "all 6 checks passed" in out
    assert out.startswith("check 1 example-tree fixtures")
    assert "check 5" not in out  # scale checks are full-level only


def test_verify_rejects_negative_seed(capsys):
    assert run_cli("verify", "--seed", "-1") == 1
    assert "seed must be >= 0" in capsys.readouterr().err


def check_help(proc):
    assert proc.returncode == 0
    assert "usage: gwsearch" in proc.stdout
    for name in ("dist", "gen", "search", "sweep", "simulate", "verify"):
        assert name in proc.stdout


def test_console_script_help(child_env):
    # Call the declared target the way the setuptools wrapper does, so the
    # check needs no installed executable.
    module, attr = declared_script("gwsearch").split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    check_help(subprocess.run([sys.executable, "-c", code, "--help"],
                              capture_output=True, text=True, env=child_env))
    # Where the package is installed, the real wrapper must behave the same.
    path = shutil.which("gwsearch")
    if path:
        check_help(subprocess.run([path, "--help"], capture_output=True,
                                  text=True, env=child_env))


def test_public_surface_matches_all():
    # a dangling __all__ entry breaks `from gwsearch import *`
    for name in gwsearch.__all__:
        assert hasattr(gwsearch, name), name
    tree = ast.parse(pathlib.Path(gwsearch.__file__).read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} \
        <= set(gwsearch.__all__)


def test_module_entry_matches_script(child_env):
    proc = subprocess.run([sys.executable, "-m", "gwsearch.cli",
                           "dist", "--dist", "catalan"],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("pmf: 0.25 0.5 0.25")
