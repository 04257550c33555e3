"""Acceptance gate: every numbered verification check must pass.

Each test runs one check through verify.run_acceptance, with the registry
narrowed to that check, so its pass/fail line (visible with pytest -s or on
failure) is the one `gwsearch verify --level full` prints.  The two scale
checks sample multi-million-node trees and take a few seconds each.
"""

import contextlib
import io
import re

from gwsearch import cli, gwtree, verify


def _run(number, monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS",
                        tuple(c for c in verify._CHECKS if c[0] == number))
    [result] = verify.run_acceptance("full")
    assert result.passed, f"criterion {number} ({result.name}) failed: {result.detail}"


def test_criterion_1_example_tree_fixtures(monkeypatch):
    _run(1, monkeypatch)


def test_criterion_2_size_law_oracle_agreement(monkeypatch):
    _run(2, monkeypatch)


def test_criterion_3_monte_carlo_expected_work(monkeypatch):
    _run(3, monkeypatch)


def test_criterion_4_square_root_work_asymptotic(monkeypatch):
    _run(4, monkeypatch)


def test_criterion_5_restart_law_at_scale(monkeypatch):
    _run(5, monkeypatch)


def test_criterion_6_structural_invariants(monkeypatch):
    _run(6, monkeypatch)


def test_criterion_7_simulation_sanity(monkeypatch):
    _run(7, monkeypatch)


def test_criterion_8_budget_scaling_of_restarts(monkeypatch):
    _run(8, monkeypatch)


def test_randomized_checks_replay_from_printed_seed(monkeypatch):
    # only checks 6 and 7 draw random trees; record the size of each one
    monkeypatch.setattr(verify, "_CHECKS",
                        tuple(c for c in verify._CHECKS if c[0] in (6, 7)))
    sizes = []
    sample = gwtree.sample_at_least

    def recording(*args, **kwargs):
        tree, attempts = sample(*args, **kwargs)
        sizes.append(tree.n)
        return tree, attempts

    monkeypatch.setattr(gwtree, "sample_at_least", recording)

    def run(seed):
        sizes.clear()
        results = verify.run_acceptance("fast", seed=seed)
        assert all(r.passed for r in results)
        return [r.detail for r in results], list(sizes)

    lines, drawn = run(None)
    printed = {re.fullmatch(r".*, seed=(\d+)", line).group(1) for line in lines}
    assert len(printed) == 1  # one seed per run, printed by both checks
    assert run(int(printed.pop())) == (lines, drawn)
    assert run(2024) == run(2024)
    assert run(2025)[1] != run(2024)[1]


def test_output_goes_to_the_current_stdout(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS",
                        tuple(c for c in verify._CHECKS if c[0] in (1, 7)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        verify.run_acceptance("fast", seed=3)
    lines = out.getvalue().splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [["check", "1"], ["check", "7"]]
    assert "seed=3" in lines[1]
    assert lines[2:] == ["all 2 checks passed"]


def test_failing_check_is_reported(monkeypatch, capsys):
    failing = (1, "always-fails", "fast", lambda: (False, "broken on purpose"))
    monkeypatch.setattr(verify, "_CHECKS", (failing,))
    [result] = verify.run_acceptance("fast", seed=1)
    assert not result.passed
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"check 1 always-fails +FAIL  broken on purpose  \(\d+\.\d\ds\)",
                        lines[0])
    assert lines[1:] == ["1 of 1 checks FAILED: 1 (always-fails)"]
    assert cli.main(["verify", "--seed", "1"]) == 2
    assert "1 of 1 checks FAILED: 1 (always-fails)" in capsys.readouterr().out
