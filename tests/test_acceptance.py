"""Acceptance gate: every numbered verification check must pass.

Each test drives one check from the verify module registry and prints its
pass/fail line (visible with pytest -s or on failure), so this file doubles
as the scripted form of `gwsearch verify --level full`.  The two scale
checks sample multi-million-node trees and take a few seconds each.
"""

import re

from gwsearch import gwtree, verify


def _run(number):
    entry = next(c for c in verify._CHECKS if c[0] == number)
    _, name, _, check = entry
    passed, detail = check()
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} {name}: {status} - {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_example_tree_fixtures():
    _run(1)


def test_criterion_2_size_law_oracle_agreement():
    _run(2)


def test_criterion_3_monte_carlo_expected_work():
    _run(3)


def test_criterion_4_square_root_work_asymptotic():
    _run(4)


def test_criterion_5_restart_law_at_scale():
    _run(5)


def test_criterion_6_structural_invariants():
    _run(6)


def test_criterion_7_simulation_sanity():
    _run(7)


def test_criterion_8_budget_scaling_of_restarts():
    _run(8)


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
        results = verify.run_acceptance("fast", stream=None, seed=seed)
        assert all(r.passed for r in results)
        return [r.detail for r in results], list(sizes)

    lines, drawn = run(None)
    printed = {re.fullmatch(r".*, seed=(\d+)", line).group(1) for line in lines}
    assert len(printed) == 1  # one seed per run, printed by both checks
    assert run(int(printed.pop())) == (lines, drawn)
    assert run(2024) == run(2024)
    assert run(2025)[1] != run(2024)[1]
