"""Every demo script runs to completion against the package under test."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, child_env, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=child_env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
