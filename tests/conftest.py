import os
import pathlib

import pytest

import gwsearch
from gwsearch.verify import example_tree

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def tree25():
    """The 25-node example tree: root degree 4, max degree 6."""
    return example_tree()


@pytest.fixture
def tree25_path():
    return str(DATA_DIR / "example25.tree")


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the gwsearch under
    test: the directory holding the imported package goes first on
    PYTHONPATH, so no other installed copy is picked up."""
    env = dict(os.environ)
    root = str(pathlib.Path(gwsearch.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env
