"""Preorder trees: structure queries, samplers, file round-trip."""

import math
import subprocess
import sys

import numpy as np
import pytest

from gwsearch import analysis, gwtree, offspring
from gwsearch.seeds import substream

# The 25-node fixture laid out by hand.  Node ids are preorder ranks.
EXTENT25 = [25, 6, 1, 1, 1, 1, 1, 11, 1, 1, 1, 4, 1,
            2, 1, 1, 2, 1, 4, 1, 1, 1, 3, 1, 1]
QPATH25 = [1, 4, 8, 7, 6, 5, 4, 3, 8, 7, 6, 5, 6,
           5, 5, 4, 3, 3, 2, 4, 3, 2, 1, 2, 1, 0]


def extent_by_reverse_pass(degrees):
    """Textbook subtree-size pass: scan preorder right to left with a stack."""
    n = len(degrees)
    ext = [0] * n
    stack = []
    for v in range(n - 1, -1, -1):
        size = 1
        for _ in range(degrees[v]):
            size += stack.pop()
        stack.append(size)
        ext[v] = size
    assert stack == [n]
    return ext


def test_fixture_structure(tree25):
    assert tree25.n == 25
    assert len(tree25) == 25
    assert tree25.max_degree == 6
    assert repr(tree25) == "PreorderTree(n=25, max_degree=6)"
    assert tree25.degrees.dtype == np.int32
    assert not tree25.degrees.flags.writeable


def test_extent_frozen(tree25):
    assert tree25.extent.tolist() == EXTENT25
    assert tree25.extent.dtype == np.int32
    assert not tree25.extent.flags.writeable


def test_extent_matches_reverse_pass(tree25):
    assert tree25.extent.tolist() == extent_by_reverse_pass(tree25.degrees)
    cat = offspring.make_builtin("catalan")
    for seed in range(3):
        tree, _ = gwtree.sample_exact(cat, 200, seed)
        assert tree.extent.tolist() == extent_by_reverse_pass(tree.degrees)


def test_adj_children(tree25):
    assert [tree25.adj(0, j) for j in range(1, 5)] == [1, 7, 18, 22]
    assert [tree25.adj(1, j) for j in range(1, 6)] == [2, 3, 4, 5, 6]
    assert [tree25.adj(7, j) for j in range(1, 7)] == [8, 9, 10, 11, 15, 16]
    assert isinstance(tree25.adj(0, 1), int)
    assert tree25.adj(2, 1) is None  # leaf
    assert tree25.adj(0, 5) is None  # past the root's degree 4
    assert tree25.adj(0, 9) is None  # past max_degree, still tolerated


def test_adj_validation(tree25):
    with pytest.raises(ValueError, match=r"vertex -1 out of range \[0, 25\)"):
        tree25.adj(-1, 1)
    with pytest.raises(ValueError, match="out of range"):
        tree25.adj(25, 1)
    for j in (0, math.nan):
        with pytest.raises(ValueError, match="child index j starts at 1"):
            tree25.adj(0, j)


def test_q_path_frozen(tree25):
    q = tree25.q_path()
    assert q.tolist() == QPATH25
    assert q is tree25.q_path()  # stored, not rebuilt per call
    assert q.dtype == np.int32 and not q.flags.writeable
    assert len(q) == tree25.n + 1
    assert q[0] == 1 and q[-1] == 0
    assert np.all(q[:-1] >= 1)


def test_subtree_size(tree25):
    for v, size in [(0, 25), (1, 6), (7, 11), (13, 2), (18, 4)]:
        assert tree25.extent[v] == size


def test_single_node_tree():
    tree = gwtree.PreorderTree([0])
    assert tree.n == 1
    assert tree.extent.tolist() == [1]
    assert tree.q_path().tolist() == [1, 0]
    assert tree.adj(0, 1) is None


def test_invalid_degree_sequences():
    with pytest.raises(ValueError, match="degree sum 1 != n - 1 = 0: not a tree"):
        gwtree.PreorderTree([1])
    with pytest.raises(ValueError, match="not a tree"):
        gwtree.PreorderTree([2, 0])
    with pytest.raises(ValueError, match="closes before the last node"):
        gwtree.PreorderTree([0, 2, 0])
    with pytest.raises(ValueError, match="closes before the last node"):
        gwtree.PreorderTree([1, 0, 2, 0])
    # sums n - 1, so Q is built, and closes at the first node
    with pytest.raises(ValueError, match="closes before the last node"):
        gwtree.PreorderTree([0, 3, 0, 0])
    # running sums past the int32 range: the sum check comes first, in int64
    big = gwtree.MAX_DEGREE
    with pytest.raises(ValueError, match="degree sum 4294967294 != n - 1 = 3: not a tree"):
        gwtree.PreorderTree([big, big, 0, 0])
    with pytest.raises(ValueError, match="degree sum 2147483647 != n - 1 = 5: not a tree"):
        gwtree.PreorderTree([big] + [0] * 5)
    with pytest.raises(ValueError, match="degrees must be >= 0"):
        gwtree.PreorderTree([3, -1, 0])
    with pytest.raises(ValueError, match="degrees must be <= 2147483647"):
        gwtree.PreorderTree(np.array([4294967298, 0, 0], dtype=np.int64))
    with pytest.raises(ValueError, match="degrees must be integers"):
        gwtree.PreorderTree([2.5, 0, 0])
    with pytest.raises(ValueError, match="non-empty"):
        gwtree.PreorderTree([])
    with pytest.raises(ValueError, match="non-empty"):
        gwtree.PreorderTree([[1], [0]])


def test_sample_unconditional_size_law():
    # 20000 unconditioned draws against the exact DP law, seed chosen once
    cat = offspring.make_builtin("catalan")
    law = analysis.size_pmf_exact(cat, 9)
    m = 20000
    rng = np.random.default_rng(1)
    counts = np.zeros(10, dtype=int)
    for _ in range(m):
        got = gwtree.sample_unconditional(cat, rng, cap=512)
        if isinstance(got, gwtree.PreorderTree) and got.n <= 9:
            counts[got.n] += 1
    p1 = 0.25  # P{N=1} = p_0 exactly
    assert abs(counts[1] / m - p1) <= 3 * math.sqrt(p1 * (1 - p1) / m)
    for t in range(1, 10):
        p = law.pmf[t]
        assert abs(counts[t] / m - p) <= 4 * math.sqrt(p * (1 - p) / m)


def test_sample_unconditional_determinism_and_cap():
    cat = offspring.make_builtin("catalan")
    a = gwtree.sample_unconditional(cat, 123, cap=10_000)
    b = gwtree.sample_unconditional(cat, 123, cap=10_000)
    assert type(a) is type(b)
    if isinstance(a, gwtree.PreorderTree):
        assert np.array_equal(a.degrees, b.degrees)
    with pytest.raises(ValueError, match="cap must be >= 1"):
        gwtree.sample_unconditional(cat, 0, cap=0)


def test_sample_unconditional_overflow():
    fb = offspring.make_builtin("full_binary")
    got = gwtree.sample_unconditional(fb, 0, cap=2)
    assert isinstance(got, gwtree.Overflow)
    assert got.count == 2 and got.pending == 1
    # overflows stop exactly at the cap, finished trees stay under it
    rng = np.random.default_rng(2)
    kinds = set()
    for _ in range(200):
        got = gwtree.sample_unconditional(fb, rng, cap=5)
        if isinstance(got, gwtree.Overflow):
            assert got.count == 5 and got.pending >= 1
            kinds.add("overflow")
        else:
            assert got.n <= 5
            kinds.add("tree")
    assert kinds == {"tree", "overflow"}


def test_sample_at_least():
    cat = offspring.make_builtin("catalan")
    tree, attempts = gwtree.sample_at_least(cat, 40, 11)
    again, attempts2 = gwtree.sample_at_least(cat, 40, 11)
    assert (tree.n, attempts) == (379, 13)
    assert attempts2 == attempts and np.array_equal(tree.degrees, again.degrees)
    assert tree.n <= 100 * 40  # default cap
    with pytest.raises(ValueError, match="n_min must be >= 1"):
        gwtree.sample_at_least(cat, 0, 1)
    with pytest.raises(ValueError, match="cap must be >= n_min"):
        gwtree.sample_at_least(cat, 10, 1, cap=9)
    for attempts in (0, -1, math.nan):
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            gwtree.sample_at_least(cat, 10, 1, max_attempts=attempts)
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            gwtree.sample_exact(cat, 25, 1, max_attempts=attempts)


def test_sample_at_least_exhaustion():
    # full_binary sizes are odd, so n in [4, 4] is impossible: guaranteed fail
    fb = offspring.make_builtin("full_binary")
    with pytest.raises(gwtree.AttemptsExhausted, match="not reached after 3 attempts") as info:
        gwtree.sample_at_least(fb, 4, 0, max_attempts=3, cap=4)
    assert info.value.attempts == 3


def test_samplers_reject_nan(child_env):
    cat = offspring.make_builtin("catalan")
    with pytest.raises(ValueError, match="cap must be >= 1"):
        gwtree.sample_unconditional(cat, 0, cap=math.nan)
    # a NaN that slipped past the checks would loop forever: a child process
    # with a timeout turns a hang into a failure
    code = ("import math, gwsearch\n"
            "cat = gwsearch.make_builtin('catalan')\n"
            "for kwargs in ({'n_min': math.nan}, {'n_min': 10, 'cap': math.nan},\n"
            "               {'n_min': math.inf}):\n"
            "    try:\n"
            "        gwsearch.sample_at_least(cat, seed=1, **kwargs)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("n_min must be >= 1\ncap must be >= n_min\n"
                           f"n_min must be <= MAX_NODES = {gwtree.MAX_NODES}\n")
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        gwtree.sample_exact(cat, math.nan, 0)


def test_node_ceiling(monkeypatch):
    # a small ceiling stands in for 2**31 - 1, so nothing large is allocated
    monkeypatch.setattr(gwtree, "MAX_NODES", 9)
    cat = offspring.make_builtin("catalan")
    assert gwtree.PreorderTree([8] + [0] * 8).n == 9
    with pytest.raises(ValueError, match="^node count must be <= MAX_NODES = 9$"):
        gwtree.PreorderTree([9] + [0] * 9)
    for call, name in ((lambda: gwtree.sample_unconditional(cat, 0, cap=10), "cap"),
                       (lambda: gwtree.sample_at_least(cat, 10, 0), "n_min"),
                       (lambda: gwtree.sample_at_least(cat, 2, 0, cap=10), "cap"),
                       (lambda: gwtree.sample_at_least(cat, 2, 0, cap=math.inf), "cap"),
                       (lambda: gwtree.sample_exact(cat, 10, 0), "n"),
                       (lambda: gwtree.sample_exact(cat, math.inf, 0), "n")):
        with pytest.raises(ValueError, match=f"^{name} must be <= MAX_NODES = 9$"):
            call()
    # the default cap, 100 * n_min, is held to the ceiling
    tree, _ = gwtree.sample_at_least(cat, 5, 0)
    assert 5 <= tree.n <= 9


def test_substream_master_is_64_bits():
    # a master of 2^64 would alias master 0 under the modulo-2^64 state
    for master in (-1, 2 ** 64, 2 ** 64 + 5):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            substream(master, 0)
    seeds = {substream(master, index) for master in (0, 1, 2 ** 64 - 1)
             for index in (0, 1)}
    assert len(seeds) == 6 and all(0 <= s < 2 ** 64 for s in seeds)


def test_sample_exact_small():
    fb = offspring.make_builtin("full_binary")
    cat = offspring.make_builtin("catalan")
    tree, _ = gwtree.sample_exact(fb, 3, 0)
    assert tree.degrees.tolist() == [2, 0, 0]  # the only 3-node full binary tree
    tree, _ = gwtree.sample_exact(cat, 1, 0)
    assert tree.degrees.tolist() == [0]
    with pytest.raises(ValueError, match="no trees with 4 nodes: sizes are 1 mod 2"):
        gwtree.sample_exact(fb, 4, 0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        gwtree.sample_exact(cat, 0, 0)


def test_sample_exact_deterministic():
    cat = offspring.make_builtin("catalan")
    tree, attempts = gwtree.sample_exact(cat, 50, 7)
    again, attempts2 = gwtree.sample_exact(cat, 50, 7)
    assert tree.n == 50 and attempts == 28 == attempts2
    assert np.array_equal(tree.degrees, again.degrees)


def test_sample_exact_exhaustion():
    cat = offspring.make_builtin("catalan")
    with pytest.raises(gwtree.AttemptsExhausted,
                       match="degree sum 99 over 100 draws not reached after 2 attempts"):
        gwtree.sample_exact(cat, 100, 0, max_attempts=2)


def test_tree_file_roundtrip(tree25, tmp_path):
    harmonic, _ = gwtree.sample_at_least(offspring.parse_spec("harmonic:10"), 500, seed=3)
    assert harmonic.max_degree == 10  # two-digit degrees
    wide = gwtree.PreorderTree([2, 0, 120] + [0] * 120)  # three-digit degrees
    path = tmp_path / "t.tree"
    for tree in (tree25, harmonic, wide, gwtree.PreorderTree([0])):
        gwtree.write_tree(tree, path)
        assert path.read_bytes() == (
            f"{tree.n}\n" + " ".join(map(str, tree.degrees.tolist())) + "\n").encode()
        back = gwtree.read_tree(path)
        assert np.array_equal(back.degrees, tree.degrees)


def test_read_example_file(tree25, tree25_path):
    assert np.array_equal(gwtree.read_tree(tree25_path).degrees, tree25.degrees)


def test_read_tree_malformed(tmp_path):
    bad_head = tmp_path / "a.tree"
    # int() would read "+2" as 2 and "1_0" as 10
    for head in ("abc", "", "+2", "1_0", "-1", "\u0662"):
        bad_head.write_text(f"{head}\n1 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="first line must be the node count"):
            gwtree.read_tree(bad_head)
    bad_head.write_text(" 2\t\n1 0\n")  # whitespace around the count is fine
    assert gwtree.read_tree(bad_head).n == 2
    bad_count = tmp_path / "b.tree"
    bad_count.write_text("3\n0 0\n")
    with pytest.raises(ValueError, match="expected 3 degrees, found 2"):
        gwtree.read_tree(bad_count)
    bad_token = tmp_path / "c.tree"
    bad_token.write_text("2\n1 x\n")
    with pytest.raises(ValueError, match="degrees must be integers"):
        gwtree.read_tree(bad_token)
    # the grammar is ASCII decimal digits: no signs, underscores or other scripts
    for body in ("+2 0 0", "1_0" + " 0" * 10, "-1 0", "\u0662 0 0"):
        not_digits = tmp_path / "f.tree"
        not_digits.write_text(f"{len(body.split())}\n{body}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="degrees must be integers"):
            gwtree.read_tree(not_digits)
    trailing = tmp_path / "g.tree"
    trailing.write_text("3\n2 0 0\njunk\n")
    with pytest.raises(ValueError, match="unexpected content after the degree line"):
        gwtree.read_tree(trailing)
    trailing.write_text("3\n2 0 0\n \t\n\n")  # trailing whitespace is fine
    assert gwtree.read_tree(trailing).degrees.tolist() == [2, 0, 0]
    huge_token = tmp_path / "e.tree"
    huge_token.write_text("3\n99999999999999999999 0 0\n")
    with pytest.raises(ValueError, match=r"degrees must be in \[0, 2147483647\]"):
        gwtree.read_tree(huge_token)
    bad_tree = tmp_path / "d.tree"
    bad_tree.write_text("2\n0 0\n")
    with pytest.raises(ValueError, match="not a tree"):
        gwtree.read_tree(bad_tree)
