"""Galton-Watson trees in preorder degree-sequence form.

A rooted ordered tree on n nodes is stored as the array of child counts in
preorder (root first).  Node ids are preorder positions 0..n-1, so a subtree
is a contiguous block: node v occupies [v, v + extent(v)) where extent(v) is
its subtree size.  The walk Q(t) = 1 + sum_{i<t} (degrees[i] - 1) counts
branches still open after t nodes; a valid tree has Q(t) > 0 for t < n and
Q(n) = 0, which is also what makes sequential sampling terminate exactly
when the tree closes.

Three samplers:

  * sample_unconditional - grow one tree degree by degree; stops when the
    open-branch count hits zero, or reports Overflow past a node cap.
  * sample_at_least      - retry unconditional sampling until n >= n_min.
  * sample_exact         - condition on exactly n nodes: reject i.i.d. draws
    until they sum to n-1, then rotate into the unique valid preorder.

The exact sampler needs n = 1 (mod d) where d = gcd of the positive support;
no tree sizes exist off that lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .offspring import OffspringDistribution
from .seeds import as_generator


class AttemptsExhausted(RuntimeError):
    """Raised when a rejection sampler hits its attempt limit."""

    def __init__(self, attempts: int, what: str):
        self.attempts = attempts
        super().__init__(f"{what} not reached after {attempts} attempts")


@dataclass(frozen=True)
class Overflow:
    """Unconditional sampling ran past the node cap.

    count is the number of nodes generated (the cap); pending is the number
    of branches still open there, so the finished tree would have had at
    least count + pending nodes.
    """

    count: int
    pending: int


MAX_DEGREE = int(np.iinfo(np.int32).max)  # degrees are stored as int32


class PreorderTree:
    """Immutable tree over a validated preorder degree sequence."""

    def __init__(self, degrees):
        raw = np.asarray(degrees)
        if raw.ndim != 1 or len(raw) == 0:
            raise ValueError("degree sequence must be a non-empty 1-d array")
        # range-check before the int32 cast, which would wrap silently
        if not (raw >= 0).all():  # also catches NaN
            raise ValueError("degrees must be >= 0")
        if raw.max() > MAX_DEGREE:
            raise ValueError(f"degrees must be <= {MAX_DEGREE}")
        if raw.dtype.kind not in "biu" and (raw % 1 != 0).any():
            raise ValueError("degrees must be integers")
        arr = np.ascontiguousarray(raw, dtype=np.int32)
        walk = 1 + np.cumsum(arr.astype(np.int64) - 1)
        if walk[-1] != 0:
            raise ValueError(
                f"degree sum {int(arr.sum())} != n - 1 = {len(arr) - 1}: not a tree")
        if len(arr) > 1 and walk[:-1].min() <= 0:
            raise ValueError("tree closes before the last node (preorder invalid)")
        arr.flags.writeable = False
        self.degrees = arr
        self.n = len(arr)

    @cached_property
    def max_degree(self) -> int:
        return int(self.degrees.max())

    @cached_property
    def extent(self) -> np.ndarray:
        """Subtree sizes for every node, computed in one vectorized pass.

        With S[u] = sum_{i<u}(degrees[i] - 1), the subtree of v ends at the
        first u > v with S[u] = S[v] - 1.  Down-steps are unit, so that u is
        a position entered by a down-step (i.e. right after a leaf), and the
        lookup is a single searchsorted over (level, position) keys.
        """
        n = self.n
        s = np.empty(n + 1, dtype=np.int64)
        s[0] = 0
        np.cumsum(self.degrees.astype(np.int64) - 1, out=s[1:])
        down = np.nonzero(self.degrees == 0)[0].astype(np.int64) + 1
        base = n + 2
        keys = np.sort(s[down] * base + down)
        queries = (s[:n] - 1) * base + np.arange(n, dtype=np.int64)
        idx = np.searchsorted(keys, queries, side="right")
        ends = keys[idx] % base  # numpy modulo keeps the divisor's sign: safe at level -1
        ext = ends - np.arange(n, dtype=np.int64)
        ext.flags.writeable = False
        return ext

    def q_path(self) -> np.ndarray:
        """Open-branch counts Q(0..n): starts at 1, stays positive, ends at 0."""
        q = np.empty(self.n + 1, dtype=np.int64)
        q[0] = 1
        np.cumsum(self.degrees.astype(np.int64) - 1, out=q[1:])
        q[1:] += 1
        q.flags.writeable = False
        return q

    def adj(self, v: int, j: int):
        """j-th child of v (1-based), or None past v's degree.

        Walks sibling extents, so one lookup costs O(j); a full child scan
        of v costs O(degree).  Indices j beyond the tree's max degree are
        tolerated (None), matching how a budgeted search probes an oracle.
        """
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        if j < 1:
            raise ValueError("child index j starts at 1")
        if j > self.degrees[v]:
            return None
        ext = self.extent
        child = v + 1
        for _ in range(j - 1):
            child += ext[child]
        return int(child)

    def subtree_size(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        return int(self.extent[v])

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"PreorderTree(n={self.n}, max_degree={self.max_degree})"


def _draw(cdf: np.ndarray, rng: np.random.Generator, m: int) -> np.ndarray:
    # inverse-cdf sampling; rng.random() < 1 so the index never overruns
    return np.searchsorted(cdf, rng.random(m), side="right")


def sample_unconditional(dist: OffspringDistribution, seed=None, cap: int = 1_000_000):
    """Sample one unconditioned tree; Overflow if it outgrows ``cap`` nodes.

    Draws offspring counts in preorder and stops the moment the open-branch
    count returns to zero.  Chunked and vectorized; the draw sequence (hence
    the tree) depends only on the seed, not on chunk boundaries.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    rng = as_generator(seed)
    cdf = dist.cdf
    chunks = []
    pending = 1
    total = 0
    size = 32
    while pending > 0 and total < cap:
        m = min(size, cap - total)
        draws = _draw(cdf, rng, m)
        walk = pending + np.cumsum(draws - 1)
        hit = np.nonzero(walk == 0)[0]
        if hit.size:
            k = int(hit[0])
            chunks.append(draws[:k + 1])
            total += k + 1
            pending = 0
            break
        chunks.append(draws)
        total += m
        pending = int(walk[-1])
        size = min(size * 2, 1 << 16)
    if pending > 0:
        return Overflow(count=total, pending=pending)
    degrees = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    return PreorderTree(degrees)


def sample_at_least(dist: OffspringDistribution, n_min: int, seed=None,
                    max_attempts: int | None = None, cap: int | None = None):
    """First sampled tree with at least ``n_min`` nodes, as (tree, attempts).

    cap defaults to 100 * n_min; an attempt that overflows the cap counts as
    failed and is redrawn, so the returned law is the unconditional one
    restricted to n_min <= n <= cap.  Raises AttemptsExhausted past
    max_attempts (None = keep trying).
    """
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    if cap is None:
        cap = 100 * n_min
    if cap < n_min:
        raise ValueError("cap must be >= n_min")
    if max_attempts is not None and max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    rng = as_generator(seed)
    attempts = 0
    while True:
        attempts += 1
        got = sample_unconditional(dist, rng, cap=cap)
        if isinstance(got, PreorderTree) and got.n >= n_min:
            return got, attempts
        if max_attempts is not None and attempts >= max_attempts:
            raise AttemptsExhausted(attempts, f"tree with n >= {n_min}")


def sample_exact(dist: OffspringDistribution, n: int, seed=None,
                 max_attempts: int | None = None):
    """Tree conditioned on exactly n nodes, as (tree, attempts).

    Rejection plus rotation: draw (xi_1..xi_n) i.i.d. until they sum to n-1,
    then start the sequence right after the first minimum of the prefix sums
    of xi_i - 1.  That rotation is the unique one whose walk stays positive
    before step n (cycle lemma), and it maps i.i.d. draws to exactly the
    conditional Galton-Watson law.  Expected rejections grow like sqrt(n)/d.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if (n - 1) % dist.span != 0:
        raise ValueError(
            f"no trees with {n} nodes: sizes are 1 mod {dist.span} for this law")
    if max_attempts is not None and max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    rng = as_generator(seed)
    cdf = dist.cdf
    target = n - 1
    attempts = 0
    while True:
        attempts += 1
        draws = _draw(cdf, rng, n)
        if int(draws.sum()) == target:
            prefix = np.cumsum(draws - 1)
            k = int(np.argmin(prefix)) + 1  # first position attaining the minimum
            if k < n:
                draws = np.concatenate([draws[k:], draws[:k]])
            return PreorderTree(draws), attempts
        if max_attempts is not None and attempts >= max_attempts:
            raise AttemptsExhausted(attempts, f"degree sum {target} over {n} draws")


def write_tree(tree: PreorderTree, path) -> None:
    """Two-line text format: node count, then space-separated preorder degrees."""
    with open(path, "w") as fh:
        fh.write(f"{tree.n}\n")
        fh.write(" ".join(map(str, tree.degrees.tolist())))
        fh.write("\n")


def read_tree(path) -> PreorderTree:
    """Read and fully validate a tree file written by write_tree."""
    with open(path) as fh:
        head = fh.readline()
        body = fh.readline()
    try:
        n = int(head.strip())
    except ValueError:
        raise ValueError(f"{path}: first line must be the node count") from None
    tokens = body.split()
    if len(tokens) != n:
        raise ValueError(f"{path}: expected {n} degrees, found {len(tokens)}")
    try:
        degrees = np.array(tokens, dtype=np.int64)
    except ValueError:
        raise ValueError(f"{path}: degrees must be integers") from None
    except OverflowError:
        raise ValueError(f"{path}: degrees must be in [0, {MAX_DEGREE}]") from None
    return PreorderTree(degrees)
