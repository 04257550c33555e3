"""Galton-Watson trees in preorder degree-sequence form.

A rooted ordered tree on n nodes is stored as the array of child counts in
preorder (root first).  Node ids are preorder positions 0..n-1, so a subtree
is a contiguous block: node v occupies [v, v + extent(v)) where extent(v) is
its subtree size.  The walk Q(t) = 1 + sum_{i<t} (degrees[i] - 1) counts
branches still open after t nodes; a valid tree has Q(t) > 0 for t < n and
Q(n) = 0, which is also what makes sequential sampling terminate exactly
when the tree closes.

PreorderTree owns this layout: it validates Q once and keeps the degrees,
Q(0..n) and, once read, the extents, each int32 and read-only (12 bytes per
node).  So a tree has at most MAX_NODES = 2^31 - 1 nodes: a longer sequence
is rejected before Q is built, and a larger size or cap before any draw.

Every layer works in int32 and in DRAW_BLOCK-sized slices, so its temporary
arrays stay near what it keeps.  Peak bytes per node above what was held
before the call (tracemalloc; ternary_uniform and harmonic:10 trees of
1.3-1.6 * 10^6 nodes), with what the layer keeps:

  * sample_at_least  12.6 / 12.6, keeps 8 (the degrees and Q)
  * PreorderTree      4.0 from int32 degrees, keeps 4 (Q)
  * extent            7.8 / 10.4, keeps 4 (the extents)
  * write_tree        0.5 / 1.1, keeps nothing
  * read_tree        16.0 / 16.0, keeps 8

Below about 10^6 nodes the DRAW_BLOCK buffers, 1-2.5 MB in all, add to
these.

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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._checks import require_count, require_integer
from .offspring import DRAW_BLOCK, OffspringDistribution
from .seeds import generator


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
MAX_NODES = 2**31 - 1  # Q and extents are stored as int32
FIRST_CHUNK = 32  # draws in the first chunk of every sampling attempt


def _check_size(name: str, value) -> int:
    """A node count: an integer in [1, MAX_NODES], checked before any draw."""
    return require_count(name, value, high=MAX_NODES, high_name="MAX_NODES")


class PreorderTree:
    """Immutable tree over a validated preorder degree sequence."""

    def __init__(self, degrees):
        raw = np.asarray(degrees)
        if raw.ndim != 1 or len(raw) == 0:
            raise ValueError("degree sequence must be a non-empty 1-d array")
        _check_size("node count", len(raw))
        # range-check before the int32 cast, which would wrap silently
        if not (raw >= 0).all():  # also catches NaN
            raise ValueError("degrees must be >= 0")
        top = raw.max()
        if top > MAX_DEGREE:
            raise ValueError(f"degrees must be <= {MAX_DEGREE}")
        if raw.dtype.kind not in "biu" and (raw % 1 != 0).any():
            raise ValueError("degrees must be integers")
        arr = np.ascontiguousarray(raw, dtype=np.int32)
        n = len(arr)
        total = int(arr.sum(dtype=np.int64))
        if total != n - 1:
            raise ValueError(f"degree sum {total} != n - 1 = {n - 1}: not a tree")
        # with degrees >= 0 summing to n - 1, Q(t) lies in [1 - n, n]: int32
        q = np.empty(n + 1, dtype=np.int32)  # Q(0..n)
        q[0] = 1
        np.subtract(arr, 1, out=q[1:])
        np.cumsum(q, dtype=np.int32, out=q)
        if n > 1 and q[1:-1].min() <= 0:
            raise ValueError("tree closes before the last node (preorder invalid)")
        arr.flags.writeable = False
        q.flags.writeable = False
        self.degrees = arr
        self.n = n
        self.max_degree = int(top)
        self._q = q

    @cached_property
    def extent(self) -> np.ndarray:
        """Subtree sizes for every node (int32), in one vectorized pass.

        A leaf's extent is 1.  The subtree of an internal node v ends at the
        first u > v with Q[u] = Q[v] - 1.  Down-steps are unit, so the walk
        first reaches a lower level at a position entered right after a
        leaf.  The keys Q[u] * (n + 2) + u of those positions, sorted, order
        them by (level, position), and u is the first key past (Q[v] - 1, v):
        one searchsorted for all internal v.

        The keys are filled, and the queries answered straight into the
        extents, DRAW_BLOCK nodes at a time, so only the int64 keys (8 bytes
        per leaf) and the int32 extents are held in full: a peak of 7.8 and
        10.4 bytes per node for ternary_uniform and harmonic:10 trees of
        1.3-1.6 * 10^6 nodes (tracemalloc).
        """
        n, degrees, q = self.n, self.degrees, self._q
        base = n + 2
        keys = np.empty(n - np.count_nonzero(degrees), dtype=np.int64)
        filled = 0
        for lo in range(0, n, DRAW_BLOCK):
            down = np.flatnonzero(degrees[lo:lo + DRAW_BLOCK] == 0)
            down += lo + 1
            block = keys[filled:filled + down.size]
            np.multiply(q[down], base, out=block, dtype=np.int64)
            block += down
            filled += down.size
        keys.sort()
        ext = np.ones(n, dtype=np.int32)
        for lo in range(0, n, DRAW_BLOCK):
            inner = np.flatnonzero(degrees[lo:lo + DRAW_BLOCK])
            inner += lo
            queries = np.multiply(q[inner] - 1, base, dtype=np.int64)
            queries += inner
            end = keys[np.searchsorted(keys, queries, side="right")]
            end %= base
            end -= inner
            ext[inner] = end
        ext.flags.writeable = False
        return ext

    def q_path(self) -> np.ndarray:
        """Open-branch counts Q(0..n): starts at 1, stays positive, ends at 0."""
        return self._q

    def adj(self, v: int, j: int):
        """j-th child of v (1-based), or None past v's degree.

        Walks sibling extents, so one lookup costs O(j); a full child scan
        of v costs O(degree).  Indices j beyond the tree's max degree are
        tolerated (None), matching how a budgeted search probes an oracle.
        """
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        if not j >= 1:  # also rejects NaN
            raise ValueError("child index j starts at 1")
        v = require_integer("vertex", v)
        j = require_integer("child index j", j)
        if j > self.degrees[v]:
            return None
        ext = self.extent
        child = v + 1
        for _ in range(j - 1):
            child += ext[child]
        return int(child)

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"PreorderTree(n={self.n}, max_degree={self.max_degree})"


def _grow(draw, cap: int):
    """Degree chunks of one unconditioned tree in preorder, or Overflow.

    draw(m) returns the next m offspring draws.  Draws in chunks of
    FIRST_CHUNK, twice that, ... DRAW_BLOCK (the largest draw that dist.draw
    serves in one block, without a copy), capped at the nodes left before
    cap, and stops the moment the open-branch count returns to zero.  The
    draw sequence, hence the tree, depends only on the generator, not on
    chunk boundaries; the generator moves on by whole chunks.
    """
    chunks = []
    pending = 1
    total = 0
    size = FIRST_CHUNK
    while total < cap:
        m = min(size, cap - total)
        draws = draw(m)
        walk = pending + np.cumsum(draws - 1)
        hit = np.flatnonzero(walk == 0)
        if hit.size:
            chunks.append(draws[:hit[0] + 1].astype(np.int32))
            return chunks
        chunks.append(draws.astype(np.int32))  # draws < len(dist.pmf): no wrap
        total += m
        pending = int(walk[-1])
        size = min(size * 2, DRAW_BLOCK)
        del draws, walk  # a view of a read-ahead block would pin it over the next draw
    return Overflow(count=total, pending=pending)


def _tree(chunks) -> PreorderTree:
    return PreorderTree(np.concatenate(chunks, dtype=np.int32))


def sample_unconditional(dist: OffspringDistribution, seed=None, cap: int = 1_000_000):
    """Sample one unconditioned tree; Overflow if it outgrows ``cap`` nodes.

    Draws offspring counts in preorder and stops the moment the open-branch
    count returns to zero.  Chunked and vectorized; the draw sequence (hence
    the tree) depends only on the seed, not on chunk boundaries.
    """
    cap = _check_size("cap", cap)
    rng = generator(seed)
    got = _grow(lambda m: dist.draw(rng, m), cap)
    return got if isinstance(got, Overflow) else _tree(got)


class _ReadAhead:
    """The offspring draws of one generator, read ahead in blocks.

    take(m) returns the next m draws, equal to what dist.draw(rng, m) would
    return there.  Blocks start at 512 draws and double up to DRAW_BLOCK,
    so a short search reads little ahead.  skip_small settles, within the
    current block, the attempts that close too small inside their first
    chunk.  close() puts the generator where the draws taken so far would
    have left it, so a caller's Generator ends where chunked draws end.
    """

    def __init__(self, dist: OffspringDistribution, rng: np.random.Generator):
        self.dist = dist
        self.rng = rng
        self.block = np.empty(0, dtype=np.intp)
        self.pos = 0  # draws of the block taken so far
        self.size = 512
        self.state = None  # the generator's state before the block
        # rows of the block flagged from grid (-1: none) up to grid_end: the
        # starts of those whose attempt does not close too small
        self.grid = -1
        self.grid_end = 0
        self.unflagged = np.empty(0, dtype=np.intp)

    def take(self, m: int) -> np.ndarray:
        end = self.pos + m
        if end <= self.block.size:
            self.pos = end
            return self.block[end - m:end]
        # the head (< m draws) is copied, so the old block goes before the draw
        self.block = head = self.block[self.pos:].copy()
        self.state = self.rng.bit_generator.state
        self.block = self.dist.draw(self.rng, max(self.size, m - head.size))
        self.size = min(2 * self.size, DRAW_BLOCK)
        self.grid = -1
        self.pos = m - head.size
        tail = self.block[:self.pos]
        return np.concatenate((head, tail)) if head.size else tail

    def skip_small(self, first: int, small: int, limit) -> int:
        """Take the attempts, at most limit, that close at one of their first
        small nodes (small <= first) from here on in the block; their count.

        Each such attempt used exactly one first chunk of ``first`` draws,
        so the block is cut into rows of that length and all rows are
        flagged at once; the run of flagged rows up to the next unflagged
        one is found by one search.  The flags hold until an attempt ends
        off the row grid.
        """
        rows = (self.block.size - self.pos) // first
        if not rows:
            return 0
        if self.grid < 0 or (self.pos - self.grid) % first:
            chunks = self.block[self.pos:self.pos + rows * first].reshape(rows, first)
            walk = chunks[:, :small].cumsum(axis=1)
            walk -= np.arange(small)  # open branches after each node
            # down-steps are unit, so a walk that closes passes through 0
            self.grid = self.pos
            self.grid_end = self.pos + rows * first
            self.unflagged = self.pos + first * np.flatnonzero(walk.min(axis=1) > 0)
        i = np.searchsorted(self.unflagged, self.pos)
        stop = self.unflagged[i] if i < self.unflagged.size else self.grid_end
        skipped = min(int(stop - self.pos) // first, limit)
        self.pos += skipped * first
        return skipped

    def close(self) -> None:
        if self.pos < self.block.size:
            self.rng.bit_generator.state = self.state
            self.rng.random(self.pos)


def sample_at_least(dist: OffspringDistribution, n_min: int, seed=None,
                    max_attempts: int | None = None, cap: int | None = None):
    """First sampled tree with at least ``n_min`` nodes, as (tree, attempts).

    cap defaults to min(100 * n_min, MAX_NODES); an attempt that overflows
    the cap counts as failed and is redrawn, so the returned law is the
    unconditional one restricted to n_min <= n <= cap.  Raises
    AttemptsExhausted past max_attempts (None = keep trying).  Only the
    accepted tree is built.

    The draws are read ahead, and the many attempts that close too small
    inside their first chunk are settled in bulk; the rest grow by _grow.
    Trees, attempt counts and the generator's final position equal those of
    growing every attempt by _grow from dist.draw.
    """
    n_min = _check_size("n_min", n_min)
    if cap is None:
        cap = min(100 * n_min, MAX_NODES)
    if not cap >= n_min:
        raise ValueError("cap must be >= n_min")
    cap = _check_size("cap", cap)
    if max_attempts is not None:
        max_attempts = require_count("max_attempts", max_attempts)
    reader = _ReadAhead(dist, generator(seed))
    first = min(FIRST_CHUNK, cap)  # the first chunk of every attempt
    small = min(first, n_min - 1)  # an attempt closing at these nodes fails
    limit = math.inf if max_attempts is None else max_attempts
    attempts = 0
    try:
        while True:
            if small:
                attempts += reader.skip_small(first, small, limit - attempts)
                if attempts >= limit:
                    raise AttemptsExhausted(attempts, f"tree with n >= {n_min}")
            attempts += 1
            got = _grow(reader.take, cap)
            if not isinstance(got, Overflow) and sum(map(len, got)) >= n_min:
                return _tree(got), attempts
            if attempts >= limit:
                raise AttemptsExhausted(attempts, f"tree with n >= {n_min}")
    finally:
        reader.close()


def _rotation(draws) -> int:
    """Start of the one valid rotation of draws that sum to len(draws) - 1."""
    return int(np.argmin(np.cumsum(draws - 1)) + 1) % len(draws)


def sample_exact(dist: OffspringDistribution, n: int, seed=None,
                 max_attempts: int | None = None):
    """Tree conditioned on exactly n nodes, as (tree, attempts).

    Rejection plus rotation: draw (xi_1..xi_n) i.i.d. until they sum to n-1,
    then start them right after the first minimum of the prefix sums of
    xi_i - 1 (_rotation).  That rotation is the unique one whose walk stays
    positive before step n (cycle lemma), and it maps i.i.d. draws to exactly
    the conditional Galton-Watson law.  Expected rejections grow like sqrt(n)/d.
    """
    n = _check_size("n", n)
    if (n - 1) % dist.span != 0:
        raise ValueError(
            f"no trees with {n} nodes: sizes are 1 mod {dist.span} for this law")
    if max_attempts is not None:
        max_attempts = require_count("max_attempts", max_attempts)
    rng = generator(seed)
    target = n - 1
    attempts = 0
    while True:
        attempts += 1
        draws = dist.draw(rng, n)
        if int(draws.sum()) == target:
            k = _rotation(draws)
            rotated = np.concatenate((draws[k:], draws[:k]), dtype=np.int32)
            return PreorderTree(rotated), attempts
        if max_attempts is not None and attempts >= max_attempts:
            raise AttemptsExhausted(attempts, f"degree sum {target} over {n} draws")


def write_tree(tree: PreorderTree, path) -> None:
    """Two-line text format: node count, then space-separated preorder degrees.

    The degrees are formatted and written DRAW_BLOCK at a time.
    """
    width = len(str(tree.max_degree))
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int32)
    with open(path, "wb") as fh:
        fh.write(f"{tree.n}\n".encode())
        for lo in range(0, tree.n, DRAW_BLOCK):
            degrees = tree.degrees[lo:lo + DRAW_BLOCK, None]
            digits = degrees // powers
            digits %= 10
            digits += ord("0")
            text = np.empty((len(degrees), width + 1), dtype=np.uint8)
            text[:, :width] = digits
            text[:, width] = ord(" ")
            if lo + len(degrees) == tree.n:
                text[-1, width] = ord("\n")
            keep = np.ones(text.shape, dtype=bool)
            # drop leading zeros; 0 keeps its last digit
            keep[:, :width - 1] = degrees >= powers[:-1]
            fh.write(text[keep])


def _positions(mask, dtype) -> np.ndarray:
    """Indices of mask's True entries as dtype, found DRAW_BLOCK at a time
    (np.flatnonzero would hold them all as intp)."""
    out = np.empty(np.count_nonzero(mask), dtype=dtype)
    filled = 0
    for lo in range(0, mask.size, DRAW_BLOCK):
        found = np.flatnonzero(mask[lo:lo + DRAW_BLOCK])
        found += lo
        out[filled:filled + found.size] = found
        filled += found.size
    return out


def read_tree(path) -> PreorderTree:
    """Read and fully validate a tree file written by write_tree.

    Line 1 is the node count n, in ASCII decimal digits.  Line 2 holds n
    degrees, each ASCII decimal digits, separated by ASCII whitespace.  Only
    whitespace may follow.  The word starts and lengths are int32 (int64
    past 2^31 bytes), and so are the degrees (int64 past 9 digits); the
    text and its masks are dropped before the tree is built.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    head, body = (lines + [b"", b""])[:2]
    head = head.strip()
    if not head.isdigit():  # ASCII digits only: int() would take "+2" and "1_0"
        raise ValueError(f"{path}: first line must be the node count")
    n = int(head)
    if any(line.strip() for line in lines[2:]):
        raise ValueError(f"{path}: unexpected content after the degree line")
    del lines
    chars = np.frombuffer(body, dtype=np.uint8)
    # uint8 arithmetic wraps below zero, so one comparison tests each range
    word = np.zeros(chars.size + 2, dtype=bool)  # a space pads either end
    np.not_equal(chars, ord(" "), out=word[1:-1])
    word[1:-1] &= chars - ord("\t") > 4  # not \t\n\v\f\r
    # word flips at every start and every end, in turn: (start, end) pairs
    index = np.int32 if chars.size < 2**31 else np.int64
    edges = _positions(word[1:] != word[:-1], index)
    if len(edges) // 2 != n:
        raise ValueError(f"{path}: expected {n} degrees, found {len(edges) // 2}")
    digit = chars - ord("0") < 10
    if np.not_equal(digit, word[1:-1], out=digit).any():
        raise ValueError(f"{path}: degrees must be integers")
    del digit, word
    starts, lengths = edges[0::2], edges[1::2]
    lengths -= starts
    width = int(lengths.max(initial=0))
    if width > 18:  # 18 digits always fit an int64
        raise ValueError(f"{path}: degrees must be in [0, {MAX_DEGREE}]")
    degrees = chars[starts]
    degrees -= ord("0")
    degrees = degrees.astype(np.int32 if width <= 9 else np.int64)
    for j in range(1, width):  # Horner's rule, one digit column at a time
        more = lengths > j
        degrees[more] = degrees[more] * 10 + (chars[starts[more] + j] - ord("0"))
    del chars, body, edges, starts, lengths
    return PreorderTree(degrees)
