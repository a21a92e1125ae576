"""Directed graph container, edge-list ingestion, synthetic generators, and
the degree-1 fan merging preprocessor."""
from __future__ import annotations

from array import array
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Graph",
    "LoadResult",
    "EdgeListError",
    "load_edge_list",
    "format_edge_list",
    "gen_erdos_renyi",
    "gen_power_law",
    "merge_degree_one",
    "expand_permutation",
]

INT64_MAX = int(np.iinfo(np.int64).max)


def _distinct_codes(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array, as ``np.unique`` gives them.
    A sort and a neighbour mask: numpy's ``np.unique`` takes a hash path on
    int64 that is several times slower."""
    codes = np.sort(codes)
    keep = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


class EdgeListError(ValueError):
    """Raised when an edge-list stream cannot be parsed."""


class Graph:
    """Immutable simple directed graph.

    Arcs are stored as a read-only ``(m, 2)`` int64 array sorted by
    ``(u, v)``; in/out adjacency are CSR views derived from the arcs, so the
    two are consistent by construction.  Safe for concurrent readers.
    """

    __slots__ = (
        "n",
        "arcs",
        "_out_indptr",
        "_out_indices",
        "_in_indptr",
        "_in_indices",
        "_degrees",
    )

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] | np.ndarray = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        arr = np.asarray(list(arcs) if not isinstance(arcs, np.ndarray) else arcs,
                         dtype=np.int64)
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("arcs must be pairs (u, v)")
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError("arc endpoint out of range [0, n)")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loops are not allowed")
        codes = arr[:, 0] * n + arr[:, 1]
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        if codes.size and np.any(np.diff(codes) == 0):
            raise ValueError("duplicate arcs are not allowed")
        arr = arr[order]

        self.n = int(n)
        self.arcs = arr
        # The arcs are sorted by (u, v), so the out-lists are their v column
        # as it stands, and a stable sort by v yields the in-lists sorted too.
        # The offsets are the standard library's int64 arrays, never written:
        # an item read from one is a Python int, which slices the indices in
        # about two thirds of the time a numpy scalar takes (the similarity
        # rows' hot path), at 8 bytes an entry (a tuple would hold a 28-byte
        # int object for each).
        out_deg = np.bincount(arr[:, 0], minlength=n)
        in_deg = np.bincount(arr[:, 1], minlength=n)
        self._out_indptr = array("q", np.concatenate(([0], np.cumsum(out_deg))).tobytes())
        self._out_indices = np.ascontiguousarray(arr[:, 1])
        self._in_indptr = array("q", np.concatenate(([0], np.cumsum(in_deg))).tobytes())
        self._in_indices = arr[np.argsort(arr[:, 1], kind="stable"), 0]
        self._degrees = (out_deg + in_deg).astype(np.int64)
        for a in (self.arcs, self._out_indices, self._in_indices, self._degrees):
            a.flags.writeable = False

    @classmethod
    def from_undirected(cls, n: int, pairs: np.ndarray | Iterable[tuple[int, int]]) -> "Graph":
        """Build a bidirected graph: every undirected pair yields both arcs."""
        arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                         dtype=np.int64)
        if arr.size == 0:
            return cls(n)
        arr = arr.reshape(-1, 2)
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        uniq = _distinct_codes(lo * n + hi)
        lo, hi = uniq // n, uniq % n
        both = np.concatenate([np.stack([lo, hi], axis=1), np.stack([hi, lo], axis=1)])
        return cls(n, both)

    @property
    def arc_count(self) -> int:
        return int(self.arcs.shape[0])

    def out_neighbors(self, v: int) -> np.ndarray:
        """Sorted successors of ``v``."""
        return self._out_indices[self._out_indptr[v]:self._out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sorted predecessors of ``v``."""
        return self._in_indices[self._in_indptr[v]:self._in_indptr[v + 1]]

    def total_degrees(self) -> np.ndarray:
        """In-degree + out-degree per vertex (read-only array)."""
        return self._degrees

    def undirected_edges(self) -> np.ndarray:
        """Distinct undirected edges as a ``(k, 2)`` array with u < v, sorted."""
        if self.arc_count == 0:
            return np.empty((0, 2), dtype=np.int64)
        lo = np.minimum(self.arcs[:, 0], self.arcs[:, 1])
        hi = np.maximum(self.arcs[:, 0], self.arcs[:, 1])
        uniq = _distinct_codes(lo * self.n + hi)
        return np.stack([uniq // self.n, uniq % self.n], axis=1)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, arcs={self.arc_count})"


class LoadResult(NamedTuple):
    graph: Graph
    self_loops_dropped: int
    duplicates_dropped: int


def load_edge_list(source: str | Iterable[str]) -> LoadResult:
    """Parse whitespace-separated ``u v`` lines into a Graph.

    Lines starting with ``#`` are comments.  An optional first content line
    ``n <int>`` declares the vertex count; otherwise it is one past the
    largest id seen.  Ids are integers as ``int()`` reads them that fit in
    int64.  Self-loops and duplicate arcs are dropped and counted.  A
    malformed file raises EdgeListError naming its first bad line.

    ASCII content is read by numpy's C text reader in one call.  Any other
    content, and ids that reader refuses but ``int()`` accepts (``1_000``),
    go through the per-line parser, which gives the same result.
    """
    lines = source.splitlines() if isinstance(source, str) else list(source)
    content = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    declared_n: int | None = None
    head = content[0].split() if content else []
    if len(head) == 2 and head[0] == "n":
        try:
            declared_n = int(head[1])
        except ValueError:
            declared_n = -1  # out of range below, so the per-line parser names the line
        del content[0]

    ids = None
    # numpy's loadtxt can crash the interpreter on lines holding astral code
    # points (numpy 2.4.6 segfaulted on "1\U0009c6ca2"), so it sees ASCII only.
    if (content and all(map(str.isascii, content))
            and (declared_n is None or 0 <= declared_n <= INT64_MAX)):
        try:
            ids = np.loadtxt(content, dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pass
    if (ids is None or ids.shape[1] != 2 or ids.min() < 0
            or (declared_n is not None and ids.max() >= declared_n)):
        declared_n, ids = _parse_lines(lines)

    loops = ids[:, 0] == ids[:, 1]
    pairs = ids[~loops]
    if declared_n is not None:
        n = declared_n
    else:
        n = int(pairs.max()) + 1 if pairs.size else 0
    codes = _distinct_codes(pairs[:, 0] * n + pairs[:, 1])
    graph = Graph(n, np.stack([codes // n, codes % n], axis=1))
    return LoadResult(graph, int(loops.sum()), pairs.shape[0] - codes.size)


def _parse_lines(lines: list[str]) -> tuple[int | None, np.ndarray]:
    """The reference reader, one line at a time: the declared vertex count
    (None without a header) and the ``(k, 2)`` ids, or EdgeListError at the
    first line, in file order, that breaks the format."""
    declared_n: int | None = None
    seen_content = False
    ids: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not seen_content and tokens[0] == "n" and len(tokens) == 2:
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise EdgeListError(f"line {lineno}: bad vertex count {tokens[1]!r}") from None
            if declared_n < 0:
                raise EdgeListError(f"line {lineno}: negative vertex count")
            if declared_n > INT64_MAX:
                raise EdgeListError(f"line {lineno}: vertex count too large for int64")
            seen_content = True
            continue
        seen_content = True
        if len(tokens) != 2:
            raise EdgeListError(f"line {lineno}: expected two ids, got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: non-integer id in {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: negative id in {line!r}")
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise EdgeListError(
                f"line {lineno}: id out of declared range [0, {declared_n})")
        if max(u, v) > INT64_MAX:
            raise EdgeListError(f"line {lineno}: id too large for int64 in {line!r}")
        ids.append((u, v))
    return declared_n, np.array(ids, dtype=np.int64).reshape(-1, 2)


def format_edge_list(g: Graph) -> str:
    """Serialize a Graph in the same text format, with an ``n`` header."""
    return f"n {g.n}\n" + ("%d %d\n" * g.arc_count) % tuple(g.arcs.ravel().tolist())


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Random graph: each unordered pair is kept with probability ``p`` and
    yields both arcs.  Deterministic per seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if n < 0:
        raise ValueError("n must be non-negative")
    n_pairs = n * (n - 1) // 2
    if n_pairs == 0 or p == 0.0:
        return Graph(n)
    # offsets[u] = number of pairs (a, b), a < b, with a < u
    us = np.arange(n, dtype=np.int64)
    offsets = us * n - us * (us + 1) // 2
    if p == 1.0:
        codes = np.arange(n_pairs, dtype=np.int64)
    else:
        # Bernoulli process over pair codes via geometric gap skipping.
        rng = np.random.default_rng(seed)
        chunks: list[np.ndarray] = []
        pos = -1
        est = int(n_pairs * p + 10 * np.sqrt(n_pairs * p * (1 - p)) + 16)
        while pos < n_pairs:
            gaps = rng.geometric(p, size=est)
            hits = pos + np.cumsum(gaps)
            chunks.append(hits)
            pos = int(hits[-1])
        codes = np.concatenate(chunks)
        codes = codes[codes < n_pairs]
    u = np.searchsorted(offsets, codes, side="right") - 1
    v = codes - offsets[u] + u + 1
    return Graph.from_undirected(n, np.stack([u, v], axis=1))


def gen_power_law(n: int, gamma: float, seed: int) -> Graph:
    """Power-law graph: degrees drawn from a truncated discrete power law
    (support 1..n-1, exponent ``gamma``) by inverse-transform sampling, paired
    with the configuration model; self-loops and multi-edges are dropped.
    Deterministic per seed."""
    if not gamma > 1.0:  # also rejects nan
        raise ValueError(f"exponent must exceed 1, got {gamma}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return Graph(1)
    rng = np.random.default_rng(seed)
    support = np.arange(1, n, dtype=np.float64)
    weights = support ** (-gamma)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    degrees = np.searchsorted(cdf, rng.random(n), side="right") + 1
    if degrees.sum() % 2 == 1:
        degrees[0] += 1 if degrees[0] < n - 1 else -1
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    a, b = stubs[0::2], stubs[1::2]
    keep = a != b
    return Graph.from_undirected(n, np.stack([a[keep], b[keep]], axis=1))


def merge_degree_one(g: Graph) -> tuple[Graph, np.ndarray]:
    """Collapse every set of total-degree-1 vertices that hang off one common
    neighbor with the same arc direction into a single vertex.

    Returns the merged graph and ``group``, a read-only int64 array of length
    ``g.n`` whose entry v is v's merged id.  Ids are numbered in order of each
    group's smallest member, so fan-free graphs come back unchanged.
    """
    n = g.n
    u, v = g.arcs[:, 0], g.arcs[:, 1]
    leaf = g.total_degrees()[g.arcs] == 1
    # A leaf's key is 2 * neighbor + [its one arc leaves it]; every other
    # vertex gets a key of its own, past the leaf keys.
    key = np.arange(2 * n, 3 * n, dtype=np.int64)
    key[u[leaf[:, 0]]] = 2 * v[leaf[:, 0]] + 1
    key[v[leaf[:, 1]]] = 2 * u[leaf[:, 1]]
    smallest = np.full(3 * n, n, dtype=np.int64)
    np.minimum.at(smallest, key, np.arange(n))
    rep = smallest[key]
    is_rep = rep == np.arange(n)
    group = (np.cumsum(is_rep) - 1)[rep]
    group.flags.writeable = False
    k = int(is_rep.sum())
    mapped = group[g.arcs]
    codes = _distinct_codes(mapped[:, 0] * k + mapped[:, 1])
    return Graph(k, np.stack([codes // k, codes % k], axis=1)), group


def expand_permutation(perm_merged: np.ndarray | Sequence[int],
                       group: np.ndarray, seed: int) -> np.ndarray:
    """Expand a merged-graph permutation to the original vertex set: each
    group's members are placed consecutively, at their group's position in
    ``perm_merged``, in a seeded-random order."""
    group = np.asarray(group, dtype=np.int64)
    sizes = np.bincount(group)  # ValueError on a negative id
    if not sizes.all():
        raise ValueError("group ids must be 0..k-1 without a gap")
    perm = np.asarray(perm_merged, dtype=np.int64)
    if perm.shape != sizes.shape or not np.array_equal(np.sort(perm), np.arange(sizes.size)):
        raise ValueError("permutation does not match the merged vertex set")
    where = np.empty(sizes.size, dtype=np.int64)
    where[perm] = np.arange(sizes.size)
    # A stable sort keeps each group's members ascending; the groups of two
    # or more are then shuffled in perm order (a singleton draws nothing).
    out = np.argsort(where[group], kind="stable")
    sizes = sizes[perm]
    multi = sizes > 1
    rng = np.random.default_rng(seed)
    for end, size in zip(np.cumsum(sizes)[multi].tolist(), sizes[multi].tolist()):
        rng.shuffle(out[end - size:end])
    return out
