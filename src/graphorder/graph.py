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
    "check_ids",
    "check_permutation",
    "check_positive",
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


def _arc_codes(u: np.ndarray, v: np.ndarray, n: int, top: int) -> np.ndarray:
    """``u * n + v`` for id arrays on [0, n) whose largest id is ``top``, or
    ValueError when a code could pass int64: every code is at most
    ``top * (n + 1)``, which is checked on Python ints."""
    if top * (n + 1) > INT64_MAX:
        raise ValueError(f"arc codes overflow int64: largest id {top} times n + 1 = {n + 1} "
                         f"is not below 2**63")
    return u * n + v


def check_ids(ids: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Return ``ids`` as a 1-D int64 array of distinct vertex ids in [0, n),
    or raise ValueError.  The test runs on Python ints, which for a window
    set's few ids is faster than numpy's reductions (one per soft label)."""
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D sequence of vertex ids")
    values = arr.tolist()
    if values and (min(values) < 0 or max(values) >= n):
        raise ValueError(f"vertex id out of range [0, {n})")
    if len(set(values)) != len(values):
        raise ValueError("vertex ids repeat")
    return arr


def check_permutation(order: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Validate and return ``order`` as an int64 bijection on [0, n)."""
    arr = np.asarray(order, dtype=np.int64)
    if arr.shape != (n,) or not np.array_equal(np.sort(arr), np.arange(n)):
        raise ValueError(f"not a permutation of [0, {n})")
    return arr


def check_positive(**counts: int) -> None:
    """Refuse a count below one, naming it by its keyword."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")


class EdgeListError(ValueError):
    """Raised when an edge-list stream cannot be parsed."""


class Graph:
    """Immutable simple directed graph.

    Arcs are stored as a read-only ``(m, 2)`` int64 array sorted by
    ``(u, v)``; in/out adjacency are CSR views derived from the arcs, so the
    two are consistent by construction.  Safe for concurrent readers.

    An arc given more than once is kept once; a self-loop or an endpoint
    outside [0, n) is refused before any arc code is formed.
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
        top = int(arr.max()) if arr.size else 0
        if arr.size:
            if arr.min() < 0 or top >= n:
                raise ValueError("arc endpoint out of range [0, n)")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loops are not allowed")
        # One sort of the (u, v) codes gives the distinct arcs and the
        # out-lists, and one of the (v, u) codes the in-lists, each sorted.
        tails, heads = np.divmod(_distinct_codes(_arc_codes(arr[:, 0], arr[:, 1], n, top)), n)

        self.n = int(n)
        self.arcs = np.stack([tails, heads], axis=1)
        # The offsets are the standard library's int64 arrays, never written:
        # an item read from one is a Python int, which slices the indices in
        # about two thirds of the time a numpy scalar takes (the similarity
        # rows' hot path), at 8 bytes an entry (a tuple would hold a 28-byte
        # int object for each).
        out_deg = np.bincount(tails, minlength=n)
        in_deg = np.bincount(heads, minlength=n)
        self._out_indptr = array("q", np.concatenate(([0], np.cumsum(out_deg))).tobytes())
        self._out_indices = heads
        self._in_indptr = array("q", np.concatenate(([0], np.cumsum(in_deg))).tobytes())
        self._in_indices = np.sort(_arc_codes(heads, tails, n, top)) % n
        self._degrees = out_deg + in_deg
        for a in (self.arcs, self._out_indices, self._in_indices, self._degrees):
            a.flags.writeable = False

    @classmethod
    def from_undirected(cls, n: int, pairs: np.ndarray | Iterable[tuple[int, int]]) -> "Graph":
        """Build a bidirected graph: every undirected pair yields both arcs."""
        arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                         dtype=np.int64).reshape(-1, 2)
        return cls(n, np.concatenate([arr, arr[:, ::-1]]))

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
        hi = np.maximum(self.arcs[:, 0], self.arcs[:, 1])
        codes = _distinct_codes(_arc_codes(np.minimum(self.arcs[:, 0], self.arcs[:, 1]), hi,
                                           self.n, int(hi.max()) if hi.size else 0))
        return np.stack(np.divmod(codes, self.n), axis=1)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, arcs={self.arc_count})"


class LoadResult(NamedTuple):
    graph: Graph
    self_loops_dropped: int
    duplicates_dropped: int


def load_edge_list(source: str) -> LoadResult:
    """Parse the text of whitespace-separated ``u v`` lines into a Graph.

    Lines starting with ``#`` are comments.  An optional first content line
    ``n <int>`` declares the vertex count; otherwise it is one past the
    largest id seen.  Ids are integers as ``int()`` reads them that fit in
    int64.  Self-loops and duplicate arcs are dropped and counted.  A
    malformed file raises EdgeListError naming its first bad line, and ids
    whose arc codes ``u * n + v`` would pass int64 raise ValueError.

    An ASCII text's lines after its first content line, or after its ``n``
    header, are read by numpy's C text reader in one call, as they stand.
    That reader skips blank lines but refuses a ``#`` line, so a file with
    comments past its first content line, a non-ASCII file, and ids the
    reader refuses but ``int()`` accepts (``1_000``) go through the per-line
    parser, which gives the same result.
    """
    lines = source.splitlines()
    first = next((i for i, line in enumerate(map(str.strip, lines))
                  if line and line[0] != "#"), len(lines))
    declared_n: int | None = None
    head = lines[first].split() if first < len(lines) else []
    if len(head) == 2 and head[0] == "n":
        try:
            declared_n = int(head[1])
        except ValueError:
            declared_n = -1  # out of range below, so the per-line parser names the line
        first += 1
    body = lines[first:]

    ids = None
    # numpy's loadtxt can crash the interpreter on lines holding astral code
    # points (numpy 2.4.6 segfaulted on "1\U0009c6ca2"), so it sees ASCII
    # only; it warns when no line holds data, so it is not called then.
    if (source.isascii() and any(map(str.strip, body))
            and (declared_n is None or 0 <= declared_n <= INT64_MAX)):
        try:
            ids = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pass
    if (ids is None or ids.shape[1] != 2 or ids.min() < 0
            or (declared_n is not None and ids.max() >= declared_n)):
        declared_n, ids = _parse_lines(lines)

    loops = ids[:, 0] == ids[:, 1]
    pairs = ids[~loops]
    if declared_n is None:
        declared_n = int(pairs.max()) + 1 if pairs.size else 0
    graph = Graph(declared_n, pairs)
    return LoadResult(graph, int(loops.sum()), pairs.shape[0] - graph.arc_count)


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
    # Bernoulli process over pair codes via geometric gap skipping (p = 1: all gaps 1).
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
    return Graph(int(is_rep.sum()), group[g.arcs]), group


def expand_permutation(perm_merged: np.ndarray | Sequence[int],
                       group: np.ndarray, seed: int) -> np.ndarray:
    """Expand a merged-graph permutation to the original vertex set: each
    group's members are placed consecutively, at their group's position in
    ``perm_merged``, in a seeded-random order."""
    group = np.asarray(group, dtype=np.int64)
    sizes = np.bincount(group)  # ValueError on a negative id
    if not sizes.all():
        raise ValueError("group ids must be 0..k-1 without a gap")
    perm = check_permutation(perm_merged, sizes.size)
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
