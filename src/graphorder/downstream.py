"""Downstream uses of a vertex ordering: adjacency-block compression cost and
ordering-derived edge partitioning, with random and greedy partitioners as
baselines."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _distinct_codes, check_permutation

__all__ = [
    "EdgePartition",
    "compression_cost",
    "partition_from_order",
    "replication_factor",
    "random_partition",
    "greedy_partition",
    "format_partition_csv",
]

# Headroom over the balanced part size that greedy_partition allows.
GREEDY_SLACK = 0.1


def _block_map(g: Graph, order, b: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Block row and block column of every arc in the adjacency matrix
    reordered by ``order`` and cut into b-by-b blocks, and the ceil(n/b)
    blocks per side."""
    if b < 1:
        raise ValueError("block width must be positive")
    perm = check_permutation(order, g.n)
    b = min(b, max(g.n, 1))  # any b >= n is one block; keeps huge b out of int64
    pos = np.empty(g.n, dtype=np.int64)
    pos[perm] = np.arange(g.n)
    return pos[g.arcs[:, 0]] // b, pos[g.arcs[:, 1]] // b, math.ceil(g.n / b)


def compression_cost(g: Graph, order, b: int) -> tuple[int, float]:
    """Count the nonempty b-by-b blocks of the reordered adjacency matrix.

    Cell (i, j) is set when there is an arc from the vertex at position i to
    the vertex at position j.  Returns the raw count and its fraction of the
    ceil(n/b)^2 blocks.
    """
    bi, bj, nb = _block_map(g, order, b)
    if bi.size == 0:
        return 0, 0.0
    nonzero = int(_distinct_codes(bi * nb + bj).size)
    return nonzero, nonzero / (nb * nb)


@dataclass(eq=False)
class EdgePartition:
    """Assignment of every undirected edge to one of k parts: ``parts[i]`` is
    the part of ``edges[i]``.  The partitioners use ``g.undirected_edges()``
    as ``edges``; both arrays are stored read-only."""

    edges: np.ndarray
    parts: np.ndarray
    k: int

    def __post_init__(self):
        self.edges = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        self.parts = np.array(self.parts, dtype=np.int64)
        if self.parts.shape != (self.edges.shape[0],):
            raise ValueError("need exactly one part id per edge")
        out_of_range = self.parts[(self.parts < 0) | (self.parts >= self.k)]
        if out_of_range.size:
            raise ValueError(f"part id {out_of_range[0]} out of range [0, {self.k})")
        flipped = self.edges[self.edges[:, 0] >= self.edges[:, 1]]
        if flipped.size:
            raise ValueError(f"edge {tuple(flipped[0].tolist())} must satisfy u < v")
        self.edges.flags.writeable = False
        self.parts.flags.writeable = False


def replication_factor(g: Graph, part: EdgePartition) -> float:
    """Average number of parts each vertex appears in: the count of distinct
    (part, endpoint) pairs, divided by the vertex count."""
    if g.n == 0:
        return 0.0
    return _distinct_codes((part.parts[:, None] * g.n + part.edges).ravel()).size / g.n


def partition_from_order(g: Graph, order, k: int) -> EdgePartition:
    """Sweep the permutation and hand out each edge at its earlier-positioned
    endpoint, cutting over to the next part on a balanced schedule.

    Part sizes follow the balanced split of the edge count (the first
    ``m mod k`` parts take one extra edge), so all k parts are non-empty
    whenever there are at least k edges.
    """
    if k < 1:
        raise ValueError("partition count must be positive")
    perm = check_permutation(order, g.n)
    edges = g.undirected_edges()
    m = edges.shape[0]
    if m < k:
        raise ValueError(f"cannot split {m} edges into {k} non-empty parts")
    pos = np.empty(g.n, dtype=np.int64)
    pos[perm] = np.arange(g.n)
    early = np.minimum(pos[edges[:, 0]], pos[edges[:, 1]])
    late = np.maximum(pos[edges[:, 0]], pos[edges[:, 1]])
    sweep = np.lexsort((late, early))
    base, extra = divmod(m, k)
    sizes = [base + 1 if i < extra else base for i in range(k)]
    parts = np.empty(m, dtype=np.int64)
    parts[sweep] = np.repeat(np.arange(k), sizes)
    return EdgePartition(edges, parts, k)


def random_partition(g: Graph, k: int, seed: int) -> EdgePartition:
    """Assign every edge independently and uniformly to one of k parts."""
    if k < 1:
        raise ValueError("partition count must be positive")
    edges = g.undirected_edges()
    rng = np.random.default_rng(seed)
    return EdgePartition(edges, rng.integers(0, k, size=edges.shape[0]), k)


def greedy_partition(g: Graph, k: int) -> EdgePartition:
    """Stream edges in a fixed order, preferring parts that already hold the
    edge's endpoints (+2 for both, +1 for one) minus a load penalty of
    size/capacity.  Ties go to the least-loaded, then smallest-id part; a
    hard cap of ceil(m/k)*(1+GREEDY_SLACK) keeps parts from overfilling.
    Only the open parts holding u or v, and the least-loaded open part, can
    win: that part beats every other part that holds neither endpoint."""
    if k < 1:
        raise ValueError("partition count must be positive")
    edges = g.undirected_edges()
    m = edges.shape[0]
    parts = np.zeros(m, dtype=np.int64)
    capacity = math.ceil(m / k)
    hard_cap = math.ceil(capacity * (1.0 + GREEDY_SLACK))
    # Some part is always under the cap, as k * hard_cap >= m.  Only the
    # first min(k, m) ids can win: before each edge one of them is still
    # empty, and an empty part beats every higher-numbered one.
    slots = min(k, m)
    sizes = [0] * slots
    open_parts = [(0, pid) for pid in range(slots)]  # (size, id) heap, pruned lazily
    holding: list[set[int]] = [set() for _ in range(g.n)]  # the parts holding each vertex
    for e, (u, v) in enumerate(edges.tolist()):
        while sizes[open_parts[0][1]] != open_parts[0][0]:  # grown since pushed
            heapq.heappop(open_parts)
        hu, hv = holding[u], holding[v]
        size, best = open_parts[0]
        best_score = (best in hu) + (best in hv) - size / capacity
        for pid in hu | hv:
            s = sizes[pid]
            if s < hard_cap:
                score = (pid in hu) + (pid in hv) - s / capacity
                if score > best_score or score == best_score and (s, pid) < (size, best):
                    best, best_score, size = pid, score, s
        parts[e] = best
        sizes[best] += 1
        if sizes[best] < hard_cap:
            heapq.heappush(open_parts, (sizes[best], best))
        hu.add(best)
        hv.add(best)
    return EdgePartition(edges, parts, k)


def format_partition_csv(part: EdgePartition) -> str:
    rows = np.column_stack([part.edges, part.parts])
    return "u,v,part\n" + ("%d,%d,%d\n" * rows.shape[0]) % tuple(rows.ravel().tolist())
