"""Output checks that do not trust the program: every artifact is re-read from
disk and every reported number is recomputed here from the arcs, without
importing graphorder."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp


class CheckFailed(Exception):
    """An artifact or a printed value disagrees with the independent check."""


def read_edge_list(path: Path) -> tuple[int, np.ndarray]:
    """Parse an ``n <count>`` header followed by ``u v`` lines into (n, arcs)."""
    tokens = path.read_text().split()
    if len(tokens) < 2 or tokens[0] != "n" or len(tokens) % 2:
        raise CheckFailed(f"{path.name}: expected an 'n <count>' header and id pairs")
    n = int(tokens[1])
    arcs = np.array(tokens[2:], dtype=np.int64).reshape(-1, 2)
    if arcs.size and (arcs.min() < 0 or arcs.max() >= n):
        raise CheckFailed(f"{path.name}: vertex id outside [0, {n})")
    return n, arcs


def read_permutation(path: Path, n: int) -> np.ndarray:
    """Read a permutation file and check that it is a bijection on [0, n)."""
    perm = np.array(path.read_text().split(), dtype=np.int64)
    if perm.size != n or not np.array_equal(np.sort(perm), np.arange(n)):
        raise CheckFailed(f"{path.name}: not a permutation of [0, {n})")
    return perm


def _positions(perm: np.ndarray) -> np.ndarray:
    pos = np.empty(perm.size, dtype=np.int64)
    pos[perm] = np.arange(perm.size)
    return pos


def locality_score(n: int, arcs: np.ndarray, perm: np.ndarray, w: int) -> int:
    """F: summed similarity over position pairs at gap 1..w.

    Similarity is the common in-neighbor count plus the arcs between the two
    vertices.  With B the adjacency in position order, the sibling part of
    gap g is the sum of the products of columns i and i+g of B.
    """
    pos = _positions(perm)
    pu, pv = pos[arcs[:, 0]], pos[arcs[:, 1]]
    b = sp.csc_matrix((np.ones(len(arcs), dtype=np.int64), (pu, pv)), shape=(n, n))
    total = 0
    for gap in range(1, min(w, n - 1) + 1):
        total += int(b[:, :-gap].multiply(b[:, gap:]).sum())
    gaps = np.abs(pu - pv)
    total += int(np.count_nonzero((gaps >= 1) & (gaps <= w)))
    return total


def nonempty_blocks(n: int, arcs: np.ndarray, perm: np.ndarray, b: int) -> int:
    """Nonempty b-by-b blocks of the adjacency matrix in position order."""
    pos = _positions(perm)
    nb = -(-n // b)
    return int(np.unique(pos[arcs[:, 0]] // b * nb + pos[arcs[:, 1]] // b).size)


def read_block_costs(path: Path) -> dict[int, int]:
    """``b,cost_nz,cost_r`` CSV rows as {b: cost_nz}."""
    lines = path.read_text().split()
    if not lines or lines[0] != "b,cost_nz,cost_r":
        raise CheckFailed(f"{path.name}: missing the b,cost_nz,cost_r header")
    return {int(row.split(",")[0]): int(row.split(",")[1]) for row in lines[1:]}


def check_partition(path: Path, n: int, arcs: np.ndarray, k: int) -> float:
    """Check that a ``u,v,part`` CSV covers every undirected edge exactly once
    with parts in [0, k); return its replication factor."""
    lines = path.read_text().split()
    if not lines or lines[0] != "u,v,part":
        raise CheckFailed(f"{path.name}: missing the u,v,part header")
    rows = np.array(",".join(lines[1:]).split(","), dtype=np.int64).reshape(-1, 3)
    u, v, part = rows[:, 0], rows[:, 1], rows[:, 2]
    if part.size and (part.min() < 0 or part.max() >= k):
        raise CheckFailed(f"{path.name}: part id outside [0, {k})")
    if np.any(u >= v):
        raise CheckFailed(f"{path.name}: edge rows must have u < v")
    edges = np.unique(np.minimum(arcs[:, 0], arcs[:, 1]) * n
                      + np.maximum(arcs[:, 0], arcs[:, 1]))
    rows_sorted = np.sort(u * n + v)
    if not np.array_equal(rows_sorted, edges):
        raise CheckFailed(f"{path.name}: does not cover each undirected edge exactly once")
    held = np.unique(np.concatenate([part * n + u, part * n + v]))
    return held.size / n


def check_checkpoint(path: Path, n: int) -> None:
    """A scorer checkpoint holds finite arrays with an n-row first layer."""
    with np.load(path) as data:
        if int(data["n"]) != n or data["W1"].shape[0] != n:
            raise CheckFailed(f"{path.name}: checkpoint is not built for n={n}")
        for name in data.files:
            arr = data[name]
            if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
                raise CheckFailed(f"{path.name}: non-finite values in {name}")
