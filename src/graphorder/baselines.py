"""Classic ordering algorithms: the greedy window heuristic, a decreasing-
degree baseline, and an exhaustive optimum for tiny instances."""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from .graph import Graph
from .locality import SimilarityLike, as_similarity

__all__ = ["greedy_order", "degree_order", "brute_force_order", "BRUTE_FORCE_CAP"]

# Hard cap on exhaustive enumeration (n! permutations).
BRUTE_FORCE_CAP = 10
# Permutations scored per vectorized block.
BRUTE_FORCE_CHUNK = 200_000


def greedy_order(source: SimilarityLike, w: int) -> np.ndarray:
    """Build a permutation by repeatedly appending the vertex with the largest
    summed similarity against the last ``min(placed, w)`` placed vertices.

    Ties break to the smallest vertex id, which also picks vertex 0 first
    (every candidate starts at zero gain).  The gain vector is maintained
    incrementally: appending a vertex adds its similarity row, and the vertex
    sliding out of the window subtracts its own.
    """
    if w < 1:
        raise ValueError("window size must be at least 1")
    src = as_similarity(source)
    n = src.n
    order = np.empty(n, dtype=np.int64)
    gain = np.zeros(n, dtype=np.int64)
    placed = np.zeros(n, dtype=bool)
    for i in range(n):
        masked = np.where(placed, np.int64(-1), gain)
        v = int(np.argmax(masked))  # first max == smallest id among ties
        order[i] = v
        placed[v] = True
        src.add_scores_of(gain, v, 1)
        if i >= w:
            src.add_scores_of(gain, int(order[i - w]), -1)
    return order


def degree_order(g: Graph) -> np.ndarray:
    """Vertices sorted by decreasing total degree, ties by smallest id."""
    deg = g.total_degrees()
    return np.lexsort((np.arange(g.n), -deg)).astype(np.int64)


@lru_cache(maxsize=4)
def _all_permutations(n: int) -> np.ndarray:
    return np.array(list(permutations(range(n))), dtype=np.int8)


def brute_force_order(source: SimilarityLike, w: int) -> tuple[np.ndarray, int]:
    """Exact maximizer of the locality score by enumeration, for n <= 10.

    Returns the lexicographically smallest optimal permutation and its score.
    Since similarity is symmetric, a permutation and its reverse score the
    same, so only those with first < last are scored; the lexicographically
    smallest optimum always lies in that half.
    """
    src = as_similarity(source)
    n = src.n
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"refusing to enumerate {n}! permutations (cap {BRUTE_FORCE_CAP})")
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    if n == 1:
        return np.zeros(1, dtype=np.int64), 0
    mat = np.stack([src.scores_against([u]) for u in range(n)])

    perms = _all_permutations(n)
    best_score = -1
    best_perm: np.ndarray | None = None
    for start in range(0, perms.shape[0], BRUTE_FORCE_CHUNK):
        block = perms[start:start + BRUTE_FORCE_CHUNK]
        block = block[block[:, 0] < block[:, -1]]
        scores = np.zeros(block.shape[0], dtype=np.int64)
        for gap in range(1, min(w, n - 1) + 1):
            for i in range(n - gap):
                scores += mat[block[:, i], block[:, i + gap]]
        top = int(scores.max())
        if top > best_score:
            best_score = top
            best_perm = block[int(np.argmax(scores))].astype(np.int64)
    assert best_perm is not None
    return best_perm, best_score
