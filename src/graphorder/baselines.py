"""Classic ordering algorithms: the greedy window heuristic, a decreasing-
degree baseline, and an exhaustive optimum for tiny instances."""
from __future__ import annotations

from itertools import chain, islice, permutations

import numpy as np

from .graph import Graph
from .locality import SimilarityLike, SimilaritySource, as_similarity

__all__ = ["greedy_order", "degree_order", "brute_force_order", "BRUTE_FORCE_CAP"]

# Hard cap on exhaustive enumeration (n! permutations).
BRUTE_FORCE_CAP = 10
# Permutations scored per vectorized block.
BRUTE_FORCE_CHUNK = 200_000
# Added to a vertex's greedy gain when it is placed (see _greedy_prefix).
PLACED = np.iinfo(np.int64).min


def greedy_order(source: SimilarityLike, w: int) -> np.ndarray:
    """Build a permutation by repeatedly appending the vertex with the largest
    summed similarity against the last ``min(placed, w)`` placed vertices.

    Ties break to the smallest vertex id, which also picks vertex 0 first
    (every candidate starts at zero gain).
    """
    if w < 1:
        raise ValueError("window size must be at least 1")
    src = as_similarity(source)
    return _greedy_prefix(src, 0, src.n, w)


def _greedy_prefix(src: SimilaritySource, first: int, length: int, w: int) -> np.ndarray:
    """The first ``length`` vertices of the greedy order that starts at
    ``first``: each later step appends the unplaced vertex with the largest
    summed similarity against the last ``w`` placed ones, ties to the
    smallest id.  The gain vector is maintained incrementally: appending a
    vertex adds its similarity row, and the vertex sliding out of the window
    subtracts its own.

    Placing a vertex also adds ``PLACED`` (-2**63) to its gain, once.  An
    unplaced gain is a window sum of non-negative similarities, and a placed
    one is such a sum plus ``PLACED``; so whenever the sums fit in int64, as
    the gains need anyway, every placed gain is negative, every unplaced one
    is not, and a plain argmax never picks a placed vertex."""
    order = np.empty(length, dtype=np.int64)
    gain = np.zeros(src.n, dtype=np.int64)
    for i in range(length):
        # argmax takes the first max, the smallest id among ties
        v = first if i == 0 else int(np.argmax(gain))
        order[i] = v
        gain[v] += PLACED
        src.add_scores_of(gain, v, 1)
        if i >= w:
            src.add_scores_of(gain, int(order[i - w]), -1)
    return order


def degree_order(g: Graph) -> np.ndarray:
    """Vertices sorted by decreasing total degree, ties by smallest id."""
    deg = g.total_degrees()
    return np.lexsort((np.arange(g.n), -deg)).astype(np.int64)


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

    perms = permutations(range(n))  # lexicographic, so ties keep the smallest
    best_score = -1
    best_perm: np.ndarray | None = None
    while True:
        block = np.fromiter(chain.from_iterable(islice(perms, BRUTE_FORCE_CHUNK)),
                            dtype=np.int8).reshape(-1, n)
        if block.shape[0] == 0:
            break
        block = block[block[:, 0] < block[:, -1]]
        if block.shape[0] == 0:  # a chunk inside one first-vertex run may keep none
            continue
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
