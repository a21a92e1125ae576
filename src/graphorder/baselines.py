"""Classic ordering algorithms: the greedy window heuristic, a decreasing-
degree baseline, and an exhaustive optimum for tiny instances."""
from __future__ import annotations

from collections import deque
from itertools import chain, islice, permutations

import numpy as np

from .graph import Graph
from .locality import (DENSE_SIMILARITY_CAP, SimilarityLike, _check_window_size, _window_sums,
                       as_similarity)

__all__ = ["greedy_order", "degree_order", "brute_force_order", "BRUTE_FORCE_CAP"]

# Hard cap on exhaustive enumeration (n! permutations).
BRUTE_FORCE_CAP = 10
# Permutations scored per vectorized block.
BRUTE_FORCE_CHUNK = 200_000
# Added to a vertex's greedy gain when it is placed (see greedy_order).
PLACED = np.iinfo(np.int64).min


def greedy_order(source: SimilarityLike, w: int, gains: np.ndarray | None = None) -> np.ndarray:
    """Build a permutation by repeatedly appending the vertex with the largest
    summed similarity against the last ``min(placed, w)`` placed vertices.

    Given ``gains``, an int64 n-vector, step i writes into ``gains[i]`` the
    gain of the vertex it places: its summed similarity to the min(i, w)
    vertices placed before it, which is its share of the locality score at
    gaps 1..w.  So ``gains.sum()`` is ``locality_score(source, order, w)``,
    exactly: it counts each pair at most once, so it is at most the
    similarity total, which is below 2**63 (see ``PLACED`` below).

    Ties break to the smallest vertex id, which also picks vertex 0 first
    (every candidate starts at zero gain).  The gain vector is maintained
    incrementally: the vertex sliding out of the window subtracts the row it
    added w steps before, and the appended vertex adds its own.  Integer adds
    commute, so the order of the two does not change a gain.

    Placing a vertex also adds ``PLACED`` (-2**63) to its gain, once.  An
    unplaced gain is a window sum of non-negative similarities, and a placed
    one is such a sum plus ``PLACED``.  Each sum is at most the similarity
    total, which ``MatrixSimilarity`` keeps below 2**63 (a graph's, at most
    m**2 + m for m arcs, is below it for m < 3e9), so every placed gain is
    negative, every unplaced one is not, and a plain argmax never picks a
    placed vertex.
    """
    _check_window_size(w)
    # One pass reads each row twice, once to add it and once, kept, to
    # subtract it, so a Graph of any size is read through on-demand rows:
    # a dense matrix would gather the same n rows and copy them first.
    src = as_similarity(source, dense_cap=0)
    if gains is not None and not (isinstance(gains, np.ndarray) and gains.dtype == np.int64
                                  and gains.shape == (src.n,)):
        raise ValueError(f"gains must be an int64 array of shape ({src.n},)")
    order = np.empty(src.n, dtype=np.int64)
    gain = np.zeros(src.n, dtype=np.int64)
    # The window's rows, oldest first, kept for their subtract while w int64
    # rows hold no more bytes than the int16 dense matrix at the cap (8 MB);
    # past that, the deque holds none (maxlen 0 drops each append) and the
    # subtract gathers its row again.
    rows: deque[np.ndarray] = deque(
        maxlen=w if 4 * w * src.n <= DENSE_SIMILARITY_CAP ** 2 else 0)
    for i in range(src.n):
        v = int(np.argmax(gain))  # the first max, the smallest id among ties
        order[i] = v
        if gains is not None:
            gains[i] = gain[v]
        gain[v] += PLACED
        if i >= w:
            src.add_scores_of(gain, int(order[i - w]), -1, rows[0] if rows else None)
        rows.append(src.add_scores_of(gain, v, 1))
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
    _check_window_size(w)
    src = as_similarity(source)
    n = src.n
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"refusing to enumerate {n}! permutations (cap {BRUTE_FORCE_CAP})")
    if n < 2:
        return np.arange(n, dtype=np.int64), 0
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
        scores = _window_sums(mat, block, w)
        top = int(scores.max())
        if top > best_score:
            best_score = top
            best_perm = block[int(np.argmax(scores))].astype(np.int64)
    assert best_perm is not None
    return best_perm, best_score
