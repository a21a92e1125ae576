"""Pairwise vertex similarity and the windowed locality score.

The similarity of two distinct vertices is the number of common in-neighbors
(sibling count) plus the number of arcs between them in either direction
(neighbor count).  An ordering's locality score sums the similarity of every
vertex pair whose positions are at most ``w`` apart.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import Graph, check_ids, check_permutation

__all__ = [
    "DENSE_SIMILARITY_CAP",
    "SimilaritySource",
    "MatrixSimilarity",
    "GraphSimilarity",
    "as_similarity",
    "similarity",
    "dense_similarity",
    "locality_score",
    "window_set_score",
    "load_permutation",
    "format_permutation",
    "load_similarity_matrix",
    "format_similarity_matrix",
]

# Largest n for which a graph's similarity is materialized as a dense matrix.
DENSE_SIMILARITY_CAP = 2000
# Most pairs an on-demand source memoizes; later pairs are computed each time.
MEMO_CAP = 1 << 18


def _check_pair(u: int, v: int, n: int) -> None:
    """Refuse a pair that is not two distinct ids in [0, n)."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex id out of range [0, {n})")
    if u == v:
        raise ValueError("similarity is undefined for a vertex with itself")


def _check_window_size(w: int, least: int = 1, n: int | None = None) -> None:
    """Refuse a window below ``least`` positions or, given ``n``, above n."""
    if w < least:
        raise ValueError(f"window size must be at least {least}")
    if n is not None and w > n:
        raise ValueError(f"window size must be at most n={n}, got {w}")


def similarity(g: Graph, u: int, v: int) -> int:
    """Pairwise similarity: sibling count plus neighbor count.  Symmetric.

    Both counts come from the two in-lists, since an arc u -> v holds
    exactly when u is an in-neighbor of v."""
    _check_pair(u, v, g.n)
    preds_u = set(g.in_neighbors(u).tolist())
    preds_v = g.in_neighbors(v).tolist()
    return len(preds_u.intersection(preds_v)) + (v in preds_u) + (u in preds_v)


def _similarity_row(g: Graph, x: int) -> np.ndarray:
    """S(x, .) as an int64 n-vector with a zero at x: one bincount over the
    out-list of x, the in-list of x and the out-lists of x's in-neighbors,
    since each in-neighbor z of x adds one common in-neighbor to every v it
    points at."""
    preds = g.in_neighbors(x)
    row = np.bincount(np.concatenate([g.out_neighbors(x), preds,
                                      *map(g.out_neighbors, preds.tolist())]),
                      minlength=g.n)
    row[x] = 0
    return row


def dense_similarity(g: Graph) -> np.ndarray:
    """Full n-by-n similarity matrix (zero diagonal), one gathered row at a
    time, in the narrowest signed integer type that holds n.

    An entry S(u, v) is at most (n - 2) common in-neighbors plus 2 arcs, so n
    bounds it: at the dense cap (n = 2000) the matrix is int16, 8 MB instead
    of int64's 32 MB.  Every reader sums its entries in int64."""
    mat = np.empty((g.n, g.n), dtype=np.min_scalar_type(-(g.n + 1)))
    for x in range(g.n):
        mat[x] = _similarity_row(g, x)
    return mat


class SimilaritySource:
    """Supplies integer pair similarities for all vertex pairs."""

    n: int

    def score(self, u: int, v: int) -> int:
        raise NotImplementedError

    def add_scores_of(self, acc: np.ndarray, x: int, sign: int = 1) -> None:
        """Accumulate ``sign * S(x, v)`` into ``acc[v]`` for every v != x."""
        raise NotImplementedError

    def scores_against(self, members: Sequence[int]) -> np.ndarray:
        """Vector of summed similarities of every vertex against a set."""
        acc = np.zeros(self.n, dtype=np.int64)
        for u in check_ids(members, self.n).tolist():
            self.add_scores_of(acc, u)
        return acc


class MatrixSimilarity(SimilaritySource):
    """Similarity backed by an explicit symmetric integer matrix.  The
    diagonal is ignored; the other entries must total below 2**63."""

    def __init__(self, matrix: np.ndarray | Sequence[Sequence[int]]):
        mat = np.array(matrix, dtype=np.int64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("similarity matrix must be square")
        np.fill_diagonal(mat, 0)
        if mat.size and mat.min() < 0:
            raise ValueError("similarity values must be non-negative")
        if not np.array_equal(mat, mat.T):
            raise ValueError("similarity matrix must be symmetric")
        # Every gain, window sum and score is at most the total, so a total
        # that fits keeps them all in int64; summed as Python ints, it is exact.
        if mat.sum(dtype=object) >= 1 << 63:
            raise ValueError("similarity matrix total is not below 2**63")
        self._hold(mat)

    @classmethod
    def _adopt(cls, mat: np.ndarray) -> MatrixSimilarity:
        """Wrap a fresh matrix from ``dense_similarity`` without copying,
        widening or re-checking it: the row gather makes it a symmetric,
        non-negative matrix with a zero diagonal, its entries at most n, in
        the narrow integer type it was filled in, and no one else holds it.
        A matrix given to the constructor is held as int64."""
        src = cls.__new__(cls)
        src._hold(mat)
        return src

    def _hold(self, mat: np.ndarray) -> None:
        mat.flags.writeable = False
        self.matrix = mat
        self.n = int(mat.shape[0])

    def score(self, u: int, v: int) -> int:
        _check_pair(u, v, self.n)
        return int(self.matrix[u, v])

    def add_scores_of(self, acc: np.ndarray, x: int, sign: int = 1) -> None:
        if sign == 1:
            acc += self.matrix[x]
        else:
            acc -= self.matrix[x]


class GraphSimilarity(SimilaritySource):
    """On-demand similarity over a graph, for graphs too large to materialize
    densely.

    Rows are gathered from the graph's CSR lists by ``_similarity_row``, the
    same code that fills a dense matrix.  Pair scores come from ``similarity``;
    the first ``MEMO_CAP`` pairs are memoized, keyed by the unordered pair.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self.n = g.n
        self._memo: dict[tuple[int, int], int] = {}

    def score(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        value = self._memo.get(key)
        if value is None:
            value = similarity(self.graph, u, v)
            if len(self._memo) < MEMO_CAP:
                self._memo[key] = value
        return value

    def add_scores_of(self, acc: np.ndarray, x: int, sign: int = 1) -> None:
        if sign == 1:
            acc += _similarity_row(self.graph, x)
        else:
            acc -= _similarity_row(self.graph, x)


SimilarityLike = Graph | SimilaritySource


def as_similarity(source: SimilarityLike,
                  dense_cap: int = DENSE_SIMILARITY_CAP) -> SimilaritySource:
    """The similarity source of a Graph; a source is returned unchanged.

    Graphs at or below ``dense_cap`` vertices are materialized densely; larger
    ones are evaluated on demand, one gathered row at a time.  A raw matrix
    is not accepted: wrap it in ``MatrixSimilarity``.
    """
    if isinstance(source, SimilaritySource):
        return source
    if isinstance(source, Graph):
        if source.n <= dense_cap:
            return MatrixSimilarity._adopt(dense_similarity(source))
        return GraphSimilarity(source)
    raise TypeError(f"expected a Graph or a SimilaritySource, got {type(source).__name__}")


def locality_score(source: SimilarityLike, order: Sequence[int] | np.ndarray,
                   w: int) -> int:
    """Sum of pair similarities over all position pairs at gap 1..w.

    ``order`` may be a full permutation or any prefix of one (distinct ids).
    """
    _check_window_size(w)
    src = as_similarity(source)
    perm = check_ids(order, src.n)
    if isinstance(src, MatrixSimilarity):
        return int(_window_sums(src.matrix, perm[None, :], w)[0])
    return _pair_sum(src, perm.tolist(), w)


def _window_sums(matrix: np.ndarray, orders: np.ndarray, w: int) -> np.ndarray:
    """Per row of a (B, L) array of orders, the sum of ``matrix`` over its
    position pairs at gap 1..w: one gather per gap, over a contiguous transpose."""
    cols = np.ascontiguousarray(orders.T)
    total = np.zeros(orders.shape[0], dtype=np.int64)
    for gap in range(1, min(w, orders.shape[1] - 1) + 1):
        total += matrix[cols[:-gap], cols[gap:]].sum(axis=0, dtype=np.int64)
    return total


def window_set_score(src: SimilaritySource, members: Sequence[int] | np.ndarray) -> int:
    """Locality contribution of a vertex set occupying one full window:
    the sum of similarities over all unordered pairs, order-free."""
    ids = check_ids(members, src.n).tolist()
    return _pair_sum(src, ids, len(ids))


def _pair_sum(src: SimilaritySource, ids: list[int], w: int) -> int:
    """Sum of ``src.score`` over the position pairs of ``ids`` at gap 1..w."""
    total = 0
    for i in range(len(ids)):
        for j in range(i + 1, min(i + w, len(ids) - 1) + 1):
            total += src.score(ids[i], ids[j])
    return total


def load_permutation(source: str) -> np.ndarray:
    """Read a permutation file's text: one vertex id per line, position order."""
    tokens = [line for line in map(str.strip, source.splitlines()) if line]
    try:
        ids = np.array(tokens, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"not a permutation of [0, {len(tokens)})") from None
    return check_permutation(ids, len(tokens))


def format_permutation(order: Sequence[int] | np.ndarray) -> str:
    return "\n".join(map(str, np.asarray(order, dtype=np.int64).tolist())) + "\n"


def load_similarity_matrix(source: str) -> MatrixSimilarity:
    """Read a similarity-matrix fixture's text: an ``n >= 0`` header line, then n
    rows of n integers.  The diagonal is ignored."""
    lines = [ln for ln in map(str.strip, source.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty similarity matrix")
    n = int(lines[0])
    if n < 0:
        raise ValueError(f"similarity matrix header must be a vertex count of at least 0, "
                         f"got {n}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix row length mismatch")
    try:  # reshaped so that a 0 header gives a (0, 0) matrix, not an empty row list
        return MatrixSimilarity(np.array(rows, dtype=np.int64).reshape(n, n))
    except OverflowError:
        raise ValueError("similarity value out of int64 range") from None


def format_similarity_matrix(matrix: np.ndarray) -> str:
    """A square integer matrix as the fixture text ``load_similarity_matrix`` reads."""
    out = [str(matrix.shape[0])]
    out.extend(" ".join(str(int(x)) for x in row) for row in matrix)
    return "\n".join(out) + "\n"
