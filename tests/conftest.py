"""Shared fixtures: the hand-worked 5-vertex similarity matrix, small graph
builders, and naive reference oracles the fast paths are checked against."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from graphorder.graph import Graph
from graphorder.locality import as_similarity


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Ignore one third-party DeprecationWarning while reports are made.

    When a property test fails, hypothesis writes a patch for the failing
    example from inside this hook, and its import of libcst warns that
    ``mypy_extensions.TypedDict`` is deprecated.  Under ``-W error`` that
    warning turns the test's FAILED line into an INTERNALERROR that ends the
    session.  Command-line ``-W`` filters take precedence over ini ones, so
    the filter is set here, around the hook."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                                category=DeprecationWarning)
        return (yield)


# Pairwise similarities of a worked 5-vertex instance (0-based ids).  All
# hand-checkable expectations in the suite are stated against this matrix.
FIVE_VERTEX_SIM = np.array([
    [0, 2, 0, 1, 1],
    [2, 0, 0, 1, 1],
    [0, 0, 0, 0, 0],
    [1, 1, 0, 0, 1],
    [1, 1, 0, 1, 0],
], dtype=np.int64)


@pytest.fixture
def five_sim():
    return FIVE_VERTEX_SIM.copy()


def naive_locality_score(source, order, w: int) -> int:
    """Reference: double loop over all position pairs, gap filter 0 < d <= w."""
    src = as_similarity(source)
    order = list(order)
    total = 0
    for i in range(len(order)):
        for j in range(len(order)):
            if 0 < j - i <= w:
                total += src.score(order[i], order[j])
    return total


def random_digraph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Directed variant: each ordered pair independently."""
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < p]
    return Graph(n, arcs)


@st.composite
def digraphs(draw, max_n: int = 30) -> Graph:
    """Digraphs on 1..max_n vertices with at most 2n distinct arcs."""
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda uv: uv[0] != uv[1])
    return Graph(n, draw(st.lists(pairs, max_size=2 * n, unique=True)) if n > 1 else [])


def two_cliques_graph(size: int = 6) -> Graph:
    """Two disjoint cliques joined by a single bridge edge."""
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    pairs += [(u + size, v + size) for u, v in pairs]
    pairs.append((size - 1, size))
    return Graph.from_undirected(2 * size, pairs)


def float64_copy(net):
    """The same network with every parameter array cast to float64, where
    finite differences and 1e-9 sums are meaningful; the production code
    follows the parameters' dtype."""
    return type(net)(net.n, [a.astype(np.float64) for a in net.params().values()], net.seed)


def numeric_gradient(loss, params: dict[str, np.ndarray], step: float = 1e-4):
    """Central finite differences of ``loss()`` for every entry of every
    parameter array, each perturbed in place and restored."""
    grads = {}
    for name, arr in params.items():
        flat, g = arr.ravel(), np.zeros(arr.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = loss()
            flat[i] = keep - step
            down = loss()
            flat[i] = keep
            g[i] = (up - down) / (2 * step)
        grads[name] = g.reshape(arr.shape)
    return grads
