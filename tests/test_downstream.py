from __future__ import annotations

import hashlib

import numpy as np
import pytest

from graphorder.downstream import (GREEDY_SLACK, EdgePartition, compression_cost,
                                   format_partition_csv, greedy_partition,
                                   partition_from_order, random_partition,
                                   replication_factor)
from graphorder.graph import Graph, gen_power_law

from conftest import random_digraph, two_cliques_graph


def naive_block_count(g: Graph, order, b: int) -> int:
    """Reference: materialize the permuted adjacency and scan every block."""
    n = g.n
    pos = {int(v): i for i, v in enumerate(order)}
    mat = np.zeros((n, n), dtype=bool)
    for u, v in g.arcs:
        mat[pos[int(u)], pos[int(v)]] = True
    count = 0
    for bi in range(0, n, b):
        for bj in range(0, n, b):
            if mat[bi:bi + b, bj:bj + b].any():
                count += 1
    return count


def as_dict(part: EdgePartition) -> dict[tuple[int, int], int]:
    return {(u, v): pid for (u, v), pid in zip(part.edges.tolist(), part.parts.tolist())}


def naive_replication_factor(g: Graph, part: EdgePartition) -> float:
    touched = {(pid, x) for (u, v), pid in as_dict(part).items() for x in (u, v)}
    return len(touched) / g.n


class TestCompressionCost:
    def test_edgeless(self):
        nz, ratio = compression_cost(Graph(6), np.arange(6), 2)
        assert nz == 0 and ratio == 0.0

    def test_single_arc(self):
        g = Graph(4, [(0, 1)])
        nz, ratio = compression_cost(g, np.arange(4), 2)
        assert nz == 1 and ratio == 0.25

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            g = random_digraph(rng, n, 0.2)
            perm = rng.permutation(n)
            b = int(rng.integers(1, 8))
            nz, ratio = compression_cost(g, perm, b)
            assert nz == naive_block_count(g, perm, b)
            assert 0.0 <= ratio <= 1.0

    def test_transpose_invariant_for_symmetric_arcs(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.3]
            g = Graph.from_undirected(n, pairs)
            perm = rng.permutation(n)
            b = int(rng.integers(1, 6))
            nz, _ = compression_cost(g, perm, b)
            # blocks of a symmetric matrix mirror across the diagonal
            pos = np.empty(n, dtype=int)
            pos[perm] = np.arange(n)
            blocks = {(int(pos[u]) // b, int(pos[v]) // b) for u, v in g.arcs}
            assert {(j, i) for i, j in blocks} == blocks
            assert nz == len(blocks)

    def test_ragged_edge_blocks(self):
        g = Graph(5, [(4, 4 - 1)])
        nz, ratio = compression_cost(g, np.arange(5), 3)
        assert nz == 1 and ratio == 0.25  # 2x2 block grid

    def test_width_beyond_int64_is_one_block(self):
        g = gen_power_law(50, 1.6, seed=7)
        perm = np.random.default_rng(33).permutation(g.n)
        assert compression_cost(g, perm, g.n) == (1, 1.0)
        for b in (g.n + 1, 2 ** 63, 10 ** 20):
            assert compression_cost(g, perm, b) == compression_cost(g, perm, g.n)


def star_graph() -> Graph:
    return Graph.from_undirected(5, [(0, i) for i in range(1, 5)])


class TestPartitionFromOrder:
    def test_single_part(self):
        g = star_graph()
        part = partition_from_order(g, np.arange(5), 1)
        assert np.bincount(part.parts, minlength=1).tolist() == [4]
        assert replication_factor(g, part) == 1.0  # no isolated vertices

    def test_single_part_with_isolated_vertex(self):
        g = Graph.from_undirected(3, [(0, 1)])
        part = partition_from_order(g, np.arange(3), 1)
        assert replication_factor(g, part) == pytest.approx(2 / 3)

    def test_star_split_by_sweep(self):
        g = star_graph()
        part = partition_from_order(g, np.arange(5), 2)
        assert as_dict(part) == {(0, 1): 0, (0, 2): 0, (0, 3): 1, (0, 4): 1}
        assert replication_factor(g, part) == pytest.approx(1.2)

    def test_every_edge_assigned_once(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(3, 20))
            g = random_digraph(rng, n, 0.4)
            edges = g.undirected_edges()
            if edges.shape[0] < 2:
                continue
            k = int(rng.integers(1, edges.shape[0] + 1))
            part = partition_from_order(g, rng.permutation(n), k)
            assert part.parts.shape == (edges.shape[0],)
            assert np.array_equal(part.edges, edges)

    def test_all_parts_non_empty_and_balanced(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(4, 16))
            g = random_digraph(rng, n, 0.5)
            m = g.undirected_edges().shape[0]
            if m < 2:
                continue
            k = int(rng.integers(2, m + 1))
            part = partition_from_order(g, rng.permutation(n), k)
            sizes = np.bincount(part.parts, minlength=k)
            assert all(s > 0 for s in sizes)
            assert max(sizes) - min(sizes) <= 1

    def test_too_many_parts_rejected(self):
        g = Graph.from_undirected(3, [(0, 1)])
        with pytest.raises(ValueError):
            partition_from_order(g, np.arange(3), 2)


class TestReplicationFactor:
    def test_matches_naive_counting(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(3, 18))
            g = random_digraph(rng, n, 0.4)
            m = g.undirected_edges().shape[0]
            if m == 0:
                continue
            part = random_partition(g, int(rng.integers(1, 5)), int(rng.integers(99)))
            assert replication_factor(g, part) == pytest.approx(
                naive_replication_factor(g, part))

    def test_lower_bound_touched_fraction(self):
        rng = np.random.default_rng(44)
        g = random_digraph(rng, 12, 0.3)
        touched = len({int(x) for e in g.undirected_edges() for x in e})
        part = random_partition(g, 3, seed=7)
        assert replication_factor(g, part) >= touched / g.n


class TestRandomPartition:
    def test_deterministic(self):
        g = star_graph()
        a = random_partition(g, 3, seed=5)
        b = random_partition(g, 3, seed=5)
        assert as_dict(a) == as_dict(b)

    def test_k1_matches_sweep_rf(self):
        g = star_graph()
        rf_random = replication_factor(g, random_partition(g, 1, seed=1))
        rf_sweep = replication_factor(g, partition_from_order(g, np.arange(5), 1))
        assert rf_random == rf_sweep

    def test_part_frequencies(self):
        n = 60
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph.from_undirected(n, pairs)
        part = random_partition(g, 4, seed=3)
        m = part.parts.size
        sizes = np.bincount(part.parts, minlength=4)
        sigma = np.sqrt(m * 0.25 * 0.75)
        assert np.all(np.abs(sizes - m / 4) < 3 * sigma)


def naive_greedy_partition(g: Graph, k: int) -> list[int]:
    """The greedy stream scanning all k parts for every edge."""
    edges = g.undirected_edges().tolist()
    capacity = -(-len(edges) // k)
    hard_cap = int(np.ceil(capacity * (1.0 + GREEDY_SLACK)))
    held, sizes, parts = [set() for _ in range(k)], [0] * k, []
    for u, v in edges:
        open_ids = [pid for pid in range(k) if sizes[pid] < hard_cap]
        pid = max(open_ids, key=lambda p: ((u in held[p]) + (v in held[p])
                                           - sizes[p] / capacity, -sizes[p], -p))
        parts.append(pid)
        sizes[pid] += 1
        held[pid].update((u, v))
    return parts


class TestGreedyPartition:
    def test_matches_full_scan_for_any_k(self):
        rng = np.random.default_rng(46)
        for _ in range(40):
            n = int(rng.integers(2, 16))
            g = random_digraph(rng, n, float(rng.uniform(0.05, 0.5)))
            m = g.undirected_edges().shape[0]
            if m == 0:
                continue
            for k in sorted({1, 2, max(1, m // 2), m, m + 1, 3 * m + 7}):
                assert greedy_partition(g, k).parts.tolist() == naive_greedy_partition(g, k)

    def test_triangle_single_part(self):
        g = Graph.from_undirected(3, [(0, 1), (0, 2), (1, 2)])
        part = greedy_partition(g, 1)
        assert replication_factor(g, part) == 1.0

    def test_two_triangles_separate(self):
        g = Graph.from_undirected(6, [(0, 1), (0, 2), (1, 2),
                                      (3, 4), (3, 5), (4, 5)])
        part = greedy_partition(g, 2)
        assert replication_factor(g, part) == 1.0
        parts = as_dict(part)
        tri_a = {parts[e] for e in [(0, 1), (0, 2), (1, 2)]}
        tri_b = {parts[e] for e in [(3, 4), (3, 5), (4, 5)]}
        assert len(tri_a) == 1 and len(tri_b) == 1 and tri_a != tri_b

    def test_hard_cap_respected(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            g = random_digraph(rng, n, 0.5)
            m = g.undirected_edges().shape[0]
            if m == 0:
                continue
            k = int(rng.integers(1, 5))
            part = greedy_partition(g, k)
            cap = -(-m // k)
            assert np.bincount(part.parts, minlength=k).max() <= int(np.ceil(cap * 1.1))
            assert part.parts.size == m


class TestTwoCliqueFixtures:
    def test_sweep_beats_random_rf(self):
        g = two_cliques_graph(6)
        grouped = np.arange(12)
        rf_sweep = replication_factor(g, partition_from_order(g, grouped, 2))
        rf_random = replication_factor(g, random_partition(g, 2, seed=0))
        assert rf_sweep <= rf_random

    def test_grouped_compresses_better_than_interleaved(self):
        g = two_cliques_graph(6)
        grouped = np.arange(12)
        interleaved = np.array([0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11])
        for b in (2, 3, 4):
            _, r_grouped = compression_cost(g, grouped, b)
            _, r_inter = compression_cost(g, interleaved, b)
            assert r_grouped <= r_inter


def test_partition_csv_format():
    g = Graph.from_undirected(3, [(0, 1), (1, 2)])
    part = partition_from_order(g, np.arange(3), 2)
    text = format_partition_csv(part)
    lines = text.strip().splitlines()
    assert lines[0] == "u,v,part"
    assert len(lines) == 3


def test_edge_partition_validation():
    with pytest.raises(ValueError):
        EdgePartition([[0, 1]], [5], 2)
    with pytest.raises(ValueError):
        EdgePartition([[1, 0]], [0], 1)


def test_partition_outputs_pinned():
    # CSV sha256 and RF repr recorded from the dict-backed partitions these
    # arrays replaced.
    g = gen_power_law(300, 1.6, seed=7)
    for part, rf, digest in [
        (partition_from_order(g, np.arange(g.n), 8), "2.25",
         "68ea7a951a140c8857695954dc0c7d4a1d659c24ef9b06fbebbffb02bed15b8f"),
        (greedy_partition(g, 8), "1.7266666666666666",
         "59bc393289163040d8ef93fd8414dfc4268d3e33fae78b2a8e50dbbf9bae8be2"),
        (random_partition(g, 8, seed=3), "2.8466666666666667",
         "c0fb494248e6021390dc4dd0ce6944897d3d9a06202025f5f6cd76296db0cb13"),
    ]:
        assert hashlib.sha256(format_partition_csv(part).encode()).hexdigest() == digest
        assert repr(replication_factor(g, part)) == rf
