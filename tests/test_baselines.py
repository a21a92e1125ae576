from __future__ import annotations

import hashlib
import time
from itertools import permutations

import numpy as np
import pytest

from graphorder import baselines
from graphorder.baselines import brute_force_order, degree_order, greedy_order
from graphorder.graph import Graph, gen_erdos_renyi, gen_power_law
from graphorder.locality import (DENSE_SIMILARITY_CAP, MatrixSimilarity, as_similarity,
                                 locality_score)

from conftest import random_digraph


def naive_best_order(source, w):
    """Reference oracle: plain python enumeration in lexicographic order."""
    src = as_similarity(source)
    best_score, best_perm = -1, None
    for perm in permutations(range(src.n)):
        score = locality_score(src, list(perm), w)
        if score > best_score:
            best_score, best_perm = score, perm
    return np.array(best_perm), best_score


class TestGreedyOrder:
    def test_worked_fixture(self, five_sim):
        src = MatrixSimilarity(five_sim)
        order = greedy_order(src, 3)
        assert order.tolist() == [0, 1, 3, 4, 2]
        assert locality_score(src, order, 3) == 7

    def test_single_vertex(self):
        assert greedy_order(Graph(1), 3).tolist() == [0]

    def test_always_bijection(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            g = random_digraph(rng, n, 0.2)
            order = greedy_order(g, int(rng.integers(1, 6)))
            assert sorted(order.tolist()) == list(range(n))

    def test_each_step_attains_max_gain(self):
        # Every step after the first takes the smallest id among the
        # unplaced vertices of largest gain against the last w placed ones.
        def assert_greedy_steps(src, order, w):
            unplaced = np.ones(src.n, dtype=bool)
            unplaced[order[0]] = False
            for i in range(1, order.size):
                gains = src.scores_against(order[max(0, i - w):i].tolist())
                best = gains[unplaced].max()
                assert order[i] == np.flatnonzero(unplaced & (gains == best))[0]
                unplaced[order[i]] = False

        rng = np.random.default_rng(6)
        cases = []
        for _ in range(10):
            n = int(rng.integers(2, 15))
            cases.append((random_digraph(rng, n, 0.3), int(rng.integers(1, 5))))
        # Edgeless graphs, where every gain ties, and windows as wide as the
        # graph or wider.
        cases += [(Graph(1), 1), (Graph(6), 2), (Graph(6), 9),
                  (random_digraph(rng, 7, 0.4), 7), (random_digraph(rng, 7, 0.4), 12)]
        for g, w in cases:
            order = greedy_order(g, w)
            assert order[0] == 0
            assert_greedy_steps(as_similarity(g), order, w)
        # Prefixes grown from a first vertex other than 0.
        g = random_digraph(rng, 12, 0.3)
        src = as_similarity(g)
        for first, length, w in ((5, 12, 3), (11, 6, 2), (3, 4, 4)):
            prefix = baselines._greedy_prefix(src, first, length, w)
            assert prefix[0] == first and np.unique(prefix).size == length
            assert_greedy_steps(src, prefix, w)
        # The on-demand source above the dense cap, on a sparse graph where
        # many gains tie at zero.
        g = gen_erdos_renyi(DENSE_SIMILARITY_CAP + 100, 0.001, seed=4)
        src = as_similarity(g)
        assert not isinstance(src, MatrixSimilarity)
        assert_greedy_steps(src, greedy_order(src, 4), 4)

    def test_approximation_bound_small(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            g = random_digraph(rng, n, 0.3)
            for w in (2, 3):
                _, best = brute_force_order(g, w)
                got = locality_score(g, greedy_order(g, w), w)
                assert got * 2 * w >= best

    def test_runtime_scales_quadratically(self):
        # doubling n should cost no more than ~4x plus generous slack, with
        # the dense matrix and with the on-demand row gather alike
        for dense_cap in (DENSE_SIMILARITY_CAP, 0):
            times = {}
            for n in (500, 1000, 2000):
                g = gen_erdos_renyi(n, 8.0 / n, seed=1)
                t0 = time.perf_counter()
                greedy_order(as_similarity(g, dense_cap=dense_cap), 5)
                times[n] = time.perf_counter() - t0
            print(f"greedy runtimes (dense_cap={dense_cap}): {times}")
            assert times[2000] / max(times[500], 1e-3) < 40

    def test_pinned_above_dense_cap(self):
        # n > DENSE_SIMILARITY_CAP, so the default source is the on-demand one.
        g = gen_power_law(2500, 1.6, seed=7)
        assert g.n > DENSE_SIMILARITY_CAP
        order = greedy_order(g, 5)
        assert hashlib.sha256(order.tobytes()).hexdigest() == (
            "4f30dd87b1c7540e1d33f26359b2cf0468fd4627e10a0ea1439f935db278c96c")
        assert locality_score(g, order, 5) == 57662

    def test_pinned_above_dense_cap_er(self):
        # The same on-demand path on an ER graph, which has no hubs.
        g = gen_erdos_renyi(2500, 0.003, seed=11)
        assert g.n > DENSE_SIMILARITY_CAP
        order = greedy_order(g, 5)
        assert hashlib.sha256(order.tobytes()).hexdigest() == (
            "d03827893fadfbd7cc90a41db214f0d9ec77db42c311a6763baa8641aaa31f63")
        assert locality_score(g, order, 5) == 10189


class TestBruteForce:
    def test_matches_naive_enumeration(self, five_sim):
        src = MatrixSimilarity(five_sim)
        perm, score = brute_force_order(src, 3)
        naive_perm, naive_score = naive_best_order(src, 3)
        assert score == naive_score == 7
        assert perm.tolist() == naive_perm.tolist()

    def test_matches_naive_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            g = random_digraph(rng, n, 0.35)
            w = int(rng.integers(1, 4))
            perm, score = brute_force_order(g, w)
            naive_perm, naive_score = naive_best_order(g, w)
            assert score == naive_score
            assert perm.tolist() == naive_perm.tolist()

    def test_all_zero_similarity(self):
        perm, score = brute_force_order(MatrixSimilarity(np.zeros((4, 4), dtype=int)), 2)
        assert score == 0
        assert perm.tolist() == [0, 1, 2, 3]

    def test_two_vertices(self):
        perm, score = brute_force_order(MatrixSimilarity([[0, 5], [5, 0]]), 1)
        assert score == 5
        assert perm.tolist() == [0, 1]

    def test_chunks_that_keep_no_row(self, monkeypatch):
        # With 1000-permutation chunks at n = 8, the chunks from 36 000 on lie
        # wholly inside the run that starts with vertex 7, where no
        # permutation has first < last.
        g = random_digraph(np.random.default_rng(21), 8, 0.4)
        whole_perm, whole_score = brute_force_order(g, 3)
        monkeypatch.setattr(baselines, "BRUTE_FORCE_CHUNK", 1000)
        perm, score = brute_force_order(g, 3)
        assert score == whole_score
        assert perm.tolist() == whole_perm.tolist()

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            brute_force_order(MatrixSimilarity(np.zeros((11, 11), dtype=int)), 2)


class TestDegreeOrder:
    def test_star(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert degree_order(g).tolist() == [0, 1, 2, 3]

    def test_regular_ties_to_identity(self):
        g = Graph.from_undirected(5, [(i, (i + 1) % 5) for i in range(5)])
        assert degree_order(g).tolist() == [0, 1, 2, 3, 4]

    def test_path(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert degree_order(g).tolist() == [1, 0, 2]
