from __future__ import annotations

import hashlib
import time
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphorder import baselines, locality
from graphorder.baselines import brute_force_order, degree_order, greedy_order
from graphorder.graph import Graph, gen_erdos_renyi, gen_power_law
from graphorder.locality import (DENSE_SIMILARITY_CAP, GraphSimilarity, MatrixSimilarity,
                                 as_similarity, dense_similarity, locality_score)

from conftest import digraphs, naive_locality_score, random_digraph, traced_peak


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

    def test_refuses_window_below_one(self):
        with pytest.raises(ValueError, match="at least 1"):
            greedy_order(Graph(3), 0)

    def test_always_bijection(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            g = random_digraph(rng, n, 0.2)
            order = greedy_order(g, int(rng.integers(1, 6)))
            assert sorted(order.tolist()) == list(range(n))

    def test_each_step_attains_max_gain(self):
        # Every step after the first takes the smallest id among the
        # unplaced vertices of largest gain against the last w placed ones,
        # and reports that gain; the first step's gain is zero.
        def assert_greedy_steps(src, w):
            step_gains = np.full(src.n, -1, dtype=np.int64)
            order = greedy_order(src, w, step_gains)
            assert step_gains[0] == 0
            unplaced = np.ones(src.n, dtype=bool)
            unplaced[order[0]] = False
            for i in range(1, order.size):
                gains = src.scores_against(order[max(0, i - w):i].tolist())
                best = gains[unplaced].max()
                assert order[i] == np.flatnonzero(unplaced & (gains == best))[0]
                assert step_gains[i] == best
                unplaced[order[i]] = False
            return order

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
            assert assert_greedy_steps(as_similarity(g), w)[0] == 0
        # The on-demand source above the dense cap, on a sparse graph where
        # many gains tie at zero.
        g = gen_erdos_renyi(DENSE_SIMILARITY_CAP + 100, 0.001, seed=4)
        src = as_similarity(g)
        assert not isinstance(src, MatrixSimilarity)
        assert_greedy_steps(src, 4)

    @settings(max_examples=150, deadline=None)
    @given(digraphs(), st.sampled_from([1, 5, 31]))
    def test_step_gains_sum_to_the_score(self, g, w):
        # The gains of GO's steps are each vertex's share of F at gaps 1..w,
        # on the dense and the on-demand source alike; w = 31 exceeds any n.
        for src in (as_similarity(g), GraphSimilarity(g)):
            gains = np.full(g.n, -1, dtype=np.int64)
            order = greedy_order(src, w, gains)
            assert int(gains.sum()) == naive_locality_score(g, order, w)

    @settings(max_examples=150, deadline=None)
    @given(digraphs(), st.sampled_from([1, 5, 31]))
    def test_graph_and_dense_matrix_agree(self, g, w):
        # GO reads a Graph through on-demand rows at every n; an explicit
        # dense matrix of the same graph gives the same order and step gains.
        orders, gains = [], []
        for src in (g, MatrixSimilarity(dense_similarity(g))):
            gains.append(np.full(g.n, -1, dtype=np.int64))
            orders.append(greedy_order(src, w, gains[-1]))
        assert np.array_equal(orders[0], orders[1])
        assert np.array_equal(gains[0], gains[1])

    @pytest.mark.parametrize("g, digest, score", [
        (gen_power_law(DENSE_SIMILARITY_CAP, 1.6, seed=7),
         "e980fbefa9bef0404f936c528c7b26baa31033e0230293d1244c30a353e6551d", 42020),
        (gen_erdos_renyi(DENSE_SIMILARITY_CAP, 0.003, seed=11),
         "662af77efb082114c138efc9d0a954d104b2d1d02f4a9195234cb160a99b1450", 7682),
    ], ids=["power-law", "erdos-renyi"])
    def test_pinned_at_dense_cap(self, g, digest, score):
        # At n = CAP, GO on the Graph's on-demand rows, and on an explicit
        # dense matrix, give the order and F pinned when GO read the matrix.
        order = greedy_order(g, 5)
        assert hashlib.sha256(order.tobytes()).hexdigest() == digest
        assert locality_score(g, order, 5) == score
        assert np.array_equal(greedy_order(MatrixSimilarity(dense_similarity(g)), 5), order)

    @pytest.mark.parametrize("gains", [np.zeros(5, dtype=np.int64), np.zeros(6, dtype=np.int32),
                                       np.zeros((6, 1), dtype=np.int64), [0] * 6],
                             ids=["short", "int32", "column", "list"])
    def test_refuses_a_gains_buffer_of_another_form(self, gains):
        with pytest.raises(ValueError, match=r"gains must be an int64 array of shape \(6,\)"):
            greedy_order(Graph(6, [(0, 1), (2, 3)]), 2, gains)

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


class TestKeptRows:
    """At every n, GO reads a graph through on-demand rows: it gathers each
    placed vertex's row once and passes it back for the vertex's subtract,
    unless w int64 rows would hold more bytes than the int16 dense matrix at
    the cap (4·w·n > CAP², 8 MB)."""

    @pytest.fixture
    def graph(self):
        g = gen_erdos_renyi(2100, 0.002, seed=4)
        assert g.n > DENSE_SIMILARITY_CAP
        return g

    @pytest.fixture
    def gathers(self, monkeypatch):
        rows = []
        gather = locality._similarity_row
        monkeypatch.setattr(locality, "_similarity_row",
                            lambda g, x, *rest: rows.append(x) or gather(g, x, *rest))
        return rows

    def test_one_gather_per_vertex(self, graph, gathers):
        order = greedy_order(GraphSimilarity(graph), 5)
        assert gathers == order.tolist()
        # Below the cap a Graph is read on demand too: a dense matrix would
        # gather every row in id order before GO's first step.
        below = gen_erdos_renyi(DENSE_SIMILARITY_CAP, 0.002, seed=4)
        gathers.clear()
        order = greedy_order(below, 5)
        assert gathers == order.tolist()

    def test_gathers_again_past_the_cap(self, graph, gathers, monkeypatch):
        kept = greedy_order(GraphSimilarity(graph), 5)
        gathers.clear()
        monkeypatch.setattr(baselines, "DENSE_SIMILARITY_CAP", 100)
        assert 5 * graph.n > 100 ** 2
        assert np.array_equal(greedy_order(GraphSimilarity(graph), 5), kept)
        assert len(gathers) == 2 * graph.n - 5

    @pytest.mark.parametrize("cap, least, most", [(DENSE_SIMILARITY_CAP, 5, 5 + 2), (100, 0, 2)])
    def test_holds_only_the_kept_rows(self, graph, cap, least, most, monkeypatch):
        # Beyond the order and the gain vector: under the cap, the w kept rows
        # and the one being gathered; past it, only the one being gathered.
        # The source, and its out-list views, are built before the count.
        monkeypatch.setattr(baselines, "DENSE_SIMILARITY_CAP", cap)
        src = GraphSimilarity(graph)
        rows = traced_peak(lambda: greedy_order(src, 5)) / (graph.n * 8) - 2
        assert least <= rows <= most, rows

    @pytest.mark.parametrize("w", [5, 500, 1000, 1999, 2500])
    def test_kept_rows_hold_at_most_the_dense_matrix_at_the_cap(self, w):
        # At n = CAP, w = 500 is the widest window whose rows are kept
        # (4·w·n = CAP²): its rows hold CAP²·2 bytes, the int16 matrix's.  A
        # wider window keeps none.  The slack is O(n): the order, the gain
        # vector, the row being gathered and the source's out-list views.
        g = gen_power_law(DENSE_SIMILARITY_CAP, 1.6, seed=7)
        peak = traced_peak(lambda: greedy_order(g, w))
        assert peak <= DENSE_SIMILARITY_CAP ** 2 * 2 + 40 * g.n * 8, peak


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

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices(self, n):
        perm, score = brute_force_order(Graph(n), 3)
        assert perm.dtype == np.int64 and perm.tolist() == list(range(n)) and score == 0

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

    @pytest.mark.parametrize("n", [0, 4])
    @pytest.mark.parametrize("w", [0, -3])
    def test_refuses_window_below_one(self, n, w, monkeypatch):
        # Refused before any permutation is drawn.
        monkeypatch.setattr(baselines, "permutations", None)
        with pytest.raises(ValueError, match="window size must be at least 1"):
            brute_force_order(Graph(n), w)


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
