from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphorder import locality
from graphorder.baselines import brute_force_order, greedy_order
from graphorder.graph import Graph, gen_power_law
from graphorder.locality import (GraphSimilarity, MatrixSimilarity,
                                 as_similarity, dense_similarity,
                                 format_permutation, format_similarity_matrix,
                                 load_permutation, load_similarity_matrix,
                                 locality_score, similarity, window_set_score)
from graphorder.scorer import soft_label

from conftest import FIVE_VERTEX_SIM, digraphs, naive_locality_score, random_digraph


class TestPairCounts:
    def test_shared_in_neighbor(self):
        g = Graph(3, [(0, 1), (0, 2)])
        assert similarity(g, 1, 2) == 1

    def test_disconnected(self):
        g = Graph(4, [(0, 1)])
        assert similarity(g, 2, 3) == 0

    def test_two_shared_in_neighbors(self):
        g = Graph(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
        assert similarity(g, 2, 3) == 2

    def test_neighbor_single_arc(self):
        g = Graph(2, [(0, 1)])
        assert similarity(g, 0, 1) == 1

    def test_neighbor_both_arcs(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert similarity(g, 0, 1) == 2

    def test_same_vertex_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            similarity(g, 1, 1)

    @pytest.mark.parametrize("u, v", [(-1, 1), (1, -1), (3, 0), (0, 3), (-1, 3)])
    def test_out_of_range_id_rejected(self, u, v):
        # Every pair scorer refuses an id outside [0, n), as it refuses u == v.
        g = Graph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        for score in (lambda a, b: similarity(g, a, b), GraphSimilarity(g).score,
                      MatrixSimilarity(dense_similarity(g)).score):
            with pytest.raises(ValueError, match=r"out of range \[0, 3\)"):
                score(u, v)

    @settings(max_examples=150, deadline=None)
    @given(digraphs())
    def test_similarity_is_sibling_plus_neighbor_count(self, g):
        # The in-list formula against a naive count over the arc list: common
        # in-neighbors plus the arcs between the two vertices.
        arcs = set(map(tuple, g.arcs.tolist()))
        preds = [{u for u, v in arcs if v == x} for x in range(g.n)]
        for u in range(g.n):
            with pytest.raises(ValueError):
                similarity(g, u, u)
            for v in range(g.n):
                if u != v:
                    assert similarity(g, u, v) == (len(preds[u] & preds[v])
                                                   + ((u, v) in arcs) + ((v, u) in arcs))

    def test_similarity_symmetric(self):
        rng = np.random.default_rng(3)
        g = random_digraph(rng, 25, 0.15)
        for _ in range(1000):
            u, v = rng.choice(25, size=2, replace=False)
            assert similarity(g, int(u), int(v)) == similarity(g, int(v), int(u))

    def test_dense_matches_pairwise(self):
        rng = np.random.default_rng(4)
        # Empty, single-vertex and edgeless graphs, and isolated vertices
        # next to arcs, besides the random ones.
        edge_cases = [Graph(0), Graph(1), Graph(5), Graph(7, [(1, 2), (2, 1), (4, 2)])]
        for g in edge_cases + [random_digraph(rng, int(rng.integers(2, 20)), 0.3)
                               for _ in range(10)]:
            mat = dense_similarity(g)
            assert mat.shape == (g.n, g.n) and mat.dtype == np.int64
            assert not np.diagonal(mat).any()
            assert np.array_equal(mat, mat.T)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert mat[u, v] == similarity(g, u, v)


class TestMatrixSource:
    def test_fixture_values(self, five_sim):
        src = MatrixSimilarity(five_sim)
        assert src.score(0, 1) == 2   # S(1,2) in 1-based labels
        assert src.score(2, 4) == 0   # S(3,5)
        assert src.score(3, 4) == 1   # S(4,5)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            MatrixSimilarity([[0, 1], [2, 0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MatrixSimilarity([[0, -1], [-1, 0]])

    def test_diagonal_ignored(self):
        src = MatrixSimilarity([[9, 1], [1, 9]])
        assert src.score(0, 1) == 1

    def test_round_trip(self, five_sim):
        text = format_similarity_matrix(five_sim)
        again = load_similarity_matrix(text)
        assert np.array_equal(again.matrix, five_sim)

    def test_graph_source_holds_one_matrix(self):
        g = gen_power_law(300, 1.6, seed=7)
        tracemalloc.start()
        try:
            src = as_similarity(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * g.n * g.n * 8
        assert not src.matrix.flags.writeable
        assert not np.diagonal(src.matrix).any()
        assert np.array_equal(src.matrix, dense_similarity(g))

    def test_given_matrix_left_unchanged(self, five_sim):
        given = five_sim.copy()
        given[np.diag_indices(5)] = 7
        before = given.copy()
        src = MatrixSimilarity(given)
        assert not np.diagonal(src.matrix).any()
        assert not src.matrix.flags.writeable
        assert np.array_equal(given, before) and given.flags.writeable


class TestGraphSource:
    def test_memo_agrees_with_direct(self):
        rng = np.random.default_rng(8)
        g = random_digraph(rng, 15, 0.25)
        src = GraphSimilarity(g)
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    assert src.score(u, v) == similarity(g, u, v)
                    assert src.score(u, v) == src.score(u, v)  # memo hit

    def test_memo_stops_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(locality, "MEMO_CAP", 10)
        g = random_digraph(np.random.default_rng(9), 12, 0.3)
        src = GraphSimilarity(g)
        for _ in range(2):  # the second pass hits the memo, then misses past it
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert src.score(v, u) == similarity(g, u, v)
                    assert len(src._memo) <= 10
        assert len(src._memo) == 10

    @settings(max_examples=150, deadline=None)
    @given(digraphs(), st.data())
    def test_backends_agree(self, g, data):
        # Sparse random arcs leave isolated vertices, sources and sinks.
        lazy, dense = GraphSimilarity(g), MatrixSimilarity(dense_similarity(g))
        n = g.n
        start = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        for x in range(n):
            for sign in (1, -1):
                acc_lazy = np.array(start, dtype=np.int64)
                acc_dense = acc_lazy.copy()
                lazy.add_scores_of(acc_lazy, x, sign)
                dense.add_scores_of(acc_dense, x, sign)
                assert np.array_equal(acc_lazy, acc_dense)
            for v in range(n):
                if v != x:
                    assert lazy.score(x, v) == dense.score(x, v)
        members = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=n - 1,
                                              unique=True)), dtype=np.int64)
        assert np.array_equal(lazy.scores_against(members), dense.scores_against(members))
        assert np.array_equal(soft_label(lazy, members), soft_label(dense, members))
        w = data.draw(st.integers(1, n + 1))
        perm = data.draw(st.permutations(range(n)))
        prefix = perm[:data.draw(st.integers(0, n))]
        assert locality_score(lazy, prefix, w) == locality_score(dense, prefix, w)
        assert np.array_equal(greedy_order(lazy, w), greedy_order(dense, w))
        if n <= 7:
            lazy_perm, lazy_best = brute_force_order(lazy, w)
            dense_perm, dense_best = brute_force_order(dense, w)
            assert lazy_best == dense_best
            assert np.array_equal(lazy_perm, dense_perm)

    def test_as_similarity_densifies_small_graphs(self):
        g = Graph(3, [(0, 1)])
        assert isinstance(as_similarity(g), MatrixSimilarity)
        assert isinstance(as_similarity(g, dense_cap=2), GraphSimilarity)

    @pytest.mark.parametrize("raw", [np.zeros((2, 2), dtype=np.int64), [[0, 1], [1, 0]]])
    def test_as_similarity_refuses_raw_matrices(self, raw):
        with pytest.raises(TypeError, match="SimilaritySource"):
            as_similarity(raw)


class TestLocalityScore:
    def test_worked_partial_ordering(self, five_sim):
        # S(0,1) + S(0,4) + S(1,4) = 2 + 1 + 1
        assert locality_score(MatrixSimilarity(five_sim), [0, 1, 4], 3) == 4

    def test_single_vertex(self, five_sim):
        assert locality_score(MatrixSimilarity(five_sim), [2], 3) == 0

    def test_best_full_ordering(self, five_sim):
        # exhaustively checked optimum of the fixture at w=3 (see
        # test_baselines for the enumeration)
        assert locality_score(MatrixSimilarity(five_sim), [0, 1, 3, 4, 2], 3) == 7

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            g = random_digraph(rng, n, 0.15)
            perm = rng.permutation(n)
            w = int(rng.integers(1, n + 2))
            assert locality_score(g, perm, w) == naive_locality_score(g, perm, w)

    def test_monotone_in_window(self, five_sim):
        rng = np.random.default_rng(2)
        perm = rng.permutation(5)
        scores = [locality_score(MatrixSimilarity(five_sim), perm, w) for w in range(1, 6)]
        assert all(a <= b for a, b in zip(scores, scores[1:]))

    def test_saturates_at_total_pair_sum(self, five_sim):
        total = int(FIVE_VERTEX_SIM.sum()) // 2
        for perm in ([0, 1, 2, 3, 4], [4, 2, 0, 1, 3]):
            assert locality_score(MatrixSimilarity(five_sim), perm, 4) == total
            assert locality_score(MatrixSimilarity(five_sim), perm, 9) == total

    def test_window_set_identity(self):
        # w consecutive vertices contribute their full pair-sum regardless of
        # their internal order
        rng = np.random.default_rng(21)
        g = random_digraph(rng, 10, 0.3)
        members = [1, 4, 7, 9]
        base = window_set_score(as_similarity(g), members)
        for _ in range(5):
            shuffled = list(rng.permutation(members))
            assert locality_score(g, shuffled, len(members) - 1) == base

    def test_rejects_bad_window(self, five_sim):
        with pytest.raises(ValueError):
            locality_score(MatrixSimilarity(five_sim), [0, 1], 0)

    def test_rejects_duplicate_vertex(self, five_sim):
        with pytest.raises(ValueError):
            locality_score(MatrixSimilarity(five_sim), [0, 0], 2)


class TestCandidateGain:
    def test_empty_recent(self, five_sim):
        assert MatrixSimilarity(five_sim).scores_against([])[2] == 0

    def test_single_recent(self, five_sim):
        assert MatrixSimilarity(five_sim).scores_against([0])[1] == 2

    def test_three_recent(self, five_sim):
        assert MatrixSimilarity(five_sim).scores_against([0, 1, 3])[4] == 3  # 1 + 1 + 1


def test_permutation_file_round_trip():
    perm = np.array([2, 0, 3, 1])
    text = format_permutation(perm)
    assert np.array_equal(load_permutation(text), perm)
    with pytest.raises(ValueError):
        load_permutation("0\n0\n1\n")
    assert format_permutation([]) == "\n"


def test_format_permutation_pinned():
    # sha256 recorded from the per-element formatter this one replaced.
    text = format_permutation(np.random.default_rng(11).permutation(1000))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "298fe688d2fb297b24ae17a513c78e43a070ae2492d367774a3b03ea561f704d")
