from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphorder.downstream import (compression_cost, greedy_partition, partition_from_order,
                                   random_partition)
from graphorder.graph import (INT64_MAX, EdgeListError, Graph, _arc_codes, _distinct_codes,
                              _parse_lines, check_ids, expand_permutation, format_edge_list,
                              gen_erdos_renyi, gen_power_law, load_edge_list,
                              merge_degree_one)
from graphorder.locality import (GraphSimilarity, MatrixSimilarity, as_similarity,
                                 dense_similarity, locality_score, similarity, window_set_score)
from graphorder.scorer import (forward, forward_batch, init_scorer, sample_training_batch,
                               soft_label)
from graphorder.tuner import build_eval_set, initial_prob

from conftest import digraphs, random_digraph

# Characters an id token is drawn from: ASCII digits (weighted up) and signs,
# the format's own markers, two Arabic-Indic digits and an astral digit
# (U+1D7D8), which int() reads as 0.  A token is at most three characters, so
# ids stay below 1000 and every graph stays small.
_ID_CHARS = [*"0123456789" * 3, "+", "-", "_", "#", "n", "\u0660", "\u0663", "\U0001d7d8"]
# Characters str.split() splits on but str.splitlines() does not, and the
# characters str.splitlines() breaks on.
_SEPARATORS = [" ", "\t", "\x1f", "\u3000"]
_BREAKS = ["\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def edge_list_texts(draw):
    """Texts of mostly two-token lines, some of them malformed, half of them
    with an ``n`` header."""
    token = st.lists(st.sampled_from(_ID_CHARS), min_size=1, max_size=3).map("".join)
    gap = st.lists(st.sampled_from(_SEPARATORS), min_size=1, max_size=2).map("".join)
    pair = st.tuples(gap, token, gap, token).map(lambda t: "".join(t)[1:])
    free = st.lists(st.one_of(token, gap), max_size=5).map("".join)
    header = st.tuples(gap, token).map(lambda t: "n" + "".join(t))
    line = st.one_of(pair, pair, pair, free)
    rows = draw(st.lists(st.tuples(line, st.sampled_from(_BREAKS)), max_size=8))
    if draw(st.booleans()):
        rows.insert(0, (draw(header), "\n"))
    return "".join(text + eol for text, eol in rows)


class TestGraph:
    def test_adjacency_matches_arcs(self):
        g = Graph(4, [(0, 1), (0, 2), (2, 1), (3, 0)])
        assert g.out_neighbors(0).tolist() == [1, 2]
        assert g.in_neighbors(1).tolist() == [0, 2]
        assert g.in_neighbors(0).tolist() == [3]
        assert g.arc_count == 4
        assert 1 in g.out_neighbors(2) and 2 not in g.out_neighbors(1)

    def test_rejects_bad_arcs(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        assert Graph(3, [(0, 1), (0, 1)]).arc_count == 1

    def test_adjacency_rebuild_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(1, 15)), 0.3)
            rebuilt_out = {v: sorted(int(b) for a, b in g.arcs if a == v)
                           for v in range(g.n)}
            rebuilt_in = {v: sorted(int(a) for a, b in g.arcs if b == v)
                          for v in range(g.n)}
            for v in range(g.n):
                assert g.out_neighbors(v).tolist() == rebuilt_out[v]
                assert g.in_neighbors(v).tolist() == rebuilt_in[v]
            assert sum(g.out_neighbors(v).size for v in range(g.n)) == g.arc_count

    def test_degrees(self):
        g = Graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.total_degrees().tolist() == [2, 3, 1]

    @staticmethod
    def reference_csr(n: int, arcs: list[tuple[int, int]]) -> list[np.ndarray]:
        """Arcs, out- and in-offsets and out- and in-indices as stable
        argsorts build them: arcs ordered by their u * n + v codes, then the
        in-lists gathered by a stable sort of the heads."""
        arr = np.array(arcs, dtype=np.int64).reshape(-1, 2)
        arr = arr[np.argsort(arr[:, 0] * n + arr[:, 1], kind="stable")]
        offsets = [np.concatenate(([0], np.cumsum(np.bincount(arr[:, col], minlength=n))))
                   for col in (0, 1)]
        return [arr, offsets[0], offsets[1], arr[:, 1],
                arr[np.argsort(arr[:, 1], kind="stable"), 0]]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda uv: uv[0] != uv[1]),
        max_size=3 * n, unique=True) if n > 1 else st.just([]))), st.randoms())
    @example((0, []), None)
    @example((1, []), None)
    @example((6, []), None)
    def test_csr_matches_stable_argsorts(self, n_arcs, rnd):
        n, arcs = n_arcs
        if rnd is not None:
            rnd.shuffle(arcs)
        def csr(g):
            return [g.arcs, np.array(g._out_indptr), np.array(g._in_indptr),
                    g._out_indices, g._in_indices]

        got = csr(Graph(n, arcs))
        for have, want in zip(got, self.reference_csr(n, arcs)):
            assert have.dtype == np.int64 and np.array_equal(have, want)
        if arcs:
            # Each repeated arc is kept once: the graph is the one built
            # from the distinct arcs, array for array.
            repeated = arcs + arcs[::2]
            rnd.shuffle(repeated)
            for have, want in zip(csr(Graph(n, repeated)), got):
                assert np.array_equal(have, want)

    def test_from_undirected_refuses_ids_outside_the_graph(self):
        # The pair codes once folded (0, 5) on 3 vertices into the edge (1, 2).
        for pair in [(0, 5), (3, 1), (-1, 2)]:
            with pytest.raises(ValueError, match=r"out of range \[0, n\)"):
                Graph.from_undirected(3, [pair])

    def test_from_undirected_refuses_self_loops(self):
        with pytest.raises(ValueError, match="self-loops"):
            Graph.from_undirected(3, [(1, 1)])

    def test_pair_listed_twice_in_both_orders_is_one_edge(self):
        g = Graph.from_undirected(3, [(0, 2), (2, 0), (0, 2), (1, 2)])
        assert g.arcs.tolist() == [[0, 2], [1, 2], [2, 0], [2, 1]]
        assert g.undirected_edges().tolist() == [[0, 2], [1, 2]]

    def test_arc_codes_refuse_int64_overflow(self):
        # Every code is at most top * (n + 1): that product at 2**63 - 1 is
        # accepted, and one more is refused before any code wraps.
        ids = np.array([0], dtype=np.int64)
        n = 2**32
        top = INT64_MAX // (n + 1)
        assert _arc_codes(ids, ids, n, top).tolist() == [0]
        with pytest.raises(ValueError, match="arc codes overflow int64"):
            _arc_codes(ids, ids, n, top + 1)
        with pytest.raises(ValueError, match="arc codes overflow int64"):
            _arc_codes(ids, ids, 4_000_000_000, 3_000_000_000)


class TestLoadEdgeList:
    def test_plain(self):
        res = load_edge_list("0 1\n1 2")
        assert res.graph.n == 3
        assert [tuple(a) for a in res.graph.arcs] == [(0, 1), (1, 2)]
        assert res.self_loops_dropped == 0 and res.duplicates_dropped == 0

    def test_self_loop_dropped(self):
        res = load_edge_list("0 0\n0 1")
        assert res.graph.n == 2
        assert [tuple(a) for a in res.graph.arcs] == [(0, 1)]
        assert res.self_loops_dropped == 1
        # A self-loop's ids do not count toward the inferred vertex count.
        res = load_edge_list("7 7\n0 1")
        assert res.graph.n == 2 and res.self_loops_dropped == 1

    def test_comment_skipped(self):
        res = load_edge_list("# c\n2 0")
        assert res.graph.n == 3
        assert [tuple(a) for a in res.graph.arcs] == [(2, 0)]

    def test_duplicates_counted(self):
        res = load_edge_list("0 1\n0 1\n1 0")
        assert res.graph.arc_count == 2
        assert res.duplicates_dropped == 1

    def test_header_declares_n(self):
        res = load_edge_list("n 6\n0 1")
        assert res.graph.n == 6

    def test_malformed_names_line(self):
        with pytest.raises(EdgeListError, match="line 2"):
            load_edge_list("0 1\n0 x")
        with pytest.raises(EdgeListError, match="line 1"):
            load_edge_list("0 1 2")

    def test_id_out_of_declared_range(self):
        with pytest.raises(EdgeListError, match="range"):
            load_edge_list("n 2\n0 5")

    def test_negative_id(self):
        with pytest.raises(EdgeListError):
            load_edge_list("0 -1")

    def test_round_trip(self):
        g = Graph(5, [(0, 1), (3, 2), (4, 0)])
        again = load_edge_list(format_edge_list(g)).graph
        assert again.n == g.n
        assert np.array_equal(again.arcs, g.arcs)

    # Messages recorded from the per-line parser the array parse replaced,
    # except int64-overflow and header-overflow, which raised OverflowError
    # there.
    @pytest.mark.parametrize("text, message", [
        ("n x\n0 1\n", "line 1: bad vertex count 'x'"),
        ("# c\n\nn -3\n0 1\n", "line 3: negative vertex count"),
        ("0 1\n1 2 3\n", "line 2: expected two ids, got '1 2 3'"),
        ("0 1 2\n3\n", "line 1: expected two ids, got '0 1 2'"),
        ("0 1\n\n1 0x2\n", "line 3: non-integer id in '1 0x2'"),
        ("0 1\n 2\t-1 \n", "line 2: negative id in '2\\t-1'"),
        ("0 1\n-1 -1\n", "line 2: negative id in '-1 -1'"),
        ("n 3\n0 1\n# x\n2 3\n", "line 4: id out of declared range [0, 3)"),
        ("n 2\n1 1\n5 5\n", "line 3: id out of declared range [0, 2)"),
        ("0 1\nn 5\n", "line 2: non-integer id in 'n 5'"),
        ("0 1\n1 x\n1 2 3\n", "line 2: non-integer id in '1 x'"),
        ("0 1\n1 2 3\n1 x\n", "line 2: expected two ids, got '1 2 3'"),
        ("n 4\n0 1\n0 9\n0 x\n", "line 3: id out of declared range [0, 4)"),
        ("0 1\n0 99999999999999999999\n",
         "line 2: id too large for int64 in '0 99999999999999999999'"),
        ("# c\nn 99999999999999999999\n0 1\n", "line 2: vertex count too large for int64"),
    ], ids=["bad-header", "negative-header", "three-tokens", "three-then-one",
            "non-integer", "negative-id", "negative-self-loop", "out-of-range",
            "self-loop-out-of-range", "header-not-first", "earlier-of-two",
            "earlier-of-two-reversed", "range-before-non-integer", "int64-overflow",
            "header-overflow"])
    def test_error_names_first_bad_line(self, text, message):
        with pytest.raises(EdgeListError) as excinfo:
            load_edge_list(text)
        assert str(excinfo.value) == message

    @settings(max_examples=200, deadline=None)
    @given(edge_list_texts())
    @example("0 1\n1_000 2\n")
    @example("n 12\n\u0663 1\U0001d7d8\n")
    @example("1\x1f2\x0b3\u30004\n")
    @example("1\U0009c6ca2\n")
    @example("1 2 # note\n0 1#2\n")
    @example("n 3\n0 1\n# c\n1 2\n")
    def test_matches_per_line_parser(self, text):
        try:
            declared_n, ids = _parse_lines(text.splitlines())
        except EdgeListError as exc:
            with pytest.raises(EdgeListError) as excinfo:
                load_edge_list(text)
            assert str(excinfo.value) == str(exc)
            return
        res = load_edge_list(text)
        kept = ids[ids[:, 0] != ids[:, 1]]
        arcs = np.unique(kept, axis=0)
        n = declared_n if declared_n is not None else int(kept.max()) + 1 if kept.size else 0
        assert res.graph.n == n
        assert np.array_equal(res.graph.arcs, arcs)
        assert res.self_loops_dropped == ids.shape[0] - kept.shape[0]
        assert res.duplicates_dropped == kept.shape[0] - arcs.shape[0]

    def test_text_reader_sees_ascii_only(self, monkeypatch):
        # numpy's loadtxt has crashed the interpreter on astral code points.
        seen = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt",
                            lambda lines, **kw: seen.append(list(lines)) or loadtxt(lines, **kw))
        assert load_edge_list("# c\nn 3\n0 1\n1 2\n").graph.arc_count == 2
        assert load_edge_list("0 1\n1\U0001d7d8 2\n").graph.n == 11
        with pytest.raises(EdgeListError, match="line 1: expected two ids"):
            load_edge_list("1\U0009c6ca2\n")
        assert seen == [["0 1", "1 2"]]
        # A non-ASCII comment keeps the whole file from the C reader.  Leading
        # comments and blank lines, and the header, stay out of its one call;
        # the lines after the header reach it as they stand, blank ones too.
        assert load_edge_list("# é\n0 1\n").graph.arc_count == 1
        assert load_edge_list("# c\n\n  # d\nn 3\n0 1\n\n 1\t2 \n").graph.arc_count == 2
        assert seen == [["0 1", "1 2"], ["0 1", "", " 1\t2 "]]

    @settings(max_examples=60, deadline=None)
    @given(digraphs())
    @example(Graph(6, [(0, 1), (2, 0)]))
    def test_round_trip_random(self, g):
        res = load_edge_list(format_edge_list(g))
        assert res.graph.n == g.n and np.array_equal(res.graph.arcs, g.arcs)
        assert res.self_loops_dropped == res.duplicates_dropped == 0

    @settings(max_examples=60, deadline=None)
    @given(digraphs(), st.data())
    def test_noisy_file_counts_dropped_lines(self, g, data):
        rows = [f"{u} {v}" for u, v in g.arcs.tolist()]
        dups = data.draw(st.lists(st.sampled_from(rows), max_size=8)) if rows else []
        loops = (data.draw(st.lists(st.integers(0, g.n - 1), max_size=5))
                 if g.n else [])
        noise = data.draw(st.lists(st.sampled_from(
            ["", "   ", "# 1 2 3", "  #x", "\t"]), max_size=8))
        body = data.draw(st.permutations(
            rows + dups + [f" {v}\t{v} " for v in loops] + noise))
        header = data.draw(st.booleans())
        eol = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = eol.join(["# made by a test", *([f"n {g.n}"] if header else []),
                         *body]) + eol
        res = load_edge_list(text)
        # Without a header, n is one past the largest id of a kept arc.
        n = g.n if header else int(g.arcs.max()) + 1 if rows else 0
        assert res.graph.n == n
        assert np.array_equal(res.graph.arcs, g.arcs)
        assert res.self_loops_dropped == len(loops)
        assert res.duplicates_dropped == len(dups)

    def test_format_pinned(self):
        # sha256 recorded from the per-arc formatter this one replaced.
        text = format_edge_list(gen_power_law(5000, 1.6, seed=7))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "689750e967db91e45bc2e16e6660fc676b186df2b6c2cd291b084e7da070e89e")


class TestErdosRenyi:
    def test_p_zero(self):
        assert gen_erdos_renyi(5, 0.0, 1).arc_count == 0

    def test_p_one(self):
        g = gen_erdos_renyi(4, 1.0, 1)
        assert g.arc_count == 12  # all 6 pairs, both directions

    def test_deterministic(self):
        a = gen_erdos_renyi(60, 0.1, 42)
        b = gen_erdos_renyi(60, 0.1, 42)
        assert np.array_equal(a.arcs, b.arcs)
        c = gen_erdos_renyi(60, 0.1, 43)
        assert not np.array_equal(a.arcs, c.arcs)

    def test_symmetric_arcs(self):
        g = gen_erdos_renyi(30, 0.2, 5)
        for u, v in g.arcs:
            assert u in g.out_neighbors(int(v))

    def test_edge_count_matches_binomial_scale(self):
        # n=10000, p=0.02: ~0.02 * 10000 * 9999 / 2 = 999,900 expected edges,
        # the reported scale of the reference 10K instance (~1.0e6).
        g = gen_erdos_renyi(10_000, 0.02, 12345)
        edges = g.arc_count // 2
        mean = 0.02 * 10_000 * 9_999 / 2
        sigma = np.sqrt(mean * 0.98)
        assert abs(edges - mean) < 5 * sigma

    def test_mean_rate_unbiased(self):
        counts = [gen_erdos_renyi(20, 0.3, s).arc_count // 2 for s in range(300)]
        expected = 0.3 * 190
        assert abs(np.mean(counts) - expected) < 1.5  # ~4 sigma of the mean


class TestPowerLaw:
    def test_single_vertex(self):
        assert gen_power_law(1, 1.6, 0).arc_count == 0

    def test_deterministic(self):
        a = gen_power_law(200, 1.8, 9)
        b = gen_power_law(200, 1.8, 9)
        assert np.array_equal(a.arcs, b.arcs)

    def test_simple_and_symmetric(self):
        g = gen_power_law(150, 1.6, 3)
        assert np.all(g.arcs[:, 0] != g.arcs[:, 1])
        lo = np.minimum(g.arcs[:, 0], g.arcs[:, 1])
        hi = np.maximum(g.arcs[:, 0], g.arcs[:, 1])
        codes = lo * g.n + hi
        _, counts = np.unique(codes, return_counts=True)
        assert set(counts.tolist()) == {2}  # every edge appears as both arcs

    def test_reference_scale_reported(self, capsys):
        # The 10K gamma=1.6 reference instance lists 121,922 edges; degree
        # sampling variants differ widely here, so the ratio is reported
        # rather than asserted.
        g = gen_power_law(10_000, 1.6, 7)
        edges = g.arc_count // 2
        print(f"power-law n=10000 gamma=1.6: {edges} edges "
              f"(reference scale 121922, ratio {edges / 121922:.2f})")
        assert edges > 0

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            gen_power_law(10, 1.0, 0)


def graph_with_fans() -> Graph:
    # star out-fan: 0 -> {1,2,3}
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


class TestMerge:
    def test_star_fan(self):
        merged, group = merge_degree_one(graph_with_fans())
        assert merged.n == 2
        assert group.tolist() == [0, 1, 1, 1]
        assert [tuple(a) for a in merged.arcs] == [(0, 1)]

    def test_path_untouched(self):
        g = Graph(3, [(0, 1), (1, 2)])
        merged, group = merge_degree_one(g)
        # vertex 1 has degree 2; 0 and 2 hang off it in different directions
        assert merged.n == 3
        assert group.tolist() == [0, 1, 2]
        assert np.array_equal(merged.arcs, g.arcs)

    def test_two_fans(self):
        g = Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5), (0, 3)])
        merged, group = merge_degree_one(g)
        assert merged.n == 4
        assert group.tolist() == [0, 1, 1, 2, 3, 3]
        assert [tuple(a) for a in merged.arcs] == [(0, 1), (0, 2), (2, 3)]

    def test_direction_splits_groups(self):
        # 1 and 2 both touch vertex 0 only, but with opposite directions
        g = Graph(3, [(0, 1), (2, 0)])
        merged, group = merge_degree_one(g)
        assert merged.n == 3

    def test_mutual_pair_not_merged(self):
        g = Graph(2, [(0, 1), (1, 0)])
        merged, _ = merge_degree_one(g)
        assert merged.n == 2

    def test_never_grows_and_identity_when_fan_free(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(2, 12)), 0.4)
            merged, group = merge_degree_one(g)
            assert merged.n <= g.n
            if np.array_equal(group, np.arange(g.n)):
                assert merged.n == g.n
                assert np.array_equal(merged.arcs, g.arcs)

    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    @example(Graph(0))
    @example(Graph(1))
    @example(Graph(5))
    def test_group_invariant(self, g):
        merged, group = merge_degree_one(g)
        assert group.dtype == np.int64 and group.shape == (g.n,)
        assert not group.flags.writeable
        # Two vertices share a group iff they are equal, or both have total
        # degree 1 with the same neighbor and arc direction.
        deg = g.total_degrees()
        keys = []
        for v in range(g.n):
            out = g.out_neighbors(v).tolist()
            if deg[v] != 1:
                keys.append(("self", v))
            else:
                keys.append((out[0], True) if out else (int(g.in_neighbors(v)[0]), False))
        for u in range(g.n):
            for v in range(g.n):
                assert (group[u] == group[v]) == (keys[u] == keys[v])
        # Ids run 0..k-1 in order of each group's smallest member.
        smallest = [np.flatnonzero(group == gid)[0] for gid in range(merged.n)]
        assert smallest == sorted(smallest)
        assert set(group.tolist()) == set(range(merged.n))
        # The merged arcs are the distinct mapped arcs.
        assert {tuple(a) for a in merged.arcs.tolist()} == {
            (int(group[u]), int(group[v])) for u, v in g.arcs.tolist()}


class TestExpand:
    def test_singletons_identity(self):
        g = Graph(3, [(0, 1), (1, 2)])
        _, group = merge_degree_one(g)
        assert expand_permutation([2, 0, 1], group, 5).tolist() == [2, 0, 1]

    def test_members_stay_consecutive(self):
        _, group = merge_degree_one(graph_with_fans())
        out = expand_permutation([1, 0], group, 3)
        assert sorted(out[:3].tolist()) == [1, 2, 3]
        assert out[3] == 0

    def test_mismatched_groups_rejected(self):
        _, group = merge_degree_one(graph_with_fans())
        with pytest.raises(ValueError):
            expand_permutation([0, 1, 2], group, 0)

    @settings(max_examples=200, deadline=None)
    @given(digraphs(), st.integers(0, 2 ** 32 - 1))
    @example(Graph(0), 0)
    @example(Graph(1), 0)
    @example(Graph(5), 0)
    def test_groups_stay_consecutive_in_perm_order(self, g, seed):
        merged, group = merge_degree_one(g)
        perm = np.random.default_rng(seed).permutation(merged.n)
        out = expand_permutation(perm, group, seed)
        assert sorted(out.tolist()) == list(range(g.n))
        sizes = np.bincount(group, minlength=merged.n)
        assert group[out].tolist() == np.repeat(perm, sizes[perm]).tolist()
        # With every group a singleton, expanding is the identity.
        assert np.array_equal(expand_permutation(out, np.arange(g.n), seed), out)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_expansion_score_invariant(self, seed):
        # all expansions of one merged ordering score identically: group
        # members are interchangeable
        rng = np.random.default_rng(seed)
        g = random_digraph(rng, 8, 0.2)
        merged, group = merge_degree_one(g)
        perm = rng.permutation(merged.n)
        scores = {locality_score(g, expand_permutation(perm, group, s), w)
                  for s in range(10) for w in (3,)}
        assert len(scores) == 1


@pytest.mark.parametrize("perm, group", [
    ([0, 1, 2], [0, 2, 2]),  # id 1 is missing
    ([0, 1], [-1, 0, 1]),    # negative id
    ([0], [0, 1, 1]),        # perm shorter than the group count
    ([0, 1, 2], [0, 1, 1]),  # perm longer than the group count
], ids=["gap", "negative", "short-perm", "long-perm"])
def test_expand_rejects_bad_group_array(perm, group):
    with pytest.raises(ValueError):
        expand_permutation(perm, np.array(group), 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=60)
       | st.lists(st.integers(-3, 3), max_size=60))
@example([])
@example([7, 7, 7, 7])
def test_distinct_codes_equal_np_unique(values):
    codes = np.array(values, dtype=np.int64)
    got = _distinct_codes(codes)
    want = np.unique(codes)
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestCheckIds:
    def test_returns_the_ids_as_int64(self):
        out = check_ids([2, 0], 3)
        assert out.dtype == np.int64 and out.tolist() == [2, 0]
        assert check_ids([], 0).tolist() == []

    @pytest.mark.parametrize("ids", [[-1], [3], [1, 0, 1], [[0, 1]], 0],
                             ids=["negative", "n", "repeat", "2-D", "scalar"])
    def test_refuses_anything_but_distinct_ids_in_range(self, ids):
        with pytest.raises(ValueError):
            check_ids(ids, 3)


# Every public entry that takes vertex ids, called on the 3-vertex graph
# below with one id that is not a vertex.  The entries that read a similarity
# source run on both backends.
ID_GRAPH = Graph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
SOURCE_ENTRIES = {
    "score": lambda src, bad: src.score(0, bad),
    "scores_against": lambda src, bad: src.scores_against([bad]),
    "soft_label": lambda src, bad: soft_label(src, [bad]),
    "window_set_score": lambda src, bad: window_set_score(src, [bad]),
    "locality_score": lambda src, bad: locality_score(src, [0, bad], 2),
}
MODEL_ENTRIES = {
    "similarity": lambda model, bad: similarity(ID_GRAPH, 0, bad),
    "forward": lambda model, bad: forward(model, [bad, 1]),
    "forward_batch": lambda model, bad: forward_batch(model, [[0, 1], [2, bad]]),
}


@pytest.mark.parametrize("bad", [-1, 3], ids=["minus-one", "n"])
@pytest.mark.parametrize("entry, backend", [
    *((name, backend) for name in SOURCE_ENTRIES for backend in ("dense", "on-demand")),
    *((name, None) for name in MODEL_ENTRIES),
])
def test_every_id_entry_refuses_an_id_outside_the_graph(entry, backend, bad):
    if backend is None:
        call = lambda: MODEL_ENTRIES[entry](init_scorer(3, 4, seed=0), bad)
    else:
        src = (MatrixSimilarity(dense_similarity(ID_GRAPH)) if backend == "dense"
               else GraphSimilarity(ID_GRAPH))
        call = lambda: SOURCE_ENTRIES[entry](src, bad)
    with pytest.raises(ValueError, match=r"out of range \[0, 3\)"):
        call()


# Every public entry that takes a count, called with 0 on the graph above.
COUNT_ENTRIES = {
    "partition_from_order": ("k", lambda g: partition_from_order(g, np.arange(g.n), 0)),
    "random_partition": ("k", lambda g: random_partition(g, 0, seed=0)),
    "greedy_partition": ("k", lambda g: greedy_partition(g, 0)),
    "compression_cost": ("b", lambda g: compression_cost(g, np.arange(g.n), 0)),
    "sample_training_batch": ("batch", lambda g: sample_training_batch(
        as_similarity(g), initial_prob(g), 2, 0, np.random.default_rng(0))),
    "build_eval_set": ("size", lambda g: build_eval_set(as_similarity(g), initial_prob(g),
                                                        2, 0, seed=0)),
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_every_count_entry_refuses_zero_by_its_keyword(entry):
    keyword, call = COUNT_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{keyword} must be positive, got 0$"):
        call(ID_GRAPH)
