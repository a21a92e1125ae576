"""Tests of the benchmark's span tracer: parent derivation, self time, busy
time under recursion, and that installing it leaves graphorder's results
unchanged."""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer, install, row_entries, settle_sources  # noqa: E402


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_synthetic_span_tree_parents_and_self_times():
    # root [0, 10]
    #   a [1, 4]
    #     b [2, 3]
    #   a [5, 9]
    #     c [6, 8]
    #       a [6.5, 7.5]   (recursion: an "a" inside an "a")
    tr = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 6.5, 7.5, 8, 9, 10]))
    root = tr.begin("root")
    a1 = tr.begin("a")
    b = tr.begin("b")
    tr.finish(b)
    tr.finish(a1)
    a2 = tr.begin("a")
    c = tr.begin("c")
    a3 = tr.begin("a")
    tr.finish(a3)
    tr.finish(c)
    tr.finish(a2)
    tr.finish(root)

    assert list(tr.parent) == [-1, root, a1, root, a2, c]
    np.testing.assert_allclose(tr.self_times(), [3, 2, 1, 2, 1, 1])
    summary = tr.summary()
    assert summary["root"] == {"s": 10.0, "self_s": 3.0, "calls": 1}
    # Busy time counts the nested "a" once: 3 + 4, not 3 + 4 + 1.
    assert summary["a"] == {"s": 7.0, "self_s": 5.0, "calls": 3}
    assert summary["b"] == {"s": 1.0, "self_s": 1.0, "calls": 1}
    assert summary["c"] == {"s": 2.0, "self_s": 1.0, "calls": 1}


def test_spans_must_close_in_order():
    tr = Tracer(clock=fake_clock([0, 1, 2]))
    outer = tr.begin("outer")
    tr.begin("inner")
    with pytest.raises(RuntimeError):
        tr.finish(outer)


def test_wrapped_calls_nest_and_close_on_error():
    tr = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    traced_leaf = tr.wrap("leaf", leaf)
    traced_top = tr.wrap("top", lambda x: traced_leaf(x) + 1)
    assert traced_top(3) == 7
    with pytest.raises(ValueError):
        traced_top(-1)
    assert list(tr.parent) == [-1, 0, -1, 2]
    assert tr.summary()["leaf"]["calls"] == 2
    assert np.all(tr.self_times() >= 0)


def test_install_keeps_results_and_restores():
    from graphorder import baselines, graph, locality, scorer

    g = graph.gen_power_law(300, 1.6, seed=3)
    big = graph.gen_erdos_renyi(60, 0.1, seed=4)
    want = baselines.greedy_order(g, 5)
    want_big = baselines.greedy_order(locality.GraphSimilarity(big), 5)
    originals = (baselines.greedy_order, scorer.soft_label, locality.GraphSimilarity.score)

    tr = Tracer()
    restore = install(tr)
    try:
        got = baselines.greedy_order(g, 5)
        got_big = baselines.greedy_order(locality.GraphSimilarity(big), 5)
        f = locality.locality_score(locality.GraphSimilarity(big), got_big, 5)
    finally:
        restore()
    settle_sources(tr)

    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_big, want_big)
    assert f == locality.locality_score(big, want_big, 5)
    assert (baselines.greedy_order, scorer.soft_label, locality.GraphSimilarity.score) == originals
    summary = tr.summary()
    assert summary["baselines.greedy_order"]["calls"] == 2
    # greedy_order adds n rows and subtracts the n - w that leave the window.
    assert summary["locality.add_scores_of"]["calls"] == (2 * 300 - 5) + (2 * 60 - 5)
    assert summary["locality.score"]["calls"] > 0
    assert tr.counts["locality.score.memo_calls"] == summary["locality.score"]["calls"]
    assert 0 < tr.counts["locality.score.distinct"] <= tr.counts["locality.score.memo_calls"]
    assert tr.counts["locality.add_scores_of.entries"] > 0


def test_row_entries_match_the_rows_read():
    from graphorder import graph, locality

    g = graph.gen_erdos_renyi(40, 0.15, seed=5)
    src = locality.GraphSimilarity(g)
    rows = np.array([0, 3, 3, 17])
    want = 0
    for x in rows:
        preds = g.in_neighbors(x)
        want += g.out_neighbors(x).size + preds.size
        want += sum(g.out_neighbors(z).size for z in preds)
    assert row_entries(src, rows) == want
    dense = locality.as_similarity(g, dense_cap=100)
    assert row_entries(dense, rows) == 4 * 40
