from __future__ import annotations

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from graphorder.graph import Graph, gen_power_law
from graphorder.locality import MatrixSimilarity, as_similarity, window_set_score
from graphorder.optim import AdamState, RmspropState
from graphorder.scorer import (DTYPE, ScorerConfig, SetScorer, TrainingDiverged,
                               TrainingExample, _loss_and_grads,
                               _weighted_draws_without_replacement, cross_entropy,
                               forward, forward_batch, init_scorer, load_scorer,
                               model_order, rmse, sample_training_batch,
                               save_scorer, soft_label, stack_batch, train_step)
from graphorder.tuner import initial_prob, train_scorer

from conftest import float64_copy, numeric_gradient, random_digraph


class TestConfig:
    @pytest.mark.parametrize("value", [0, -1])
    def test_eval_every_below_one_refused(self, value):
        with pytest.raises(ValueError, match="^eval_every must be positive"):
            ScorerConfig(eval_every=value)

    @pytest.mark.parametrize("value", [0, -5])
    def test_global_steps_below_one_refused(self, value):
        with pytest.raises(ValueError, match="^global_steps must be positive"):
            ScorerConfig(global_steps=value)

    @pytest.mark.parametrize("field", ["hidden", "batch_size", "eval_size"])
    def test_width_and_size_below_one_refused(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be positive"):
            ScorerConfig(**{field: 0})


class TestInit:
    def test_deterministic(self):
        a = init_scorer(6, 8, seed=3)
        b = init_scorer(6, 8, seed=3)
        for name, arr in a.params().items():
            assert np.array_equal(arr, b.params()[name])

    @pytest.mark.parametrize("hidden", [32, 64, 128, 256])
    def test_standard_hidden_sizes(self, hidden):
        m = init_scorer(5, hidden, seed=0)
        assert [a.shape for a in m.params().values()] == [
            (5, hidden), (hidden,), (hidden, hidden), (hidden,),
            (hidden, hidden), (hidden,), (hidden, 5), (5,)]

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            init_scorer(0, 4, seed=0)
        with pytest.raises(ValueError):
            init_scorer(5, 0, seed=0)

    def test_glorot_range_and_zero_biases(self):
        m = SetScorer.glorot((10, 16, 8, 16, 10), 1)
        bound = np.sqrt(6.0 / (10 + 16))
        assert np.all(np.abs(m.W1) <= bound)
        assert np.all(m.b1 == 0) and np.all(m.c2 == 0)


class TestForward:
    def test_member_order_irrelevant(self):
        m = SetScorer.glorot((12, 16, 8, 16, 12), 2)
        rng = np.random.default_rng(0)
        for _ in range(100):
            size = int(rng.integers(1, 6))
            members = rng.choice(12, size=size, replace=False)
            base = forward(m, members)
            for _ in range(3):
                out = forward(m, rng.permutation(members))
                assert np.max(np.abs(out - base) / np.maximum(base, 1e-12)) < 1e-6

    def test_sums_to_one(self):
        m = float64_copy(SetScorer.glorot((9, 8, 4, 8, 9), 5))
        rng = np.random.default_rng(1)
        for _ in range(50):
            members = rng.choice(9, size=3, replace=False)
            p = forward(m, members)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p > 0)

    def test_float32_sums_to_one_within_n_eps(self):
        n = 300
        m = SetScorer.glorot((n, 16, 8, 16, n), 5)
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = forward(m, rng.choice(n, size=4, replace=False))
            assert p.dtype == DTYPE
            assert abs(float(p.sum()) - 1.0) <= n * np.finfo(DTYPE).eps

    def test_fuzz_stays_finite(self):
        m = SetScorer.glorot((20, 16, 8, 16, 20), 6)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            members = rng.choice(20, size=4, replace=False)
            assert np.all(np.isfinite(forward(m, members)))

    def test_empty_set_rejected(self):
        m = init_scorer(4, 4, seed=0)
        with pytest.raises(ValueError):
            forward(m, [])

    def test_one_hot_lookup_equivalence(self):
        # row indexing of W1 is exactly the one-hot product
        m = SetScorer.glorot((7, 6, 5, 6, 7), 9)
        onehot = np.zeros(7)
        onehot[3] = 1.0
        assert np.allclose(m.W1[3], onehot @ m.W1)


class TestSoftLabel:
    def test_worked_fixture(self, five_sim):
        label = soft_label(MatrixSimilarity(five_sim), [0, 1])
        # window sets {0,1,v}: pair sums 2, 4, 4 over v in {2,3,4}
        assert np.allclose(label, [0.0, 0.0, 0.2, 0.4, 0.4])

    def test_zero_similarity_uniform(self):
        label = soft_label(MatrixSimilarity(np.zeros((5, 5), dtype=int)), [1, 3])
        assert np.allclose(label, [1 / 3, 0.0, 1 / 3, 0.0, 1 / 3])

    def test_members_zero_and_normalized(self):
        rng = np.random.default_rng(3)
        g = random_digraph(rng, 15, 0.3)
        src = as_similarity(g)
        for _ in range(20):
            members = rng.choice(15, size=4, replace=False)
            label = soft_label(src, members)
            assert np.all(label[members] == 0)
            # An independent float64 normalization of the same exact integer
            # weights; the label is that reference rounded entry by entry.
            raws = np.array([0 if v in members else window_set_score(src, list(members) + [v])
                             for v in range(15)])
            ref = raws / raws.sum()
            assert abs(ref.sum() - 1.0) < 1e-9
            assert label.dtype == DTYPE
            assert np.array_equal(label, ref.astype(DTYPE))
            assert np.all(label >= 0)

    def test_proportional_to_window_score(self):
        rng = np.random.default_rng(4)
        g = random_digraph(rng, 10, 0.4)
        src = as_similarity(g)
        members = np.array([0, 3, 7])
        label = soft_label(src, members)
        raws = [0 if v in members else window_set_score(src, list(members) + [v])
                for v in range(10)]
        assert np.allclose(label, np.array(raws) / sum(raws))


class TestSampleBatch:
    def test_deterministic(self):
        g = random_digraph(np.random.default_rng(5), 12, 0.3)
        prob = initial_prob(g)
        a = sample_training_batch(as_similarity(g), prob, 4, 8, np.random.default_rng(11))
        b = sample_training_batch(as_similarity(g), prob, 4, 8, np.random.default_rng(11))
        for xa, xb in zip(a, b):
            assert np.array_equal(xa.input_set, xb.input_set)
            assert np.array_equal(xa.soft_label, xb.soft_label)

    def test_sets_have_right_size_and_no_repeats(self):
        g = random_digraph(np.random.default_rng(6), 10, 0.3)
        for ex in sample_training_batch(as_similarity(g), initial_prob(g), 5, 20,
                                        np.random.default_rng(0)):
            assert ex.input_set.size == 4
            assert np.unique(ex.input_set).size == 4

    def test_uniform_inclusion_frequencies(self):
        g = Graph(10, [(0, 1)])
        prob = np.full(10, 0.1)
        batch = sample_training_batch(as_similarity(g), prob, 4, 10_000, np.random.default_rng(1))
        counts = np.zeros(10)
        for ex in batch:
            counts[ex.input_set] += 1
        q = 3 / 10  # inclusion probability of each vertex per draw
        sigma = np.sqrt(q * (1 - q) / 10_000)
        assert np.all(np.abs(counts / 10_000 - q) < 3 * sigma)

    def test_concentrated_mass_dominates(self):
        g = Graph(6, [(0, 1)])
        prob = np.full(6, 1e-9)
        prob[2] = 1.0 - 5e-9
        batch = sample_training_batch(as_similarity(g), prob, 3, 200, np.random.default_rng(2))
        hits = sum(2 in ex.input_set for ex in batch)
        assert hits == 200

    def test_window_too_large_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            sample_training_batch(as_similarity(g), np.full(3, 1 / 3), 5, 2,
                                  np.random.default_rng(0))


def sequential_set_probabilities(prob, k: int) -> dict[tuple[int, ...], float]:
    """Oracle: the exact probability of every k-set under sequential weighted
    sampling (draw, zero out, renormalize), summed over its draw orders."""
    out: dict[tuple[int, ...], float] = {}
    for seq in itertools.permutations(range(len(prob)), k):
        p, left = 1.0, 1.0
        for v in seq:
            p *= prob[v] / left
            left -= prob[v]
        key = tuple(sorted(seq))
        out[key] = out.get(key, 0.0) + p
    return out


class TestWeightedDraws:
    @pytest.mark.parametrize("prob", [[0.4, 0.25, 0.15, 0.1, 0.06, 0.04],
                                      [0.17, 0.16, 0.17, 0.16, 0.17, 0.17]],
                             ids=["skewed", "near-flat"])
    def test_set_frequencies_match_sequential_sampling(self, prob):
        draws = 60_000
        sets = _weighted_draws_without_replacement(np.random.default_rng(3),
                                                   np.array(prob), 3, draws)
        assert sets.shape == (draws, 3) and sets.dtype == np.int64
        assert np.all(sets[:, 1:] > sets[:, :-1])
        keys, counts = np.unique(sets, axis=0, return_counts=True)
        freq = dict(zip(map(tuple, keys.tolist()), counts / draws))
        exact = sequential_set_probabilities(prob, 3)
        assert set(freq) <= set(exact)
        for key, q in exact.items():
            sigma = np.sqrt(q * (1 - q) / draws)
            assert abs(freq.get(key, 0.0) - q) < 4.5 * sigma, key

    def test_single_draws_follow_prob(self):
        prob = np.array([0.5, 0.3, 0.15, 0.05])
        draws = 50_000
        sets = _weighted_draws_without_replacement(np.random.default_rng(4), prob, 1, draws)
        assert sets.shape == (draws, 1)
        freq = np.bincount(sets[:, 0], minlength=4) / draws
        assert np.all(np.abs(freq - prob) < 4.5 * np.sqrt(prob * (1 - prob) / draws))

    def test_exactly_k_vertices_with_mass(self):
        prob = np.array([0.5, 0.0, 0.3, 0.0, 0.2, 0.0])
        sets = _weighted_draws_without_replacement(np.random.default_rng(5), prob, 3, 500)
        assert np.array_equal(sets, np.tile([0, 2, 4], (500, 1)))

    def test_fewer_than_k_vertices_with_mass(self):
        prob = np.array([0.5, 0.0, 0.5, 0.0])
        with pytest.raises(ValueError, match="no remaining mass"):
            _weighted_draws_without_replacement(np.random.default_rng(6), prob, 3, 4)


class TestCrossEntropy:
    def test_equals_entropy_at_optimum(self):
        p = np.array([0.2, 0.4, 0.4])
        assert cross_entropy(p, p) == pytest.approx(-(p * np.log(p)).sum())

    def test_uniform_four(self):
        q = np.full(4, 0.25)
        assert cross_entropy(q, q) == pytest.approx(np.log(4))

    def test_floor_keeps_loss_finite(self):
        pred = np.array([1.0, 0.0])
        label = np.array([0.0, 1.0])
        assert np.isfinite(cross_entropy(pred, label))

    def test_arguments_left_unchanged(self):
        rng = np.random.default_rng(3)
        pred, label = rng.random((4, 9), dtype=DTYPE), rng.random((4, 9), dtype=DTYPE)
        pred[0, 0] = 0.0  # under the floor
        before = pred.tobytes(), label.tobytes()
        cross_entropy(pred, label)
        assert (pred.tobytes(), label.tobytes()) == before


def tiny_batch(model, rng, size=4, set_size=2):
    src = np.zeros((model.n, model.n), dtype=np.int64)
    idx = np.triu_indices(model.n, 1)
    vals = rng.integers(0, 5, size=idx[0].size)
    src[idx] = vals
    src = MatrixSimilarity(src + src.T)
    examples = []
    for _ in range(size):
        members = rng.choice(model.n, size=set_size, replace=False)
        examples.append(TrainingExample(np.sort(members), soft_label(src, members)))
    return examples


def flatten_params(model):
    return np.concatenate([getattr(model, p).ravel() for p in SetScorer.NAMES])


class TestTrainStep:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        model = float64_copy(SetScorer.glorot((6, 5, 4, 5, 6), 12))
        sets, labels = stack_batch(tiny_batch(model, rng))
        _, grads = _loss_and_grads(model, sets, labels)
        numeric = numeric_gradient(
            lambda: cross_entropy(forward_batch(model, sets), labels), model.params())
        for name, g in grads.items():
            err = np.abs(g - numeric[name]) / np.maximum(np.abs(numeric[name]), 1e-6)
            assert err.max() < 1e-4, name

    def test_float32_gradient_matches_its_float64_copy(self):
        # The production model against the same weights in float64, on one
        # batch.  The largest error in each array, relative to the array's
        # largest entry, measured 2.6e-7 on this batch and at most 4.9e-7 over
        # 28 seeds; float32's eps is 1.2e-7.  The bound leaves 20x room.
        rng = np.random.default_rng(12)
        model = SetScorer.glorot((60, 16, 8, 16, 60), 12)
        sets, labels = stack_batch(tiny_batch(model, rng, size=16, set_size=4))
        _, grads = _loss_and_grads(model, sets, labels)
        _, exact = _loss_and_grads(float64_copy(model), sets, labels)
        for name, g in grads.items():
            assert g.dtype == DTYPE and exact[name].dtype == np.float64, name
            assert np.abs(g - exact[name]).max() < 1e-5 * np.abs(exact[name]).max(), name

    def test_zero_gradient_leaves_parameters(self):
        model = init_scorer(5, 4, seed=1)
        rng = np.random.default_rng(2)
        sets = np.stack([rng.choice(5, size=2, replace=False) for _ in range(3)])
        labels = forward_batch(model, sets)  # labels equal predictions
        batch = [TrainingExample(s, l) for s, l in zip(sets, labels)]
        before = flatten_params(model).copy()
        train_step(model, batch, AdamState(), lr=1e-3)
        assert np.array_equal(flatten_params(model), before)

    def test_bit_identical_reruns(self):
        def run():
            rng = np.random.default_rng(33)
            model = SetScorer.glorot((8, 6, 4, 6, 8), 7)
            opt = AdamState()
            for _ in range(5):
                train_step(model, tiny_batch(model, rng), opt, lr=1e-3)
            return flatten_params(model)

        assert np.array_equal(run(), run())

    def test_adam_step_matches_textbook_update(self):
        # The in-place step keeps the operations and their order, so it
        # equals the allocating formula bit for bit.
        rng = np.random.default_rng(5)
        shapes = {"W": (20, 8), "b": (8,)}
        # Parameters as small as one update, so no rounding of the update
        # is absorbed by the subtraction.
        params = {k: 1e-2 * rng.standard_normal(s) for k, s in shapes.items()}
        ref = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        opt = AdamState()
        for t in range(1, 6):
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            opt.step(params, grads, lr=1e-2)
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1 - 0.9) * g
                v[k] = 0.999 * v[k] + (1 - 0.999) * g * g
                m_hat, v_hat = m[k] / (1 - 0.9 ** t), v[k] / (1 - 0.999 ** t)
                ref[k] -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
            for k in shapes:
                assert np.array_equal(params[k], ref[k]), (t, k)

    def test_rmsprop_step_matches_textbook_update(self):
        # As Adam's: the in-place step keeps the allocating formula's
        # operations and their order, so it equals it bit for bit.
        rng = np.random.default_rng(6)
        shapes = {"W": (20, 8), "b": (8,)}
        params = {k: 1e-2 * rng.standard_normal(s).astype(DTYPE) for k, s in shapes.items()}
        ref = {k: p.copy() for k, p in params.items()}
        cache = {k: np.zeros(s, dtype=DTYPE) for k, s in shapes.items()}
        opt = RmspropState()
        for t in range(5):
            grads = {k: rng.standard_normal(s).astype(DTYPE) for k, s in shapes.items()}
            opt.step(params, grads, lr=1e-2)
            for k, g in grads.items():
                cache[k] = 0.9 * cache[k] + (1 - 0.9) * g * g
                ref[k] += 1e-2 * g / (np.sqrt(cache[k]) + 1e-8)
            for k in shapes:
                assert np.array_equal(params[k], ref[k]), (t, k)

    def test_diverged_loss_aborts(self):
        model = init_scorer(4, 4, seed=0)
        model.c2[:] = np.nan
        batch = [TrainingExample(np.array([0, 1]), np.array([0, 0, 0.5, 0.5]))]
        with pytest.raises(TrainingDiverged):
            train_step(model, batch, AdamState(), lr=1e-3)

    @pytest.mark.parametrize("bad", [-1, 5], ids=["minus-one", "n"])
    def test_ids_outside_the_model_refused_before_any_update(self, bad):
        model = init_scorer(5, 4, seed=0)
        opt = AdamState()
        train_step(model, tiny_batch(model, np.random.default_rng(1)), opt, lr=1e-3)
        before = flatten_params(model).copy()
        moments = {k: (opt.m[k].copy(), opt.v[k].copy()) for k in opt.m}
        batch = [TrainingExample(np.array([0, 1]), np.full(5, 0.2)),
                 TrainingExample(np.array([bad, 2]), np.full(5, 0.2))]
        with pytest.raises(ValueError, match=r"out of range \[0, 5\)"):
            train_step(model, batch, opt, lr=1e-3)
        assert np.array_equal(flatten_params(model), before)
        assert opt.t == 1 and set(opt.m) == set(moments)
        for k, (m, v) in moments.items():
            assert np.array_equal(opt.m[k], m) and np.array_equal(opt.v[k], v)

    def test_loss_strictly_decreases_on_fixed_batch(self):
        rng = np.random.default_rng(40)
        model = SetScorer.glorot((10, 16, 8, 16, 10), 4)
        batch = tiny_batch(model, rng, size=8, set_size=3)
        opt = AdamState()
        losses = [train_step(model, batch, opt, lr=1e-3) for _ in range(500)]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        # cross entropy is floored at the mean label entropy, so "how far" it
        # falls depends on the labels; memorization must close most of the gap
        floor = np.mean([cross_entropy(ex.soft_label, ex.soft_label)
                         for ex in batch])
        assert losses[-1] - floor < 0.2 * (losses[0] - floor)


class TestRmse:
    def test_zero_when_exact(self):
        model = init_scorer(5, 4, seed=3)
        sets = np.array([[0, 1], [2, 3]])
        labels = forward_batch(model, sets)
        assert rmse(model, sets, labels) == 0.0

    def test_hand_value(self):
        # single example over two vertices: prediction uniform, label one-hot
        model = init_scorer(2, 4, seed=0)
        for name in ("W1", "W2", "V1", "V2"):
            getattr(model, name)[:] = 0.0
        assert rmse(model, np.array([[0]]), np.array([[1.0, 0.0]])) == pytest.approx(0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            rmse(init_scorer(3, 4, seed=0), np.empty((0, 1), dtype=np.int64),
                 np.empty((0, 3)))

    def test_arguments_left_unchanged(self):
        model = init_scorer(6, 4, seed=2)
        sets = np.array([[0, 1], [2, 3], [4, 5]])
        labels = np.random.default_rng(4).random((3, 6), dtype=DTYPE)
        before = sets.tobytes(), labels.tobytes()
        rmse(model, sets, labels)
        assert (sets.tobytes(), labels.tobytes()) == before

    def test_holds_at_most_one_and_three_quarter_label_blocks(self):
        # The forward pass's (B, n) block is the only one kept: the logits,
        # the softmax and the squared errors are formed in it in place.
        n, size = 2000, 256
        model = init_scorer(n, 64, seed=1)
        rng = np.random.default_rng(2)
        sets = np.stack([rng.choice(n, 4, replace=False) for _ in range(size)])
        labels = rng.random((size, n), dtype=DTYPE)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            rmse(model, sets, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held <= 1.75 * labels.nbytes

    @pytest.mark.parametrize("labels", [np.full((1, 3), 1 / 3), np.full((3, 3), 1 / 3),
                                        np.full((2, 4), 0.25), np.full(3, 1 / 3)],
                             ids=["fewer-rows", "more-rows", "wider", "1-D"])
    def test_rejects_labels_that_do_not_match_the_sets(self, labels):
        # One label row would otherwise broadcast against both sets' predictions.
        with pytest.raises(ValueError, match="labels"):
            rmse(init_scorer(3, 4, seed=0), np.array([[0], [1]]), labels)


class TestDecode:
    def test_always_bijection(self):
        rng = np.random.default_rng(50)
        for trial in range(50):
            n = int(rng.integers(2, 12))
            g = random_digraph(rng, n, 0.3)
            model = SetScorer.glorot((n, 6, 4, 6, n), trial)
            order = model_order(g, model, w=int(rng.integers(2, 5)))
            assert sorted(order.tolist()) == list(range(n))

    def test_two_vertices(self):
        g = Graph(2, [(0, 1)])
        model = init_scorer(2, 4, seed=1)
        order = model_order(g, model, 2)
        assert sorted(order.tolist()) == [0, 1]

    def test_starts_at_highest_degree(self):
        # Vertices 1, 2 and 4 tie at the highest total degree, 3, and vertex
        # 0 has less; the decode starts at the smallest of the three, whatever
        # the model.
        g = Graph(5, [(2, 0), (2, 1), (3, 2), (4, 0), (4, 1), (1, 4)])
        assert g.total_degrees().tolist() == [2, 3, 3, 1, 3]
        for seed in range(5):
            assert model_order(g, init_scorer(5, 4, seed=seed), 3)[0] == 1

    @pytest.mark.parametrize("w", [1, 0, -2])
    def test_refuses_window_below_two(self, w):
        # Training's window sets hold w - 1 >= 1 vertices; so does the decode's.
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError, match="window size must be at least 2"):
            model_order(g, init_scorer(4, 4, seed=2), w)

    def test_nan_scores_refused(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        model = init_scorer(4, 4, seed=2)
        model.c2[:] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            model_order(g, model, 3)

    def test_trained_order_pinned(self):
        # A small trained scorer's decode, by sha256.  Float results depend on
        # the BLAS build, as test_cli's test_train_outputs_pinned notes.
        g = gen_power_law(40, 1.8, seed=3)
        cfg = ScorerConfig(hidden=16, batch_size=8, global_steps=40, eval_size=8,
                           eval_every=40)
        model, _ = train_scorer(g, 4, cfg, seed=5)
        order = model_order(g, model, 4)
        assert hashlib.sha256(order.tobytes()).hexdigest() == (
            "3b418d8e3ab36736cb968f85a9f78db068382c271964bbe568e6e227c47aa818")

    def test_memorized_fixture_reaches_optimum(self, five_sim):
        # Train on every window set of sizes 1 and 2 with exact labels; the
        # decode should then match the exhaustive optimum (score 7 at w=3).
        five_sim = MatrixSimilarity(five_sim)
        model = SetScorer.glorot((5, 32, 16, 32, 5), 8)
        examples = []
        for a in range(5):
            examples.append(TrainingExample(np.array([a]),
                                            soft_label(five_sim, [a])))
            for b in range(a + 1, 5):
                examples.append(TrainingExample(np.array([a, b]),
                                                soft_label(five_sim, [a, b])))
        opt = AdamState()
        by_size = {1: [e for e in examples if e.input_set.size == 1],
                   2: [e for e in examples if e.input_set.size == 2]}
        for _ in range(1500):
            for group in by_size.values():
                train_step(model, group, opt, lr=1e-2)
        g = Graph(5)  # ordering needs only the scorer; every degree ties, so it starts at 0
        order = model_order(g, model, 3)
        from graphorder.locality import locality_score
        assert locality_score(five_sim, order, 3) >= 7


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = SetScorer.glorot((7, 8, 4, 8, 7), 5)
        path = str(tmp_path / "model.npz")
        save_scorer(model, path)
        again = load_scorer(path)
        assert again.n == model.n and again.seed == model.seed
        for name, arr in model.params().items():
            assert np.array_equal(arr, again.params()[name])

    def test_version_1_refused(self, tmp_path):
        path = str(tmp_path / "v1.npz")
        np.savez(path, kind="set_scorer", format_version=1, n=7, seed=5,
                 **SetScorer.glorot((7, 8, 4, 8, 7), 5).params())
        with pytest.raises(ValueError, match="unsupported checkpoint version 1, expected 2$"):
            load_scorer(path)

    def test_float64_arrays_refused(self, tmp_path):
        path = str(tmp_path / "f64.npz")
        save_scorer(float64_copy(SetScorer.glorot((7, 8, 4, 8, 7), 5)), path)
        with pytest.raises(ValueError, match="parameters must be float32, but W1 is float64"):
            load_scorer(path)

    def test_kind_checked(self, tmp_path):
        path = str(tmp_path / "bogus.npz")
        np.savez(path, kind="other", format_version=1)
        with pytest.raises(ValueError):
            load_scorer(path)

    @pytest.mark.parametrize("text", ["", "n 3\n0 1\n"], ids=["empty", "edge-list"])
    def test_non_archive_named(self, text, tmp_path):
        path = tmp_path / "model.npz"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^not an npz archive: {path}$"):
            load_scorer(str(path))


class TestTrainLoop:
    def test_loss_and_rmse_improve(self):
        g = gen_power_law(30, 1.8, seed=1)
        cfg = ScorerConfig(hidden=32, don_learning_rate=1e-3, batch_size=32,
                           global_steps=200, eval_size=64, eval_every=50)
        model, log = train_scorer(g, 4, cfg, seed=4)
        assert log.losses[-1] < log.losses[0]
        assert log.rmse_points[-1][1] < log.rmse_points[0][1]

    def test_deterministic(self):
        g = gen_power_law(20, 1.8, seed=5)
        cfg = ScorerConfig(hidden=16, batch_size=16, global_steps=30, eval_size=8)
        m1, log1 = train_scorer(g, 3, cfg, seed=9)
        m2, log2 = train_scorer(g, 3, cfg, seed=9)
        assert np.array_equal(flatten_params(m1), flatten_params(m2))
        assert log1.losses == log2.losses
        assert log1.rmse_points == log2.rmse_points
