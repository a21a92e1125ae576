from __future__ import annotations

import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphorder import locality, tuner
from graphorder.baselines import _greedy_prefix
from graphorder.graph import Graph, gen_erdos_renyi, gen_power_law
from graphorder.locality import GraphSimilarity, MatrixSimilarity, as_similarity
from graphorder.optim import AdamState, RmspropState
from graphorder.scorer import (CHECKPOINT_VERSION, DTYPE, ScorerConfig, SetScorer,
                               TrainingDiverged, TrainLog, forward, forward_batch, load_scorer,
                               rmse, sample_training_batch, save_scorer, soft_label,
                               stack_batch)
from graphorder.tuner import (RewardBaseline, RlConfig, apply_action,
                              build_eval_set, check_prob, default_floor,
                              discounted_returns,
                              TuningPolicy, init_policy, initial_prob, log_prob_grad,
                              policy_forward, reinforce_update,
                              sample_action, train_scorer, train_scorer_rl)

from conftest import float64_copy, numeric_gradient, random_digraph


class TestInitialProb:
    def test_star_degree_shares(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        p = initial_prob(g)
        assert np.allclose(p, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-9)

    def test_edgeless_uniform(self):
        p = initial_prob(Graph(5))
        assert np.allclose(p, 0.2, atol=1e-12)

    def test_floored_even_with_zero_degree(self):
        g = Graph(4, [(0, 1)])  # vertices 2, 3 isolated
        p = initial_prob(g)
        check_prob(p)
        assert p[2] >= default_floor(4)


class TestPolicyForward:
    def test_outputs_in_open_interval(self):
        policy = init_policy(6, hidden=8, seed=1)
        q = policy_forward(policy, np.full(6, 1 / 6))
        assert np.all(q > 0) and np.all(q < 1)

    def test_zero_weights_give_half(self):
        policy = init_policy(4, hidden=8, seed=0)
        for name in ("W1", "W2"):
            getattr(policy, name)[:] = 0.0
        q = policy_forward(policy, np.full(4, 0.25))
        assert np.allclose(q, 0.5)

    def test_deterministic(self):
        policy = init_policy(5, hidden=8, seed=2)
        s = np.full(5, 0.2)
        assert np.array_equal(policy_forward(policy, s), policy_forward(policy, s))


class TestSampleAction:
    def test_all_zero_probability(self):
        rng = np.random.default_rng(0)
        assert sample_action(np.zeros(6), rng).tolist() == [0] * 6

    def test_all_one_probability(self):
        rng = np.random.default_rng(0)
        assert sample_action(np.ones(6), rng).tolist() == [1] * 6

    def test_frequencies_binomial(self):
        rng = np.random.default_rng(3)
        q = np.array([0.1, 0.5, 0.9])
        draws = np.stack([sample_action(q, rng) for _ in range(10_000)])
        freq = draws.mean(axis=0)
        sigma = np.sqrt(q * (1 - q) / 10_000)
        assert np.all(np.abs(freq - q) < 3 * sigma)


class TestApplyAction:
    def test_balanced_shift(self):
        out = apply_action(np.array([0.5, 0.5]), np.array([0, 1]), 0.1)
        assert np.allclose(out, [0.6, 0.4], atol=1e-9)

    def test_uniform_all_increase_unchanged(self):
        s = np.full(4, 0.25)
        out = apply_action(s, np.zeros(4, dtype=int), 0.05)
        assert np.allclose(out, s, atol=1e-12)

    def test_every_entry_at_the_floor_gives_uniform(self):
        # A decrease larger than every entry clamps them all to the floor,
        # which leaves no mass above it to rescale.
        out = apply_action(np.full(4, 0.25), np.ones(4, dtype=int), 1.0)
        assert np.array_equal(out, np.full(4, 0.25))

    def test_clamp_then_renormalize(self):
        floor = default_floor(2)
        out = apply_action(np.array([0.9, 0.1]), np.array([0, 1]), 0.2)
        assert out[0] == pytest.approx(1.0, abs=1e-6)
        assert out[1] == pytest.approx(floor / (1.1 + floor), abs=1e-6)
        assert out[1] >= floor

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2 ** 31), st.floats(1e-4, 0.5))
    def test_invariants_always_hold(self, n, seed, rate):
        rng = np.random.default_rng(seed)
        raw = rng.random(n) + 1e-9
        state = raw / raw.sum()
        action = (rng.random(n) < 0.5).astype(int)
        out = apply_action(state, action, rate)
        check_prob(out)

    def test_transition_deterministic(self):
        s = np.array([0.3, 0.3, 0.4])
        a = np.array([1, 0, 1])
        assert np.array_equal(apply_action(s, a, 0.05), apply_action(s, a, 0.05))

    @pytest.mark.parametrize("rate", [0.0, -0.1, float("nan"), float("inf")])
    def test_refuses_a_rate_not_finite_and_positive(self, rate):
        # A nan rate would give all-nan probabilities, and inf nan entries.
        with pytest.raises(ValueError, match="^rate must be finite and positive"):
            apply_action(np.full(4, 0.25), np.array([0, 1, 0, 1]), rate)


class TestLogProbGradient:
    def test_matches_finite_differences_three_vertices(self):
        policy = float64_copy(init_policy(3, hidden=5, seed=4))
        state = np.array([0.2, 0.3, 0.5])
        action = np.array([1, 0, 1])
        _, grads = log_prob_grad(policy, state, action)
        numeric = numeric_gradient(lambda: log_prob_grad(policy, state, action)[0],
                                   policy.params())
        for name, g in grads.items():
            err = np.abs(g - numeric[name]) / np.maximum(np.abs(numeric[name]), 1e-6)
            assert err.max() < 1e-4, name

    def test_finite_when_q_saturates(self):
        # In float32, 1 - LOG_FLOOR rounds to 1, so a log-likelihood taken in
        # float32 would be log(0) at a saturated q: -inf, and 0 * -inf = nan.
        policy = init_policy(3, hidden=5, seed=4)
        policy.b2[:] = 40.0
        state = np.array([0.2, 0.3, 0.5])
        assert np.all(policy_forward(policy, state) == 1.0)
        for action in (np.array([0, 0, 0]), np.array([1, 0, 1])):
            logp, grads = log_prob_grad(policy, state, action)
            assert np.isfinite(logp)
            assert all(g.dtype == DTYPE and np.all(np.isfinite(g)) for g in grads.values())
        assert log_prob_grad(policy, state, np.array([1, 1, 1]))[0] == pytest.approx(-3e-12)


class TestReturnsAndBaseline:
    def test_single_step_gamma_zero(self):
        assert discounted_returns([2.5], 0.0) == [2.5]

    def test_recurrence(self):
        rewards = [1.0, -2.0, 0.5, 3.0]
        returns = discounted_returns(rewards, 0.9)
        for t in range(len(rewards) - 1):
            assert returns[t] == pytest.approx(rewards[t] + 0.9 * returns[t + 1])
        assert returns[-1] == rewards[-1]

    def test_baseline_stays_in_reward_range(self):
        rng = np.random.default_rng(5)
        baseline = RewardBaseline()
        seen = []
        for _ in range(200):
            r = float(rng.normal(-0.5, 0.2))
            seen.append(r)
            baseline.update(r)
            assert min(seen) <= baseline.value <= max(seen)


class TestReinforce:
    def test_bandit_learns_to_increase_first_vertex(self):
        policy = init_policy(3, hidden=8, seed=0)
        rng = np.random.default_rng(100)
        state = np.full(3, 1 / 3)
        baseline = RewardBaseline()
        opt = RmspropState()
        for _ in range(200):
            q = policy_forward(policy, state)
            a = sample_action(q, rng)
            reward = 1.0 if a[0] == 0 else 0.0
            reinforce_update(policy, [state], [a], [reward],
                             gamma=0.95, alpha=0.05, baseline=baseline, opt=opt)
        assert 1.0 - policy_forward(policy, state)[0] > 0.9

    def test_rejects_empty_trajectory(self):
        policy = init_policy(3, hidden=4, seed=1)
        with pytest.raises(ValueError):
            reinforce_update(policy, [], [], [], 0.9, 0.01, RewardBaseline(),
                             RmspropState())

    def test_non_finite_reward_aborts(self):
        policy = init_policy(3, hidden=4, seed=1)
        with pytest.raises(TrainingDiverged):
            reinforce_update(policy, [np.full(3, 1 / 3)], [np.array([0, 1, 0])],
                             [float("nan")], 0.9, 0.01, RewardBaseline(),
                             RmspropState())


class TestEvalSet:
    # The eval set grows each window set with GO's loop at a window as wide
    # as the set: _greedy_prefix(src, start, size, size).
    def test_growth_on_worked_fixture(self, five_sim):
        # from vertex 0 the best neighbor is 1 (similarity 2)
        grown, _ = _greedy_prefix(MatrixSimilarity(five_sim), 0, 2, 2)
        assert grown.tolist() == [0, 1]

    def test_growth_tie_breaks_small_id(self):
        grown, _ = _greedy_prefix(MatrixSimilarity(np.zeros((4, 4), dtype=int)), 2, 3, 3)
        assert grown.tolist() == [2, 0, 1]

    def test_examples_distinct_members_and_deterministic(self):
        g = random_digraph(np.random.default_rng(7), 12, 0.3)
        sets_a, labels_a = build_eval_set(as_similarity(g), initial_prob(g), 4, 20, seed=9)
        sets_b, labels_b = build_eval_set(as_similarity(g), initial_prob(g), 4, 20, seed=9)
        assert sets_a.shape == (20, 3) and labels_a.shape == (20, 12)
        assert np.array_equal(sets_a, sets_b) and np.array_equal(labels_a, labels_b)
        for members in sets_a:
            assert np.unique(members).size == 3

    def test_fixture_label(self, five_sim):
        # growing from 0 gives {0, 1}; its label is the worked soft label
        src = MatrixSimilarity(five_sim)
        members, _ = _greedy_prefix(src, 0, 2, 2)
        assert np.allclose(soft_label(src, members), [0, 0, 0.2, 0.4, 0.4])

    @pytest.mark.parametrize("make", [
        lambda: random_digraph(np.random.default_rng(7), 12, 0.3),
        lambda: gen_erdos_renyi(2100, 0.002, seed=4),
        lambda: Graph(9),
    ], ids=["dense", "on-demand", "edgeless"])
    def test_labels_are_the_soft_labels_of_the_sets(self, make):
        # Each label comes from the growth's own gain vector; it must equal
        # the soft label computed from the set alone.
        g = make()
        src = as_similarity(g)
        sets, labels = build_eval_set(src, initial_prob(g), 4, 6, seed=2)
        for members, label in zip(sets, labels):
            assert np.array_equal(label, soft_label(src, members))

    @pytest.mark.parametrize("make, digests", [
        (lambda: gen_power_law(300, 1.6, seed=7),
         ("8631c5b91a46f4874034f675268d4259069556d420d0b49310e2786e2548cf29",
          "af2c818a842380a8e52e6dd03fcbc51a419029ea65827812bd1f0594ae326dde")),
        (lambda: gen_erdos_renyi(2100, 0.002, seed=4),
         ("1db0b6b27cede162754ec904ae14349ec86c401204a228b9bee78f514c906524",
          "079ebb9635a0322302825810e082753aff89bf5f1feadac97fbb10ffcbfbf0eb")),
    ], ids=["dense", "on-demand"])
    def test_pinned(self, make, digests):
        # sha256 of the sets and labels, recorded from the list of examples
        # that grew each set and then labeled it with soft_label.  Float
        # results depend on the platform's numpy build.
        g = make()
        sets, labels = build_eval_set(as_similarity(g), initial_prob(g), 5, 24, seed=3)
        assert sets.dtype == np.int64 and labels.dtype == DTYPE
        assert (hashlib.sha256(sets.tobytes()).hexdigest(),
                hashlib.sha256(labels.tobytes()).hexdigest()) == digests

    def test_one_row_gather_per_member(self, monkeypatch):
        # The growth sums every member's row, which is what the label needs.
        g = gen_erdos_renyi(2100, 0.002, seed=4)
        src = as_similarity(g)
        assert isinstance(src, GraphSimilarity)
        rows = []
        gather = locality._similarity_row
        monkeypatch.setattr(locality, "_similarity_row",
                            lambda g, x: rows.append(x) or gather(g, x))
        sets, _ = build_eval_set(src, initial_prob(g), 5, 24, seed=3)
        assert len(rows) == 24 * (5 - 1)
        assert rows == sets.ravel().tolist()

    def test_pair_base_needs_no_pair_score(self, monkeypatch):
        # The members' gains after the growth already hold their pair sum.
        g = gen_erdos_renyi(2100, 0.002, seed=4)
        monkeypatch.setattr(GraphSimilarity, "score", None)
        _, labels = build_eval_set(as_similarity(g), initial_prob(g), 4, 6, seed=2)
        assert labels.shape == (6, g.n)

    def test_refuses_a_source_of_another_graph(self):
        # A start drawn from the 12-vertex prob could name a vertex the
        # 11-vertex source does not hold.
        g = random_digraph(np.random.default_rng(7), 12, 0.3)
        with pytest.raises(ValueError, match=r"prob has shape \(12,\), source has n=11"):
            build_eval_set(as_similarity(Graph(11)), initial_prob(g), 4, 3, seed=0)

    def test_reward_sign(self):
        model = SetScorer.glorot((5, 8, 4, 8, 5), 0)
        sets = np.array([[0, 1], [1, 2]])
        labels = forward_batch(model, sets)
        assert -rmse(model, sets, labels) == 0.0
        assert -rmse(model, sets[:1], np.array([[0, 0, 0.5, 0.5, 0.0]])) < 0.0


@pytest.fixture(scope="module")
def rl_run():
    g = gen_power_law(24, 1.8, seed=3)
    scfg = ScorerConfig(hidden=24, don_learning_rate=1e-3, batch_size=16,
                        eval_size=24)
    rcfg = RlConfig(trajectory_len=3, rl_steps=6, gamma=0.9,
                    tuning_scale=0.15, policy_learning_rate=1e-3, policy_hidden=16,
                    don_steps_per_t=2, warmup_steps=8)
    return g, train_scorer_rl(g, 3, scfg, rcfg, seed=11)


class TestTrainRl:
    def test_states_stay_valid(self, rl_run):
        _, (_, _, history) = rl_run
        check_prob(history.final_prob)

    def test_update_bookkeeping(self, rl_run):
        _, (_, _, history) = rl_run
        assert len(history.don_log.losses) == 8 + 6 * 3 * 2

    def test_rows_logged_per_step(self, rl_run):
        _, (_, _, history) = rl_run
        assert len(history.rl_rows) == 6 * 3
        for _, _, reward, _, mean_action_prob in history.rl_rows:
            assert reward <= 0.0
            assert 0.0 < mean_action_prob < 1.0

    def test_no_silent_float64(self, monkeypatch):
        # Every network array a run holds is DTYPE; only the sampling
        # distribution stays float64.
        made = []

        def recording(base):
            class Recording(base):
                def __init__(self):
                    super().__init__()
                    made.append(self)
            return Recording

        for base in (AdamState, RmspropState):
            monkeypatch.setattr(tuner, base.__name__, recording(base))
        g = gen_power_law(30, 1.8, seed=4)
        scfg = ScorerConfig(hidden=8, batch_size=4, eval_size=4)
        rcfg = RlConfig(trajectory_len=2, rl_steps=2, don_steps_per_t=2, warmup_steps=2,
                        policy_hidden=8)
        model, policy, history = train_scorer_rl(g, 3, scfg, rcfg, seed=3)
        adam, rms = made
        arrays = {**{f"scorer {k}": a for k, a in model.params().items()},
                  **{f"policy {k}": a for k, a in policy.params().items()},
                  **{f"adam m {k}": a for k, a in adam.m.items()},
                  **{f"adam v {k}": a for k, a in adam.v.items()},
                  **{f"rmsprop {k}": a for k, a in rms.cache.items()}}
        assert len(arrays) == 8 * 3 + 4 * 2
        src = as_similarity(g)
        batch = sample_training_batch(src, history.final_prob, 3, 4, np.random.default_rng(0))
        arrays["forward"] = forward(model, batch[0].input_set)
        arrays["policy_forward"] = policy_forward(policy, history.final_prob)
        arrays["batch labels"] = stack_batch(batch)[1]
        arrays["eval labels"] = build_eval_set(src, initial_prob(g), 3, 4, seed=1)[1]
        assert {k: a.dtype for k, a in arrays.items() if a.dtype != DTYPE} == {}
        assert history.final_prob.dtype == initial_prob(g).dtype == np.float64

    def test_deterministic(self):
        g = gen_power_law(15, 1.8, seed=4)
        scfg = ScorerConfig(hidden=12, batch_size=8, eval_size=8)
        rcfg = RlConfig(trajectory_len=2, rl_steps=3,
                        don_steps_per_t=1, warmup_steps=4, policy_hidden=8)
        _, _, h1 = train_scorer_rl(g, 3, scfg, rcfg, seed=21)
        _, _, h2 = train_scorer_rl(g, 3, scfg, rcfg, seed=21)
        assert np.array_equal(h1.final_prob, h2.final_prob)
        assert h1.rl_rows == h2.rl_rows
        assert h1.don_log.losses == h2.don_log.losses

    @pytest.mark.parametrize("rl_steps, trajectory_len", [(1, 1), (4, 3)])
    def test_history_holds_one_n_wide_array(self, rl_steps, trajectory_len):
        g = gen_power_law(30, 1.8, seed=4)
        scfg = ScorerConfig(hidden=8, batch_size=4, eval_size=4)
        rcfg = RlConfig(trajectory_len=trajectory_len, rl_steps=rl_steps,
                        don_steps_per_t=1, warmup_steps=2,
                        policy_hidden=8)
        _, _, history = train_scorer_rl(g, 3, scfg, rcfg, seed=3)
        # Walk everything the history references, except the scorer's loss log.
        seen, stack, array_bytes = set(), [history], 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, TrainLog)):
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                array_bytes += obj.nbytes
            stack.extend(gc.get_referents(obj))
        assert array_bytes == g.n * 8
        assert len(history.rl_rows) == rl_steps * trajectory_len


@pytest.mark.parametrize("entry", ["sample_training_batch", "build_eval_set",
                                   "train_scorer_rl"])
def test_window_of_n_plus_one_refused_before_any_row(entry, monkeypatch):
    # A window set of n vertices leaves no candidate to label.  The refusal
    # comes before any draw or similarity row, however large the graph.
    g = gen_erdos_renyi(3000, 0.001, seed=1)
    rows = []
    gather = locality._similarity_row
    monkeypatch.setattr(locality, "_similarity_row",
                        lambda g, x: rows.append(x) or gather(g, x))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    calls = {
        "sample_training_batch": lambda: sample_training_batch(
            GraphSimilarity(g), initial_prob(g), g.n + 1, 4, rng),
        "build_eval_set": lambda: build_eval_set(GraphSimilarity(g), initial_prob(g), g.n + 1,
                                                 4, seed=0),
        "train_scorer_rl": lambda: train_scorer_rl(g, g.n + 1, ScorerConfig(),
                                                   RlConfig(), seed=0),
    }
    with pytest.raises(ValueError, match="window size must be at most n="):
        calls[entry]()
    assert rows == []
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("trainer", ["train_scorer", "train_scorer_rl"])
def test_trainers_refuse_a_wide_window_before_the_dense_source(trainer, monkeypatch):
    # Below the cap, building the source gathers every row, so the window
    # check must come first.
    g = gen_power_law(50, 1.8, seed=1)
    rows = []
    gather = locality._similarity_row
    monkeypatch.setattr(locality, "_similarity_row",
                        lambda g, x: rows.append(x) or gather(g, x))
    calls = {
        "train_scorer": lambda: train_scorer(g, g.n + 1, ScorerConfig(), seed=0),
        "train_scorer_rl": lambda: train_scorer_rl(g, g.n + 1, ScorerConfig(), RlConfig(),
                                                   seed=0),
    }
    with pytest.raises(ValueError, match="window size must be at most n="):
        calls[trainer]()
    assert rows == []


def test_rl_config_default_steps_per_t():
    # The default count of scorer steps per tuning step is the one a run of
    # ScorerConfig's default global_steps would spread over the default schedule.
    rl = RlConfig()
    assert rl.don_steps_per_t == ScorerConfig().global_steps // (rl.rl_steps * rl.trajectory_len)


@pytest.mark.parametrize("field, value", [
    ("rl_steps", 0), ("rl_steps", -1), ("trajectory_len", 0), ("don_steps_per_t", 0),
    ("don_steps_per_t", -2), ("policy_hidden", 0), ("warmup_steps", -3), ("gamma", -4.0),
    ("gamma", 1.5), ("gamma", float("nan"))])
def test_rl_config_refuses_counts_and_discounts_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        RlConfig(**{field: value})


def test_rl_config_accepts_the_ends_of_each_range():
    for fields in ({"warmup_steps": 0}, {"gamma": 0.0}, {"gamma": 1.0},
                   {"rl_steps": 1, "trajectory_len": 1, "don_steps_per_t": 1}):
        RlConfig(**fields)


@pytest.mark.parametrize("cls, field", [(ScorerConfig, "don_learning_rate"),
                                        (RlConfig, "policy_learning_rate"),
                                        (RlConfig, "tuning_scale")],
                         ids=["ScorerConfig-learning_rate", "RlConfig-policy_lr",
                              "RlConfig-tuning_scale"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_configs_refuse_rates_not_finite_and_positive(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


def test_policy_checkpoint_round_trip(tmp_path):
    policy = init_policy(6, hidden=8, seed=3)
    path = str(tmp_path / "policy.npz")
    policy.save(path)
    again = TuningPolicy.load(path)
    for name, arr in policy.params().items():
        assert np.array_equal(arr, again.params()[name])


def test_policy_checkpoint_rejects_missing_key_and_bad_shape(tmp_path):
    params = init_policy(6, hidden=8, seed=3).params()
    np.savez(tmp_path / "nokind.npz", format_version=CHECKPOINT_VERSION, n=6, seed=3, **params)
    np.savez(tmp_path / "narrow.npz", kind="tuning_policy", format_version=CHECKPOINT_VERSION,
             n=6, seed=3, **{**params, "W2": params["W2"][:, :5]})
    for name in ("nokind.npz", "narrow.npz"):
        with pytest.raises(ValueError):
            TuningPolicy.load(str(tmp_path / name))


def test_policy_checkpoint_refuses_version_1_and_float64(tmp_path):
    policy = init_policy(6, hidden=8, seed=3)
    np.savez(tmp_path / "v1.npz", kind="tuning_policy", format_version=1, n=6, seed=3,
             **policy.params())
    float64_copy(policy).save(str(tmp_path / "f64.npz"))
    with pytest.raises(ValueError, match="unsupported checkpoint version 1, expected 2$"):
        TuningPolicy.load(str(tmp_path / "v1.npz"))
    with pytest.raises(ValueError, match="parameters must be float32, but W1 is float64"):
        TuningPolicy.load(str(tmp_path / "f64.npz"))


def test_checkpoint_kinds_refuse_each_other(tmp_path):
    # With an embedding width of n the scorer's first two layers chain
    # n -> hidden -> n, as a policy's do, so only the kind tells the two
    # archives apart.
    scorer_path, policy_path = str(tmp_path / "m.npz"), str(tmp_path / "m.npz.policy.npz")
    save_scorer(SetScorer.glorot((6, 8, 6, 8, 6), 0), scorer_path)
    init_policy(6, hidden=8, seed=0).save(policy_path)
    with pytest.raises(ValueError, match="^not a set_scorer checkpoint: "):
        load_scorer(policy_path)
    with pytest.raises(ValueError, match="^not a tuning_policy checkpoint: "):
        TuningPolicy.load(scorer_path)
