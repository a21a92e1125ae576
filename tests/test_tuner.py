from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphorder.graph import Graph, gen_power_law
from graphorder.locality import MatrixSimilarity, as_similarity
from graphorder.optim import RmspropState
from graphorder.scorer import (ScorerConfig, TrainingDiverged, TrainLog, forward_batch,
                               init_scorer, load_scorer, rmse, save_scorer)
from graphorder.tuner import (RewardBaseline, RlConfig, apply_action,
                              build_eval_set, check_prob, default_floor,
                              discounted_returns, grow_best_neighbor,
                              init_policy, initial_prob, load_policy, log_prob_grad,
                              policy_forward, reinforce_update,
                              sample_action, save_policy, train_scorer_rl)

from conftest import numeric_gradient, random_digraph


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


class TestLogProbGradient:
    def test_matches_finite_differences_three_vertices(self):
        policy = init_policy(3, hidden=5, seed=4)
        state = np.array([0.2, 0.3, 0.5])
        action = np.array([1, 0, 1])
        _, grads = log_prob_grad(policy, state, action)
        numeric = numeric_gradient(lambda: log_prob_grad(policy, state, action)[0],
                                   policy.params())
        for name, g in grads.items():
            err = np.abs(g - numeric[name]) / np.maximum(np.abs(numeric[name]), 1e-6)
            assert err.max() < 1e-4, name


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
    def test_growth_on_worked_fixture(self, five_sim):
        # from vertex 0 the best neighbor is 1 (similarity 2)
        grown = grow_best_neighbor(MatrixSimilarity(five_sim), 0, 2)
        assert grown.tolist() == [0, 1]

    def test_growth_tie_breaks_small_id(self):
        grown = grow_best_neighbor(MatrixSimilarity(np.zeros((4, 4), dtype=int)), 2, 3)
        assert grown.tolist() == [2, 0, 1]

    def test_examples_distinct_members_and_deterministic(self):
        g = random_digraph(np.random.default_rng(7), 12, 0.3)
        a = build_eval_set(g, 4, 20, seed=9, source=as_similarity(g))
        b = build_eval_set(g, 4, 20, seed=9, source=as_similarity(g))
        for xa, xb in zip(a, b):
            assert np.array_equal(xa.input_set, xb.input_set)
            assert np.unique(xa.input_set).size == 3

    def test_fixture_label(self, five_sim):
        # growing from 0 gives {0, 1}; its label is the worked soft label
        src = MatrixSimilarity(five_sim)
        members = grow_best_neighbor(src, 0, 2)
        from graphorder.scorer import soft_label
        assert np.allclose(soft_label(src, members), [0, 0, 0.2, 0.4, 0.4])

    def test_reward_sign(self):
        model = init_scorer(5, 8, 4, seed=0)
        sets = np.array([[0, 1], [1, 2]])
        labels = forward_batch(model, sets)
        from graphorder.scorer import TrainingExample
        exact = [TrainingExample(s, l) for s, l in zip(sets, labels)]
        assert -rmse(model, exact) == 0.0
        off = [TrainingExample(sets[0], np.array([0, 0, 0.5, 0.5, 0.0]))]
        assert -rmse(model, off) < 0.0


@pytest.fixture(scope="module")
def rl_run():
    g = gen_power_law(24, 1.8, seed=3)
    scfg = ScorerConfig(hidden=24, repr_dim=24, learning_rate=1e-3, batch_size=16)
    rcfg = RlConfig(trajectory_len=3, rl_steps=6, gamma=0.9,
                    tuning_scale=0.15, policy_lr=1e-3, policy_hidden=16,
                    eval_size=24, don_steps_per_t=2, warmup_steps=8)
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

    def test_deterministic(self):
        g = gen_power_law(15, 1.8, seed=4)
        scfg = ScorerConfig(hidden=12, repr_dim=12, batch_size=8)
        rcfg = RlConfig(trajectory_len=2, rl_steps=3, eval_size=8,
                        don_steps_per_t=1, warmup_steps=4, policy_hidden=8)
        _, _, h1 = train_scorer_rl(g, 3, scfg, rcfg, seed=21)
        _, _, h2 = train_scorer_rl(g, 3, scfg, rcfg, seed=21)
        assert np.array_equal(h1.final_prob, h2.final_prob)
        assert h1.rl_rows == h2.rl_rows
        assert h1.don_log.losses == h2.don_log.losses

    @pytest.mark.parametrize("rl_steps, trajectory_len", [(1, 1), (4, 3)])
    def test_history_holds_one_n_wide_array(self, rl_steps, trajectory_len):
        g = gen_power_law(30, 1.8, seed=4)
        scfg = ScorerConfig(hidden=8, repr_dim=8, batch_size=4)
        rcfg = RlConfig(trajectory_len=trajectory_len, rl_steps=rl_steps,
                        eval_size=4, don_steps_per_t=1, warmup_steps=2,
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


def test_rl_config_derives_steps_per_t():
    cfg = RlConfig(trajectory_len=5, rl_steps=50, global_steps=5000,
                   don_steps_per_t=None)
    assert cfg.resolved_steps_per_t() == 20
    assert RlConfig(don_steps_per_t=7).resolved_steps_per_t() == 7


@pytest.mark.parametrize("cls, field", [(ScorerConfig, "learning_rate"),
                                        (RlConfig, "policy_lr"), (RlConfig, "tuning_scale")])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_configs_refuse_rates_not_finite_and_positive(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


def test_policy_checkpoint_round_trip(tmp_path):
    policy = init_policy(6, hidden=8, seed=3)
    path = str(tmp_path / "policy.npz")
    save_policy(policy, path)
    again = load_policy(path)
    for name, arr in policy.params().items():
        assert np.array_equal(arr, again.params()[name])


def test_policy_checkpoint_rejects_missing_key_and_bad_shape(tmp_path):
    params = init_policy(6, hidden=8, seed=3).params()
    np.savez(tmp_path / "nokind.npz", format_version=1, n=6, seed=3, **params)
    np.savez(tmp_path / "narrow.npz", kind="tuning_policy", format_version=1, n=6,
             seed=3, **{**params, "W2": params["W2"][:, :5]})
    for name in ("nokind.npz", "narrow.npz"):
        with pytest.raises(ValueError):
            load_policy(str(tmp_path / name))


def test_checkpoint_kinds_refuse_each_other(tmp_path):
    # With repr_dim == n the scorer's first two layers chain n -> hidden -> n,
    # as a policy's do, so only the kind tells the two archives apart.
    scorer_path, policy_path = str(tmp_path / "m.npz"), str(tmp_path / "m.npz.policy.npz")
    save_scorer(init_scorer(6, 8, 6, seed=0), scorer_path)
    save_policy(init_policy(6, hidden=8, seed=0), policy_path)
    with pytest.raises(ValueError, match="^not a set_scorer checkpoint: "):
        load_scorer(policy_path)
    with pytest.raises(ValueError, match="^not a tuning_policy checkpoint: "):
        load_policy(scorer_path)
