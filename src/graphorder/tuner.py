"""Sampling-probability tuning for scorer training.

The training-set sampler draws window sets from a per-vertex probability
vector.  A small policy network reads that vector and emits an independent
increase/decrease bit per vertex (1 = decrease); the chosen bits shift each
probability by a fixed tuning rate before the vector is re-projected onto
the floored simplex.  The policy is trained with REINFORCE against rewards
equal to the negated evaluation RMSE of the scorer, using a moving-average
baseline, while the scorer itself keeps training on batches drawn from the
evolving distribution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph, check_positive
from .locality import SimilaritySource, _check_window_size, as_similarity
from .optim import AdamState, RmspropState
from .scorer import (DECODE_MIN_WINDOW, DTYPE, LOG_FLOOR, Network, ScorerConfig, SetScorer,
                     TrainLog, _check_rates, _labeled_sets, fit, init_scorer)

__all__ = [
    "EPS_FLOOR_SCALE",
    "default_floor",
    "check_prob",
    "initial_prob",
    "TuningPolicy",
    "init_policy",
    "policy_forward",
    "sample_action",
    "apply_action",
    "log_prob_grad",
    "RewardBaseline",
    "RlConfig",
    "RlHistory",
    "build_eval_set",
    "discounted_returns",
    "reinforce_update",
    "train_scorer",
    "train_scorer_rl",
]

EPS_FLOOR_SCALE = 1e-6
# Weight the reward baseline keeps on its old value at each update.
BASELINE_DECAY = 0.9


def default_floor(n: int) -> float:
    """Smallest probability any vertex may keep."""
    return EPS_FLOOR_SCALE / n


def check_prob(p: np.ndarray) -> None:
    """Assert the sampling-distribution invariants: floored and normalized."""
    floor = default_floor(p.size)
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    if float(p.min()) < floor:
        raise ValueError(f"probability {p.min()!r} below floor {floor!r}")


def _project_to_floor(raw: np.ndarray) -> np.ndarray:
    """Clamp at the floor, then rescale the above-floor mass so the vector
    sums to one while every entry stays at or above the floor."""
    floor = default_floor(raw.size)
    clamped = np.maximum(raw, floor)
    excess = clamped - floor
    total = excess.sum()
    n = raw.size
    if total <= 0.0:
        return np.full(n, 1.0 / n)
    return floor + excess * ((1.0 - n * floor) / total)


def initial_prob(g: Graph) -> np.ndarray:
    """Degree-proportional sampling distribution (uniform on edgeless graphs),
    floored and normalized."""
    if g.n < 1:
        raise ValueError("need at least one vertex")
    deg = g.total_degrees().astype(np.float64)
    total = deg.sum()
    raw = np.full(g.n, 1.0 / g.n) if total == 0 else deg / total
    return _project_to_floor(raw)


class TuningPolicy(Network):
    """Two-layer MLP mapping the sampling vector to per-vertex action
    probabilities (sigmoid outputs)."""

    KIND = "tuning_policy"
    NAMES = ("W1", "b1", "W2", "b2")


def init_policy(n: int, hidden: int, seed: int) -> TuningPolicy:
    return TuningPolicy.glorot((n, hidden, n), seed)


def _logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) in float64, rounded once to z's dtype; below zero it is
    e / (1 + e) with e = exp(z), so exp never overflows (it may underflow to 0)."""
    t = np.asarray(z, dtype=np.float64)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(t))
        return (np.where(t < 0, e, 1.0) / (1.0 + e)).astype(z.dtype)


def _policy_cache(policy: TuningPolicy, state: np.ndarray):
    """The policy's input, the float64 sampling vector cast once to ``DTYPE``,
    and the intermediates backprop needs."""
    x = np.asarray(state, dtype=DTYPE)
    z1 = x @ policy.W1 + policy.b1
    h = np.maximum(z1, 0.0)
    q = _logistic(h @ policy.W2 + policy.b2)
    return x, z1, h, q


def policy_forward(policy: TuningPolicy, state: np.ndarray) -> np.ndarray:
    """Per-vertex probability of the decrease action, inside [0, 1]."""
    return _policy_cache(policy, state)[3]


def sample_action(q: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli draw per vertex; 1 selects decrease."""
    return (rng.random(q.size) < q).astype(np.int64)


def apply_action(state: np.ndarray, action: np.ndarray, rate: float) -> np.ndarray:
    """Shift each probability by the tuning rate (up where the action bit is
    0, down where it is 1), then re-project onto the floored simplex."""
    _check_rates(rate=rate)
    return _project_to_floor(state + np.where(action == 0, rate, -rate))


def log_prob_grad(policy: TuningPolicy, state: np.ndarray,
                  action: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Log-likelihood of an action vector under the policy's independent
    Bernoulli outputs, and its gradient with respect to the policy
    parameters.  The log-likelihood is taken in float64: in float32,
    ``1 - LOG_FLOOR`` rounds to 1, and a saturated ``q`` would give nan."""
    x, z1, h, q = _policy_cache(policy, state)
    qc = np.clip(q, LOG_FLOOR, 1.0 - LOG_FLOOR, dtype=np.float64)
    logp = float((action * np.log(qc) + (1 - action) * np.log(1.0 - qc)).sum())
    d_z2 = np.subtract(action, q, dtype=q.dtype)  # d logp / d pre-sigmoid
    d_z1 = (policy.W2 @ d_z2) * (z1 > 0)
    return logp, {"W1": np.outer(x, d_z1), "b1": d_z1,
                  "W2": np.outer(h, d_z2), "b2": d_z2}


@dataclass
class RewardBaseline:
    """Exponential moving average of observed rewards (decay BASELINE_DECAY).

    Seeded by the first observation, so it always stays inside the range of
    rewards seen so far.
    """

    value: float | None = None

    def update(self, reward: float) -> None:
        if self.value is None:
            self.value = float(reward)
        else:
            self.value = (BASELINE_DECAY * self.value
                          + (1.0 - BASELINE_DECAY) * float(reward))


@dataclass
class RlConfig:
    """Hyper-parameters of the tuning loop (the scorer's own: ``ScorerConfig``).

    ``tuning_scale`` is the per-entry shift expressed as a multiple of the
    uniform mass: the applied rate is ``tuning_scale / n``.
    ``don_steps_per_t`` is the number of scorer steps per tuning step.
    """

    policy_learning_rate: float = 1e-3
    policy_hidden: int = 64
    trajectory_len: int = 5
    rl_steps: int = 50
    gamma: float = 0.95
    tuning_scale: float = 0.15
    don_steps_per_t: int = 20
    warmup_steps: int = 50

    def __post_init__(self):
        _check_rates(tuning_scale=self.tuning_scale,
                     policy_learning_rate=self.policy_learning_rate)
        check_positive(rl_steps=self.rl_steps, trajectory_len=self.trajectory_len,
                       policy_hidden=self.policy_hidden, don_steps_per_t=self.don_steps_per_t)
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must not be negative, got {self.warmup_steps}")
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")


def build_eval_set(src: SimilaritySource, prob: np.ndarray, w: int, size: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed evaluation set: one training batch of ``size`` window sets drawn
    from ``prob`` by a generator seeded with ``seed``, as a (size, w-1) array
    of sets and the (size, n) block of their soft labels under ``src``."""
    check_positive(size=size)
    return _labeled_sets(src, prob, w, size, np.random.default_rng(seed))


def discounted_returns(rewards: Sequence[float], gamma: float) -> list[float]:
    """Suffix returns R_t = r_t + gamma * R_{t+1}, computed backward."""
    acc = 0.0
    out = [0.0] * len(rewards)
    for t in range(len(rewards) - 1, -1, -1):
        acc = float(rewards[t]) + gamma * acc
        out[t] = acc
    return out


def reinforce_update(policy: TuningPolicy, states: Sequence[np.ndarray],
                     actions: Sequence[np.ndarray], rewards: Sequence[float],
                     gamma: float, alpha: float, baseline: RewardBaseline,
                     opt: RmspropState) -> None:
    """Policy-gradient ascent over one trajectory: the states acted on, the
    sampled action bits and the rewards observed after each action.

    Each step's advantage is its discounted suffix return minus the reward
    baseline as it stood before that step's reward was absorbed; gradients of
    the Bernoulli log-likelihood are summed over the trajectory.
    """
    if not rewards:
        raise ValueError("empty trajectory")
    returns = discounted_returns(rewards, gamma)
    total = {name: np.zeros_like(p) for name, p in policy.params().items()}
    for state, action, reward, ret in zip(states, actions, rewards, returns, strict=True):
        b = baseline.value if baseline.value is not None else reward
        advantage = ret - b
        _, grads = log_prob_grad(policy, state, action)
        for name in total:
            total[name] += advantage * grads[name]
        baseline.update(reward)
    policy.update(opt, total, alpha)


def train_scorer(g: Graph, w: int, cfg: ScorerConfig, seed: int) -> tuple[SetScorer, TrainLog]:
    """Train a fresh scorer for ``cfg.global_steps`` steps on ``g``'s
    degree-based distribution; its log holds the RMSE points that :func:`fit`
    measures on an eval set of ``cfg.eval_size`` examples built with ``seed + 1``."""
    _check_window_size(w, DECODE_MIN_WINDOW, g.n)
    src = as_similarity(g)
    prob = initial_prob(g)
    eval_set = build_eval_set(src, prob, w, cfg.eval_size, seed + 1)
    init_seed, batch_seed = np.random.SeedSequence(seed).spawn(2)
    model = init_scorer(g.n, cfg.hidden, seed=int(init_seed.generate_state(1)[0]))
    log = TrainLog()
    fit(model, AdamState(), src, prob, w, cfg.global_steps, cfg,
        np.random.default_rng(batch_seed), log, eval_set, cfg.eval_every)
    return model, log


@dataclass
class RlHistory:
    """What a run logs: the scorer's training log, one
    ``(rl_step, t, reward, baseline, mean_action_prob)`` row per tuning step,
    and the sampling distribution the run ended on."""

    don_log: TrainLog
    rl_rows: list[tuple[int, int, float, float | None, float]]
    final_prob: np.ndarray


def train_scorer_rl(g: Graph, w: int, scorer_cfg: ScorerConfig, rl_cfg: RlConfig,
                    seed: int) -> tuple[SetScorer, TuningPolicy, RlHistory]:
    """Interleaved training of the scorer and the sampling tuner.

    The scorer first warms up on the degree-based distribution, whose RMSE
    points seed the reward baseline.  Each tuning step then rolls a
    trajectory: sample an action, shift and re-project the distribution,
    train the scorer on batches drawn from it, and take the reward (the
    negated RMSE on the fixed evaluation set) from the point that training
    logs after its last step; the policy updates once per trajectory, and the
    trajectory is dropped after its update.
    """
    _check_window_size(w, DECODE_MIN_WINDOW, g.n)
    ss = np.random.SeedSequence(seed)
    s_init, s_policy, s_batch, s_action, s_eval = ss.spawn(5)
    src = as_similarity(g)
    rate = rl_cfg.tuning_scale / g.n

    model = init_scorer(g.n, scorer_cfg.hidden, seed=int(s_init.generate_state(1)[0]))
    policy = init_policy(g.n, rl_cfg.policy_hidden,
                         seed=int(s_policy.generate_state(1)[0]))
    adam = AdamState()
    rms = RmspropState()
    batch_rng = np.random.default_rng(s_batch)
    action_rng = np.random.default_rng(s_action)
    prob = initial_prob(g)
    eval_set = build_eval_set(src, prob, w, scorer_cfg.eval_size,
                              int(s_eval.generate_state(1)[0]))
    baseline = RewardBaseline()
    don_log = TrainLog()
    rl_rows = []

    fit(model, adam, src, prob, w, rl_cfg.warmup_steps, scorer_cfg, batch_rng, don_log,
        eval_set, max(1, rl_cfg.warmup_steps // 5))
    for _, err in don_log.rmse_points:
        baseline.update(-err)

    for rl_step in range(rl_cfg.rl_steps):
        states, actions, rewards = [], [], []
        for t in range(rl_cfg.trajectory_len):
            q = policy_forward(policy, prob)
            action = sample_action(q, action_rng)
            states.append(prob)
            actions.append(action)
            prob = apply_action(prob, action, rate)
            fit(model, adam, src, prob, w, rl_cfg.don_steps_per_t, scorer_cfg, batch_rng,
                don_log, eval_set, rl_cfg.don_steps_per_t)
            rewards.append(-don_log.rmse_points[-1][1])
            rl_rows.append((rl_step, t, rewards[-1], baseline.value, float(q.mean())))
        reinforce_update(policy, states, actions, rewards, rl_cfg.gamma,
                         rl_cfg.policy_learning_rate, baseline, rms)

    return model, policy, RlHistory(don_log, rl_rows, prob)
