"""Permutation-invariant set scorer.

The model scores every vertex as the next extension of an unordered window
set: each member is embedded by a two-layer MLP (``phi``), the embeddings are
sum-pooled, and a second two-layer MLP (``rho``) maps the pooled vector to a
softmax distribution over all vertices.  Sum pooling makes the output exactly
invariant to member order.  Training targets are soft labels proportional to
the windowed locality score of each one-vertex extension.
"""
from __future__ import annotations

import time
import zipfile
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import Graph
from .locality import SimilarityLike, as_similarity, window_set_score
from .optim import AdamState

__all__ = [
    "ScorerConfig",
    "SetScorer",
    "TrainingExample",
    "TrainingDiverged",
    "init_scorer",
    "forward",
    "forward_batch",
    "soft_label",
    "sample_training_batch",
    "stack_batch",
    "cross_entropy",
    "train_step",
    "rmse",
    "model_order",
    "save_scorer",
    "load_scorer",
    "TrainLog",
    "fit",
    "train_scorer",
]

LOG_FLOOR = 1e-12

PARAM_NAMES = ("W1", "b1", "W2", "b2", "V1", "c1", "V2", "c2")


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss or gradient."""


@dataclass
class ScorerConfig:
    """Network and optimizer settings for the set scorer."""

    hidden: int = 64
    repr_dim: int = 64
    learning_rate: float = 1e-3
    batch_size: int = 64


class SetScorer:
    """Parameters of the set scorer for a fixed vertex count ``n``."""

    def __init__(self, n: int, W1, b1, W2, b2, V1, c1, V2, c2, seed: int = -1):
        self.n = n
        self.W1, self.b1, self.W2, self.b2 = W1, b1, W2, b2
        self.V1, self.c1, self.V2, self.c2 = V1, c1, V2, c2
        self.seed = seed

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


def init_scorer(n: int, hidden: int = 64, repr_dim: int = 64, seed: int = 0) -> SetScorer:
    """Fresh scorer with Glorot-uniform weights and zero biases; ``hidden``
    is the width of both the phi and the rho hidden layer."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if min(hidden, repr_dim) < 1:
        raise ValueError("layer sizes must be positive")
    rng = np.random.default_rng(seed)
    return SetScorer(
        n,
        _glorot(rng, n, hidden), np.zeros(hidden),
        _glorot(rng, hidden, repr_dim), np.zeros(repr_dim),
        _glorot(rng, repr_dim, hidden), np.zeros(hidden),
        _glorot(rng, hidden, n), np.zeros(n),
        seed=seed,
    )


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_cache(model: SetScorer, sets: np.ndarray):
    """Forward pass for a (B, m) batch of member-index sets, keeping the
    intermediates needed for backprop.  Indexing rows of W1 is the one-hot
    product written without the multiply."""
    z1 = model.W1[sets] + model.b1            # (B, m, hidden)
    h1 = np.maximum(z1, 0.0)
    phi = h1 @ model.W2 + model.b2            # (B, m, repr_dim)
    pooled = phi.sum(axis=1)                  # (B, repr_dim)
    z2 = pooled @ model.V1 + model.c1         # (B, hidden)
    h2 = np.maximum(z2, 0.0)
    logits = h2 @ model.V2 + model.c2         # (B, n)
    probs = _softmax(logits)
    return z1, h1, pooled, z2, h2, probs


def forward_batch(model: SetScorer, sets: np.ndarray) -> np.ndarray:
    """Probability rows for a (B, m) batch of equally sized sets."""
    sets = np.asarray(sets, dtype=np.int64)
    if sets.ndim != 2 or sets.shape[1] < 1:
        raise ValueError("expected a (B, m) batch with m >= 1")
    return _forward_cache(model, sets)[-1]


def forward(model: SetScorer, members: Sequence[int] | np.ndarray) -> np.ndarray:
    """Probability over all vertices of extending the given non-empty set."""
    members = np.asarray(members, dtype=np.int64)
    if members.size < 1:
        raise ValueError("the window set must hold at least one vertex")
    if np.unique(members).size != members.size:
        raise ValueError("the window set must not repeat vertices")
    return forward_batch(model, members[None, :])[0]


@dataclass
class TrainingExample:
    """An unordered window set and its target extension distribution."""

    input_set: np.ndarray
    soft_label: np.ndarray


def soft_label(source: SimilarityLike, members: Sequence[int] | np.ndarray) -> np.ndarray:
    """Target distribution over next vertices for a window set.

    Each candidate's raw weight is the full pair-sum locality of the set plus
    that candidate; members get zero.  Weights are normalized to sum to one,
    falling back to uniform over non-members when every weight is zero.
    """
    src = as_similarity(source)
    members = np.asarray(members, dtype=np.int64)
    if members.size >= src.n:
        raise ValueError(f"a window set of {members.size} vertices leaves no "
                         f"candidate among {src.n}")
    pair_base = window_set_score(src, members)
    raw = src.scores_against(members).astype(np.float64)
    raw += pair_base
    raw[members] = 0.0
    total = raw.sum()
    if total <= 0.0:
        label = np.full(src.n, 1.0 / (src.n - members.size))
        label[members] = 0.0
        return label
    return raw / total


def _draw(rng: np.random.Generator, cdf: np.ndarray, size) -> np.ndarray:
    """Vertices drawn i.i.d. with weights given by their cumulative sum."""
    v = np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")
    return np.minimum(v, cdf.size - 1)


def _weighted_draws_without_replacement(rng: np.random.Generator, prob: np.ndarray,
                                        k: int, batch: int) -> np.ndarray:
    """``batch`` sorted k-sets drawn from ``prob`` without replacement, as a
    (batch, k) int64 array.

    Every row first takes k i.i.d. draws from one shared CDF.  The first k
    distinct values of an i.i.d. stream are a sequential weighted sample
    without replacement (draw, zero out, renormalize, repeat), so a row whose
    draws are distinct is done.  A row with a repeat keeps its distinct
    vertices and finishes with that sequential step on the same ``rng``.
    """
    p = np.asarray(prob, dtype=np.float64)
    if np.count_nonzero(p > 0) < k:
        raise ValueError("sampling distribution has no remaining mass")
    sets = np.sort(_draw(rng, np.cumsum(p), (batch, k)), axis=1)
    for row in np.flatnonzero((sets[:, 1:] == sets[:, :-1]).any(axis=1)):
        members = np.unique(sets[row])
        rest = p.copy()
        rest[members] = 0.0
        extra = np.empty(k - members.size, dtype=np.int64)
        for i in range(extra.size):
            extra[i] = _draw(rng, np.cumsum(rest), None)
            rest[extra[i]] = 0.0
        sets[row] = np.sort(np.concatenate([members, extra]))
    return sets


def sample_training_batch(source: SimilarityLike, prob: np.ndarray, w: int, batch: int,
                          seed: int | np.random.Generator) -> list[TrainingExample]:
    """Draw ``batch`` window sets of size w-1 (weighted, without replacement)
    and label each with its extension distribution under ``source``."""
    src = as_similarity(source)
    if batch < 1:
        raise ValueError("batch size must be positive")
    if w - 1 > src.n:
        raise ValueError("window exceeds the vertex count")
    if w < 2:
        raise ValueError("training sets need w >= 2")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sets = _weighted_draws_without_replacement(rng, prob, w - 1, batch)
    return [TrainingExample(members, soft_label(src, members)) for members in sets]


def stack_batch(examples: Sequence[TrainingExample]) -> tuple[np.ndarray, np.ndarray]:
    sizes = {ex.input_set.size for ex in examples}
    if len(sizes) != 1:
        raise ValueError("batch examples must share one set size")
    sets = np.stack([ex.input_set for ex in examples])
    labels = np.stack([ex.soft_label for ex in examples])
    return sets, labels


def cross_entropy(pred: np.ndarray, label: np.ndarray) -> float:
    """Cross entropy with a numeric floor inside the log (natural log)."""
    return float(-(label * np.log(np.maximum(pred, LOG_FLOOR))).sum(axis=-1).mean())


def _loss_and_grads(model: SetScorer, sets: np.ndarray,
                    labels: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy loss of a (B, m) batch and its gradient for every
    parameter.  Gradients flow through rho, the sum pooling, and phi; they
    are averaged over the batch."""
    z1, h1, pooled, z2, h2, probs = _forward_cache(model, sets)
    loss = cross_entropy(probs, labels)
    bsz = sets.shape[0]
    d_logits = (probs - labels) / bsz        # softmax + cross entropy
    d_V2 = h2.T @ d_logits
    d_c2 = d_logits.sum(axis=0)
    d_z2 = (d_logits @ model.V2.T) * (z2 > 0)
    d_V1 = pooled.T @ d_z2
    d_c1 = d_z2.sum(axis=0)
    d_pooled = d_z2 @ model.V1.T             # (B, repr_dim)
    d_phi = np.broadcast_to(d_pooled[:, None, :], h1.shape[:2] + (d_pooled.shape[1],))
    flat_h1 = h1.reshape(-1, h1.shape[2])
    flat_dphi = d_phi.reshape(-1, d_phi.shape[2])
    d_W2 = flat_h1.T @ flat_dphi
    d_b2 = flat_dphi.sum(axis=0)
    d_z1 = (d_phi @ model.W2.T) * (z1 > 0)
    d_b1 = d_z1.sum(axis=(0, 1))
    d_W1 = np.zeros_like(model.W1)
    np.add.at(d_W1, sets.ravel(), d_z1.reshape(-1, d_z1.shape[2]))
    return loss, {"W1": d_W1, "b1": d_b1, "W2": d_W2, "b2": d_b2,
                  "V1": d_V1, "c1": d_c1, "V2": d_V2, "c2": d_c2}


def train_step(model: SetScorer, batch: Sequence[TrainingExample],
               opt: AdamState, lr: float) -> float:
    """One full backprop + Adam update on a batch; returns the mean loss."""
    sets, labels = stack_batch(batch)
    loss, grads = _loss_and_grads(model, sets, labels)
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss!r}; check inputs and learning rate")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in {name}")
    opt.step(model.params(), grads, lr)
    return loss


def rmse(model: SetScorer, eval_set: Sequence[TrainingExample]) -> float:
    """Root mean square error over all examples and vector components."""
    if not eval_set:
        raise ValueError("evaluation set is empty")
    sets, labels = stack_batch(eval_set)
    preds = forward_batch(model, sets)
    return float(np.sqrt(np.mean((preds - labels) ** 2)))


def model_order(g: Graph, model: SetScorer, w: int,
                start: int | None = None) -> np.ndarray:
    """Greedy decode: repeatedly append the unplaced vertex the scorer ranks
    highest against the last ``min(placed, w-1)`` placed vertices.

    Placed vertices are masked to -inf before the argmax, so the result is
    always a bijection.  The first vertex defaults to the highest-degree one
    (ties to the smallest id) and can be overridden.
    """
    if g.n != model.n:
        raise ValueError(f"model built for n={model.n}, graph has n={g.n}")
    n = g.n
    if start is None:
        start = int(np.argmax(g.total_degrees()))
    elif not 0 <= start < n:
        raise ValueError("start vertex out of range")
    window = max(1, w - 1)
    order = np.empty(n, dtype=np.int64)
    order[0] = start
    placed = np.zeros(n, dtype=bool)
    placed[start] = True
    for i in range(1, n):
        recent = order[max(0, i - window):i]
        scores = forward(model, recent).copy()
        scores[placed] = -np.inf
        v = int(np.argmax(scores))
        order[i] = v
        placed[v] = True
    return order


CHECKPOINT_VERSION = 1


def save_scorer(model: SetScorer, path: str) -> None:
    """Write a checkpoint that restores the model bit-exactly."""
    np.savez(path, kind="set_scorer", format_version=CHECKPOINT_VERSION,
             n=model.n, seed=model.seed, **model.params())


def _read_checkpoint(path: str, kind: str, version: int,
                     names: Sequence[str]) -> tuple[int, int, list[np.ndarray]]:
    """Vertex count, seed and parameter arrays of a checkpoint archive.
    ``names`` are weight/bias pairs of dense layers that must chain from width
    n back to width n; any other archive raises ValueError."""
    try:
        data = np.load(path)
    except (EOFError, ValueError, zipfile.BadZipFile):  # ValueError: a pickle or text file
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"not an npz archive: {path}")
    with data:
        if "kind" not in data.files or str(data["kind"]) != kind:
            raise ValueError(f"not a {kind} checkpoint: {path}")
        missing = [key for key in ("format_version", "n", "seed", *names)
                   if key not in data.files]
        if missing:
            raise ValueError(f"{path}: checkpoint lacks {', '.join(missing)}")
        if int(data["format_version"]) != version:
            raise ValueError("unsupported checkpoint version")
        n, seed, arrays = int(data["n"]), int(data["seed"]), [data[k] for k in names]
    weights, biases = arrays[::2], arrays[1::2]
    if (any(w.ndim != 2 or b.shape != w.shape[1:] for w, b in zip(weights, biases))
            or [n] + [w.shape[1] for w in weights] != [w.shape[0] for w in weights] + [n]):
        raise ValueError(f"{path}: parameter shapes do not fit a model with n={n}")
    return n, seed, arrays


def load_scorer(path: str) -> SetScorer:
    n, seed, arrays = _read_checkpoint(path, "set_scorer", CHECKPOINT_VERSION, PARAM_NAMES)
    return SetScorer(n, *arrays, seed=seed)


@dataclass
class TrainLog:
    """Scorer training log: the loss of every step (step k is entry k - 1),
    its wall-clock offset from the log's creation, and the (step, rmse)
    points the caller chose to keep."""

    losses: list[float] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    rmse_points: list[tuple[int, float]] = field(default_factory=list)
    t0: float = field(default_factory=time.perf_counter)


def fit(model: SetScorer, opt: AdamState, src: SimilarityLike,
        prob: np.ndarray, w: int, steps: int, cfg: ScorerConfig,
        rng: np.random.Generator, log: TrainLog,
        eval_set: Sequence[TrainingExample] | None = None,
        eval_every: int = 50) -> list[tuple[int, float]]:
    """Take ``steps`` scorer steps, each on a fresh batch drawn from ``prob``,
    appending every loss to ``log``.

    When an evaluation set is given, RMSE is measured every ``eval_every``
    steps of this call and after its last step.  Returns those (step, rmse)
    points, numbering steps by ``len(log.losses)`` so that they stay global
    across calls sharing a log.
    """
    if eval_every < 1:
        raise ValueError(f"eval_every must be positive, got {eval_every}")
    points = []
    for k in range(1, steps + 1):
        batch = sample_training_batch(src, prob, w, cfg.batch_size, rng)
        log.losses.append(train_step(model, batch, opt, cfg.learning_rate))
        # Free the batch's n-wide labels before the next batch or the RMSE
        # allocates, so that two batches never coexist.
        del batch
        log.wall_times.append(time.perf_counter() - log.t0)
        if eval_set is not None and (k % eval_every == 0 or k == steps):
            points.append((len(log.losses), rmse(model, eval_set)))
    return points


def train_scorer(g: Graph, w: int, steps: int, cfg: ScorerConfig, seed: int, *,
                 source: SimilarityLike,
                 eval_set: Sequence[TrainingExample] | None = None,
                 eval_every: int = 50) -> tuple[SetScorer, TrainLog]:
    """Train a fresh scorer for ``steps`` steps on ``g``'s degree-based
    sampling distribution, keeping the RMSE points of :func:`fit` in the log.
    Labels come from ``source``, the similarity of ``g`` that the caller
    built."""
    from .tuner import initial_prob  # degree-based default sampler

    init_seed, batch_seed = np.random.SeedSequence(seed).spawn(2)
    model = init_scorer(g.n, cfg.hidden, cfg.repr_dim, seed=int(init_seed.generate_state(1)[0]))
    log = TrainLog()
    log.rmse_points = fit(model, AdamState(), as_similarity(source), initial_prob(g), w,
                          steps, cfg, np.random.default_rng(batch_seed), log,
                          eval_set, eval_every)
    return model, log
