"""Permutation-invariant set scorer.

The model scores every vertex as the next extension of an unordered window
set: each member is embedded by a two-layer MLP (``phi``), the embeddings are
sum-pooled, and a second two-layer MLP (``rho``) maps the pooled vector to a
softmax distribution over all vertices.  Sum pooling makes the output exactly
invariant to member order.  Training targets are soft labels proportional to
the windowed locality score of each one-vertex extension.  ``Network``, shared
with the tuning policy, holds the parameters, initializer and checkpoint format.
Both networks compute in ``DTYPE``: their parameters, gradients, optimizer
moments, label blocks and the decode's mask.
"""
from __future__ import annotations

import time
import zipfile
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import Graph, check_ids, check_positive
from .locality import SimilaritySource, _check_window_size, window_set_score
from .optim import AdamState, RmspropState

__all__ = [
    "ScorerConfig",
    "Network",
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
]

LOG_FLOOR = 1e-12
# The float type of both networks, written once.  Float32 halves the bytes of
# every n-wide array a training or decode step reads.
DTYPE = np.float32
# The window sets of training and of the decode hold w - 1 vertices and must
# not be empty.
DECODE_MIN_WINDOW = 2


class TrainingDiverged(RuntimeError):
    """Raised when training produces a non-finite loss, gradient or RMSE."""


def _check_rates(**rates: float) -> None:
    """Refuse a step size or rate that is not finite and positive."""
    for name, value in rates.items():
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class ScorerConfig:
    """Every setting scorer training reads."""

    hidden: int = 64
    don_learning_rate: float = 1e-3
    batch_size: int = 64
    global_steps: int = 5000
    eval_size: int = 2000
    eval_every: int = 50

    def __post_init__(self):
        _check_rates(don_learning_rate=self.don_learning_rate)
        check_positive(hidden=self.hidden, batch_size=self.batch_size,
                       global_steps=self.global_steps, eval_size=self.eval_size,
                       eval_every=self.eval_every)


CHECKPOINT_VERSION = 2


class Network:
    """Dense layers chaining width n back to width n: the weight/bias pairs a
    subclass names in ``NAMES``, saved in checkpoints tagged with its ``KIND``."""

    KIND: str
    NAMES: tuple[str, ...]

    def __init__(self, n: int, arrays: Sequence[np.ndarray], seed: int):
        self.n, self.seed = n, seed
        for name, arr in zip(self.NAMES, arrays, strict=True):
            setattr(self, name, arr)

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.NAMES}

    @classmethod
    def glorot(cls, widths: Sequence[int], seed: int):
        """Fresh network mapping each width to the next: Glorot-uniform weights
        and zero biases, drawn layer by layer from one generator in float64 and
        held as ``DTYPE``."""
        if min(widths) < 1:
            raise ValueError(f"layer widths must be positive, got {tuple(widths)}")
        rng = np.random.default_rng(seed)
        arrays = []
        for fan_in, fan_out in zip(widths, widths[1:]):
            scale = np.sqrt(6.0 / (fan_in + fan_out))
            arrays += [rng.uniform(-scale, scale, size=(fan_in, fan_out)).astype(DTYPE),
                       np.zeros(fan_out, dtype=DTYPE)]
        return cls(widths[0], arrays, seed)

    def update(self, opt: AdamState | RmspropState, grads: dict[str, np.ndarray],
               lr: float) -> None:
        """One optimizer step, refused with TrainingDiverged on a non-finite
        gradient.  The step consumes ``grads``: it pops each gradient and
        reuses it as scratch, so no spent gradient outlives its parameter's
        update and ``grads`` is empty afterwards."""
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise TrainingDiverged(f"non-finite {self.KIND} gradient in {name}")
        opt.step(self.params(), grads, lr)

    def save(self, path: str) -> None:
        """Write a checkpoint that restores the network bit-exactly."""
        np.savez(path, kind=self.KIND, format_version=CHECKPOINT_VERSION,
                 n=self.n, seed=self.seed, **self.params())

    @classmethod
    def load(cls, path: str):
        """Read a checkpoint of this ``KIND``; any other archive, another
        version, arrays not of ``DTYPE``, or arrays that do not chain from
        width n back to width n, raise ValueError."""
        try:
            data = np.load(path)
        except (EOFError, ValueError, zipfile.BadZipFile):  # ValueError: a pickle or text file
            data = None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"not an npz archive: {path}")
        with data:
            if "kind" not in data.files or str(data["kind"]) != cls.KIND:
                raise ValueError(f"not a {cls.KIND} checkpoint: {path}")
            missing = [key for key in ("format_version", "n", "seed", *cls.NAMES)
                       if key not in data.files]
            if missing:
                raise ValueError(f"{path}: checkpoint lacks {', '.join(missing)}")
            if int(data["format_version"]) != CHECKPOINT_VERSION:
                raise ValueError(f"{path}: unsupported checkpoint version "
                                 f"{int(data['format_version'])}, expected {CHECKPOINT_VERSION}")
            n, seed, arrays = int(data["n"]), int(data["seed"]), [data[k] for k in cls.NAMES]
        wrong = [f"{k} is {a.dtype}" for k, a in zip(cls.NAMES, arrays) if a.dtype != DTYPE]
        if wrong:
            raise ValueError(f"{path}: parameters must be {np.dtype(DTYPE)}, "
                             f"but {', '.join(wrong)}")
        weights, biases = arrays[::2], arrays[1::2]
        if (any(w.ndim != 2 or b.shape != w.shape[1:] for w, b in zip(weights, biases))
                or [n] + [w.shape[1] for w in weights] != [w.shape[0] for w in weights] + [n]):
            raise ValueError(f"{path}: parameter shapes do not fit a model with n={n}")
        return cls(n, arrays, seed)


class SetScorer(Network):
    """Parameters of the set scorer for a fixed vertex count ``n``."""

    KIND = "set_scorer"
    NAMES = ("W1", "b1", "W2", "b2", "V1", "c1", "V2", "c2")


def init_scorer(n: int, hidden: int, seed: int) -> SetScorer:
    """Fresh scorer; ``hidden`` is the width of phi's hidden layer, of the
    member embedding and of rho's hidden layer."""
    return SetScorer.glorot((n, hidden, hidden, hidden, n), seed)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``z``."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _forward_cache(model: SetScorer, sets: np.ndarray):
    """Forward pass for a (B, m) batch of sets, each m >= 1 distinct ids in
    [0, n), keeping the intermediates needed for backprop.  Indexing rows of
    W1 is the one-hot product written without the multiply, so the ids are
    checked first."""
    sets = np.asarray(sets, dtype=np.int64)
    if sets.ndim != 2 or sets.shape[1] < 1:
        raise ValueError("expected a (B, m) batch with m >= 1")
    for row in sets:
        check_ids(row, model.n)
    z1 = model.W1[sets] + model.b1            # (B, m, hidden)
    h1 = np.maximum(z1, 0.0)
    phi = h1 @ model.W2 + model.b2            # (B, m, hidden)
    pooled = phi.sum(axis=1)                  # (B, hidden)
    z2 = pooled @ model.V1 + model.c1         # (B, hidden)
    h2 = np.maximum(z2, 0.0)
    logits = h2 @ model.V2                    # (B, n)
    logits += model.c2
    probs = _softmax(logits)
    return z1, h1, pooled, z2, h2, probs


def forward_batch(model: SetScorer, sets: np.ndarray) -> np.ndarray:
    """Probability rows for a (B, m) batch of equally sized sets of distinct ids."""
    return _forward_cache(model, sets)[-1]


def forward(model: SetScorer, members: Sequence[int] | np.ndarray) -> np.ndarray:
    """Probability over all vertices of extending the given non-empty set."""
    return forward_batch(model, np.asarray(members, dtype=np.int64)[None, :])[0]


@dataclass
class TrainingExample:
    """An unordered window set and its target extension distribution."""

    input_set: np.ndarray
    soft_label: np.ndarray


def soft_label(src: SimilaritySource, members: Sequence[int] | np.ndarray) -> np.ndarray:
    """Target distribution over next vertices for a window set.

    Each candidate's raw weight is the full pair-sum locality of the set plus
    that candidate; members get zero.  Weights are normalized to sum to one,
    falling back to uniform over non-members when every weight is zero.  The
    label is summed and normalized in float64 and returned as ``DTYPE``.
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size >= src.n:
        raise ValueError(f"a window set of {members.size} vertices leaves no "
                         f"candidate among {src.n}")
    raw = np.add(src.scores_against(members), window_set_score(src, members),
                 dtype=np.float64)
    raw[members] = 0.0
    total = raw.sum()
    if total <= 0.0:
        raw[:] = 1.0 / (raw.size - members.size)
        raw[members] = 0.0
    else:
        raw /= total
    return raw.astype(DTYPE)


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


def _labeled_sets(src: SimilaritySource, prob: np.ndarray, w: int, batch: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``batch`` window sets of size w-1 drawn from ``prob`` (weighted, without
    replacement), as a (batch, w-1) array, and the (batch, n) block of their
    soft labels under ``src``.  A negative or non-finite weight is refused, and
    the block is reserved, before any set is drawn, so a batch too large fails
    at once."""
    check_positive(batch=batch)
    _check_window_size(w, DECODE_MIN_WINDOW, src.n)
    if np.shape(prob) != (src.n,):
        raise ValueError(f"prob has shape {np.shape(prob)}, source has n={src.n}")
    p = np.asarray(prob)
    bad = np.flatnonzero(~(np.isfinite(p) & (p >= 0)))
    if bad.size:
        raise ValueError(f"prob must be finite and non-negative, got prob[{bad[0]}] = {p[bad[0]]}")
    labels = np.empty((batch, src.n), dtype=DTYPE)
    sets = _weighted_draws_without_replacement(rng, prob, w - 1, batch)
    for members, label in zip(sets, labels):
        label[:] = soft_label(src, members)
    return sets, labels


def sample_training_batch(src: SimilaritySource, prob: np.ndarray, w: int, batch: int,
                          rng: np.random.Generator) -> list[TrainingExample]:
    """Draw ``batch`` window sets of size w-1 (weighted, without replacement)
    and label each with its extension distribution under ``src``."""
    return [TrainingExample(members, label)
            for members, label in zip(*_labeled_sets(src, prob, w, batch, rng))]


def stack_batch(examples: Sequence[TrainingExample]) -> tuple[np.ndarray, np.ndarray]:
    return (np.stack([ex.input_set for ex in examples]),
            np.stack([ex.soft_label for ex in examples]))


def cross_entropy(pred: np.ndarray, label: np.ndarray) -> float:
    """Cross entropy with a numeric floor inside the log (natural log)."""
    t = np.maximum(pred, LOG_FLOOR)
    np.multiply(np.log(t, out=t), label, out=t)
    return float(-t.sum(axis=-1).mean())


def _loss_and_grads(model: SetScorer, sets: np.ndarray,
                    labels: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy loss of a (B, m) batch and its gradient for every
    parameter.  Gradients flow through rho, the sum pooling, and phi; they
    are averaged over the batch."""
    z1, h1, pooled, z2, h2, probs = _forward_cache(model, sets)
    loss = cross_entropy(probs, labels)
    bsz = sets.shape[0]
    d_logits = np.subtract(probs, labels, out=probs)  # softmax + cross entropy
    d_logits /= bsz
    d_V2 = h2.T @ d_logits
    d_c2 = d_logits.sum(axis=0)
    d_z2 = (d_logits @ model.V2.T) * (z2 > 0)
    del probs, d_logits  # the (B, n) block, freed before d_W1 is allocated
    d_V1 = pooled.T @ d_z2
    d_c1 = d_z2.sum(axis=0)
    d_pooled = d_z2 @ model.V1.T             # (B, hidden)
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
    """One full backprop + Adam update on a batch; returns the mean loss.  An
    overflow or invalid value in the passes is left to the finiteness checks
    of the loss and the gradients, which raise TrainingDiverged."""
    sets, labels = stack_batch(batch)
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = _loss_and_grads(model, sets, labels)
    del sets, labels  # the stacked (B, n) copy, freed before the optimizer step
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss!r}; check inputs and learning rate")
    model.update(opt, grads, lr)
    return loss


def rmse(model: SetScorer, sets: np.ndarray, labels: np.ndarray) -> float:
    """Root mean square error of the predictions for a (B, m) batch of sets
    against their (B, n) labels, over all rows and vector components; the
    squared errors are averaged in float64.  A diverged model gives nan or inf,
    without a warning."""
    if len(sets) == 0 or labels.shape != (len(sets), model.n):
        raise ValueError(f"expected a non-empty evaluation set with one {model.n}-wide "
                         f"label row per set, got {len(sets)} sets and labels {labels.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        err = forward_batch(model, sets)
        np.square(np.subtract(err, labels, out=err), out=err)
        return float(np.sqrt(np.mean(err, dtype=np.float64)))


def model_order(g: Graph, model: SetScorer, w: int) -> np.ndarray:
    """Greedy decode: repeatedly append the unplaced vertex the scorer ranks
    highest against the last ``min(placed, w-1)`` placed vertices; like
    training, it needs w >= 2, so that the window set is never empty.

    Placed vertices are masked to -inf before the argmax, by adding an
    n-vector that holds -inf at each placed vertex and 0 elsewhere, so the
    result is always a bijection: nan scores (a diverged model) raise
    ValueError rather than pick a placed vertex.  The first vertex is the
    highest-degree one, ties to the smallest id.
    """
    if g.n != model.n:
        raise ValueError(f"model built for n={model.n}, graph has n={g.n}")
    _check_window_size(w, DECODE_MIN_WINDOW)
    n = g.n
    start = int(np.argmax(g.total_degrees()))
    order = np.empty(n, dtype=np.int64)
    order[0] = start
    mask = np.zeros(n, dtype=DTYPE)
    mask[start] = -np.inf
    for i in range(1, n):
        recent = order[max(0, i - (w - 1)):i]
        scores = forward(model, recent)
        scores += mask
        v = int(np.argmax(scores))
        if mask[v]:  # argmax picks a nan first, and nan + -inf is nan
            raise ValueError("the model's scores are not finite")
        order[i] = v
        mask[v] = -np.inf
    return order


def save_scorer(model: SetScorer, path: str) -> None:
    model.save(path)


def load_scorer(path: str) -> SetScorer:
    return SetScorer.load(path)


@dataclass
class TrainLog:
    """Scorer training log: the loss of every step (step k is entry k - 1),
    its wall-clock offset from the log's creation, and the (step, rmse)
    points :func:`fit` measured."""

    losses: list[float] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    rmse_points: list[tuple[int, float]] = field(default_factory=list)
    t0: float = field(default_factory=time.perf_counter)


def fit(model: SetScorer, opt: AdamState, src: SimilaritySource,
        prob: np.ndarray, w: int, steps: int, cfg: ScorerConfig,
        rng: np.random.Generator, log: TrainLog,
        eval_set: tuple[np.ndarray, np.ndarray], eval_every: int) -> None:
    """Take ``steps`` scorer steps, each on a fresh batch drawn from ``prob``,
    appending every loss to ``log``, and a (step, rmse) point on ``eval_set``,
    a pair of sets and labels, to ``log.rmse_points`` every ``eval_every``
    steps of this call and after its last; steps are numbered by
    ``len(log.losses)``, so they stay global across calls sharing a log.  A
    non-finite RMSE point is logged and then raises TrainingDiverged."""
    for k in range(1, steps + 1):
        batch = sample_training_batch(src, prob, w, cfg.batch_size, rng)
        log.losses.append(train_step(model, batch, opt, cfg.don_learning_rate))
        # Free the batch's n-wide labels before the next batch or the RMSE
        # allocates, so that two batches never coexist.  train_step has
        # already dropped its stacked copy, its gradients and its scratch.
        del batch
        log.wall_times.append(time.perf_counter() - log.t0)
        if k % eval_every == 0 or k == steps:
            log.rmse_points.append((len(log.losses), rmse(model, *eval_set)))
            if not np.isfinite(log.rmse_points[-1][1]):
                raise TrainingDiverged(f"non-finite RMSE at step {len(log.losses)}; "
                                       "check inputs and learning rate")
