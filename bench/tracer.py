"""In-memory span tracer for the benchmark's traced run.

``install`` wraps graphorder's public functions, plus the similarity and
optimizer methods that hold the hot loops, in every module namespace that
refers to them.  Each call then records a span (name, start, end, and the span
that was open when it began) and, for a few layers, a work counter.  Nothing
inside the package changes, and ``restore`` puts the originals back.  Spans
stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

LAYERS = ("graph", "locality", "baselines", "scorer", "tuner", "optim", "downstream")

# Functions reported under a shared span name: one layer operation with
# several entry points.
RENAMES = {
    "graph.gen_power_law": "graph.generate",
    "graph.gen_erdos_renyi": "graph.generate",
    "locality.load_permutation": "locality.perm_io",
    "locality.format_permutation": "locality.perm_io",
    "scorer.save_scorer": "scorer.checkpoint_io",
    "scorer.load_scorer": "scorer.checkpoint_io",
}

# (module, class, method, span name).  The base class's score and
# add_scores_of are overridden by both backends, so only theirs are wrapped.
METHODS = (
    ("locality", "MatrixSimilarity", "score", "locality.score"),
    ("locality", "MatrixSimilarity", "add_scores_of", "locality.add_scores_of"),
    ("locality", "GraphSimilarity", "score", "locality.score"),
    ("locality", "GraphSimilarity", "add_scores_of", "locality.add_scores_of"),
    ("optim", "AdamState", "step", "optim.adam_step"),
    ("optim", "RmspropState", "step", "optim.rmsprop_step"),
)


class Tracer:
    """Spans and counters of one traced run, kept in flat arrays."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open_per_name: list[int] = []
        self._stack: list[int] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        # 1 when no span of the same name encloses this one, so recursive
        # calls count once towards the name's busy time.
        self.outermost = array("b")
        self.counts: dict[str, float] = defaultdict(int)
        self.values: dict[str, float] = {}
        self.state: dict[str, object] = {}

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open_per_name.append(0)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._open_per_name[nid] == 0)
        self._open_per_name[nid] += 1
        self._stack.append(idx)
        self.end.append(float("nan"))
        self.start.append(self._clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self._clock()
        if not self._stack or self._stack.pop() != idx:
            raise RuntimeError("spans must close in the reverse order they opened")
        self._open_per_name[self.name_id[idx]] -= 1

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``hook(tracer, args, kwargs,
        result)`` runs after a successful call, once the span has closed."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover.  Spans
        of one thread nest, so the children of a span never overlap."""
        dur = self.durations()
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        return dur - covered

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: busy time ``s`` (children included, recursion
        counted once), ``self_s`` and ``calls``."""
        if self._stack:
            raise RuntimeError("summary of a trace with open spans")
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = self.durations()
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        k = len(self.names)
        busy = np.bincount(names[outer], weights=dur[outer], minlength=k)
        self_s = np.bincount(names, weights=self.self_times(), minlength=k)
        calls = np.bincount(names, minlength=k)
        return {name: {"s": float(busy[i]), "self_s": float(self_s[i]),
                       "calls": int(calls[i])}
                for i, name in enumerate(self.names)}

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Hooks run on the hot path, between spans, so they only record the call's
# arguments; settle_sources turns the records into counts after each command.

def _record_row(tr: Tracer, args, kwargs, result) -> None:
    src = args[0]
    rows = tr.state.setdefault("rows", {}).get(id(src))
    if rows is None:
        rows = tr.state["rows"][id(src)] = (src, array("q"))
    rows[1].append(_arg(args, kwargs, 2, "x"))


def _count_memo_call(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["locality.score.memo_calls"] += 1


def _keep_source(tr: Tracer, args, kwargs, result) -> None:
    tr.state.setdefault("sources", {})[id(result)] = result


def _count_sampling(tr: Tracer, args, kwargs, result) -> None:
    g = _arg(args, kwargs, 0, "g")
    w = _arg(args, kwargs, 2, "w")
    batch = _arg(args, kwargs, 3, "batch")
    tr.counts["scorer.sample.entries_scanned"] += batch * (w - 1) * g.n


def _keep_batch(tr: Tracer, args, kwargs, result) -> None:
    model, batch = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "batch")
    tr.state.setdefault("batches", []).append((model.n, [ex.input_set for ex in batch]))


def _keep_rmse(tr: Tracer, args, kwargs, result) -> None:
    tr.values["tuner.final_rmse"] = float(result)


# Hooks by span name, and by (class, method) for the methods wrapped.
HOOKS = {
    "locality.add_scores_of": _record_row,
    "locality.as_similarity": _keep_source,
    "scorer.sample_training_batch": _count_sampling,
    "scorer.train_step": _keep_batch,
    "scorer.rmse": _keep_rmse,
}
METHOD_HOOKS = {("GraphSimilarity", "score"): _count_memo_call}


def row_entries(src, rows: np.ndarray) -> int:
    """Entries the gain-row updates of ``rows`` touch: a dense row has n; the
    on-demand row reads the out- and in-lists of x and the out-list of each
    in-neighbor of x."""
    g = getattr(src, "graph", None)
    if g is None:
        return src.n * rows.size
    out_deg = np.bincount(g.arcs[:, 0], minlength=g.n)
    in_deg = np.bincount(g.arcs[:, 1], minlength=g.n)
    preds_out = np.bincount(g.arcs[:, 1], weights=out_deg[g.arcs[:, 0]], minlength=g.n)
    per_row = out_deg + in_deg + preds_out.astype(np.int64)
    return int(per_row[rows].sum())


def similarity_bytes(source) -> int:
    """Bytes a similarity backend holds: the dense matrix, or the on-demand
    memo and in-neighbor set tables (container sizes plus their keys)."""
    matrix = getattr(source, "matrix", None)
    if matrix is not None:
        return int(matrix.nbytes)
    total = 0
    memo = getattr(source, "_memo", None) or {}
    total += sys.getsizeof(memo) + len(memo) * sys.getsizeof((0, 0))
    in_sets = getattr(source, "_in_sets", None) or {}
    total += sys.getsizeof(in_sets) + sum(sys.getsizeof(s) for s in in_sets.values())
    return total


def settle_sources(tr: Tracer) -> None:
    """Close the books on one command, outside any span: count the row
    entries its gain-row updates touched, the distinct pairs its on-demand
    backends scored (each memo holds exactly those, and lives for one
    command) and the W1 rows each training batch used; measure the similarity
    backends, keeping the largest size seen; then drop the references so the
    backends and batches can be freed."""
    for src, rows in tr.state.pop("rows", {}).values():
        tr.counts["locality.add_scores_of.entries"] += row_entries(
            src, np.frombuffer(rows, dtype=np.int64))
    for n, input_sets in tr.state.pop("batches", []):
        tr.counts["optim.adam.w1_row_use_sum"] += np.unique(np.concatenate(input_sets)).size / n
        tr.counts["optim.adam.w1_row_use_batches"] += 1
    for src in tr.state.pop("sources", {}).values():
        tr.counts["locality.score.distinct"] += len(getattr(src, "_memo", None) or ())
        tr.values["locality.similarity_bytes"] = max(
            tr.values.get("locality.similarity_bytes", 0), similarity_bytes(src))


def install(tr: Tracer) -> Callable[[], None]:
    """Wrap the public functions and hot methods of the imported package
    modules; return a function that restores the originals.  Layers, classes
    or methods a version of the package lacks are skipped."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "graphorder" or name.startswith("graphorder."))]
    patches: list[tuple[object, str, object]] = []

    for layer in LAYERS:
        mod = sys.modules.get(f"graphorder.{layer}")
        if mod is None:
            continue
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
            traced = tr.wrap(name, fn, HOOKS.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        patches.append((m, key, fn))
                        setattr(m, key, traced)

    for layer, cls_name, meth, name in METHODS:
        cls = getattr(sys.modules.get(f"graphorder.{layer}"), cls_name, None)
        fn = None if cls is None else vars(cls).get(meth)
        if fn is None:
            continue
        patches.append((cls, meth, fn))
        setattr(cls, meth, tr.wrap(name, fn, METHOD_HOOKS.get((cls_name, meth), HOOKS.get(name))))

    def restore() -> None:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)
    return restore
