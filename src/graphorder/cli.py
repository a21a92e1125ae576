"""Command-line entry point: generation, ordering, training, evaluation,
partitioning, and matrix rendering, all reproducible from a seed."""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import baselines, downstream, graph, locality, scorer, tuner


class TrainSetting(NamedTuple):
    """A ``train`` setting: its config key (the flag is ``--key`` with dashes),
    its type, the ``ScorerConfig``/``RlConfig`` field it fills, and whether
    only DON-RL reads it."""

    key: str
    type: type
    config: type | None
    field: str | None
    rl_only: bool = False


_SC, _RL = scorer.ScorerConfig, tuner.RlConfig
# Defaults live in the dataclasses and FALLBACKS only.  eval_every fills no
# field: DON reads it, and DON-RL refuses the flag.
TRAIN_SETTINGS = (
    TrainSetting("hidden", int, _SC, "hidden"),
    TrainSetting("repr_dim", int, _SC, "repr_dim"),
    TrainSetting("don_learning_rate", float, _SC, "learning_rate"),
    TrainSetting("batch_size", int, _SC, "batch_size"),
    TrainSetting("global_steps", int, _RL, "global_steps"),
    TrainSetting("eval_every", int, None, None),
    TrainSetting("policy_learning_rate", float, _RL, "policy_lr", rl_only=True),
    TrainSetting("policy_hidden", int, _RL, "policy_hidden", rl_only=True),
    TrainSetting("trajectory_len", int, _RL, "trajectory_len", rl_only=True),
    TrainSetting("rl_steps", int, _RL, "rl_steps", rl_only=True),
    TrainSetting("gamma", float, _RL, "gamma", rl_only=True),
    TrainSetting("tuning_scale", float, _RL, "tuning_scale", rl_only=True),
    TrainSetting("eval_size", int, _RL, "eval_size"),
    TrainSetting("don_steps_per_t", int, _RL, "don_steps_per_t", rl_only=True),
    TrainSetting("warmup_steps", int, _RL, "warmup_steps", rl_only=True),
)

# Fallbacks of the settings no dataclass holds: the window and seed every
# command shares, and DON's evaluation interval.
FALLBACKS = {"w": 5, "seed": 0, "eval_every": 50}

CONFIG_KEYS = {"w": int, "seed": int, **{s.key: s.type for s in TRAIN_SETTINGS}}


def read_config(path: str) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](val)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: cannot read {val!r} as "
                             f"{CONFIG_KEYS[key].__name__} for {key}") from None
    return values


def _setting(args, config: dict, name: str):
    """The flag if given, else the config file's value, else the fallback in
    FALLBACKS (None for the settings whose default lives in a dataclass)."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    return config.get(name, FALLBACKS.get(name))


def _load_graph(path: str) -> graph.Graph:
    result = graph.load_edge_list(Path(path).read_text())
    if result.self_loops_dropped or result.duplicates_dropped:
        print(f"dropped {result.self_loops_dropped} self-loops, "
              f"{result.duplicates_dropped} duplicate arcs", file=sys.stderr)
    return result.graph


def _load_source(path: str, use_matrix: bool):
    if use_matrix:
        return locality.load_similarity_matrix(Path(path).read_text())
    return _load_graph(path)


def _fmt(x) -> str:
    """A CSV field: floats by repr, None as an empty field."""
    if x is None:
        return ""
    return repr(float(x)) if isinstance(x, float) else str(x)


def _refuse(args, names, reader: str) -> None:
    """Refuse, rather than drop, the flags among ``names`` that were given
    although only ``reader`` reads them."""
    given = ["--" + name.replace("_", "-") for name in names
             if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{', '.join(given)}: read by {reader} only")


def cmd_generate(args, config) -> int:
    seed = _setting(args, config, "seed")
    if args.kind == "er":
        _refuse(args, ["gamma_exp"], "--kind powerlaw")
        if args.p is None:
            raise ValueError("--p is required for --kind er")
        g = graph.gen_erdos_renyi(args.n, args.p, seed)
    else:
        _refuse(args, ["p"], "--kind er")
        if args.gamma_exp is None:
            raise ValueError("--gamma-exp is required for --kind powerlaw")
        g = graph.gen_power_law(args.n, args.gamma_exp, seed)
    Path(args.out).write_text(graph.format_edge_list(g))
    print(f"n={g.n} arcs={g.arc_count}")
    return 0


def cmd_order(args, config) -> int:
    w = _setting(args, config, "w")
    seed = _setting(args, config, "seed")
    source = _load_source(args.input, args.matrix)
    if args.matrix and args.algo not in ("go", "brute"):
        raise ValueError("matrix input supports only --algo go or brute")
    if args.merge and args.matrix:
        raise ValueError("--merge needs a graph input")
    if args.algo != "don":
        _refuse(args, ["model", "start"], "--algo don")

    work = source
    group = None
    if args.merge:
        work, group = graph.merge_degree_one(source)
        kept = work.n / source.n if source.n else 1.0
        print(f"merged {source.n} -> {work.n} vertices "
              f"({(1 - kept) * 100:.1f}% removed)", file=sys.stderr)
        if work.n == source.n:  # every group is a singleton: expanding is the identity
            work, group = source, None

    if args.algo == "go":
        if group is None:  # GO and the printed F share one similarity source
            source = work = locality.as_similarity(source)
        perm = baselines.greedy_order(work, w)
    elif args.algo == "degree":
        perm = baselines.degree_order(work)
    elif args.algo == "brute":
        perm, _ = baselines.brute_force_order(work, w)
    else:  # don
        if not args.model:
            raise ValueError("--model is required for --algo don")
        model = scorer.load_scorer(args.model)
        perm = scorer.model_order(work, model, w, start=args.start)

    if group is not None:
        perm = graph.expand_permutation(perm, group, seed)
    score = locality.locality_score(source, perm, w)
    if args.out:
        Path(args.out).write_text(locality.format_permutation(perm))
    print(f"F={score}")
    return 0


def cmd_eval(args, config) -> int:
    w = _setting(args, config, "w")
    source = _load_source(args.input, args.matrix)
    perm = locality.check_permutation(
        locality.load_permutation(Path(args.perm).read_text()), source.n)
    print(f"F={locality.locality_score(source, perm, w)}")
    return 0


def _train_config(cls, args, config):
    """``cls`` with the fields that a flag or the config file sets; every
    other field keeps its dataclass default."""
    given = {s.field: _setting(args, config, s.key) for s in TRAIN_SETTINGS if s.config is cls}
    return cls(**{name: value for name, value in given.items() if value is not None})


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header] + [",".join(map(_fmt, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_loss_csv(path: str, log: scorer.TrainLog, with_wall: bool) -> None:
    rmse_at = dict(log.rmse_points)
    rows = [(step, loss, rmse_at.get(step)) + ((wall,) if with_wall else ())
            for step, (loss, wall) in enumerate(zip(log.losses, log.wall_times), start=1)]
    _write_csv(path, "step,loss,rmse" + (",wall_time" if with_wall else ""), rows)


def cmd_train(args, config) -> int:
    scfg = _train_config(scorer.ScorerConfig, args, config)
    if _setting(args, config, "repr_dim") is None:  # --repr-dim defaults to --hidden
        scfg.repr_dim = scfg.hidden
    rcfg = _train_config(tuner.RlConfig, args, config)
    # Flags the chosen algorithm would not read are refused rather than dropped.
    if args.algo == "don-rl":
        if args.eval_every is not None:
            raise ValueError("--eval-every applies to --algo don only; don-rl "
                             "evaluates after every tuning step")
        if args.global_steps is not None and rcfg.don_steps_per_t is not None:
            raise ValueError("--global-steps is not read when --don-steps-per-t is set")
    else:
        _refuse(args, [s.key for s in TRAIN_SETTINGS if s.rl_only], "--algo don-rl")
    w = _setting(args, config, "w")
    seed = _setting(args, config, "seed")
    g = _load_graph(args.input)
    if args.merge:
        g, _ = graph.merge_degree_one(g)
        print(f"training on merged graph: n={g.n}", file=sys.stderr)
    metrics = args.metrics or (args.out + ".metrics.csv")

    if args.algo == "don":
        src = locality.as_similarity(g)
        eval_set = tuner.build_eval_set(g, w, rcfg.eval_size, seed + 1, source=src)
        model, log = scorer.train_scorer(
            g, w, rcfg.global_steps, scfg, seed, eval_set=eval_set,
            eval_every=_setting(args, config, "eval_every"), source=src)
        scorer.save_scorer(model, args.out)
        _write_loss_csv(metrics, log, args.wall_time)
    else:
        model, policy, history = tuner.train_scorer_rl(g, w, scfg, rcfg, seed)
        scorer.save_scorer(model, args.out)
        tuner.save_policy(policy, args.out + ".policy.npz")
        _write_csv(metrics, "rl_step,t,reward,baseline,mean_action_prob", history.rl_rows)
        _write_loss_csv(metrics + ".don.csv", history.don_log, args.wall_time)
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_compress_cost(args, config) -> int:
    g = _load_graph(args.input)
    perm = (locality.load_permutation(Path(args.perm).read_text())
            if args.perm else np.arange(g.n))
    widths = [int(tok) for tok in args.b.split(",")]
    lines = ["b,cost_nz,cost_r"]
    for b in widths:
        nz, ratio = downstream.compression_cost(g, perm, b)
        lines.append(f"{b},{nz},{_fmt(ratio)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def cmd_partition(args, config) -> int:
    seed = _setting(args, config, "seed")
    if args.method != "order":
        _refuse(args, ["perm"], "--method order")
    g = _load_graph(args.input)
    if args.method == "order":
        if not args.perm:
            raise ValueError("--perm is required for --method order")
        perm = locality.load_permutation(Path(args.perm).read_text())
        part = downstream.partition_from_order(g, perm, args.k)
    elif args.method == "random":
        part = downstream.random_partition(g, args.k, seed)
    else:
        part = downstream.greedy_partition(g, args.k)
    if args.out:
        Path(args.out).write_text(downstream.format_partition_csv(part))
    print(f"RF={_fmt(downstream.replication_factor(g, part))}")
    return 0


def render_pgm(g: graph.Graph, order, fmt: str = "p2",
               block: int | None = None) -> bytes:
    """Permuted adjacency as a portable graymap; set cells are black.

    With ``block`` = b the image is the block-nonempty map: one pixel per
    b-by-b block, ceil(n/b) pixels a side.
    """
    b = 1 if block is None else block
    if b < 1:
        raise ValueError("block width must be positive")
    perm = locality.check_permutation(order, g.n)
    b = min(b, max(g.n, 1))  # any b >= n is one block; keeps huge b out of int64
    pos = np.empty(g.n, dtype=np.int64)
    pos[perm] = np.arange(g.n)
    size = math.ceil(g.n / b)
    img = np.full((size, size), 255, dtype=np.uint8)
    img[pos[g.arcs[:, 0]] // b, pos[g.arcs[:, 1]] // b] = 0
    h, wdt = img.shape
    if fmt == "p5":
        return f"P5\n{wdt} {h}\n255\n".encode() + img.tobytes()
    rows = "\n".join(" ".join(str(px) for px in row) for row in img)
    return f"P2\n{wdt} {h}\n255\n{rows}\n".encode()


def cmd_render_matrix(args, config) -> int:
    g = _load_graph(args.input)
    perm = (locality.load_permutation(Path(args.perm).read_text())
            if args.perm else np.arange(g.n))
    data = render_pgm(g, perm, args.format, args.block)
    Path(args.out).write_bytes(data)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="master seed; all randomness derives from it")
    common.add_argument("--w", type=int, default=None, help="window size")
    common.add_argument("--config", default=None, help="key = value config file")

    parser = argparse.ArgumentParser(
        prog="graphorder",
        description="Vertex orderings that maximize windowed locality, with "
                    "downstream compression and partitioning evaluators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="write a synthetic graph")
    p.add_argument("--kind", choices=["er", "powerlaw"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability (er)")
    p.add_argument("--gamma-exp", type=float, default=None,
                   help="power-law exponent (powerlaw)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("order", parents=[common], help="order a graph's vertices")
    p.add_argument("input", help="edge-list file (or matrix fixture with --matrix)")
    p.add_argument("--algo", choices=["go", "degree", "don", "brute"], default="go")
    p.add_argument("--model", default=None, help="scorer checkpoint for --algo don")
    p.add_argument("--start", type=int, default=None,
                   help="first vertex for --algo don (default: highest degree)")
    p.add_argument("--merge", action="store_true",
                   help="merge degree-1 fans before ordering, expand after")
    p.add_argument("--matrix", action="store_true",
                   help="input is a similarity-matrix fixture")
    p.add_argument("--out", default=None, help="permutation file to write")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("eval", parents=[common],
                       help="locality score of a permutation file")
    p.add_argument("input")
    p.add_argument("--perm", required=True)
    p.add_argument("--matrix", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train", parents=[common], help="train the set scorer")
    p.add_argument("input")
    p.add_argument("--algo", choices=["don", "don-rl"], default="don-rl")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--metrics", default=None, help="metrics CSV path")
    p.add_argument("--merge", action="store_true")
    p.add_argument("--wall-time", action="store_true",
                   help="add a wall_time column to the loss CSV "
                        "(breaks byte-reproducibility)")
    for setting in TRAIN_SETTINGS:
        p.add_argument("--" + setting.key.replace("_", "-"), type=setting.type, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress-cost", parents=[common],
                       help="nonempty-block cost of the reordered adjacency")
    p.add_argument("input")
    p.add_argument("--perm", default=None, help="permutation file (default identity)")
    p.add_argument("--b", default="8,16,32", help="comma-separated block widths")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_compress_cost)

    p = sub.add_parser("partition", parents=[common], help="partition the edge set")
    p.add_argument("input")
    p.add_argument("--method", choices=["order", "random", "greedy"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--perm", default=None)
    p.add_argument("--out", default=None, help="CSV of u,v,part rows")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("render-matrix", parents=[common],
                       help="permuted adjacency as a PGM bitmap")
    p.add_argument("input")
    p.add_argument("--perm", default=None)
    p.add_argument("--format", choices=["p2", "p5"], default="p2")
    p.add_argument("--block", type=int, default=None,
                   help="downsample to one pixel per b-wide block")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render_matrix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = read_config(args.config) if args.config else {}
        return args.func(args, config)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
