"""Command-line entry point: generation, ordering, training, evaluation,
partitioning, and matrix rendering, all reproducible from a seed."""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import baselines, downstream, graph, locality, scorer, tuner

_SC, _RL = scorer.ScorerConfig, tuner.RlConfig
# The train settings of each owning dataclass: a setting's config key is its
# field's name (the flag is the key with dashes), its default the field's
# default, and its type the one the field's annotation names.  Both algorithms
# read ScorerConfig; only DON-RL reads RlConfig.
TRAIN_SETTINGS = {cls: {f.name: get_type_hints(cls)[f.name] for f in fields(cls)}
                  for cls in (_SC, _RL)}

# Fallbacks of the settings no dataclass holds: the window and seed every
# command shares.
FALLBACKS = {"w": 5, "seed": 0}

CONFIG_KEYS = {"w": int, "seed": int, **TRAIN_SETTINGS[_SC], **TRAIN_SETTINGS[_RL]}

# The ScorerConfig fields only DON reads: DON-RL refuses them as flags and
# skips them in a config file.
DON_ONLY = ("global_steps", "eval_every")


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


def _seed(args, config: dict) -> int:
    """The seed setting, refused if negative: numpy's generators would refuse
    it only once they are built, without naming it."""
    seed = _setting(args, config, "seed")
    if seed < 0:
        raise ValueError(f"seed must not be negative, got {seed}")
    return seed


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


def _load_perm(path: str | None, n: int) -> np.ndarray:
    """The permutation file at ``path``, checked against n; identity without one."""
    if path is None:
        return np.arange(n)
    return graph.check_permutation(locality.load_permutation(Path(path).read_text()), n)


def _fmt(x) -> str:
    """A CSV field: floats by repr, None as an empty field."""
    if x is None:
        return ""
    return repr(float(x)) if isinstance(x, float) else str(x)


def _check_out_dirs(*paths: str | None) -> None:
    """Refuse, before any input is read, a path to write whose directory is missing."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise ValueError(f"cannot write {path}: no directory {Path(path).parent}")


def _refuse(args, names, reader: str) -> None:
    """Refuse, rather than drop, the flags among ``names`` that were given
    although only ``reader`` reads them."""
    given = ["--" + name.replace("_", "-") for name in names
             if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{', '.join(given)}: read by {reader} only")


def cmd_generate(args, config) -> int:
    seed = _seed(args, config)
    _check_out_dirs(args.out)
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
    locality._check_window_size(w, scorer.DECODE_MIN_WINDOW if args.algo == "don" else 1)
    seed = _seed(args, config)
    if args.matrix and args.algo not in ("go", "brute"):
        raise ValueError("matrix input supports only --algo go or brute")
    if args.merge and args.matrix:
        raise ValueError("--merge needs a graph input")
    if args.algo != "don":
        _refuse(args, ["model"], "--algo don")
    elif not args.model:
        raise ValueError("--model is required for --algo don")
    _check_out_dirs(args.out)
    source = _load_source(args.input, args.matrix)

    work = source
    group = None
    if args.merge:
        work, group = graph.merge_degree_one(source)
        kept = work.n / source.n if source.n else 1.0
        print(f"merged {source.n} -> {work.n} vertices "
              f"({(1 - kept) * 100:.1f}% removed)", file=sys.stderr)
        if work.n == source.n:  # every group is a singleton: expanding is the identity
            work, group = source, None

    # GO's step gains sum to its order's F and brute force returns its F, so
    # only the other orders, and any order a merge expands, are scored here.
    score = None
    if args.algo == "go":
        gains = np.empty(work.n, dtype=np.int64)
        perm = baselines.greedy_order(work, w, gains)
        score = int(gains.sum())
    elif args.algo == "degree":
        perm = baselines.degree_order(work)
    elif args.algo == "brute":
        perm, score = baselines.brute_force_order(work, w)
    else:  # don
        model = scorer.load_scorer(args.model)
        perm = scorer.model_order(work, model, w)

    if group is not None:
        perm = graph.expand_permutation(perm, group, seed)
        score = None
    if score is None:
        score = locality.locality_score(source, perm, w)
    if args.out:
        Path(args.out).write_text(locality.format_permutation(perm))
    print(f"F={score}")
    return 0


def cmd_eval(args, config) -> int:
    w = _setting(args, config, "w")
    locality._check_window_size(w)
    source = _load_source(args.input, args.matrix)
    perm = _load_perm(args.perm, source.n)
    print(f"F={locality.locality_score(source, perm, w)}")
    return 0


def _train_config(cls, args, config, skip=()):
    """``cls`` with the fields outside ``skip`` that a flag or the config file
    sets; every other field keeps its dataclass default."""
    given = {key: _setting(args, config, key) for key in TRAIN_SETTINGS[cls] if key not in skip}
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
    # Flags the chosen algorithm would not read are refused rather than dropped.
    if args.algo == "don":
        _refuse(args, TRAIN_SETTINGS[_RL], "--algo don-rl")
        scfg = _train_config(_SC, args, config)
    else:
        _refuse(args, DON_ONLY, "--algo don")
        scfg = _train_config(_SC, args, config, skip=DON_ONLY)
        rcfg = _train_config(_RL, args, config)
    w = _setting(args, config, "w")
    seed = _seed(args, config)
    metrics = args.metrics or (args.out + ".metrics.csv")
    _check_out_dirs(args.out, metrics)  # OUT.policy.npz and METRICS.don.csv sit beside them
    g = _load_graph(args.input)
    if args.merge:
        g, _ = graph.merge_degree_one(g)
        print(f"training on merged graph: n={g.n}", file=sys.stderr)

    if args.algo == "don":
        model, log = tuner.train_scorer(g, w, scfg, seed)
        scorer.save_scorer(model, args.out)
        _write_loss_csv(metrics, log, args.wall_time)
    else:
        model, policy, history = tuner.train_scorer_rl(g, w, scfg, rcfg, seed)
        scorer.save_scorer(model, args.out)
        policy.save(args.out + ".policy.npz")
        _write_csv(metrics, "rl_step,t,reward,baseline,mean_action_prob", history.rl_rows)
        _write_loss_csv(metrics + ".don.csv", history.don_log, args.wall_time)
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_compress_cost(args, config) -> int:
    try:
        widths = [int(tok) for tok in args.b.split(",")]
    except ValueError:
        raise ValueError(f"--b {args.b!r}: expected comma-separated integers") from None
    for b in widths:
        graph.check_positive(**{"--b": b})
    _check_out_dirs(args.out)
    g = _load_graph(args.input)
    perm = _load_perm(args.perm, g.n)
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
    seed = _seed(args, config)
    if args.method != "order":
        _refuse(args, ["perm"], "--method order")
    graph.check_positive(**{"--k": args.k})
    _check_out_dirs(args.out)
    g = _load_graph(args.input)
    if args.method == "order":
        if not args.perm:
            raise ValueError("--perm is required for --method order")
        perm = _load_perm(args.perm, g.n)
        part = downstream.partition_from_order(g, perm, args.k)
    elif args.method == "random":
        part = downstream.random_partition(g, args.k, seed)
    else:
        part = downstream.greedy_partition(g, args.k)
    if args.out:
        Path(args.out).write_text(downstream.format_partition_csv(part))
    print(f"RF={_fmt(downstream.replication_factor(g, part))}")
    return 0


def render_pgm(g: graph.Graph, order, fmt: str = "p2", block: int = 1) -> bytes:
    """Permuted adjacency as a portable graymap; set cells are black.

    With ``block`` = b the image is the block-nonempty map: one pixel per
    b-by-b block, ceil(n/b) pixels a side.
    """
    rows, cols, size = downstream._block_map(g, order, block)
    img = np.full((size, size), 255, dtype=np.uint8)
    img[rows, cols] = 0
    h, wdt = img.shape
    if fmt == "p5":
        return f"P5\n{wdt} {h}\n255\n".encode() + img.tobytes()
    rows = "\n".join(" ".join(str(px) for px in row) for row in img)
    return f"P2\n{wdt} {h}\n255\n{rows}\n".encode()


def cmd_render_matrix(args, config) -> int:
    graph.check_positive(**{"--block": args.block})
    _check_out_dirs(args.out)
    g = _load_graph(args.input)
    perm = _load_perm(args.perm, g.n)
    data = render_pgm(g, perm, args.format, args.block)
    Path(args.out).write_bytes(data)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Each command takes only the shared flags its handler reads.
    seed, w, config = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    seed.add_argument("--seed", type=int, default=None,
                      help="master seed; all randomness derives from it")
    w.add_argument("--w", type=int, default=None, help="window size")
    config.add_argument("--config", default=None, help="key = value config file")

    parser = argparse.ArgumentParser(
        prog="graphorder",
        description="Vertex orderings that maximize windowed locality, with "
                    "downstream compression and partitioning evaluators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[seed, config], help="write a synthetic graph")
    p.add_argument("--kind", choices=["er", "powerlaw"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability (er)")
    p.add_argument("--gamma-exp", type=float, default=None,
                   help="power-law exponent (powerlaw)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("order", parents=[seed, w, config], help="order a graph's vertices")
    p.add_argument("input", help="edge-list file (or matrix fixture with --matrix)")
    p.add_argument("--algo", choices=["go", "degree", "don", "brute"], default="go")
    p.add_argument("--model", default=None, help="scorer checkpoint for --algo don")
    p.add_argument("--merge", action="store_true",
                   help="merge degree-1 fans before ordering, expand after")
    p.add_argument("--matrix", action="store_true",
                   help="input is a similarity-matrix fixture")
    p.add_argument("--out", default=None, help="permutation file to write")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("eval", parents=[w, config],
                       help="locality score of a permutation file")
    p.add_argument("input")
    p.add_argument("--perm", required=True)
    p.add_argument("--matrix", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train", parents=[seed, w, config], help="train the set scorer")
    p.add_argument("input")
    p.add_argument("--algo", choices=["don", "don-rl"], default="don-rl")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--metrics", default=None, help="metrics CSV path")
    p.add_argument("--merge", action="store_true")
    p.add_argument("--wall-time", action="store_true",
                   help="add a wall_time column to the loss CSV "
                        "(breaks byte-reproducibility)")
    for key, typ in {**TRAIN_SETTINGS[_SC], **TRAIN_SETTINGS[_RL]}.items():
        p.add_argument("--" + key.replace("_", "-"), type=typ, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress-cost",
                       help="nonempty-block cost of the reordered adjacency")
    p.add_argument("input")
    p.add_argument("--perm", default=None, help="permutation file (default identity)")
    p.add_argument("--b", default="8,16,32", help="comma-separated block widths")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_compress_cost)

    p = sub.add_parser("partition", parents=[seed, config], help="partition the edge set")
    p.add_argument("input")
    p.add_argument("--method", choices=["order", "random", "greedy"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--perm", default=None)
    p.add_argument("--out", default=None, help="CSV of u,v,part rows")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("render-matrix",
                       help="permuted adjacency as a PGM bitmap")
    p.add_argument("input")
    p.add_argument("--perm", default=None)
    p.add_argument("--format", choices=["p2", "p5"], default="p2")
    p.add_argument("--block", type=int, default=1,
                   help="downsample to one pixel per b-wide block")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render_matrix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        path = getattr(args, "config", None)
        config = read_config(path) if path else {}
        return args.func(args, config)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
