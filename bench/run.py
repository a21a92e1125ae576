#!/usr/bin/env python3
"""Benchmark of the graphorder command line.

Runs one workload's commands in process, through ``graphorder.cli.main``,
back to back (a closed loop with one caller), checks every output against an
independent recomputation, and reports wall times, ordering quality and peak
memory.  With ``--trace 1`` it runs one untraced round and then the workload
once more with every layer's public functions wrapped, and reports per-layer
busy time, self time and work counts instead, plus the tracing overhead.

Run from the repository root, one workload at a time or all three in turn:

    python3 bench/run.py --workload pl5k-order --seed 7 --seconds 36 --trace 0
    for w in pl5k-order pl2k-train er5k-train; do
        python3 bench/run.py --workload $w --seed 7 --seconds 36 --trace 0; done

The workloads are defined in ``bench/workloads.py``; metric names and units
come from ``BENCHMARK.json``.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
above it give the same metrics with units, figures measured but not gated
(sub-second command times, training), failed_ops, the run context and the
sha256 of every artifact.  A full record of each run, and the spans of the
last traced run per workload, are written to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scipy

import checks
from checks import CheckFailed
from tracer import Tracer, install, settle_sources
from workloads import BLOCK_WIDTHS, EXCLUDED, GRAPH_SEED, K, PARTITION_METHODS, W, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
# Set-ups per run, so setup_s is a median: cold imports of the package in
# fresh interpreters, and generate commands before the timed rounds.
SETUP_REPEATS = 3
LOAD_SHAPE = "closed loop, 1 caller, commands back to back in one process"


class Round:
    """Wall time per metric and the checked quality values of one pass over
    the workload's commands."""

    def __init__(self):
        self.times: dict[str, float] = defaultdict(float)
        self.quality: dict[str, float] = {}
        # RSS high-water mark after the round's commands, before its checks.
        self.rss_mb = 0.0

    @property
    def wall(self) -> float:
        return sum(self.times.values())


class Session:
    """Runs CLI commands, checks their outputs and counts failed operations.

    A command fails when it exits non-zero, when an output check fails, or
    when an artifact's bytes differ from the same artifact of an earlier
    round or of an earlier run of the same code and seed.  Checks wait until
    ``verify``, so a round's commands run back to back and the checks' own
    memory stays out of the RSS read between the two.
    """

    def __init__(self, cli, expected_hashes: dict[str, str]):
        self.cli = cli
        self.expected = expected_hashes
        self.hashes: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.pending: list[tuple] = []
        self.tracer = None

    def command(self, rnd: Round, metric: str, argv: list, artifacts=(), check=None) -> None:
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.begin(f"cli.{metric}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main([str(a) for a in argv])
        except Exception:  # a traceback is a failed operation, not a crash
            rc = None
            err.write(traceback.format_exc())
        rnd.times[metric] += time.perf_counter() - t0
        if self.tracer:
            self.tracer.finish(span)
            settle_sources(self.tracer)
        # Free the command's garbage, as its own process would, so peak memory
        # does not depend on when the cyclic collector happens to run.
        gc.collect()
        self.pending.append((metric, argv, rc, out.getvalue(), err.getvalue(), artifacts, check))

    def verify(self) -> None:
        """Check the outputs of the commands run since the last call."""
        pending, self.pending = self.pending, []
        for metric, argv, rc, out, err, artifacts, check in pending:
            problem = None
            if rc != 0:
                problem = f"exit status {rc}: {err.strip()}"
            else:
                try:
                    if check is not None:
                        check(out)
                    for path in artifacts:
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        want = self.hashes.setdefault(path.name,
                                                      self.expected.get(path.name, digest))
                        if digest != want:
                            raise CheckFailed(f"{path.name} differs from an earlier run of this code")
                except CheckFailed as exc:
                    problem = str(exc)
                except Exception:  # unreadable or malformed artifact
                    problem = traceback.format_exc(limit=2)
            if problem is not None:
                self.failures.append(f"{argv[0]} ({metric}): {problem}")


def rss_mb() -> float:
    """RSS high-water mark of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def expect_line(out: str, line: str) -> None:
    if line not in out.splitlines():
        raise CheckFailed(f"printed {out.strip()!r}, expected {line!r}")


def generate(session: Session, rnd: Round, wl, work: Path) -> None:
    """The workload's generate command, with its output checked."""
    base = work / "base.txt"

    def generated(out: str) -> None:
        n, arcs = checks.read_edge_list(base)
        expect_line(out, f"n={n} arcs={len(arcs)}")

    session.command(rnd, "generate",
                    ["generate", *wl.generate, "--seed", GRAPH_SEED, "--out", base],
                    [base], generated)


def relabel(work: Path, seed: int) -> dict:
    """Write the generated graph with its vertices renamed by a permutation
    drawn from ``seed``: each seed is a different input of the same shape, so
    every seed does the same amount of work."""
    n, arcs = checks.read_edge_list(work / "base.txt")
    arcs = np.random.default_rng(seed).permutation(n)[arcs]
    arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
    lines = [f"n {n}"] + [f"{u} {v}" for u, v in arcs.tolist()]
    (work / "graph.txt").write_text("\n".join(lines) + "\n")
    return {"n": n, "arcs": arcs}


def run_round(session: Session, wl, seed: int, work: Path, g: dict) -> Round:
    """One pass over the workload: generate, (train, order don), order go,
    eval, compress-cost and the three partitions, each checked.  The commands
    after generate read the relabelled graph ``g``."""
    rnd = Round()
    graph, go = work / "graph.txt", work / "go.perm"

    def scored(perm_path: Path, key: str):
        def check(out: str) -> None:
            perm = checks.read_permutation(perm_path, g["n"])
            f = checks.locality_score(g["n"], g["arcs"], perm, W)
            expect_line(out, f"F={f}")
            rnd.quality[key] = f
        return check

    generate(session, rnd, wl, work)
    if wl.train is not None:
        model, don = work / "model.npz", work / "don.perm"
        log = work / "train.metrics.csv"
        session.command(
            rnd, "train",
            ["train", graph, "--algo", "don-rl", "--w", W, "--seed", seed,
             "--out", model, "--metrics", log, *wl.train],
            [model, work / "model.npz.policy.npz", log, work / "train.metrics.csv.don.csv"],
            lambda out: checks.check_checkpoint(model, g["n"]))
        session.command(rnd, "order_don",
                        ["order", graph, "--algo", "don", "--model", model, "--w", W,
                         "--out", don],
                        [don], scored(don, "F_don"))
    session.command(rnd, "order_go", ["order", graph, "--algo", "go", "--w", W, "--out", go],
                    [go], scored(go, "F_go"))
    session.command(rnd, "eval", ["eval", graph, "--perm", go, "--w", W], [],
                    scored(go, "F_eval"))

    costs = work / "compress.csv"

    def compressed(out: str) -> None:
        perm = checks.read_permutation(go, g["n"])
        printed = checks.read_block_costs(costs)
        for b in BLOCK_WIDTHS:
            want = checks.nonempty_blocks(g["n"], g["arcs"], perm, b)
            if printed.get(b) != want:
                raise CheckFailed(f"b={b}: cost_nz {printed.get(b)}, recomputed {want}")
        rnd.quality["blocks_b16"] = printed[16]

    session.command(rnd, "compress_cost",
                    ["compress-cost", graph, "--perm", go,
                     "--b", ",".join(map(str, BLOCK_WIDTHS)), "--out", costs],
                    [costs], compressed)

    for method in PARTITION_METHODS:
        csv = work / f"partition-{method}.csv"

        def parted(out: str, csv=csv, method=method) -> None:
            rf = checks.check_partition(csv, g["n"], g["arcs"], K)
            expect_line(out, f"RF={rf!r}")
            rnd.quality[f"rf_{method}"] = rf

        perm_flag = ["--perm", go] if method == "order" else []
        session.command(rnd, "partition",
                        ["partition", graph, "--method", method, "--k", K, "--seed", seed,
                         *perm_flag, "--out", csv],
                        [csv], parted)
    rnd.rss_mb = rss_mb()
    session.verify()
    return rnd


def blas_threads() -> int | str:
    """Thread count of the BLAS numpy loaded, read from the library itself."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def code_digest() -> str:
    """sha256 over the package and benchmark sources: runs with equal digests
    must produce byte-identical artifacts for equal seeds."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "graphorder").rglob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(args, load_at_start) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load_shape": LOAD_SHAPE,
        "commit": git_commit(), "code_sha256": code_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "blas_threads": blas_threads(), "loadavg_at_start": list(load_at_start),
        "excluded_cases": EXCLUDED,
    }


def median_time(rounds: list[Round], key: str) -> float:
    return statistics.median(r.times.get(key, 0.0) for r in rounds)


def end_to_end(import_s: float, setup: list[float], rounds: list[Round]) -> dict[str, float]:
    q = rounds[0].quality
    return {
        "setup_s": import_s + statistics.median(setup),
        "order_go_s": median_time(rounds, "order_go"),
        "total_s": import_s + statistics.median(r.wall for r in rounds),
        # Read before the first round's checks; only set-up's generate checks
        # and the relabelling ran in this process before it.
        "peak_rss_mb": rounds[0].rss_mb,
        "F_go": q.get("F_go", 0),
        "blocks_b16": q.get("blocks_b16", 0),
        "rf_order": q.get("rf_order", 0.0),
        "rf_greedy": q.get("rf_greedy", 0.0),
    }


def ungated(rounds: list[Round]) -> dict[str, float]:
    """Figures printed but not in BENCHMARK.json's end-to-end set: the
    sub-second commands, whose run-to-run spread on a 2-vCPU host exceeds the
    largest allowed bound, and the training figures, which pl5k-order lacks
    (zero there).  Both are inside total_s."""
    q = rounds[0].quality
    return {
        "eval_s": median_time(rounds, "eval"),
        "compress_s": median_time(rounds, "compress_cost"),
        "partition_s": median_time(rounds, "partition"),
        "train_s": median_time(rounds, "train"),
        "order_don_s": median_time(rounds, "order_don"),
        "F_don_ratio": q["F_don"] / q["F_go"] if q.get("F_don") and q.get("F_go") else 0.0,
    }


def per_layer(tr: Tracer, wl, rounds: list[Round], traced: Round,
              names: list[str]) -> dict[str, float]:
    settle_sources(tr)
    values: dict[str, float] = {}
    for span, stat in tr.summary().items():
        for key, value in stat.items():
            values[f"{span}.{key}"] = value
    memo_calls = tr.counts["locality.score.memo_calls"]
    batches = tr.counts["optim.adam.w1_row_use_batches"]
    untraced = statistics.median(r.wall for r in rounds)
    values.update({
        "locality.similarity_bytes": tr.values.get("locality.similarity_bytes", 0),
        "locality.add_scores_of.entries": tr.counts["locality.add_scores_of.entries"],
        # Over the on-demand backend's calls; 0 where only dense ones score.
        "locality.score.distinct_ratio": (tr.counts["locality.score.distinct"] / memo_calls
                                          if memo_calls else 0.0),
        "scorer.sample.entries_scanned": tr.counts["scorer.sample.entries_scanned"],
        "optim.adam.w1_row_use_ratio": (tr.counts["optim.adam.w1_row_use_sum"] / batches
                                        if batches else 0.0),
        "tuner.final_rmse": tr.values.get("tuner.final_rmse", 0.0),
        "trace.overhead_s": traced.wall - untraced,
        "trace.overhead_ratio": (traced.wall - untraced) / untraced,
        **ungated(rounds),
    })
    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
        elif wl.skips(name):
            out[name] = 0
        else:
            raise KeyError(f"no {name!r} in the traced run of {wl.name}: the tracer missed "
                           f"a layer, or the program no longer calls it")
    return out


def cold_import_s() -> float:
    """Import time of the package, numpy and scipy included, in a fresh
    interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import graphorder.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def import_cli():
    """Import graphorder from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "graphorder" / "cli.py").is_file():
        raise ImportError(f"no graphorder sources under {src}")
    sys.path.insert(0, str(src))
    import graphorder.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "graphorder").resolve():
        raise ImportError(f"graphorder was imported from {cli.__file__}, not {src}")
    return cli


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole rounds for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    context = run_context(args, load_at_start)
    OUT.mkdir(parents=True, exist_ok=True)
    registry_path = OUT / "hashes.json"
    registry = json.loads(registry_path.read_text()) if registry_path.is_file() else {}
    run_key = f"{wl.name}/seed{args.seed}"
    known = registry.get(context["code_sha256"], {}).get(run_key, {})
    session = Session(cli, known)
    work = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        imports, setup = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(cold_import_s())
            rnd = Round()
            generate(session, rnd, wl, work)
            session.verify()
            setup.append(rnd.times["generate"])
        import_s = statistics.median(imports)
        g = relabel(work, args.seed)
        rss_before_rounds = rss_mb()
        rounds: list[Round] = []
        start = time.perf_counter()
        while True:
            rounds.append(run_round(session, wl, args.seed, work, g))
            elapsed = time.perf_counter() - start
            # Stop at the whole number of rounds nearest to --seconds: a round
            # of pl5k-order is about half of it.  The traced run needs just
            # one untraced round, to measure the overhead against.
            if args.trace or elapsed + elapsed / len(rounds) / 2 > args.seconds:
                break
        setup += [r.times["generate"] for r in rounds]

        traced = None
        if args.trace:
            tr = Tracer()
            restore = install(tr)
            session.tracer = tr
            try:
                traced = run_round(session, wl, args.seed, work, g)
            finally:
                session.tracer = None
                restore()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(tr, wl, rounds, traced, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tr.save(OUT / f"spans-{wl.name}.npz")
    else:
        values = end_to_end(import_s, setup, rounds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(values) != set(units):
            raise KeyError(f"end-to-end metrics {sorted(values)} differ from "
                           f"BENCHMARK.json {sorted(units)}")

    if not session.failures:
        registry.setdefault(context["code_sha256"], {}).setdefault(run_key, session.hashes)
        registry_path.write_text(json.dumps(registry, indent=1, sort_keys=True) + "\n")

    failed = len(session.failures)
    record = {
        "context": context, "import_s": imports, "setup_generate_s": setup,
        "rss_before_rounds_mb": rss_before_rounds,
        "rounds": [{"times": r.times, "quality": r.quality, "rss_mb": r.rss_mb} for r in rounds],
        "traced_round": None if traced is None else {"times": traced.times},
        "metrics": values, "hashes": session.hashes, "attempted": session.attempted,
        "failures": session.failures,
    }
    if args.trace:
        record["spans"] = tr.summary()
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# {wl.name} seed={args.seed} rounds={len(rounds)} ({LOAD_SHAPE})")
    print("# context " + json.dumps(context, sort_keys=True))
    for name in units:
        print(f"{name:<40} {values[name]:>16.6g} {units[name]}")
    if not args.trace:
        for name, value in ungated(rounds).items():
            if value:
                unit = "s" if name.endswith("_s") else "ratio"
                print(f"{name:<40} {value:>16.6g} {unit} (not gated)")
    print(f"{'failed_ops':<40} {failed / session.attempted:>16.6g} ratio "
          f"({failed} of {session.attempted} commands)")
    for name, digest in sorted(session.hashes.items()):
        print(f"# sha256 {digest} {name}")
    for failure in session.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
