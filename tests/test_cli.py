from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphorder import cli, locality, tuner
from graphorder.cli import (CONFIG_KEYS, FALLBACKS, TRAIN_SETTINGS, _train_config, build_parser,
                            main, read_config, render_pgm)
from graphorder.graph import (Graph, format_edge_list, gen_erdos_renyi, gen_power_law,
                              load_edge_list)
from graphorder.locality import (DENSE_SIMILARITY_CAP, format_similarity_matrix,
                                 load_permutation)
from graphorder.scorer import CHECKPOINT_VERSION, ScorerConfig, init_scorer, save_scorer

from conftest import FIVE_VERTEX_SIM, float64_copy


@pytest.fixture
def fixture_matrix_file(tmp_path):
    path = tmp_path / "sim.txt"
    path.write_text(format_similarity_matrix(FIVE_VERTEX_SIM))
    return str(path)


@pytest.fixture
def small_graph_file(tmp_path):
    g = Graph.from_undirected(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
    path = tmp_path / "graph.txt"
    path.write_text(format_edge_list(g))
    return str(path)


class TestGenerate:
    def test_er_writes_loadable_file(self, tmp_path, capsys):
        out = tmp_path / "er.txt"
        assert main(["generate", "--kind", "er", "--n", "30", "--p", "0.2",
                     "--seed", "3", "--out", str(out)]) == 0
        g = load_edge_list(out.read_text()).graph
        assert g.n == 30 and g.arc_count > 0

    def test_powerlaw_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            main(["generate", "--kind", "powerlaw", "--n", "40",
                  "--gamma-exp", "1.8", "--seed", "9", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_er_needs_p(self, tmp_path):
        code = main(["generate", "--kind", "er", "--n", "5",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 1


class TestOrder:
    def test_greedy_on_fixture_matrix(self, fixture_matrix_file, tmp_path, capsys):
        out = tmp_path / "perm.txt"
        code = main(["order", fixture_matrix_file, "--matrix", "--algo", "go",
                     "--w", "3", "--out", str(out)])
        assert code == 0
        assert "F=7" in capsys.readouterr().out
        assert load_permutation(out.read_text()).tolist() == [0, 1, 3, 4, 2]

    def test_brute_on_fixture_matrix(self, fixture_matrix_file, capsys):
        assert main(["order", fixture_matrix_file, "--matrix", "--algo", "brute",
                     "--w", "3"]) == 0
        assert "F=7" in capsys.readouterr().out

    def test_brute_at_the_cap(self, tmp_path, capsys):
        # n = 10: the last 200 000-permutation chunks keep no first < last row.
        path = tmp_path / "g10.txt"
        path.write_text(format_edge_list(gen_erdos_renyi(10, 0.4, seed=1)))
        assert main(["order", str(path), "--algo", "brute", "--w", "3"]) == 0
        assert "F=75" in capsys.readouterr().out

    def test_degree_needs_graph_input(self, fixture_matrix_file):
        assert main(["order", fixture_matrix_file, "--matrix",
                     "--algo", "degree"]) == 1

    def test_merge_expands_to_original(self, tmp_path, capsys):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        path = tmp_path / "star.txt"
        path.write_text(format_edge_list(g))
        out = tmp_path / "perm.txt"
        assert main(["order", str(path), "--algo", "go", "--w", "2",
                     "--merge", "--seed", "5", "--out", str(out)]) == 0
        perm = load_permutation(out.read_text())
        assert sorted(perm.tolist()) == [0, 1, 2, 3]

    def test_dropped_loops_and_duplicates_reported(self, tmp_path, capsys):
        path = tmp_path / "messy.txt"
        path.write_text("0 0\n0 1\n0 1\n1 2\n2 2\n")
        assert main(["order", str(path), "--w", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "dropped 2 self-loops, 1 duplicate arcs\n"
        assert captured.out.startswith("F=")

    def test_go_builds_one_similarity_source(self, tmp_path, monkeypatch):
        # Below the dense cap, GO and the printed F read one dense matrix.
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(gen_power_law(300, 1.6, seed=7)))
        builds = []
        dense = locality.dense_similarity
        monkeypatch.setattr(locality, "dense_similarity",
                            lambda g: builds.append(g.n) or dense(g))
        assert main(["order", str(path), "--algo", "go", "--w", "5"]) == 0
        assert builds == [300]

    def test_merge_that_removes_nothing_builds_one_similarity_source(
            self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(gen_power_law(300, 1.6, seed=7)))
        assert main(["order", str(path), "--algo", "go", "--w", "5",
                     "--out", str(tmp_path / "plain.txt")]) == 0
        builds = []
        dense = locality.dense_similarity
        monkeypatch.setattr(locality, "dense_similarity",
                            lambda g: builds.append(g.n) or dense(g))
        assert main(["order", str(path), "--algo", "go", "--w", "5", "--merge",
                     "--out", str(tmp_path / "merged.txt")]) == 0
        assert "merged 300 -> 300 vertices" in capsys.readouterr().err
        assert builds == [300]
        assert (tmp_path / "merged.txt").read_text() == (tmp_path / "plain.txt").read_text()

    def test_merge_output_pinned(self, tmp_path, capsys):
        # Each undirected edge of a power-law graph above the dense cap, kept
        # in one drawn direction: 2500 -> 1836 vertices, 161 multi-member groups.
        und = gen_power_law(2500, 1.6, seed=7).undirected_edges()
        flip = np.random.default_rng(3).random(len(und)) < 0.5
        path, out = tmp_path / "g.txt", tmp_path / "perm.txt"
        path.write_text(format_edge_list(Graph(2500, np.where(flip[:, None], und[:, ::-1], und))))
        assert main(["order", str(path), "--algo", "go", "--w", "5", "--merge",
                     "--seed", "5", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "merged 2500 -> 1836 vertices" in captured.err
        assert captured.out == "F=19322\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "1f0e284264ecd1677d37b4451b6c0a91565f71445071a33b60439daae5a8cb5c")

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert main(["order", str(tmp_path / "nope.txt")]) == 1


class TestEval:
    def test_edgeless_identity_scores_zero(self, tmp_path, capsys):
        gpath = tmp_path / "empty.txt"
        gpath.write_text("n 4\n")
        ppath = tmp_path / "perm.txt"
        ppath.write_text("0\n1\n2\n3\n")
        assert main(["eval", str(gpath), "--perm", str(ppath), "--w", "3"]) == 0
        assert "F=0" in capsys.readouterr().out

    def test_matches_order_output(self, small_graph_file, tmp_path, capsys):
        out = tmp_path / "perm.txt"
        main(["order", small_graph_file, "--algo", "go", "--w", "2",
              "--out", str(out)])
        first = capsys.readouterr().out
        main(["eval", small_graph_file, "--perm", str(out), "--w", "2"])
        assert capsys.readouterr().out == first

    def test_order_and_eval_agree_above_dense_cap(self, tmp_path, capsys):
        # An ER graph has no hubs, unlike the power-law pin of greedy_order;
        # both commands score pairs on demand.  F recorded before pairs were
        # scored from the two in-lists.
        g = gen_erdos_renyi(2500, 0.003, seed=7)
        assert g.n > DENSE_SIMILARITY_CAP
        graph, perm = tmp_path / "er.txt", tmp_path / "perm.txt"
        graph.write_text(format_edge_list(g))
        assert main(["order", str(graph), "--algo", "go", "--out", str(perm)]) == 0
        assert main(["eval", str(graph), "--perm", str(perm)]) == 0
        assert capsys.readouterr().out.splitlines() == ["F=10100", "F=10100"]


class TestTrain:
    def test_don_rl_round_trip_and_order(self, small_graph_file, tmp_path, capsys):
        ck = tmp_path / "model.npz"
        code = main(["train", small_graph_file, "--algo", "don-rl",
                     "--w", "3", "--seed", "2", "--out", str(ck),
                     "--hidden", "12", "--batch-size", "8", "--eval-size", "8",
                     "--rl-steps", "2", "--trajectory-len", "2",
                     "--don-steps-per-t", "1", "--warmup-steps", "2"])
        assert code == 0
        assert ck.exists() and (tmp_path / "model.npz.policy.npz").exists()
        metrics = (tmp_path / "model.npz.metrics.csv").read_text()
        assert metrics.splitlines()[0] == "rl_step,t,reward,baseline,mean_action_prob"
        capsys.readouterr()
        assert main(["order", small_graph_file, "--algo", "don",
                     "--model", str(ck), "--w", "3"]) == 0
        assert "F=" in capsys.readouterr().out

    def test_merged_training_round_trip(self, tmp_path, capsys):
        # A directed 7-cycle with an out-fan of three leaves on vertex 0 and an
        # in-fan of two on vertex 4: merging leaves 7 + 1 + 1 vertices, and
        # the model trained on them decodes the same merged graph.
        cycle = [0, 4, 7, 8, 9, 10, 11]
        arcs = list(zip(cycle, cycle[1:] + cycle[:1])) + [(0, 1), (0, 2), (0, 3), (5, 4), (6, 4)]
        path = tmp_path / "fans.txt"
        path.write_text(format_edge_list(Graph(12, arcs)))
        ck = tmp_path / "model.npz"
        assert main(["train", str(path), "--algo", "don", "--merge", "--w", "3",
                     "--seed", "1", "--out", str(ck), "--hidden", "8", "--batch-size", "4",
                     "--global-steps", "3", "--eval-size", "4"]) == 0
        assert "training on merged graph: n=9\n" in capsys.readouterr().err
        out = tmp_path / "perm.txt"
        assert main(["order", str(path), "--algo", "don", "--merge", "--model", str(ck),
                     "--w", "3", "--seed", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("F=")
        assert sorted(load_permutation(out.read_text()).tolist()) == list(range(12))

    def test_same_seed_byte_identical_outputs(self, small_graph_file, tmp_path):
        outs = []
        for tag in ("one", "two"):
            ck = tmp_path / f"{tag}.npz"
            metrics = tmp_path / f"{tag}.csv"
            main(["train", small_graph_file, "--algo", "don", "--w", "3",
                  "--seed", "7", "--out", str(ck), "--metrics", str(metrics),
                  "--hidden", "8", "--batch-size", "8", "--global-steps", "12",
                  "--eval-size", "6", "--eval-every", "4"])
            outs.append(metrics.read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_with_flag_override(self, small_graph_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("w = 3\nglobal_steps = 6\nhidden = 8\n"
                       "batch_size = 4\neval_size = 4  # inline comment\n")
        ck = tmp_path / "m.npz"
        metrics = tmp_path / "m.csv"
        assert main(["train", small_graph_file, "--algo", "don",
                     "--config", str(cfg), "--seed", "1", "--out", str(ck),
                     "--metrics", str(metrics), "--global-steps", "3"]) == 0
        lines = metrics.read_text().strip().splitlines()
        assert lines[0] == "step,loss,rmse"
        assert len(lines) == 4  # flag overrides config's 6 steps

    def test_don_ignores_rl_keys_in_config_file(self, small_graph_file, tmp_path):
        # DON builds no RlConfig, so a value RlConfig refuses cannot stop it.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tuning_scale = inf\nrl_steps = 3\n")
        assert main(["train", small_graph_file, "--algo", "don", "--w", "3",
                     "--config", str(cfg), "--global-steps", "2", "--hidden", "4",
                     "--batch-size", "4", "--eval-size", "4",
                     "--out", str(tmp_path / "m.npz")]) == 0
        assert main(["train", small_graph_file, "--algo", "don-rl", "--w", "3",
                     "--config", str(cfg), "--out", str(tmp_path / "m.npz")]) == 1

    @pytest.mark.parametrize("key", ["global_steps", "eval_every"])
    def test_don_rl_ignores_don_only_keys_in_config_file(self, key, small_graph_file, tmp_path,
                                                         capsys):
        # DON-RL does not read them, so a value ScorerConfig refuses cannot stop it.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0\n")
        assert main(["train", small_graph_file, "--algo", "don-rl", "--w", "3",
                     "--config", str(cfg), "--hidden", "4", "--batch-size", "4",
                     "--eval-size", "4", "--rl-steps", "1", "--trajectory-len", "1",
                     "--don-steps-per-t", "1", "--warmup-steps", "1",
                     "--out", str(tmp_path / "m.npz")]) == 0
        capsys.readouterr()
        assert main(["train", small_graph_file, "--algo", "don", "--w", "3",
                     "--config", str(cfg), "--out", str(tmp_path / "m.npz")]) == 1
        assert capsys.readouterr().err == f"error: {key} must be positive, got 0\n"

    def test_don_rl_ignores_global_steps_in_config_file(self, small_graph_file, tmp_path):
        # DON-RL's schedule is warmup_steps + rl_steps * trajectory_len *
        # don_steps_per_t scorer steps; global_steps is DON's alone.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("global_steps = 3\n")
        written = []
        for run, extra in (("a", []), ("b", ["--config", str(cfg)])):
            (tmp_path / run).mkdir()
            assert main(["train", small_graph_file, "--w", "3", "--seed", "2", "--hidden", "4",
                         "--batch-size", "4", "--eval-size", "4", "--rl-steps", "2",
                         "--trajectory-len", "2", "--warmup-steps", "2",
                         "--out", str(tmp_path / run / "m.npz"), *extra]) == 0
            written.append({f.name: f.read_bytes() for f in (tmp_path / run).iterdir()})
        assert len(written[0]) == 4 and written[0] == written[1]
        loss_rows = (tmp_path / "a" / "m.npz.metrics.csv.don.csv").read_text().splitlines()[1:]
        assert len(loss_rows) == 2 + 2 * 2 * tuner.RlConfig().don_steps_per_t

    def test_don_rl_refuses_global_steps_flag(self, small_graph_file, tmp_path, capsys):
        assert main(["train", small_graph_file, "--algo", "don-rl", "--global-steps", "99",
                     "--out", str(tmp_path / "m.npz")]) == 1
        assert capsys.readouterr().err == "error: --global-steps: read by --algo don only\n"
        assert [f.name for f in tmp_path.iterdir()] == ["graph.txt"]

    def test_baseline_before_first_update_is_empty(self, small_graph_file, tmp_path):
        ck = tmp_path / "m.npz"
        assert main(["train", small_graph_file, "--algo", "don-rl", "--w", "3",
                     "--seed", "2", "--out", str(ck), "--hidden", "8",
                     "--batch-size", "8", "--eval-size", "4", "--rl-steps", "2",
                     "--trajectory-len", "2", "--don-steps-per-t", "1",
                     "--warmup-steps", "0"]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "m.npz.metrics.csv").read_text().splitlines()[1:]]
        assert [row[3] for row in rows[:2]] == ["", ""]
        assert all(float(row[3]) < 0.0 for row in rows[2:])

    def test_don_rl_loss_log_has_every_rmse_it_measured(self, small_graph_file, tmp_path):
        # Warm-up of 10 steps evaluates every 10 // 5 = 2; then 2 x 2 tuning
        # steps of 3 scorer steps, each evaluated after its last, as its reward.
        assert main(["train", small_graph_file, "--algo", "don-rl", "--w", "3",
                     "--out", str(tmp_path / "m.npz"), "--hidden", "8", "--batch-size", "8",
                     "--eval-size", "4", "--warmup-steps", "10", "--rl-steps", "2",
                     "--trajectory-len", "2", "--don-steps-per-t", "3"]) == 0
        loss_rows = [line.split(",") for line in
                     (tmp_path / "m.npz.metrics.csv.don.csv").read_text().splitlines()[1:]]
        rmse_at = {int(step): float(err) for step, _, err in loss_rows if err}
        assert len(loss_rows) == 22
        assert sorted(rmse_at) == [2, 4, 6, 8, 10, 13, 16, 19, 22]
        rewards = [float(line.split(",")[2]) for line in
                   (tmp_path / "m.npz.metrics.csv").read_text().splitlines()[1:]]
        assert rewards == [-rmse_at[step] for step in (13, 16, 19, 22)]

    def test_wall_time_column_in_both_loss_csvs(self, small_graph_file, tmp_path):
        for algo, loss_csv, steps in (
                ("don", "m.npz.metrics.csv", ["--global-steps", "3"]),
                ("don-rl", "m.npz.metrics.csv.don.csv",
                 ["--rl-steps", "1", "--trajectory-len", "1", "--don-steps-per-t", "1",
                  "--warmup-steps", "2"])):
            assert main(["train", small_graph_file, "--algo", algo, "--w", "3",
                         "--out", str(tmp_path / "m.npz"), "--hidden", "8",
                         "--batch-size", "8", "--eval-size", "4", *steps,
                         "--wall-time"]) == 0
            lines = (tmp_path / loss_csv).read_text().splitlines()
            assert lines[0] == "step,loss,rmse,wall_time", algo
            walls = [float(line.split(",")[3]) for line in lines[1:]]
            assert len(walls) == 3 and walls == sorted(walls), algo

    @pytest.mark.parametrize("algo", ["don", "don-rl"])
    def test_eval_size_reaches_eval_set_as_given(self, algo, small_graph_file, tmp_path,
                                                monkeypatch):
        sizes = []

        def record(src, prob, w, size, seed):
            sizes.append(size)
            raise RuntimeError("stop after the eval-set size is read")

        monkeypatch.setattr(tuner, "build_eval_set", record)
        assert main(["train", small_graph_file, "--algo", algo, "--w", "3",
                     "--eval-size", "5001", "--out", str(tmp_path / "m.npz")]) == 1
        assert sizes == [5001]

    def test_don_builds_one_similarity_source(self, tmp_path, monkeypatch):
        # The eval set and the training labels read one dense matrix.
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(gen_power_law(300, 1.6, seed=7)))
        builds = []
        dense = locality.dense_similarity
        monkeypatch.setattr(locality, "dense_similarity",
                            lambda g: builds.append(g.n) or dense(g))
        assert main(["train", str(path), "--algo", "don", "--w", "3", "--global-steps", "2",
                     "--batch-size", "4", "--eval-size", "4", "--hidden", "4",
                     "--out", str(tmp_path / "m.npz")]) == 0
        assert builds == [300]

    def test_every_config_field_has_one_setting(self):
        for cls in (ScorerConfig, tuner.RlConfig):
            filled = sorted(TRAIN_SETTINGS[cls])
            assert filled == sorted(f.name for f in dataclasses.fields(cls)), cls

    def test_defaults_written_as_text_rebuild_the_default_configs(self, tmp_path):
        # Every key written as its field's default and read back, from a
        # config file or as flags, fills the dataclass that owns it with a
        # value of the field's type: the reprs tell 64 from 64.0.
        defaults = {**FALLBACKS, **dataclasses.asdict(ScorerConfig()),
                    **dataclasses.asdict(tuner.RlConfig())}
        assert list(defaults) == list(CONFIG_KEYS)
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in defaults.items()))
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in defaults.items()
                 if key not in FALLBACKS]
        expected = [ScorerConfig(), tuner.RlConfig()]
        for argv, config in ((["--config", str(cfg)], read_config(str(cfg))), (flags, {})):
            args = build_parser().parse_args(["train", "g.txt", "--out", "m.npz", *argv])
            built = [_train_config(cls, args, config) for cls in (ScorerConfig, tuner.RlConfig)]
            assert repr(built) == repr(expected), argv

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 3\n")
        with pytest.raises(ValueError):
            read_config(str(cfg))


class TestPartitionCommand:
    def test_order_sweep_with_perm(self, small_graph_file, tmp_path, capsys):
        perm = tmp_path / "perm.txt"
        main(["order", small_graph_file, "--algo", "degree", "--out", str(perm)])
        capsys.readouterr()
        out = tmp_path / "parts.csv"
        assert main(["partition", small_graph_file, "--method", "order",
                     "--k", "2", "--perm", str(perm), "--out", str(out)]) == 0
        assert "RF=" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u,v,part" and len(lines) == 6

    def test_random_deterministic(self, small_graph_file, tmp_path, capsys):
        for _ in range(2):
            main(["partition", small_graph_file, "--method", "random",
                  "--k", "2", "--seed", "3"])
        a, b = capsys.readouterr().out.strip().splitlines()
        assert a == b

    def test_greedy(self, small_graph_file, capsys):
        assert main(["partition", small_graph_file, "--method", "greedy",
                     "--k", "2"]) == 0

    def test_greedy_with_more_parts_than_edges(self, small_graph_file, capsys):
        # Parts past the edge count stay empty, so any larger k gives the same
        # RF.  The child caps its address space: a k-sized table would fail.
        assert main(["partition", small_graph_file, "--method", "greedy", "--k", "5"]) == 0
        rf = capsys.readouterr().out
        done = _run_capped_cli("partition", small_graph_file, "--method", "greedy",
                               "--k", "99999999999999999999")
        assert done.returncode == 0, done.stderr
        assert done.stdout == rf


class TestCompressCommand:
    def test_csv_output(self, small_graph_file, tmp_path):
        out = tmp_path / "cost.csv"
        assert main(["compress-cost", small_graph_file, "--b", "2,3",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "b,cost_nz,cost_r"
        assert len(lines) == 3

    def test_width_beyond_int64_matches_width_n(self, small_graph_file, capsys):
        assert main(["compress-cost", small_graph_file,
                     "--b", "2,6,99999999999999999999"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "6,1,1.0"
        assert lines[3] == "99999999999999999999,1,1.0"


class TestRenderMatrix:
    def test_p2_dimensions(self, small_graph_file, tmp_path):
        out = tmp_path / "m.pgm"
        assert main(["render-matrix", small_graph_file, "--out", str(out)]) == 0
        header = out.read_text().splitlines()
        assert header[0] == "P2"
        assert header[1] == "6 6"
        rows = header[3:]
        assert len(rows) == 6 and all(len(r.split()) == 6 for r in rows)

    def test_p5_binary(self, small_graph_file, tmp_path):
        out = tmp_path / "m5.pgm"
        main(["render-matrix", small_graph_file, "--format", "p5",
              "--out", str(out)])
        data = out.read_bytes()
        assert data.startswith(b"P5\n6 6\n255\n")
        assert len(data) == len(b"P5\n6 6\n255\n") + 36

    def test_block_downsampled(self, small_graph_file, tmp_path):
        out = tmp_path / "mb.pgm"
        main(["render-matrix", small_graph_file, "--block", "3",
              "--out", str(out)])
        assert out.read_text().splitlines()[1] == "2 2"

    def test_block_beyond_int64_matches_block_n(self, small_graph_file, tmp_path):
        images = []
        for block in ("6", "99999999999999999999"):
            out = tmp_path / f"m{block}.pgm"
            assert main(["render-matrix", small_graph_file, "--block", block,
                         "--out", str(out)]) == 0
            images.append(out.read_bytes())
        assert images[0] == images[1] == b"P2\n1 1\n255\n0\n"

    def test_pixels_match_arcs(self):
        g = Graph(3, [(0, 2)])
        data = render_pgm(g, np.arange(3), "p5")
        img = np.frombuffer(data[len(b"P5\n3 3\n255\n"):], dtype=np.uint8)
        assert img.reshape(3, 3)[0, 2] == 0
        assert img.sum() == 255 * 8


@pytest.mark.parametrize("argv", [
    "eval {graph} --perm {dir}/p.txt --config {dir}/bad.cfg",
    "eval {graph} --perm {dir}/p.txt --config {dir}/missing.cfg",
    "order {graph} --algo don --model {dir}/nokind.npz",
    "order {graph} --algo don --model {dir}/short.npz",
    "order {graph} --algo don --model {graph}",
    "render-matrix {graph} --block 0 --out {dir}/m.pgm",
    "render-matrix {graph} --block -2 --out {dir}/m.pgm",
    "train {graph} --w 7 --out {dir}/m.npz",
    "train {dir}/empty.txt --out {dir}/m.npz",
    "train {dir}/empty.txt --algo don --out {dir}/m.npz",
    "compress-cost {dir}/huge-id.txt",
    "eval {graph} --perm {dir}/short.txt",
    "eval {dir}/sim.txt --matrix --perm {dir}/short.txt",
    "eval {graph} --perm {dir}/huge-perm.txt",
    "compress-cost {dir}/huge-n.txt",
    "train {graph} --algo don --eval-every 0 --eval-size 4 --out {dir}/m.npz",
    "train {graph} --rl-steps 0 --out {dir}/m.npz",
    "train {graph} --trajectory-len 0 --out {dir}/m.npz",
    "train {graph} --algo don-rl --eval-every 5 --out {dir}/m.npz",
    "train {graph} --algo don-rl --global-steps 99 --don-steps-per-t 2 --out {dir}/m.npz",
    "train {graph} --algo don --rl-steps 7 --out {dir}/m.npz",
    "train {graph} --algo don --trajectory-len 3 --out {dir}/m.npz",
    "train {graph} --algo don --don-steps-per-t 2 --out {dir}/m.npz",
    "train {graph} --algo don --warmup-steps 99 --out {dir}/m.npz",
    "train {graph} --algo don --gamma 0.5 --out {dir}/m.npz",
    "train {graph} --algo don --tuning-scale 0.2 --out {dir}/m.npz",
    "train {graph} --algo don --policy-learning-rate 0.01 --out {dir}/m.npz",
    "train {graph} --algo don --policy-hidden 8 --gamma 0.5 --out {dir}/m.npz",
    "generate --kind powerlaw --n 20 --gamma-exp nan --out {dir}/g.txt",
    "generate --kind powerlaw --n 20 --gamma-exp 1.6 --p 0.1 --out {dir}/g.txt",
    "generate --kind er --n 20 --p 0.1 --gamma-exp 1.6 --out {dir}/g.txt",
    "order {graph} --algo go --model {dir}/m.npz",
    "partition {graph} --method random --k 2 --perm {dir}/p.txt",
    "order {dir}/big.mat --matrix",
    "train {graph} --algo don --don-learning-rate -1 --out {dir}/m.npz",
    "train {graph} --algo don-rl --policy-learning-rate nan --rl-steps 1 --out {dir}/m.npz",
    "train {graph} --tuning-scale inf --out {dir}/m.npz",
    "order {graph} --algo don --model {dir}/m.npz.policy.npz",
    "train {graph} --algo don --global-steps -5 --eval-size 4 --out {dir}/m.npz",
    "train {graph} --warmup-steps -3 --rl-steps 1 --trajectory-len 1 --don-steps-per-t 1 "
    "--eval-size 4 --out {dir}/m.npz",
    "train {graph} --don-steps-per-t -2 --rl-steps 1 --trajectory-len 1 --eval-size 4 "
    "--out {dir}/m.npz",
    "train {graph} --rl-steps -1 --don-steps-per-t 1 --eval-size 4 --out {dir}/m.npz",
    "train {graph} --rl-steps 0 --don-steps-per-t 1 --eval-size 4 --out {dir}/m.npz",
    "train {graph} --gamma -4 --rl-steps 1 --trajectory-len 1 --don-steps-per-t 1 "
    "--eval-size 4 --out {dir}/m.npz",
    "train {graph} --hidden 0 --out {dir}/m.npz",
    "train {graph} --batch-size 0 --out {dir}/m.npz",
    "train {graph} --algo don --eval-size 0 --out {dir}/m.npz",
    "train {graph} --policy-hidden 0 --out {dir}/m.npz",
    "eval {dir}/huge-total.mat --matrix --perm {dir}/id4.txt --w 3",
    "order {dir}/huge-total.mat --matrix --w 3",
    "order {dir}/huge-total.mat --matrix --algo brute --w 3",
    "order {graph} --algo brute --w 0",
    "order {graph} --algo don --model {dir}/scorer.npz --w 1",
    "order {graph} --algo don --model {dir}/v1.npz",
    "order {graph} --algo don --model {dir}/f64.npz",
    "train {graph} --algo don --w 3 --global-steps 2 --eval-size 4 --out {dir}/nodir/m.npz",
    "train {graph} --algo don --w 3 --global-steps 2 --eval-size 4 --out {dir}/m.npz "
    "--metrics {dir}/nodir/m.csv",
    "order {graph} --algo go --out {dir}/nodir/go.perm",
    "compress-cost {graph} --b 8,,16",
], ids=["cfg-value", "cfg-missing", "npz-no-kind", "npz-W1-rows", "model-text-file",
        "block-0", "block-neg", "w-covers-graph", "train-n0", "train-don-n0", "int64-overflow", "short-perm", "short-perm-matrix",
        "perm-overflow", "header-n-overflow", "eval-every-0", "rl-steps-0",
        "trajectory-len-0", "don-rl-eval-every", "don-rl-global-steps",
        "don-rl-steps", "don-trajectory-len", "don-steps-per-t", "don-warmup-steps",
        "don-gamma", "don-tuning-scale", "don-policy-learning-rate", "don-policy-hidden",
        "gamma-exp-nan", "powerlaw-p", "er-gamma-exp", "go-model",
        "random-perm", "matrix-int64-overflow", "don-lr-negative", "policy-lr-nan",
        "tuning-scale-inf", "model-is-policy", "don-global-steps-negative",
        "warmup-steps-negative", "don-steps-per-t-negative", "rl-steps-negative",
        "rl-steps-0-with-steps-per-t", "gamma-negative", "hidden-0",
        "batch-size-0", "eval-size-0", "policy-hidden-0", "matrix-total-eval",
        "matrix-total-go", "matrix-total-brute", "brute-w-0", "don-decode-w-1",
        "model-version-1", "model-float64", "train-out-nodir", "train-metrics-nodir",
        "order-out-nodir", "compress-b-empty"])
def test_bad_input_is_one_error_line(argv, small_graph_file, tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text("w = five\n")
    (tmp_path / "huge-id.txt").write_text("0 1\n0 99999999999999999999\n")
    (tmp_path / "short.txt").write_text("0\n")
    (tmp_path / "huge-perm.txt").write_text("99999999999999999999\n")
    (tmp_path / "huge-n.txt").write_text("n 99999999999999999999\n0 1\n")
    (tmp_path / "empty.txt").write_text("n 0\n")
    (tmp_path / "sim.txt").write_text(format_similarity_matrix(FIVE_VERTEX_SIM))
    (tmp_path / "big.mat").write_text("2\n0 99999999999999999999\n99999999999999999999 0\n")
    huge = np.zeros((4, 4), dtype=np.int64)
    huge[:3, :3] = 1 << 62  # fits in int64; the rows and the total do not
    (tmp_path / "huge-total.mat").write_text(format_similarity_matrix(huge))
    (tmp_path / "id4.txt").write_text("0\n1\n2\n3\n")
    save_scorer(init_scorer(6, 4, seed=0), str(tmp_path / "scorer.npz"))
    params = init_scorer(6, 4, seed=0).params()
    np.savez(tmp_path / "nokind.npz", format_version=CHECKPOINT_VERSION, n=6, seed=0, **params)
    np.savez(tmp_path / "short.npz", kind="set_scorer", format_version=CHECKPOINT_VERSION,
             n=6, seed=0, **{**params, "W1": params["W1"][:4]})
    np.savez(tmp_path / "v1.npz", kind="set_scorer", format_version=1, n=6, seed=0, **params)
    save_scorer(float64_copy(init_scorer(6, 4, seed=0)), str(tmp_path / "f64.npz"))
    tuner.init_policy(6, 4, seed=0).save(str(tmp_path / "m.npz.policy.npz"))
    assert main(argv.format(graph=small_graph_file, dir=tmp_path).split()) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("argv, message", [
    ("order {graph} --algo degree --w 0", "window size must be at least 1"),
    ("order {graph} --algo go --w -2", "window size must be at least 1"),
    ("order {graph} --algo brute --w 0", "window size must be at least 1"),
    ("order {graph} --algo don --model {dir}/missing.npz --w 1",
     "window size must be at least 2"),
    ("order {dir}/sim.txt --matrix --w 0", "window size must be at least 1"),
    ("order {dir}/sim.txt --matrix --algo degree", "matrix input supports only --algo go or brute"),
    ("order {dir}/sim.txt --matrix --merge", "--merge needs a graph input"),
    ("order {graph} --algo don", "--model is required for --algo don"),
    ("eval {graph} --perm {dir}/p.txt --w 0", "window size must be at least 1"),
    ("compress-cost {graph} --b 8,,16", "--b '8,,16': expected comma-separated integers"),
    ("compress-cost {graph} --b 0", "--b must be positive, got 0"),
    ("compress-cost {graph} --b 8,-3", "--b must be positive, got -3"),
    ("partition {graph} --method greedy --k 0", "--k must be positive, got 0"),
    ("render-matrix {graph} --block 0 --out {dir}/m.pgm", "--block must be positive, got 0"),
    ("generate --kind er --n 6 --p 0.5 --out {dir}/nodir/g.txt",
     "cannot write {dir}/nodir/g.txt: no directory {dir}/nodir"),
    ("order {graph} --algo go --out {dir}/nodir/go.perm",
     "cannot write {dir}/nodir/go.perm: no directory {dir}/nodir"),
    ("train {graph} --algo don --out {dir}/nodir/m.npz",
     "cannot write {dir}/nodir/m.npz: no directory {dir}/nodir"),
    ("train {graph} --algo don --out {dir}/m.npz --metrics {dir}/nodir/m.csv",
     "cannot write {dir}/nodir/m.csv: no directory {dir}/nodir"),
    ("train {graph} --out {dir}/m.npz --metrics {dir}/nodir/m.csv",
     "cannot write {dir}/nodir/m.csv: no directory {dir}/nodir"),
    ("compress-cost {graph} --out {dir}/nodir/cost.csv",
     "cannot write {dir}/nodir/cost.csv: no directory {dir}/nodir"),
    ("partition {graph} --method greedy --k 2 --out {dir}/nodir/parts.csv",
     "cannot write {dir}/nodir/parts.csv: no directory {dir}/nodir"),
    ("render-matrix {graph} --out {dir}/nodir/m.pgm",
     "cannot write {dir}/nodir/m.pgm: no directory {dir}/nodir"),
], ids=["w-degree", "w-go", "w-brute", "w-don", "w-matrix", "matrix-degree", "matrix-merge",
        "don-no-model", "eval-w", "compress-b-empty", "compress-b-zero",
        "compress-b-negative", "partition-k-zero", "render-block-zero",
        "generate-out-nodir", "go-out-nodir",
        "don-out-nodir", "don-metrics-nodir", "don-rl-metrics-nodir", "compress-out-nodir",
        "partition-out-nodir", "render-out-nodir"])
def test_refuses_flags_before_reading_any_file(argv, message, small_graph_file,
                                                         tmp_path, capsys, monkeypatch):
    # Nor does a refused command write any file: no run leaves part of its
    # outputs behind, such as a checkpoint without its metrics.
    def no_read(*args):
        raise AssertionError("read an input before checking the flags")

    monkeypatch.setattr(cli, "_load_source", no_read)
    monkeypatch.setattr(cli, "_load_graph", no_read)
    assert main(argv.format(graph=small_graph_file, dir=tmp_path).split()) == 1
    assert capsys.readouterr().err == f"error: {message.format(dir=tmp_path)}\n"
    assert [f.name for f in tmp_path.iterdir()] == ["graph.txt"]


@pytest.mark.parametrize("argv, code, out, err", [
    ("order {mat} --matrix --out {dir}/z.perm", 0, "F=0\n", ""),
    ("order {mat} --matrix --algo brute --out {dir}/z.perm", 0, "F=0\n", ""),
    ("order {mat} --matrix", 1, "",
     "error: similarity matrix header must be a vertex count of at least 0, got -1\n"),
], ids=["zero-go", "zero-brute", "negative"])
def test_matrix_header_counts(argv, code, out, err, tmp_path, capsys):
    # A 0 header is an empty matrix, as a 0-vertex graph orders fine.
    (tmp_path / "h.mat").write_text("0\n" if code == 0 else "-1\n")
    assert main(argv.format(mat=tmp_path / "h.mat", dir=tmp_path).split()) == code
    assert capsys.readouterr() == (out, err)
    if code == 0:
        assert main(["eval", str(tmp_path / "h.mat"), "--matrix",
                     "--perm", str(tmp_path / "z.perm")]) == 0
        assert capsys.readouterr().out == "F=0\n"


@pytest.mark.parametrize("flags, field", [
    ("--hidden 0", "hidden"),
    ("--batch-size 0", "batch_size"), ("--algo don --eval-size 0", "eval_size"),
    ("--policy-hidden 0", "policy_hidden"), ("--algo don --global-steps 0", "global_steps"),
    ("--algo don --eval-every 0", "eval_every"), ("--rl-steps 0", "rl_steps"),
    ("--trajectory-len 0", "trajectory_len"), ("--don-steps-per-t 0", "don_steps_per_t")])
def test_count_settings_refused_before_any_row(flags, field, small_graph_file, tmp_path,
                                               monkeypatch, capsys):
    # Below the cap, building the source gathers every row, and the eval set
    # is grown before training reads the counts, so the config refuses them.
    rows = []
    gather = locality._similarity_row
    monkeypatch.setattr(locality, "_similarity_row",
                        lambda g, x: rows.append(x) or gather(g, x))
    assert main(f"train {small_graph_file} {flags} --out {tmp_path}/m.npz".split()) == 1
    assert capsys.readouterr().err == f"error: {field} must be positive, got 0\n"
    assert rows == []


@pytest.mark.parametrize("flags, key", [
    ("--algo don --don-learning-rate -1", "don_learning_rate"),
    ("--don-learning-rate nan", "don_learning_rate"),
    ("--policy-learning-rate nan", "policy_learning_rate"),
    ("--policy-learning-rate 0", "policy_learning_rate"),
    ("--tuning-scale inf", "tuning_scale"), ("--tuning-scale -0.1", "tuning_scale"),
    ("--warmup-steps -1", "warmup_steps"), ("--gamma 1.5", "gamma"), ("--gamma nan", "gamma")])
def test_rate_and_range_settings_named_by_their_key(flags, key, small_graph_file, tmp_path,
                                                    monkeypatch, capsys):
    # The error names the config key, the flag with underscores.
    rows = []
    gather = locality._similarity_row
    monkeypatch.setattr(locality, "_similarity_row",
                        lambda g, x: rows.append(x) or gather(g, x))
    assert main(f"train {small_graph_file} {flags} --out {tmp_path}/m.npz".split()) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} "), err
    assert rows == []


@pytest.mark.parametrize("argv", [
    "generate --kind er --n 5 --p 0.5 --out {dir}/g.txt --w 3",
    "compress-cost {graph} --w 3",
    "partition {graph} --method greedy --k 2 --w 3",
    "render-matrix {graph} --out {dir}/m.pgm --w 3",
    "eval {graph} --perm {dir}/p.txt --seed 1",
    "compress-cost {graph} --seed 1",
    "render-matrix {graph} --out {dir}/m.pgm --seed 1",
    "compress-cost {graph} --config {dir}/c.cfg",
    "render-matrix {graph} --out {dir}/m.pgm --config {dir}/c.cfg",
], ids=["generate-w", "compress-cost-w", "partition-w", "render-matrix-w", "eval-seed",
        "compress-cost-seed", "render-matrix-seed", "compress-cost-config",
        "render-matrix-config"])
def test_shared_flag_the_command_does_not_read_is_refused(argv, small_graph_file, tmp_path,
                                                          capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.format(graph=small_graph_file, dir=tmp_path).split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "eval {graph} --perm {perm}",
    "compress-cost {graph} --perm {perm}",
    "partition {graph} --method order --k 2 --perm {perm}",
    "render-matrix {graph} --perm {perm} --out {dir}/m.pgm",
], ids=["eval", "compress-cost", "partition", "render-matrix"])
def test_every_permutation_reader_checks_the_length(argv, small_graph_file, tmp_path, capsys):
    perm = tmp_path / "p.txt"
    perm.write_text("1\n0\n2\n")
    assert main(argv.format(graph=small_graph_file, perm=perm, dir=tmp_path).split()) == 1
    assert capsys.readouterr().err == "error: not a permutation of [0, 6)\n"


def _run_capped_cli(*argv: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run the CLI in a child whose address space is capped at 2 GiB."""
    child = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
             "from graphorder.cli import main; sys.exit(main(sys.argv[1:]))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    return subprocess.run([sys.executable, "-c", child, *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_header_too_large_for_memory_is_one_error_line(tmp_path):
    # The child caps its own address space, so the n-length arrays of the
    # declared graph cannot be allocated.
    (tmp_path / "huge.txt").write_text("n 10000000000\n0 1\n")
    done = _run_capped_cli("compress-cost", str(tmp_path / "huge.txt"))
    err = done.stderr.splitlines()
    assert done.returncode == 1, done.stderr
    assert len(err) == 1 and err[0].startswith("error: out of memory"), err


def test_arc_codes_past_int64_are_one_error_line(tmp_path):
    # 3e9 * n + 1 passes 2**63, so the arc's code u * n + v would wrap: the
    # wrapped code was read back as an arc out of range.  The refusal comes
    # before any n-length array, so the capped child has memory to spare.
    (tmp_path / "wide.txt").write_text("n 4000000000\n3000000000 1\n")
    done = _run_capped_cli("order", str(tmp_path / "wide.txt"), "--algo", "degree")
    err = done.stderr.splitlines()
    assert done.returncode == 1, done.stderr
    assert err == ["error: arc codes overflow int64: largest id 3000000000 times "
                   "n + 1 = 4000000001 is not below 2**63"], err


@pytest.mark.parametrize("flags, message", [
    (("--eval-size", "99999999999999999999"), "error: Maximum allowed dimension exceeded"),
    (("--eval-size", "1000000000000"), "error: out of memory"),
    (("--batch-size", "99999999999999999999"), "error: Maximum allowed dimension exceeded"),
    (("--batch-size", "10000000", "--eval-size", "8"), "error: out of memory"),
], ids=["beyond-int64", "beyond-memory", "batch-beyond-int64", "batch-beyond-memory"])
def test_eval_size_too_large_for_memory_is_one_error_line(flags, message, tmp_path):
    # The labels of the eval set and of each batch are reserved as one block
    # before any example is grown or drawn.  Built one by one, they filled
    # the capped address space slowly; 10 000 000 sets of 4 still fit, so
    # only the label block makes that batch fail at once.
    (tmp_path / "g.txt").write_text(format_edge_list(gen_power_law(40, 1.8, seed=3)))
    done = _run_capped_cli("train", str(tmp_path / "g.txt"), *flags,
                           "--out", str(tmp_path / "m.npz"), timeout=30)
    err = done.stderr.splitlines()
    assert done.returncode == 1, done.stderr
    assert len(err) == 1 and err[0].startswith(message), err


def test_astral_character_is_one_error_line(tmp_path):
    # numpy's text reader has crashed the interpreter (exit 139) on this line,
    # so the loader must keep it away from that reader.
    (tmp_path / "astral.txt").write_text("1\U0009c6ca2\n", encoding="utf-8")
    done = _run_capped_cli("compress-cost", str(tmp_path / "astral.txt"))
    err = done.stderr.splitlines()
    assert done.returncode == 1, done.stderr
    assert len(err) == 1 and err[0].startswith("error: line 1: "), err


def test_scoring_commands_never_import_scipy(tmp_path):
    # In a fresh interpreter: generate, order --algo go and eval on one graph
    # below the dense cap and one above it.  Only DON-RL training imports scipy.
    runs = []
    for n in (DENSE_SIMILARITY_CAP // 4, DENSE_SIMILARITY_CAP + 1):
        g, perm = f"{tmp_path}/g{n}.txt", f"{tmp_path}/p{n}.txt"
        runs += [f"generate --kind er --n {n} --p 0.002 --seed 1 --out {g}",
                 f"order {g} --algo go --out {perm}",
                 f"eval {g} --perm {perm}"]
    child = ("import sys; from graphorder.cli import main; "
             "print([main(cmd.split()) for cmd in sys.argv[1:]], 'scipy' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    done = subprocess.run([sys.executable, "-c", child, *runs],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[0] * len(runs)} False", done.stdout


TRAIN_FLAGS = "--w 3 --seed 5 --hidden 8 --batch-size 8 --eval-size 6"
PINNED_TRAIN_OUTPUTS = {
    "--algo don --global-steps 12 --eval-every 5": {
        "m.npz": "34491115a5162c6aff840cf89b4386ccb91f6c061ac1a660c57a4fdae9f075c5",
        "m.npz.metrics.csv": "41b850667c1ba7708700934599ee4cd934ede715c2c638d94e60db7ab74b1486",
    },
    "--algo don-rl --warmup-steps 12 --rl-steps 2 --trajectory-len 3 "
    "--don-steps-per-t 2 --policy-hidden 8": {
        "m.npz": "ebca82eeeb82a8835dfcfd2bbf7925e04e2dcfd308d0abb44efaca3d649f5b22",
        "m.npz.policy.npz": "cbaca2aa0e221a4ce37c4c67a416718e616f44d7cfc309b9c9aea49d1d8ad82f",
        "m.npz.metrics.csv": "0702f90549acb07911c77febff87a66021bc1cbfe83d1eb655ed6845249f21bd",
        "m.npz.metrics.csv.don.csv":
            "4d68c6874ea1fcfaa6ea175c230de31d7de60b567ed0859ea404a4e3c4fe43b4",
    },
}


@pytest.mark.parametrize("flags", list(PINNED_TRAIN_OUTPUTS), ids=["don", "don-rl"])
def test_train_outputs_pinned(flags, tmp_path):
    """Every file ``train`` writes on a 40-vertex power-law graph, by sha256.
    Float results depend on the BLAS build, so another platform may need the
    hashes recomputed from a known-good commit."""
    (tmp_path / "g.txt").write_text(format_edge_list(gen_power_law(40, 1.8, seed=3)))
    argv = f"train {tmp_path}/g.txt --out {tmp_path}/m.npz {TRAIN_FLAGS} {flags}"
    assert main(argv.split()) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.iterdir() if f.name != "g.txt"}
    assert written == PINNED_TRAIN_OUTPUTS[flags]


@pytest.mark.parametrize("flags", list(PINNED_TRAIN_OUTPUTS), ids=["don", "don-rl"])
def test_train_reruns_write_identical_bytes(flags, tmp_path):
    """Two runs with the same flags write the same bytes, on any BLAS build."""
    graph = tmp_path / "g.txt"
    graph.write_text(format_edge_list(gen_power_law(40, 1.8, seed=3)))
    written = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        argv = f"train {graph} --out {tmp_path}/{run}/m.npz {TRAIN_FLAGS} {flags}"
        assert main(argv.split()) == 0
        written.append({f.name: f.read_bytes() for f in (tmp_path / run).iterdir()})
    assert set(written[0]) == set(PINNED_TRAIN_OUTPUTS[flags])
    assert written[0] == written[1]


class TestUsageErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--bogus"])
        assert excinfo.value.code == 2


def test_module_entry_point(tmp_path):
    import subprocess
    import sys
    out = tmp_path / "g.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "graphorder", "generate", "--kind", "er",
         "--n", "8", "--p", "0.5", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
