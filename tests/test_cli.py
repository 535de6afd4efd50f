import json
import math
import struct
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spotground.checkpoint import MAGIC
from spotground.cli import (
    BOUNDS,
    CHOICES,
    COMMANDS,
    OPTIONAL_PATHS,
    POSITIONAL_PATHS,
    _flag,
    _key_type,
    read_ground_predictions,
    read_spot_predictions,
    run,
)
from spotground.errors import SpotGroundError
from spotground.vocab import DEFAULT_VOCAB

SYNTH_SMALL = [
    "--halves", "2", "--duration", "200", "--dim", "16", "--classes", "2",
    "--events-per-class", "3", "--sigma", "0.1", "--min-gap", "25",
]


def _synth(out, seed=3, extra=()):
    code = run(["synth", "--out", str(out), "--seed", str(seed), *SYNTH_SMALL, *extra])
    assert code == 0
    return out


def _command_argv(cmd, root: Path) -> list[str]:
    """cmd's words and its required path arguments, each root / its name."""
    argv = list(cmd.words)
    for name in cmd.paths:
        if name in POSITIONAL_PATHS:
            argv.append(str(root / name))
        elif name not in OPTIONAL_PATHS:
            argv += [_flag(name), str(root / name)]
    return argv


def _tree_bytes(root: Path, skip={"manifest.json"}):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


class TestSynthCommand:
    def test_writes_expected_layout(self, tmp_path):
        out = _synth(tmp_path / "data")
        assert (out / "synth_000" / "1_synthetic.npy").exists()
        assert (out / "synth_000" / "labels.json").exists()
        assert (out / "vocab.json").exists()
        assert (out / "manifest.json").exists()

    def test_byte_identical_for_same_seed(self, tmp_path):
        a = _synth(tmp_path / "a", seed=7)
        b = _synth(tmp_path / "b", seed=7)
        assert _tree_bytes(a) == _tree_bytes(b)

    def test_manifest_echoes_config(self, tmp_path):
        out = _synth(tmp_path / "data", seed=5)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["seed"] == 5
        assert manifest["config"]["duration"] == 200
        assert "wall_time_s" in manifest and "build" in manifest

    def test_failed_placement_leaves_no_out_directory(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = run(["synth", "--out", str(out), "--duration", "50",
                    "--events-per-class", "30"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: PlacementError:"), err
        assert len(err.splitlines()) == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("prefix", ["../esc", "a/b", "..", ""])
    def test_prefix_must_be_a_bare_name(self, prefix, tmp_path, capsys):
        """A game id names a directory under --out; nothing is written for a
        prefix that would put one elsewhere, from a flag or a config file."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prefix": prefix}))
        for extra in ([f"--prefix={prefix}"], ["--config", str(cfg)]):
            code = run(["synth", "--out", str(tmp_path / "out" / "data"), *extra])
            err = capsys.readouterr().err
            assert code == 2 and err.startswith("error: usage:") and "prefix" in err, err
            assert len(err.splitlines()) == 1, err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration": 150, "seed": 9}))
        out = tmp_path / "data"
        code = run(["synth", "--out", str(out), "--config", str(cfg),
                    "--dim", "16", "--classes", "2", "--events-per-class", "2",
                    "--min-gap", "20", "--duration", "180"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["duration"] == 180  # flag wins
        assert manifest["config"]["seed"] == 9  # file supplies the rest

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for raw in (json.dumps({"durat1on": 100}).encode(), b"\xff{}"):  # or bad UTF-8
            cfg.write_bytes(raw)
            code = run(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)])
            assert code == 2
            assert "error: usage:" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        vocab.write_bytes(b"\xff[")  # not UTF-8
        for argv in (["spot", "infer", "--model", str(tmp_path / "nope.sgckpt"),
                      "--data", str(tmp_path)],
                     ["eval", "spot", "--preds", str(tmp_path), "--labels", str(tmp_path),
                      "--vocab", str(vocab)]):
            code = run([*argv, "--out", str(tmp_path / "o")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "\n" not in err.strip("\n")


TRAIN_FAST = [
    "--epochs", "3", "--batch", "8", "--lr", "1e-3", "--mixup", "0.0",
    "--layers", "1", "--heads", "2", "--model-dim", "16", "--hidden", "32",
    "--dropout", "0.0", "--seed", "1",
]
GROUND_TRAIN_FAST = [
    "--epochs", "1", "--batch", "16", "--layers", "1", "--heads", "2",
    "--model-dim", "16", "--hidden", "32", "--seed", "2",
]
GROUND_SYNTH = [
    "--halves", "2", "--duration", "1100", "--dim", "16", "--classes", "2",
    "--events-per-class", "3", "--sigma", "0.05", "--min-gap", "130",
    "--margin", "120", "--replays", "--delay-min", "10", "--delay-max", "110",
    "--replay-dur", "8",
]


class TestSpotPipeline:
    def test_train_infer_eval_round_trip(self, tmp_path):
        data = _synth(tmp_path / "data")
        train_out = tmp_path / "train"
        assert run(["spot", "train", "--data", str(data), "--out", str(train_out),
                    "--mode", "ultra", "--chunk", "7", *TRAIN_FAST]) == 0
        ckpt = train_out / "model.sgckpt"
        assert ckpt.exists()
        history = json.loads((train_out / "history.json").read_text())
        assert len(history) == 3

        infer_out = tmp_path / "preds"
        assert run(["spot", "infer", "--model", str(ckpt), "--data", str(data),
                    "--out", str(infer_out), "--chunk", "7", "--nms", "20"]) == 0
        pred_doc = json.loads((infer_out / "synth_000" / "spotting.json").read_text())
        assert "predictions" in pred_doc

        eval_out = tmp_path / "eval"
        assert run(["eval", "spot", "--preds", str(infer_out), "--labels", str(data),
                    "--out", str(eval_out)]) == 0
        report = json.loads((eval_out / "spot_eval.json").read_text())
        assert "average_map" in report
        assert (eval_out / "spot_eval.csv").exists()

    def test_train_determinism_via_cli(self, tmp_path):
        data = _synth(tmp_path / "data")
        ckpts = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            assert run(["spot", "train", "--data", str(data), "--out", str(out),
                        *TRAIN_FAST]) == 0
            ckpts.append((out / "model.sgckpt").read_bytes())
        assert ckpts[0] == ckpts[1]

    @staticmethod
    def _split_run(tmp_path, name, splits, *flags):
        """spot train on a two-game dataset, with a --splits file holding
        splits if it is not None; returns the run's output directory."""
        data = tmp_path / "data"
        if not data.exists():
            _synth(data, extra=("--halves", "4"))  # synth_000 and synth_001
        argv = ["spot", "train", "--data", str(data), "--out", str(tmp_path / name),
                *TRAIN_FAST, *flags]
        if splits is not None:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(splits))
            argv += ["--splits", str(path)]
        assert run(argv) == 0
        return tmp_path / name

    def test_regular_mode_splits_record_valid_loss(self, tmp_path):
        out = self._split_run(tmp_path, "regular",
                              {"train": ["synth_000"], "valid": ["synth_001"]},
                              "--mode", "regular")
        history = json.loads((out / "history.json").read_text())
        assert len(history) == 3
        assert all(math.isfinite(h["valid_loss"]) for h in history), history

    def test_ultra_mode_splits_pool_every_listed_game(self, tmp_path):
        """Every game listed under train, in directory order, trains the
        same model as a run without --splits."""
        pooled = self._split_run(tmp_path, "pooled", {"train": ["synth_000", "synth_001"]},
                                 "--mode", "ultra")
        plain = self._split_run(tmp_path, "plain", None, "--mode", "ultra")
        assert _tree_bytes(pooled) == _tree_bytes(plain)
        history = json.loads((pooled / "history.json").read_text())
        assert all("valid_loss" not in h for h in history)

    def test_parallel_jobs_match_serial(self, tmp_path):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "4", *GROUND_SYNTH,
                    "--halves", "4"]) == 0  # two games
        for command, train_flags in (("spot", TRAIN_FAST), ("ground", GROUND_TRAIN_FAST)):
            train_out = tmp_path / command / "train"
            assert run([command, "train", "--data", str(data), "--out", str(train_out),
                        *train_flags]) == 0
            trees = []
            for jobs in ("1", "2"):
                out = tmp_path / command / f"jobs{jobs}"
                assert run([command, "infer", "--model", str(train_out / "model.sgckpt"),
                            "--data", str(data), "--out", str(out), "--jobs", jobs]) == 0
                trees.append(_tree_bytes(out))
            assert trees[0] == trees[1], command

    def test_netvlad_head_via_cli(self, tmp_path, capsys):
        data = _synth(tmp_path / "data")
        out = tmp_path / "nv"
        assert run(["spot", "train", "--data", str(data), "--out", str(out),
                    "--head", "netvlad", "--chunk", "8", "--epochs", "2",
                    "--batch", "8", "--clusters", "4", "--mixup", "0.0",
                    "--seed", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["lr"] == 1e-4  # per-head default resolved
        preds_out = tmp_path / "nvpreds"
        assert run(["spot", "infer", "--model", str(out / "model.sgckpt"),
                    "--data", str(data), "--out", str(preds_out), "--chunk", "8"]) == 0
        # odd chunks cannot split into past/future halves
        code = run(["spot", "infer", "--model", str(out / "model.sgckpt"),
                    "--data", str(data), "--out", str(tmp_path / "bad"), "--chunk", "7"])
        assert code == 1
        assert "even" in capsys.readouterr().err

    def test_netvlad_train_and_infer_determinism(self, tmp_path):
        data = _synth(tmp_path / "data")
        trees = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            assert run(["spot", "train", "--data", str(data), "--out", str(out),
                        "--head", "netvlad", "--chunk", "8", "--epochs", "2", "--batch", "8",
                        "--clusters", "4", "--mixup", "0.2", "--seed", "5"]) == 0
            trees.append(_tree_bytes(out))
        assert trees[0] == trees[1] and "model.sgckpt" in trees[0]
        preds = []
        for name in ("i1", "i2"):
            out = tmp_path / name
            assert run(["spot", "infer", "--model", str(tmp_path / "t1" / "model.sgckpt"),
                        "--data", str(data), "--out", str(out), "--chunk", "8",
                        "--threshold", "0.0"]) == 0
            preds.append(_tree_bytes(out))
        assert preds[0] == preds[1] and list(preds[0]) == ["synth_000/spotting.json"]



class TestGroundPipeline:
    def test_train_infer_fuse_merge_eval(self, tmp_path):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "4", *GROUND_SYNTH]) == 0

        train_out = tmp_path / "gtrain"
        assert run(["ground", "train", "--data", str(data), "--out", str(train_out),
                    "--epochs", "2", "--batch", "16", "--layers", "1", "--heads", "2",
                    "--model-dim", "16", "--hidden", "32", "--dropout", "0.0",
                    "--seed", "2"]) == 0
        ckpt = train_out / "model.sgckpt"

        infer_out = tmp_path / "gpreds"
        assert run(["ground", "infer", "--model", str(ckpt), "--data", str(data),
                    "--out", str(infer_out), "--stride", "30", "--filter", "120"]) == 0
        doc = json.loads((infer_out / "synth_000" / "grounding.json").read_text())
        assert doc["queries"]

        # fusion needs spotting predictions; craft a trivial file
        spot_dir = tmp_path / "spreds"
        game_dir = spot_dir / "synth_000"
        game_dir.mkdir(parents=True)
        first_query = doc["queries"][0]["query"]
        from spotground.data import parse_game_time

        half, start_s = parse_game_time(first_query["start"])
        spot_doc = {
            "version": 1,
            "game_id": "synth_000",
            "predictions": [
                {"gameTime": f"{half} - 00:00", "label": "Goal", "half": half,
                 "position_s": max(0, start_s - 10), "confidence": 0.4}
            ],
        }
        (game_dir / "spotting.json").write_text(json.dumps(spot_doc))
        fuse_out = tmp_path / "fused"
        assert run(["ground", "fuse", "--spot-preds", str(spot_dir), "--labels",
                    str(data), "--out", str(fuse_out)]) == 0

        merge_out = tmp_path / "merged"
        assert run(["ground", "merge", str(infer_out), str(fuse_out), "--out",
                    str(merge_out), "--nms", "25"]) == 0
        merged = json.loads((merge_out / "synth_000" / "grounding.json").read_text())
        assert merged["queries"]

        eval_out = tmp_path / "geval"
        assert run(["eval", "ground", "--preds", str(merge_out), "--labels", str(data),
                    "--out", str(eval_out)]) == 0
        report = json.loads((eval_out / "ground_eval.json").read_text())
        assert "average_ap" in report

    def test_ground_infer_determinism(self, tmp_path):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "4", *GROUND_SYNTH]) == 0
        train_out = tmp_path / "gtrain"
        assert run(["ground", "train", "--data", str(data), "--out", str(train_out),
                    *GROUND_TRAIN_FAST]) == 0
        outs = []
        for name in ("i1", "i2"):
            out = tmp_path / name
            assert run(["ground", "infer", "--model", str(train_out / "model.sgckpt"),
                        "--data", str(data), "--out", str(out)]) == 0
            outs.append(_tree_bytes(out))
        assert outs[0] == outs[1]


class TestNumericFailures:
    """A value that overflows, in a flag or a checkpoint, ends in exit 1 and
    one error line, with no numpy warning ahead of it."""

    def test_overflowing_training_values_exit_one_with_one_line(self, tmp_path, capsys):
        spot_data = _synth(tmp_path / "spot")
        ground_data = tmp_path / "ground"
        assert run(["synth", "--out", str(ground_data), "--seed", "4", *GROUND_SYNTH]) == 0
        capsys.readouterr()
        for argv, needle in (
            (["spot", "train", "--data", str(spot_data), *TRAIN_FAST, "--lr", "1e38"],
             "error: NumericError: non-finite values after input projection"),
            (["ground", "train", "--data", str(ground_data), *GROUND_TRAIN_FAST,
              "--offset-weight", "1e308"], "error: NumericError: non-finite gradient"),
        ):
            assert run([*argv, "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(needle) and len(err.splitlines()) == 1, err

    @staticmethod
    def _checkpoint(path, head, name=None, value=None, outputs=18, input_dim=16):
        """A fresh checkpoint for input_dim-wide features of a "netvlad",
        "transformer" or "grounding" head, with one value of tensor name, if
        given, set to value."""
        import numpy as np

        from spotground.checkpoint import KIND_GROUNDING, KIND_SPOT_NETVLAD
        from spotground.checkpoint import KIND_SPOT_TRANSFORMER, Model, save_model
        from spotground.nn import EncoderConfig, init_encoder_params
        from spotground.spotting import NetVLADConfig, init_netvlad_params

        rng = np.random.default_rng(0)
        if head == "netvlad":
            config = NetVLADConfig(input_dim=input_dim, clusters=2)
            model = Model(KIND_SPOT_NETVLAD, config, list(DEFAULT_VOCAB),
                          init_netvlad_params(config, rng))
        else:
            grounding = head == "grounding"
            config = EncoderConfig(input_dim=input_dim, output_dim=2 if grounding else outputs,
                                   model_dim=8, num_layers=1, num_heads=2, hidden_dim=8,
                                   num_segments=2 if grounding else 0)
            model = Model(KIND_GROUNDING if grounding else KIND_SPOT_TRANSFORMER, config,
                          list(DEFAULT_VOCAB), init_encoder_params(config, rng))
        if name is not None:
            model.params[name].flat[:] = value
        save_model(path, model)
        return path

    @pytest.mark.parametrize("head, name, value", [
        ("netvlad", "vlad.past.centers", float("nan")),
        ("transformer", "in.w", float("inf")),
    ])
    def test_non_finite_checkpoint_exits_one_before_loading_features(
            self, head, name, value, tmp_path, capsys, monkeypatch):
        ckpt = self._checkpoint(tmp_path / "m.sgckpt", head, name, value)
        monkeypatch.setattr("spotground.cli.load_game", TestRejectedBeforeLoading.forbidden)
        out = tmp_path / "out"
        assert run(["spot", "infer", "--model", str(ckpt), "--data", str(_synth(tmp_path / "d")),
                    "--out", str(out), "--chunk", "8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: FormatError: tensor param:{name} ") and \
            len(err.splitlines()) == 1, err
        assert not out.exists()

    def test_parallel_workers_print_no_warning(self, tmp_path, capfd, monkeypatch):
        import multiprocessing
        from concurrent import futures
        from functools import partial

        # a spawned worker inherits neither numpy's error state nor the warning filters
        spawn = partial(futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
        monkeypatch.setattr("spotground.cli.futures.ProcessPoolExecutor", spawn)
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "4", *SYNTH_SMALL,
                    "--halves", "4"]) == 0  # two games, one per worker
        ckpt = self._checkpoint(tmp_path / "m.sgckpt", "transformer", "in.b", 1e308)
        capfd.readouterr()
        assert run(["spot", "infer", "--model", str(ckpt), "--data", str(data),
                    "--out", str(tmp_path / "out"), "--jobs", "2"]) == 1
        err = capfd.readouterr().err  # the workers' stderr too
        assert err.startswith("error: NumericError: non-finite values after input projection")
        assert len(err.splitlines()) == 1, err


class TestInferCheckpointChecks:
    """An infer command checks the head its checkpoint holds before any
    features load, and exits 1 with one line."""

    @pytest.mark.parametrize("argv, head, outputs, needle", [
        (["spot", "infer"], "grounding", 18,
         "error: DomainError: {ckpt} holds a grounding head with 2 outputs, not "
         "spot_transformer or spot_netvlad with 18"),
        (["spot", "infer"], "netvlad", 18,
         "error: ShapeError: {ckpt} holds a netvlad head, which pools two halves and needs an "
         "even --chunk, got 7"),
        (["spot", "infer"], "transformer", 5,
         "error: DomainError: {ckpt} holds a spot_transformer head with 5 outputs, not "
         "spot_transformer or spot_netvlad with 18"),
        (["ground", "infer"], "transformer", 18,
         "error: DomainError: {ckpt} holds a spot_transformer head with 18 outputs, not "
         "grounding with 2"),
        (["ground", "infer"], "netvlad", 18,
         "error: DomainError: {ckpt} holds a spot_netvlad head with 18 outputs, not "
         "grounding with 2"),
    ])
    def test_wrong_head_exits_one_before_loading_features(
            self, argv, head, outputs, needle, tmp_path, capsys, monkeypatch):
        ckpt = TestNumericFailures._checkpoint(tmp_path / "m.sgckpt", head, outputs=outputs)
        for name in ("load_dataset", "load_game"):
            monkeypatch.setattr(f"spotground.cli.{name}", TestRejectedBeforeLoading.forbidden)
        out = tmp_path / "out"
        assert run([*argv, "--model", str(ckpt), "--data", str(tmp_path / "data"),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(needle.format(ckpt=ckpt)) and len(err.splitlines()) == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("command, head", [("spot", "transformer"),
                                               ("ground", "grounding")])
    def test_feature_width_is_read_from_the_npy_headers(self, command, head, tmp_path, capsys,
                                                         monkeypatch):
        """A half whose NPY headers declare another width than the
        checkpoint's exits 1 naming the game, the half and both widths,
        before any features load: the cut payload is never read."""
        import numpy as np

        from spotground.npyio import write_npy

        ckpt = TestNumericFailures._checkpoint(tmp_path / "m.sgckpt", head, input_dim=32)
        game = tmp_path / "data" / "g"
        game.mkdir(parents=True)
        (game / "1_a.npy").write_bytes(write_npy(np.zeros((10, 40), np.float32))[:-8])
        for name in ("load_dataset", "load_game"):
            monkeypatch.setattr(f"spotground.cli.{name}", TestRejectedBeforeLoading.forbidden)
        out = tmp_path / "out"
        assert run([command, "infer", "--model", str(ckpt), "--data", str(tmp_path / "data"),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ShapeError: g half 1 has 40 feature columns, but {ckpt} "
                              f"reads 32") and len(err.splitlines()) == 1, err
        assert not out.exists()


class TestMixedFeatureWidths:
    @pytest.mark.parametrize("command", ["spot", "ground"])
    def test_train_exits_one_naming_the_game_and_both_widths(self, command, tmp_path, capsys):
        import numpy as np

        from spotground.npyio import read_npy_file, write_npy_file

        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "4",
                    *GROUND_SYNTH, "--halves", "4"]) == 0
        for path in (data / "synth_001").glob("*.npy"):  # two columns wider
            matrix = read_npy_file(path)
            write_npy_file(path, np.hstack([matrix, np.zeros((len(matrix), 2), np.float32)]))
        capsys.readouterr()
        code = run([command, "train", "--data", str(data), "--out", str(tmp_path / "o"),
                    "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("error: ShapeError: synth_001 half 1 has 18 feature columns")
        assert "synth_000 half 1 has 16" in err


class TestRejectedBeforeLoading:
    """Invalid flag combinations exit 2 before any data is read or written."""

    @staticmethod
    def forbidden(*args, **kwargs):
        raise AssertionError("data was loaded for an invalid configuration")

    @staticmethod
    def _forbid_loading(monkeypatch):
        for name in ("load_dataset", "load_game", "load_model", "load_labels"):
            monkeypatch.setattr(f"spotground.cli.{name}", TestRejectedBeforeLoading.forbidden)

    def test_netvlad_odd_chunk_is_usage_error(self, tmp_path, capsys, monkeypatch):
        self._forbid_loading(monkeypatch)
        for chunk in ([], ["--chunk", "9"]):  # the default chunk, 7, is odd too
            out = tmp_path / "nv"
            code = run(["spot", "train", "--data", str(tmp_path / "data"), "--out",
                        str(out), "--head", "netvlad", *chunk])
            assert code == 2
            assert "even" in capsys.readouterr().err
            assert not out.exists()

    def test_ground_train_regular_mode_is_usage_error(self, tmp_path, capsys, monkeypatch):
        self._forbid_loading(monkeypatch)
        out = tmp_path / "gtrain"
        code = run(["ground", "train", "--data", str(tmp_path / "data"), "--out", str(out),
                    "--mode", "regular"])
        assert code == 2
        assert "ultra" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_ground_rejects_jobs_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        out = tmp_path / "geval"
        code = run(["eval", "ground", "--preds", str(tmp_path), "--labels", str(tmp_path),
                    "--out", str(out), "--config", str(cfg)])
        assert code == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()


    def test_spot_infer_out_of_range_values_are_usage_errors(self, tmp_path, capsys,
                                                             monkeypatch):
        self._forbid_loading(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nms": -1}))
        cases = [
            ("--chunk", ["--chunk", "0"]),
            ("--nms", ["--nms", "-1"]),
            ("--nms", ["--config", str(cfg)]),
            ("--threshold", ["--threshold", "1.5"]),
            ("--threshold", ["--threshold", "-0.1"]),
            ("--jobs", ["--jobs", "0"]),
            ("--jobs", ["--jobs", "-3"]),
        ]
        for flag, extra in cases:
            out = tmp_path / "infer"
            code = run(["spot", "infer", "--model", str(tmp_path / "m.sgckpt"), "--data",
                        str(tmp_path / "data"), "--out", str(out), *extra])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: usage:") and flag in err
            assert not out.exists()

    def _usage_errors(self, tmp_path, capsys, command, cases):
        """Each (needle, extra flags) case exits 2 naming needle, writing nothing."""
        for needle, extra in cases:
            out = tmp_path / "out"
            code = run([*command, "--out", str(out), *extra])
            err = capsys.readouterr().err
            assert code == 2, (extra, err)
            assert err.startswith("error: usage:") and needle in err, (extra, err)
            assert not out.exists()

    def test_bad_tolerances_are_usage_errors(self, tmp_path, capsys):
        for kind in ("spot", "ground"):
            self._usage_errors(
                tmp_path, capsys,
                ["eval", kind, "--preds", str(tmp_path), "--labels", str(tmp_path)],
                [("'5:60:0'", ["--tolerances", "5:60:0"]),
                 ("'a'", ["--tolerances", "a,b"]),
                 ("'5:x:5'", ["--tolerances", "5:x:5"]),
                 ("'-5,10'", ["--tolerances=-5,10"])],
            )

    def test_train_out_of_range_values_are_usage_errors(self, tmp_path, capsys,
                                                        monkeypatch):
        self._forbid_loading(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": -1e-3}))
        shared = [
            ("batch", ["--batch", "0"]),
            ("epochs", ["--epochs", "0"]),
            ("lr", ["--lr", "0"]),
            ("lr", ["--config", str(cfg)]),
            ("heads", ["--heads", "3", "--model-dim", "64"]),
            ("heads", ["--heads", "0"]),
            ("model_dim", ["--model-dim", "5", "--heads", "1"]),
            ("dropout", ["--dropout", "1.0"]),
            ("dropout", ["--dropout", "-0.1"]),
        ]
        data = ["--data", str(tmp_path / "data")]
        self._usage_errors(tmp_path, capsys, ["spot", "train", *data], shared + [
            ("mixup", ["--mixup", "-0.5"]),
            ("chunk", ["--chunk", "0"]),
            ("cluster", ["--head", "netvlad", "--chunk", "8", "--clusters", "0"]),
        ])
        self._usage_errors(tmp_path, capsys, ["ground", "train", *data], shared)

    def test_ground_infer_out_of_range_values_are_usage_errors(self, tmp_path, capsys,
                                                                 monkeypatch):
        self._forbid_loading(monkeypatch)
        command = ["ground", "infer", "--model", str(tmp_path / "m.sgckpt"), "--data",
                   str(tmp_path / "data")]
        self._usage_errors(tmp_path, capsys, command, [
            ("--stride", ["--stride", "0"]),
            ("--filter", ["--filter", "-5"]),
            ("--jobs", ["--jobs", "0"]),
        ])
        calls = []  # --filter 0 still disables the filter
        model = SimpleNamespace(config=SimpleNamespace(input_dim=16))
        monkeypatch.setattr("spotground.cli._load_head", lambda path, *checks, **kw: model)
        monkeypatch.setattr("spotground.cli.check_feature_widths", lambda *args: None)
        monkeypatch.setattr("spotground.cli._map_games",
                            lambda fn, data, jobs, *args: calls.append(args) or [])
        assert run([*command, "--out", str(tmp_path / "out"), "--filter", "0"]) == 0
        assert calls == [(model, 5, 0)]

    @pytest.mark.parametrize("argv, needle", [
        (["ground", "train", "--data", "{tmp}", "--offset-weight", "-1"], "--offset-weight"),
        (["ground", "fuse", "--spot-preds", "{tmp}", "--labels", "{tmp}", "--W", "-5"], "--W"),
        (["ground", "fuse", "--spot-preds", "{tmp}", "--labels", "{tmp}", "--S", "1.5"], "--S"),
        (["ground", "merge", "{tmp}", "{tmp}", "--nms", "-1"], "--nms"),
        (["analyze", "replays", "--labels", "{tmp}", "--buckets", "0"], "--buckets"),
        (["spot", "infer", "--model", "{tmp}", "--data", "{tmp}", "--threshold", "nan"],
         "--threshold"),
        (["spot", "train", "--data", "{tmp}", "--seed", "-1"], "--seed"),
        (["synth", "--duration", "-5"], "duration"),
        (["synth", "--halves", "0"], "halves"),
        (["synth", "--classes", "40"], "classes"),
        (["synth", "--sigma", "-1"], "sigma"),
        (["gradcheck", "--h", "0"], "step h"),
        (["gradcheck", "--trials", "0"], "trials"),
        # --svg is a file name under --out, never a path
        (["analyze", "replays", "--labels", "{tmp}", "--svg", "{tmp}"], "--svg"),
        (["analyze", "replays", "--labels", "{tmp}", "--svg", "../h.svg"], "--svg"),
        (["analyze", "replays", "--labels", "{tmp}", "--svg", ".."], "--svg"),
        (["analyze", "replays", "--labels", "{tmp}", "--svg", ""], "--svg"),
        # nor one of the command's own outputs
        (["analyze", "replays", "--labels", "{tmp}", "--svg", "replay_stats.json"], "--svg"),
        (["analyze", "replays", "--labels", "{tmp}", "--svg", "manifest.json"], "--svg"),
        # every float key is finite
        (["ground", "fuse", "--spot-preds", "{tmp}", "--labels", "{tmp}", "--b1", "inf"],
         "--b1"),
        (["ground", "fuse", "--spot-preds", "{tmp}", "--labels", "{tmp}", "--b2", "inf"],
         "--b2"),
        (["synth", "--sigma", "inf"], "--sigma"),
        (["gradcheck", "--h", "inf"], "--h"),
        (["ground", "train", "--data", "{tmp}", "--offset-weight", "inf"], "--offset-weight"),
        (["ground", "train", "--data", "{tmp}", "--lr", "inf"], "--lr"),
        (["spot", "train", "--data", "{tmp}", "--lr", "inf"], "--lr"),
        (["spot", "train", "--data", "{tmp}", "--lr=-inf"], "--lr"),
        (["spot", "train", "--data", "{tmp}", "--mixup", "inf"], "--mixup"),
        (["spot", "train", "--data", "{tmp}", "--mixup", "nan"], "--mixup"),
        (["spot", "train", "--data", "{tmp}", "--dropout", "nan"], "--dropout"),
        # a key only the other head reads
        (["spot", "train", "--data", "{tmp}", "--head", "transformer", "--clusters", "-5"],
         "--clusters"),
        (["spot", "train", "--data", "{tmp}", "--clusters", "8"], "--clusters"),
        (["spot", "train", "--data", "{tmp}", "--head", "netvlad", "--chunk", "8", "--layers",
          "0"], "--layers"),
        (["spot", "train", "--data", "{tmp}", "--head", "netvlad", "--chunk", "8",
          "--dropout", "0.0"], "--dropout"),
    ])
    def test_out_of_range_values_are_usage_errors(self, argv, needle, tmp_path, capsys,
                                                  monkeypatch):
        self._forbid_loading(monkeypatch)
        argv = [str(tmp_path) if a == "{tmp}" else a for a in argv]
        out = tmp_path / "out"
        if argv[0] != "gradcheck":
            argv += ["--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and needle in err, err
        assert len(err.splitlines()) == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("doc, needle", [
        ('{"lr": Infinity}', "--lr"),
        ('{"lr": -Infinity}', "--lr"),
        ('{"mixup": NaN}', "--mixup"),
        ('{"lr": 1%s}' % ("0" * 400), "'lr'"),  # an int no float can hold
    ], ids=["inf", "-inf", "nan", "huge-int"])
    def test_non_finite_config_values_are_usage_errors(self, doc, needle, tmp_path, capsys,
                                                       monkeypatch):
        self._forbid_loading(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        out = tmp_path / "out"
        assert run(["spot", "train", "--data", str(tmp_path), "--out", str(out),
                    "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and needle in err, err
        assert not out.exists()

    def test_other_heads_keys_in_a_config_file(self, tmp_path, capsys, monkeypatch):
        """Rejected when they differ from their defaults; at the default they pass
        on to loading the data."""
        self._forbid_loading(monkeypatch)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        argv = ["spot", "train", "--data", str(tmp_path), "--out", str(out), "--config",
                str(cfg)]
        cfg.write_text(json.dumps({"head": "netvlad", "chunk": 8, "hidden": 128}))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage: --hidden") and len(err.splitlines()) == 1, err
        cfg.write_text(json.dumps({"head": "netvlad", "chunk": 8, "hidden": 256,
                                   "dropout": 0.1}))
        with pytest.raises(AssertionError, match="data was loaded"):
            run(argv)
        assert not out.exists()

    def test_bad_splits_are_usage_errors(self, tmp_path, capsys, monkeypatch):
        self._forbid_loading(monkeypatch)
        data = tmp_path / "data"
        for game in ("g1", "g2"):
            (data / game).mkdir(parents=True)
            (data / game / "1_feat.npy").write_bytes(b"")  # listed, never read
        splits = tmp_path / "splits.json"
        cases = [
            ("list of game directory names", '{"train": "g1"}', []),
            ("list of game directory names", '{"train": [1]}', []),
            ("unknown game 'nope'", '{"train": ["g1"], "test": ["nope"]}', []),
            ("unknown split keys", '{"bogus": ["g1"]}', []),
            ("'train' names game 'g1' a second time", '{"train": ["g1", "g1"]}', []),
            ("'valid' names game 'g1' a second time", '{"train": ["g1"], "valid": ["g1"]}',
             []),
            ("JSON object", '["g1"]', []),
            ("cannot parse", '{"train": ["g1"]', []),
            ("cannot parse", '\xff{}', []),  # not UTF-8 once written as latin-1
            ("valid set", '{"train": ["g1"]}', ["--mode", "regular"]),
        ]
        for needle, doc, extra in cases:
            splits.write_text(doc, encoding="latin-1")
            out = tmp_path / "out"
            code = run(["spot", "train", "--data", str(data), "--out", str(out),
                        "--splits", str(splits), *extra])
            err = capsys.readouterr().err
            assert code == 2 and err.startswith("error: usage:") and needle in err, (doc, err)
            assert not out.exists()

    def test_eval_spot_jobs_below_one_is_usage_error(self, tmp_path, capsys):
        self._usage_errors(
            tmp_path, capsys,
            ["eval", "spot", "--preds", str(tmp_path), "--labels", str(tmp_path)],
            [("--jobs", ["--jobs", "0"]), ("--jobs", ["--jobs", "2"])],
        )


class TestConfigTypes:
    """Config-file values must have the type of their key's default or flag."""

    def _spot_train(self, tmp_path, doc, monkeypatch):
        TestRejectedBeforeLoading._forbid_loading(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        return run(["spot", "train", "--data", str(tmp_path / "data"), "--out",
                    str(tmp_path / "t"), "--config", str(cfg)])

    def test_wrong_types_are_usage_errors_naming_the_key(self, tmp_path, capsys, monkeypatch):
        for key, value in (("epochs", "3"), ("chunk", "8"), ("batch", True), ("mixup", "0.2"),
                           ("lr", "1e-3"), ("head", 1), ("seed", 1.5)):
            code = self._spot_train(tmp_path, {key: value}, monkeypatch)
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: usage:") and repr(key) in err
            assert not (tmp_path / "t").exists()

    def test_int_accepted_for_float_key_bool_only_for_bool(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 1, "replays": 1}))
        code = run(["synth", "--out", str(tmp_path / "bad"), "--config", str(cfg)])
        assert code == 2
        assert "'replays'" in capsys.readouterr().err
        cfg.write_text(json.dumps({"sigma": 1, "replays": False}))
        out = tmp_path / "data"
        assert run(["synth", "--out", str(out), "--duration", "100", "--dim", "4",
                    "--classes", "1", "--events-per-class", "1", "--config", str(cfg)]) == 0
        sigma = json.loads((out / "manifest.json").read_text())["config"]["sigma"]
        assert sigma == 1.0 and isinstance(sigma, float)

    def test_non_object_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for doc in ('["seed"]', "5"):
            cfg.write_text(doc)
            code = run(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)])
            assert code == 2
            assert "JSON object" in capsys.readouterr().err


# values of the wrong JSON type for a key of each type; None is a wrong type
# too, except for a key whose default is computed
WRONG_TYPES = {int: ["1", True, 1.5], float: ["0.5", True], str: [1, None], bool: [1, "true"]}


def _past(bound, kind, direction):
    """One step past bound towards direction (+1 or -1) for a key of kind."""
    if kind is int:
        return bound + direction
    return math.nextafter(bound, direction * math.inf)


def _rejected_values(cmd):
    """(extra argv, needle) of every bad value the command table derives for
    cmd: a wrong JSON type per key, NaN and +-inf per float key (from a flag
    and from --config), an unknown choice, and one step past each bound.
    A "config" entry in extra is a --config document."""
    for key, default in cmd.defaults.items():
        kind, flag = _key_type(key, default), _flag(key)
        for value in WRONG_TYPES[kind]:
            yield {"config": {key: value}}, repr(key)
        if kind is float:
            for value in (math.nan, math.inf, -math.inf):
                yield {"flag": f"{flag}={value}"}, flag
                yield {"config": {key: value}}, flag
        if key in CHOICES:
            yield {"config": {key: "bogus"}}, flag
        if key in BOUNDS:
            lo, hi = BOUNDS[key]
            for bound, direction in ((lo, -1), (hi, 1)):
                if bound is not None:
                    value = _past(bound, kind, direction)
                    yield {"flag": f"{flag}={value!r}"}, flag
                    yield {"config": {key: value}}, flag


def _accepted_bounds(cmd):
    """(extra argv, key, value) for each bound of each of cmd's keys, which
    the key accepts, from a flag and from --config."""
    for key, default in cmd.defaults.items():
        if key in BOUNDS:
            kind = _key_type(key, default)
            for bound in BOUNDS[key]:
                if bound is not None:
                    yield {"flag": f"{_flag(key)}={kind(bound)!r}"}, key, kind(bound)
                    yield {"config": {key: kind(bound)}}, key, kind(bound)


class TestGeneratedErrorContract:
    """The error contract, with its cases generated from the command table:
    each rejected value exits 2 with one stderr line naming its key, before
    any data loads or --out exists; each bound is accepted."""

    @staticmethod
    def _argv(cmd, tmp_path, extra):
        argv = _command_argv(cmd, tmp_path)
        if "flag" in extra:
            argv.append(extra["flag"])
        if "config" in extra:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps(extra["config"]))
            argv += ["--config", str(config)]
        return argv

    @pytest.mark.parametrize("cmd", COMMANDS, ids=lambda c: " ".join(c.words))
    def test_rejected_values(self, cmd, tmp_path, capsys, monkeypatch):
        TestRejectedBeforeLoading._forbid_loading(monkeypatch)
        cases = list(_rejected_values(cmd))
        assert cases
        for extra, needle in cases:
            code = run(self._argv(cmd, tmp_path, extra))
            err = capsys.readouterr().err
            assert code == 2, (extra, err)
            assert err.startswith("error: usage:") and needle in err, (extra, err)
            assert len(err.splitlines()) == 1, (extra, err)
            assert not (tmp_path / "out").exists(), extra

    @pytest.mark.parametrize("cmd", [c for c in COMMANDS if set(c.defaults) & set(BOUNDS)],
                             ids=lambda c: " ".join(c.words))
    def test_bounds_are_accepted(self, cmd, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(f"spotground.cli.{cmd.body.__name__}",
                            lambda args, cfg: seen.append(dict(cfg)) or
                            ([] if "out" in cmd.paths else 0))
        for extra, key, value in _accepted_bounds(cmd):
            assert run(self._argv(cmd, tmp_path, extra)) == 0, extra
            assert seen[-1][key] == value and type(seen[-1][key]) is type(value), extra


def _deep_document_cases(tmp_path):
    """(argv, exit code) of one command per JSON input, each input nested
    100,000 deep; the other inputs are valid or absent."""
    deep = "[" * 100_000 + "]" * 100_000
    (tmp_path / "deep.json").write_text(deep)
    header = deep.encode()
    (tmp_path / "deep.sgckpt").write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    for name, doc in (("labels", '{"annotations": []}'), ("deep_labels", deep)):
        (tmp_path / name / "g").mkdir(parents=True)
        (tmp_path / name / "g" / "labels.json").write_text(doc)
    for name in ("spotting.json", "grounding.json"):
        (tmp_path / "preds" / "g").mkdir(parents=True, exist_ok=True)
        (tmp_path / "preds" / "g" / name).write_text(deep)
    deep_json, out = str(tmp_path / "deep.json"), str(tmp_path / "out")
    labels, preds = str(tmp_path / "labels"), str(tmp_path / "preds")
    data = ["--data", str(tmp_path / "labels"), "--out", out]
    return [
        (["synth", "--out", out, "--config", deep_json], 2),
        (["spot", "train", *data, "--splits", deep_json], 2),
        (["spot", "train", *data, "--vocab", deep_json], 1),
        (["eval", "spot", "--preds", preds, "--labels", str(tmp_path / "deep_labels"),
          "--out", out], 1),
        (["eval", "spot", "--preds", preds, "--labels", labels, "--out", out], 1),
        (["eval", "ground", "--preds", preds, "--labels", labels, "--out", out], 1),
        (["spot", "infer", "--model", str(tmp_path / "deep.sgckpt"), *data], 1),
    ]


def test_deeply_nested_documents_end_in_one_line(tmp_path, capsys):
    """--config, --splits, --vocab, labels.json, spotting.json,
    grounding.json and a checkpoint header."""
    for argv, expected in _deep_document_cases(tmp_path):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == expected and "cannot parse" in err, (argv, err)
        assert len(err.splitlines()) == 1, (argv, err)
        assert not (tmp_path / "out").exists()


class TestAnalyze:
    def test_replay_stats_and_svg(self, tmp_path):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "4", *GROUND_SYNTH]) == 0
        out = tmp_path / "stats"
        assert run(["analyze", "replays", "--labels", str(data), "--out", str(out),
                    "--buckets", "10", "--svg", "hist.svg"]) == 0
        stats = json.loads((out / "replay_stats.json").read_text())
        assert stats["total"] == 12
        assert 0.0 <= stats["fraction_in_0_120"] <= 1.0
        assert (out / "hist.svg").read_text().startswith("<svg")

    def test_malformed_label_documents_exit_one_with_one_line(self, tmp_path, capsys):
        for i, doc in enumerate(('{"annotations": null}', '{"replays": [1]}',
                                 '{"annotations": [{"gameTime": 754, "label": "Goal"}]}')):
            game = tmp_path / f"labels{i}" / "game"
            game.mkdir(parents=True)
            (game / "labels.json").write_text(doc)
            code = run(["analyze", "replays", "--labels", str(game.parent), "--out",
                        str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 1 and err.startswith("error: ParseError:"), err
            assert len(err.strip("\n").splitlines()) == 1


SPOT_ENTRY = {"gameTime": "1 - 00:05", "label": "Goal", "half": 1, "position_s": 5,
              "confidence": 0.5}
GROUND_QUERY = {"half": 1, "start": "1 - 02:00", "end": "1 - 02:10"}

# JSON documents built from the prediction files' own keys and values
PREDICTION_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["1 - 00:05", "3 - 00:05", "Goal", "Dance"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["game_id", "predictions", "queries", "query", "half", "position_s",
                         "label", "confidence", "start", "end"]), inner, max_size=5),
    max_leaves=25)


class TestGroundMerge:
    @staticmethod
    def _write(root, game_id, preds):
        path = root / game_id / "grounding.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"game_id": game_id, "queries": [
            {"query": GROUND_QUERY, "predictions": [
                {"position_s": t, "confidence": c} for t, c in preds]}]}))
        return path

    def test_single_file_is_keyed_by_its_game_id(self, tmp_path):
        side_a = tmp_path / "a"
        file_a = self._write(side_a, "g1", [(100, 0.9), (60, 0.1)])
        self._write(side_a, "g2", [(100, 0.9)])
        file_b = self._write(tmp_path / "b", "g1", [(10, 0.5), (105, 0.2)])
        for a, games in ((file_a, ["g1"]), (side_a, ["g1", "g2"])):
            out = tmp_path / f"merged_{a.name}"
            assert run(["ground", "merge", str(a), str(file_b), "--out", str(out)]) == 0
            assert sorted(p.name for p in out.iterdir() if p.is_dir()) == games
            doc = json.loads((out / "g1" / "grounding.json").read_text())
            assert doc["game_id"] == "g1"
            # both sides merged: b's 10 s and a's 100 s lead, 105 s falls to NMS
            assert [p["position_s"] for p in doc["queries"][0]["predictions"]] == [10, 60, 100]

    @pytest.mark.parametrize("game_id", ["../../escaped", "a\x00b", "..", "", "x/y", 7])
    def test_stated_game_id_must_be_a_bare_name(self, game_id, tmp_path, capsys):
        """It names the merged game's directory under --out."""
        root = tmp_path / "one" / "two"
        path = self._write(root, "g1", [(100, 0.9)])
        path.write_text(json.dumps(dict(json.loads(path.read_text()), game_id=game_id)))
        out = root / "merged"
        code = run(["ground", "merge", str(path), str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ParseError:") and "game_id" in err, err
        assert len(err.splitlines()) == 1, err
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
            "one", "one/two", "one/two/g1", "one/two/g1/grounding.json"]


class TestStatedGameIdMismatch:
    """A prediction document looked up by its game's directory must not
    state another game id; it would be scored or merged as that game."""

    @staticmethod
    def _labels(root):
        game = root / "labels" / "g1"
        game.mkdir(parents=True)
        game.joinpath("labels.json").write_text(json.dumps({
            "annotations": [{"gameTime": "1 - 00:05", "label": "Goal"}],
            "replays": [{"start": "1 - 02:00", "end": "1 - 02:10", "event": "1 - 01:55",
                         "label": "Goal"}]}))
        return root / "labels"

    @staticmethod
    def _doc(root, name, game_id):
        path = root / "preds" / "g1" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name == "spotting.json":
            doc = {"game_id": game_id, "predictions": [SPOT_ENTRY]}
        else:
            doc = {"game_id": game_id, "queries": [
                {"query": GROUND_QUERY, "predictions": [{"position_s": 115, "confidence": 1}]}]}
        path.write_text(json.dumps(doc))
        return root / "preds"

    @staticmethod
    def _rejected(argv, capsys):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ParseError:"), err
        assert len(err.strip("\n").splitlines()) == 1, err
        assert "'other'" in err and "'g1'" in err, err

    def test_eval_spot(self, tmp_path, capsys):
        labels = self._labels(tmp_path)
        preds = self._doc(tmp_path, "spotting.json", "g1")
        assert run(["eval", "spot", "--preds", str(preds), "--labels", str(labels),
                    "--out", str(tmp_path / "ok")]) == 0
        assert "Average-mAP: 1.0000" in capsys.readouterr().out
        self._doc(tmp_path, "spotting.json", "other")
        self._rejected(["eval", "spot", "--preds", str(preds), "--labels", str(labels),
                        "--out", str(tmp_path / "out")], capsys)

    def test_eval_ground(self, tmp_path, capsys):
        labels = self._labels(tmp_path)
        preds = self._doc(tmp_path, "grounding.json", "other")
        self._rejected(["eval", "ground", "--preds", str(preds), "--labels", str(labels),
                        "--out", str(tmp_path / "out")], capsys)

    def test_ground_fuse(self, tmp_path, capsys):
        labels = self._labels(tmp_path)
        spots = self._doc(tmp_path, "spotting.json", "other")
        self._rejected(["ground", "fuse", "--spot-preds", str(spots), "--labels", str(labels),
                        "--out", str(tmp_path / "out")], capsys)
        assert not (tmp_path / "out").exists()

    def test_ground_merge_directory_side(self, tmp_path, capsys):
        preds = self._doc(tmp_path, "grounding.json", "other")
        single = preds / "g1" / "grounding.json"
        self._rejected(["ground", "merge", str(preds), str(single),
                        "--out", str(tmp_path / "out")], capsys)
        assert not (tmp_path / "out").exists()
        # a single-file side keeps the id it states
        assert run(["ground", "merge", str(single), str(single),
                    "--out", str(tmp_path / "merged")]) == 0
        assert [p.name for p in (tmp_path / "merged").iterdir() if p.is_dir()] == ["other"]


class TestMissingPredictionFile:
    """A labelled game with no prediction document is an error, not a game
    scored as having no predictions."""

    @pytest.mark.parametrize("command, name", [("spot", "spotting.json"),
                                               ("ground", "grounding.json")])
    def test_eval_exits_one_with_one_line(self, command, name, tmp_path, capsys):
        labels = TestStatedGameIdMismatch._labels(tmp_path)
        preds = TestStatedGameIdMismatch._doc(tmp_path, name, "g1")
        argv = ["eval", command, "--preds", str(preds), "--labels", str(labels)]
        assert run([*argv, "--out", str(tmp_path / "ok")]) == 0
        (preds / "g1" / name).unlink()
        code = run([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: FileNotFoundError:"), err
        assert len(err.strip("\n").splitlines()) == 1, err
        assert str(preds / "g1" / name) in err, err
        assert not (tmp_path / "out").exists()

    def test_eval_spot_rejects_a_document_for_an_unlabelled_game(self, tmp_path, capsys):
        labels = TestStatedGameIdMismatch._labels(tmp_path)
        preds = TestStatedGameIdMismatch._doc(tmp_path, "spotting.json", "g1")
        argv = ["eval", "spot", "--preds", str(preds), "--labels", str(labels)]
        assert run([*argv, "--out", str(tmp_path / "ok")]) == 0
        stray = preds / "stray_001" / "spotting.json"
        stray.parent.mkdir()
        doc = json.loads((preds / "g1" / "spotting.json").read_text())
        stray.write_text(json.dumps({**doc, "game_id": "stray_001"}))
        code = run([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ParseError:"), err
        assert len(err.strip("\n").splitlines()) == 1, err
        assert str(stray) in err and "'stray_001'" in err, err
        assert not (tmp_path / "out").exists()

    def test_fuse_needs_one_for_a_game_with_replays(self, tmp_path, capsys):
        labels = TestStatedGameIdMismatch._labels(tmp_path)
        spots = TestStatedGameIdMismatch._doc(tmp_path, "spotting.json", "g1")
        argv = ["ground", "fuse", "--spot-preds", str(spots), "--labels", str(labels)]
        assert run([*argv, "--out", str(tmp_path / "ok")]) == 0
        (spots / "g1" / "spotting.json").unlink()
        code = run([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: FileNotFoundError:"), err
        assert len(err.strip("\n").splitlines()) == 1, err
        assert str(spots / "g1" / "spotting.json") in err, err
        assert not (tmp_path / "out").exists()
        # a game without replays needs none
        (labels / "g1" / "labels.json").write_text(json.dumps(
            {"annotations": [{"gameTime": "1 - 00:05", "label": "Goal"}]}))
        assert run([*argv, "--out", str(tmp_path / "no_replays")]) == 0
        assert "fused spotting into 0 replay queries" in capsys.readouterr().out


class TestUnscoredInputs:
    """Input that no score would count exits 1 with one ParseError line
    naming it, before anything is scored or written."""

    @staticmethod
    def _rejected(argv, needles, capsys):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ParseError:"), err
        assert len(err.strip("\n").splitlines()) == 1, err
        assert all(needle in err for needle in needles), err

    def test_eval_ground_rejects_a_document_for_an_unlabelled_game(self, tmp_path, capsys):
        labels = TestStatedGameIdMismatch._labels(tmp_path)
        preds = TestStatedGameIdMismatch._doc(tmp_path, "grounding.json", "g1")
        argv = ["eval", "ground", "--preds", str(preds), "--labels", str(labels)]
        assert run([*argv, "--out", str(tmp_path / "ok")]) == 0
        stray = preds / "stray_001" / "grounding.json"
        stray.parent.mkdir()
        stray.write_text((preds / "g1" / "grounding.json").read_text().replace('"g1"',
                                                                              '"stray_001"'))
        self._rejected([*argv, "--out", str(tmp_path / "out")], [str(stray), "'stray_001'"],
                       capsys)
        assert not (tmp_path / "out").exists()

    def test_eval_ground_rejects_a_query_no_replay_is_labelled_for(self, tmp_path, capsys):
        labels = TestStatedGameIdMismatch._labels(tmp_path)
        preds = TestStatedGameIdMismatch._doc(tmp_path, "grounding.json", "g1")
        path = preds / "g1" / "grounding.json"
        doc = json.loads(path.read_text())
        doc["queries"].append({"query": {"half": 2, "start": "2 - 03:00", "end": "2 - 03:10"},
                               "predictions": []})
        path.write_text(json.dumps(doc))
        self._rejected(["eval", "ground", "--preds", str(preds), "--labels", str(labels),
                        "--out", str(tmp_path / "out")],
                       [str(path), "2 - 03:00 to 2 - 03:10", "'g1'"], capsys)
        assert not (tmp_path / "out").exists()

    def _ground_doc_rejected(self, tmp_path, capsys, queries, needles):
        """eval ground and ground merge both reject g1's grounding.json with
        these queries, and write nothing."""
        labels = TestStatedGameIdMismatch._labels(tmp_path)
        preds = TestStatedGameIdMismatch._doc(tmp_path, "grounding.json", "g1")
        path = preds / "g1" / "grounding.json"
        path.write_text(json.dumps({"game_id": "g1", "queries": queries}))
        self._rejected(["eval", "ground", "--preds", str(preds), "--labels", str(labels),
                        "--out", str(tmp_path / "out")], [str(path), *needles], capsys)
        self._rejected(["ground", "merge", str(preds), str(preds), "--out",
                        str(tmp_path / "merged")], [str(path), *needles], capsys)
        assert not (tmp_path / "out").exists() and not (tmp_path / "merged").exists()

    def test_a_query_listed_twice_with_other_predictions(self, tmp_path, capsys):
        """Keyed by query, the last copy would win: here the one without the
        prediction at the event. A replay labelled twice is written twice
        with the same predictions, and that is scored."""
        hit = {"query": GROUND_QUERY, "predictions": [{"position_s": 115, "confidence": 1}]}
        self._ground_doc_rejected(tmp_path, capsys, [hit, {"query": GROUND_QUERY,
                                                           "predictions": []}],
                                  ["'1 - 02:00' to '1 - 02:10'", "twice"])
        preds = tmp_path / "preds"
        (preds / "g1" / "grounding.json").write_text(json.dumps({"queries": [hit, hit]}))
        assert run(["eval", "ground", "--preds", str(preds), "--labels", str(tmp_path / "labels"),
                    "--out", str(tmp_path / "out")]) == 0
        assert "average-AP: 1.0000 over 1 queries" in capsys.readouterr().out

    @pytest.mark.parametrize("query", [
        dict(GROUND_QUERY, half=2),
        dict(GROUND_QUERY, end="2 - 02:10"),
        {"start": "1 - 02:00", "end": "1 - 02:10"},
    ])
    def test_a_query_that_names_no_one_half(self, query, tmp_path, capsys):
        """The half was read from 'start' alone, so each was scored as half 1."""
        preds = [{"position_s": 115, "confidence": 1}]
        self._ground_doc_rejected(tmp_path, capsys, [{"query": query, "predictions": preds}],
                                  [f"'1 - 02:00' to {query['end']!r}", "'half'"])

    @pytest.mark.parametrize("argv", [
        ["eval", "spot", "--preds", "{root}/preds"],
        ["eval", "ground", "--preds", "{root}/preds"],
        ["analyze", "replays"],
        ["ground", "fuse", "--spot-preds", "{root}/preds"],
    ])
    def test_a_labels_tree_without_a_labelled_game(self, argv, tmp_path, capsys):
        labels = tmp_path / "labels"
        (labels / "empty_game").mkdir(parents=True)
        (tmp_path / "preds").mkdir()
        argv = [a.format(root=tmp_path) for a in argv]
        self._rejected([*argv, "--labels", str(labels), "--out", str(tmp_path / "out")],
                       [str(labels)], capsys)
        assert not (tmp_path / "out").exists()


class TestPredictionReaders:
    def test_round_trip_documents_are_read(self, tmp_path):
        path = tmp_path / "g" / "spotting.json"
        path.parent.mkdir()
        path.write_text(json.dumps({"predictions": [SPOT_ENTRY]}))
        (p,) = read_spot_predictions(path, DEFAULT_VOCAB).predictions()
        assert (p.game_id, p.half, p.time_s, p.label, p.confidence) == ("g", 1, 5, "Goal", 0.5)
        path.write_text(json.dumps({"game_id": "h", "queries": [
            {"query": GROUND_QUERY, "predictions": [{"position_s": 115, "confidence": 1}]}]}))
        ((query, (pred,)),) = read_ground_predictions(path)
        assert (query.game_id, query.start_s, query.end_s) == ("h", 120, 130)
        assert (pred.time_s, pred.confidence) == (115, 1.0)

    @pytest.mark.parametrize("command,name,doc", [
        ("spot", "spotting.json", {"predictions": None}),
        ("spot", "spotting.json", {"predictions": [
            {k: v for k, v in SPOT_ENTRY.items() if k != "half"}]}),
        ("spot", "spotting.json", {"predictions": [dict(SPOT_ENTRY, confidence="high")]}),
        ("spot", "spotting.json", {"predictions": [dict(SPOT_ENTRY, confidence=10**400)]}),
        ("spot", "spotting.json", {"predictions": [dict(SPOT_ENTRY, position_s=2**70)]}),
        ("ground", "grounding.json", {"queries": None}),
        ("ground", "grounding.json", {"queries": [{"query": GROUND_QUERY}]}),
        ("ground", "grounding.json", {"queries": [
            {"query": GROUND_QUERY, "predictions": [{"position_s": True, "confidence": 1}]}]}),
    ])
    def test_malformed_documents_exit_one_with_one_line(self, command, name, doc, tmp_path,
                                                        capsys):
        (tmp_path / "labels" / "g").mkdir(parents=True)
        (tmp_path / "labels" / "g" / "labels.json").write_text('{"annotations": []}')
        (tmp_path / "preds" / "g").mkdir(parents=True)
        (tmp_path / "preds" / "g" / name).write_text(json.dumps(doc))
        code = run(["eval", command, "--preds", str(tmp_path / "preds"),
                    "--labels", str(tmp_path / "labels"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ParseError:"), err
        assert len(err.strip("\n").splitlines()) == 1

    @settings(max_examples=300, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=PREDICTION_DOCS)
    def test_only_spotground_errors_escape(self, doc, tmp_path):
        path = tmp_path / "g" / "predictions.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc))
        for read in (lambda: read_spot_predictions(path, DEFAULT_VOCAB),
                     lambda: read_ground_predictions(path)):
            try:
                read()
            except SpotGroundError:
                pass


class TestCommandTable:
    """Every command of the table parses, documents its defaults and resolves
    a config file holding exactly its defaults to its defaults."""

    @pytest.mark.parametrize("cmd", COMMANDS, ids=lambda c: " ".join(c.words))
    def test_help_and_defaults_config_file(self, cmd, tmp_path, capsys, monkeypatch):
        assert run([*cmd.words, "--help"]) == 0
        shown = " ".join(capsys.readouterr().out.split())
        for key, default in cmd.defaults.items():
            assert "--" + key.replace("_", "-") in shown
            assert default is None or f"default {default}" in shown, key

        seen = []
        monkeypatch.setattr(f"spotground.cli.{cmd.body.__name__}",
                            lambda args, cfg: seen.append(dict(cfg)) or
                            ([] if "out" in cmd.paths else 0))
        argv = _command_argv(cmd, tmp_path)
        config = tmp_path / "defaults.json"
        config.write_text(json.dumps(cmd.defaults))
        manifests = []
        for extra in ([], ["--config", str(config)]):
            assert run([*argv, *extra]) == 0
            if "out" in cmd.paths:
                manifest = tmp_path / "out" / "manifest.json"
                manifests.append(json.loads(manifest.read_text())["config"])
        assert seen == [cmd.defaults, cmd.defaults]
        assert manifests in ([], [cmd.defaults, cmd.defaults])


class TestGradcheckCommand:
    def test_passes_with_exit_zero(self, capsys):
        assert run(["gradcheck", "--trials", "10", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        for head in ("spotting", "netvlad", "grounding"):
            assert f"{head} head max relative error" in out, out
        assert "PASS" in out


class TestVersionAndHelp:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "spotground" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self):
        assert run([]) == 2


class TestAnnotationPastTheHalf:
    """An event or replay at or past the end of its half's features is an
    error, not a ground truth no window can find: wherever features and
    labels load together, and in `eval spot` when the labelled half's NPY
    headers are present."""

    @staticmethod
    def _append(game_dir, key, entry):
        path = game_dir / "labels.json"
        doc = json.loads(path.read_text())
        doc.setdefault(key, []).append(entry)
        path.write_text(json.dumps(doc))

    @staticmethod
    def _rejected(argv, needle, capsys):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ParseError: synth_000 half "), err
        assert len(err.strip("\n").splitlines()) == 1, err
        assert needle in err and "200 s" in err, err

    def test_train_infer_and_eval_exit_one_naming_the_half(self, tmp_path, capsys):
        data = _synth(tmp_path / "data")
        train = ["spot", "train", "--data", str(data), "--chunk", "7", *TRAIN_FAST]
        assert run([*train, "--out", str(tmp_path / "train")]) == 0
        infer = ["spot", "infer", "--model", str(tmp_path / "train" / "model.sgckpt"),
                 "--data", str(data), "--chunk", "7"]
        assert run([*infer, "--out", str(tmp_path / "preds")]) == 0
        evals = ["eval", "spot", "--preds", str(tmp_path / "preds"), "--labels", str(data)]
        # the half's last second (199) is inside it
        self._append(data / "synth_000", "annotations", {"gameTime": "1 - 03:19", "label": "Goal"})
        assert run([*evals, "--out", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        self._append(data / "synth_000", "annotations", {"gameTime": "1 - 99:00", "label": "Goal"})
        for argv in (train, infer, evals):
            self._rejected([*argv, "--out", str(tmp_path / "out")], "1 - 99:00", capsys)
            assert not (tmp_path / "out" / "spot_eval.json").exists()

    def test_eval_spot_checks_only_halves_with_feature_headers(self, tmp_path, capsys):
        data = _synth(tmp_path / "data")
        preds = tmp_path / "preds"
        (preds / "synth_000").mkdir(parents=True)
        (preds / "synth_000" / "spotting.json").write_text(json.dumps({"predictions": [SPOT_ENTRY]}))
        # a replay whose end is the half's length, one second past its last
        self._append(data / "synth_000", "replays", {
            "start": "2 - 03:12", "end": "2 - 03:20", "event": "2 - 03:00", "label": "Goal"})
        argv = ["eval", "spot", "--preds", str(preds), "--out", str(tmp_path / "out")]
        self._rejected([*argv, "--labels", str(data)], "2 - 03:20", capsys)
        # labels alone, with no NPY file beside them, are not checked
        labels = tmp_path / "labels" / "synth_000"
        labels.mkdir(parents=True)
        (labels / "labels.json").write_bytes((data / "synth_000" / "labels.json").read_bytes())
        assert run([*argv, "--labels", str(labels.parent)]) == 0
