"""The benchmark's workloads: generated inputs and the CLI stages run on them.

Every input is a pure function of the seed. The CLI sees only the files
that `setup` writes; the harness keeps the facts it needs to turn stage
wall times into rates (`Facts`).
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spotground.checkpoint import KIND_SPOT_TRANSFORMER, Model, save_model
from spotground.cli import write_spot_predictions
from spotground.data import load_dataset, parse_labels
from spotground.grounding import CANDIDATE_CHUNK_S, PRE_REPLAY_WINDOW_S, sample_grounding_pairs
from spotground.nn import EncoderConfig, init_encoder_params
from spotground.npyio import read_npy_file, write_npy_file
from spotground.spotting import SpotPrediction
from spotground import synth
from spotground.synth import SynthConfig
from spotground.vocab import DEFAULT_VOCAB, label_index

FUSION_LABELS = ("Goal", "Foul", "Shots-off target")
C5_EPOCHS = 50
C5_GATE = 0.90


@dataclass(frozen=True)
class Stage:
    """One CLI invocation: `python -m spotground.cli <argv>` writing into `out`."""

    name: str  # "spot train", "eval ground", ...
    argv: tuple[str, ...]
    out: Path
    needs: tuple[str, ...] = ()
    reps: int = 1  # runs per pass, for more samples of a short stage


@dataclass
class Facts:
    """Work sizes of the generated inputs, for throughputs."""

    train_samples: int = 0  # chunks or pairs per epoch times epochs
    infer_windows: int = 0  # 1-s windows or candidate chunks scored by infer
    quality_gate: float | None = None


@dataclass
class Workload:
    name: str
    why: str
    size: dict = field(default_factory=dict)

    def rng(self, seed: int, tag: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([seed, tag]))

    def setup(self, inp: Path, seed: int) -> None:
        raise NotImplementedError

    def facts(self, inp: Path) -> Facts:
        raise NotImplementedError

    def stages(self, inp: Path, train: Path, out: Path, seed: int) -> list[Stage]:
        raise NotImplementedError


def _c5_synth(size: dict) -> SynthConfig:
    return SynthConfig(duration_s=size["duration"], feature_dim=32, num_classes=3,
                       events_per_class=size["events_per_class"], noise_sigma=0.25,
                       min_gap_s=21, num_halves=size["halves"])


def _spot_windows(inp: Path) -> int:
    return sum(gh.features.duration_s for gh in load_dataset(inp))


def _spot_chunks(inp: Path, chunk: int) -> int:
    return sum(-(-gh.features.duration_s // chunk) for gh in load_dataset(inp))


class SpotPipeline(Workload):
    """synth (C5 shape) -> spot train -> spot infer -> eval spot."""

    def setup(self, inp: Path, seed: int) -> None:
        synth.write_synth_dataset(inp / "data", _c5_synth(self.size), seed)

    def facts(self, inp: Path) -> Facts:
        s = self.size
        gate = C5_GATE if s["epochs"] == C5_EPOCHS else None
        return Facts(
            train_samples=_spot_chunks(inp / "data", s["chunk"]) * s["epochs"],
            infer_windows=_spot_windows(inp / "data"),
            quality_gate=gate,
        )

    def stages(self, inp: Path, train: Path, out: Path, seed: int) -> list[Stage]:
        s, data = self.size, str(inp / "data")
        chunk = str(s["chunk"])
        train_argv = ["spot", "train", "--data", data, "--out", str(train), "--mode", "ultra",
                      "--head", "transformer", "--chunk", chunk, "--nms", "20",
                      "--epochs", str(s["epochs"]), "--batch", "32", "--mixup", "0.2",
                      "--seed", str(seed), *s["model_args"]]
        return [
            Stage("spot train", tuple(train_argv), train),
            Stage("spot infer", ("spot", "infer", "--model", str(train / "model.sgckpt"),
                                 "--data", data, "--out", str(out / "infer"), "--chunk", chunk,
                                 "--nms", "20", "--jobs", "1"),
                  out / "infer", needs=("spot train",), reps=s["infer_reps"]),
            Stage("eval spot", ("eval", "spot", "--preds", str(out / "infer"), "--labels", data,
                                "--out", str(out / "eval"), "--jobs", "1"),
                  out / "eval", needs=("spot infer",)),
        ]


class GroundPipeline(Workload):
    """C6 data -> ground train -> ground infer -> eval ground -> fuse -> merge."""

    def _synth(self) -> SynthConfig:
        s = self.size
        return SynthConfig(duration_s=s["duration"], feature_dim=32, num_classes=2,
                           events_per_class=s["events_per_class"], noise_sigma=0.1,
                           min_gap_s=130, edge_margin_s=120, num_halves=s["halves"],
                           with_replays=True, replay_delay_min_s=10, replay_delay_max_s=110,
                           replay_duration_s=8)

    def setup(self, inp: Path, seed: int) -> None:
        synth.write_synth_dataset(inp / "data", self._synth(), seed)
        # spotting output for `ground fuse`, labelled with the fusion classes:
        # one detection near each replayed event plus two distractors per replay
        rng = self.rng(seed, 7)
        by_game: dict[str, list[SpotPrediction]] = {}
        for gh in load_dataset(inp / "data"):
            f = gh.features
            preds = by_game.setdefault(f.game_id, [])
            for rp in gh.replays:
                t = int(np.clip(rp.event_time_s + rng.integers(-3, 4), 0, f.duration_s - 1))
                preds.append(_spot_pred(f.game_id, f.half, t, FUSION_LABELS[rng.integers(3)],
                                        rng.uniform(0.3, 1.0)))
            for _ in range(2 * len(gh.replays)):
                preds.append(_spot_pred(f.game_id, f.half, int(rng.integers(f.duration_s)),
                                        FUSION_LABELS[rng.integers(3)], rng.uniform(0.0, 1.0)))
        _write_spot_files(inp / "spotting", by_game)

    def facts(self, inp: Path) -> Facts:
        halves = load_dataset(inp / "data")
        rng = np.random.default_rng(0)  # pair counts do not depend on the draws
        pairs = sum(len(sample_grounding_pairs(rp, gh.features, rng))
                    for gh in halves for rp in gh.replays)
        stride = self.size["stride"]
        windows = sum(
            len(range(max(0, rp.replay_start_s - PRE_REPLAY_WINDOW_S),
                      rp.replay_start_s - CANDIDATE_CHUNK_S + 1, stride))
            for gh in halves for rp in gh.replays
        )
        return Facts(train_samples=pairs * self.size["epochs"], infer_windows=windows)

    def stages(self, inp: Path, train: Path, out: Path, seed: int) -> list[Stage]:
        s, data = self.size, str(inp / "data")
        train_argv = ["ground", "train", "--data", data, "--out", str(train), "--mode", "ultra",
                      "--epochs", str(s["epochs"]), "--batch", str(s["batch"]),
                      "--dropout", "0.0", "--seed", str(seed), *s["model_args"]]
        return [
            Stage("ground train", tuple(train_argv), train),
            Stage("ground infer", ("ground", "infer", "--model", str(train / "model.sgckpt"),
                                   "--data", data, "--out", str(out / "infer"),
                                   "--stride", str(s["stride"]), "--filter", "120", "--jobs", "1"),
                  out / "infer", needs=("ground train",), reps=s["infer_reps"]),
            Stage("eval ground", ("eval", "ground", "--preds", str(out / "infer"), "--labels", data,
                                  "--out", str(out / "eval")),
                  out / "eval", needs=("ground infer",)),
            Stage("ground fuse", ("ground", "fuse", "--spot-preds", str(inp / "spotting"),
                                  "--labels", data, "--out", str(out / "fuse")),
                  out / "fuse"),
            Stage("ground merge", ("ground", "merge", str(out / "infer"), str(out / "fuse"),
                                   "--out", str(out / "merge")),
                  out / "merge", needs=("ground infer", "ground fuse")),
        ]


class SplitScale(Workload):
    """SoccerNet-split shape: NetVLAD training at full width, infer with an
    untrained transformer checkpoint, eval at scale.

    `spot infer` reads the checkpoint written in set-up, not the one
    `spot train` writes, so what infer and eval do never depends on the
    training arithmetic.
    """

    def setup(self, inp: Path, seed: int) -> None:
        s = self.size
        data = inp / "data"
        config = SynthConfig(duration_s=s["duration"], feature_dim=s["dim"], num_classes=17,
                             events_per_class=s["events_per_class"], noise_sigma=0.25,
                             min_gap_s=21, num_halves=s["halves"])
        synth.write_synth_dataset(data, config, seed)
        # two extractors per half: split the wide matrix into two sources
        for path in sorted(data.glob("*/*_synthetic.npy")):
            matrix = read_npy_file(path)
            cut = matrix.shape[1] // 2
            half = path.name.split("_")[0]
            write_npy_file(path.with_name(f"{half}_a.npy"), matrix[:, :cut])
            write_npy_file(path.with_name(f"{half}_b.npy"), matrix[:, cut:])
            path.unlink()
        enc = EncoderConfig(input_dim=s["dim"], output_dim=18)
        params = init_encoder_params(enc, self.rng(seed, 3))
        save_model(inp / "model.sgckpt",
                   Model(kind=KIND_SPOT_TRANSFORMER, config=enc, vocab=list(DEFAULT_VOCAB),
                         params=params))
        # `eval spot` scores more halves than `spot infer` reads: their labels
        # come from a narrow synth run, since evaluation never opens features
        labels = inp / "labels"
        wide = SynthConfig(duration_s=s["duration"], feature_dim=17, num_classes=17,
                           events_per_class=s["events_per_class"], noise_sigma=0.0,
                           min_gap_s=21, num_halves=s["eval_halves"])
        synth.write_synth_dataset(labels, wide, seed + 1)
        for path in labels.glob("*/*.npy"):
            path.unlink()
        # a fixed number of detections per ground truth: three with its label
        # about 0, 20 and 45 s from it and high confidence, the rest anywhere
        # with any label and lower confidence
        rng = self.rng(seed, 5)
        near = (0, 20, 45)
        by_game: dict[str, list[SpotPrediction]] = {}
        for game_dir in sorted(labels.iterdir()):
            events, _ = parse_labels((game_dir / "labels.json").read_bytes(), game_id=game_dir.name)
            preds = by_game.setdefault(game_dir.name, [])
            for ev in events:
                for j in range(s["preds_per_gt"]):
                    if j < len(near):
                        side = 1 if rng.integers(2) else -1
                        t = ev.time_s + side * (near[j] + int(rng.integers(3)))
                        label, conf = ev.label, rng.uniform(0.6, 1.0)
                    else:
                        t, label = int(rng.integers(s["duration"])), DEFAULT_VOCAB[rng.integers(17)]
                        conf = rng.uniform(0.0, 0.6)
                    t = min(max(int(t), 0), s["duration"] - 1)
                    preds.append(_spot_pred(ev.game_id, ev.half, t, label, conf))
        _write_spot_files(inp / "preds", by_game)

    def facts(self, inp: Path) -> Facts:
        s = self.size
        return Facts(train_samples=_spot_chunks(inp / "data", 8) * s["epochs"],
                     infer_windows=_spot_windows(inp / "data"))

    def stages(self, inp: Path, train: Path, out: Path, seed: int) -> list[Stage]:
        s, data = self.size, str(inp / "data")
        # NetVLAD needs an even chunk; few clusters keep its pooled vector,
        # clusters x D x 2, small enough to train at D=2048
        train_argv = ["spot", "train", "--data", data, "--out", str(train), "--mode", "ultra",
                      "--head", "netvlad", "--chunk", "8", "--clusters", str(s["clusters"]),
                      "--epochs", str(s["epochs"]), "--batch", "32", "--mixup", "0.2",
                      "--seed", str(seed)]
        return [
            Stage("spot train", tuple(train_argv), train),
            Stage("spot infer", ("spot", "infer", "--model", str(inp / "model.sgckpt"), "--data",
                                 data, "--out", str(out / "infer"), "--chunk", "7", "--nms", "20",
                                 "--jobs", "1"),
                  out / "infer", reps=s["infer_reps"]),
            Stage("eval spot", ("eval", "spot", "--preds", str(inp / "preds"), "--labels",
                                str(inp / "labels"), "--out", str(out / "eval"), "--jobs", "1"),
                  out / "eval"),
        ]


def _spot_pred(game_id, half, t, label, conf) -> SpotPrediction:
    return SpotPrediction(game_id, half, int(t), label_index(DEFAULT_VOCAB, label), label,
                          float(conf))


def _write_spot_files(root: Path, by_game: dict[str, list[SpotPrediction]]) -> None:
    for game_id, preds in sorted(by_game.items()):
        write_spot_predictions(root, game_id, preds)


TINY_ENCODER = ("--layers", "1", "--model-dim", "16", "--hidden", "32", "--heads", "2")
SIZES = {
    "spot-c5": (SpotPipeline, {
        "full": dict(halves=8, duration=600, events_per_class=8, chunk=7, epochs=20,
                     infer_reps=1, model_args=("--dropout", "0.0")),
        "tiny": dict(halves=2, duration=200, events_per_class=2, chunk=7, epochs=1,
                     infer_reps=2, model_args=("--dropout", "0.0", *TINY_ENCODER)),
    }, "C5's pipeline: short chunks and batch 32, so per-call overhead, "
       "weight-gradient einsums and the Adam loop dominate training"),
    "ground-c6": (GroundPipeline, {
        "full": dict(halves=10, duration=1500, events_per_class=5, epochs=1, batch=8, stride=30,
                     infer_reps=2, model_args=()),
        "tiny": dict(halves=2, duration=1100, events_per_class=3, epochs=1, batch=8, stride=30,
                     infer_reps=1, model_args=TINY_ENCODER),
    }, "C6 grounding at T=60: attention and backward dominate training; "
       "the only workload with pair sampling, filter, fuse and merge"),
    "split-scale": (SplitScale, {
        "full": dict(halves=2, eval_halves=20, duration=2700, dim=2048, events_per_class=6,
                     preds_per_gt=10, epochs=8, clusters=4, infer_reps=2),
        "tiny": dict(halves=2, eval_halves=2, duration=400, dim=64, events_per_class=1,
                     preds_per_gt=10, epochs=1, clusters=2, infer_reps=1),
    }, "SoccerNet-split shape, two-source D=2048 features; trains the NetVLAD head; infer "
       "and eval use no trained weights, so loading, scoring, NMS and matching dominate"),
}


def make(name: str, tiny: bool = False) -> Workload:
    cls, sizes, why = SIZES[name]
    return cls(name=name, why=why, size=sizes["tiny" if tiny else "full"])


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
