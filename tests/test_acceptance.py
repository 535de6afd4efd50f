"""Acceptance suite: one test per release gate, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines
and the measured values. The learnability gates train real models and
take a few minutes combined.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spotground
from conftest import by_game, make_event
from spotground.cli import run
from spotground.data import GameHalf
from spotground.evaluation import average_map, replay_ap_report, replay_stats
from spotground.grounding import (
    GroundingPrediction,
    ReplayQuery,
    filter_predictions,
    fuse_with_spotting,
    infer_grounding,
    merge_nms,
    train_grounding,
)
from spotground.nn import (
    GRADCHECK_BATCH,
    GROUND_GRADCHECK_CONFIG,
    SPOT_GRADCHECK_CONFIG,
    EncoderConfig,
    grounding_grad_check,
    spotting_grad_check,
)
from spotground.npyio import parse_npy, write_npy
from spotground.spotting import (
    NETVLAD_GRADCHECK_CONFIG,
    NETVLAD_GRADCHECK_L,
    NetVLADConfig,
    SpotCandidates,
    SpotPrediction,
    TrainSpec,
    netvlad_grad_check,
    nms_1d,
)
from spotground.synth import SynthConfig, synth_dataset

from test_evaluation import oracle_ap, _pred
from test_grounding import _fuse_oracle, _merge_oracle
from test_spotting import _brute_force_nms, _random_preds


def _report(line: str) -> None:
    print(f"\n[acceptance] {line}", flush=True)


def test_c1_gradient_fidelity():
    t0 = time.time()
    spot_err = spotting_grad_check(trials=100, h=1e-5, seed=0)
    netvlad_err = netvlad_grad_check(trials=100, h=1e-5, seed=0)
    ground_err = grounding_grad_check(trials=100, h=1e-5, seed=0)
    elapsed = time.time() - t0
    ok = max(spot_err, netvlad_err, ground_err) < 1e-5 and elapsed < 60.0
    _report(
        f"C1 gradient fidelity: spot {spot_err:.2e}, netvlad {netvlad_err:.2e}, "
        f"ground {ground_err:.2e}, {elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert SPOT_GRADCHECK_CONFIG.num_layers == 3
    assert SPOT_GRADCHECK_CONFIG.num_heads == 4
    assert SPOT_GRADCHECK_CONFIG.model_dim == 64
    assert SPOT_GRADCHECK_CONFIG.output_dim == 18
    assert GROUND_GRADCHECK_CONFIG.num_layers == 4
    assert GROUND_GRADCHECK_CONFIG.output_dim == 2
    assert NETVLAD_GRADCHECK_CONFIG == NetVLADConfig(input_dim=16, clusters=4, output_dim=18)
    assert (GRADCHECK_BATCH, NETVLAD_GRADCHECK_L) == (2, 8)
    assert spot_err < 1e-5
    assert netvlad_err < 1e-5
    assert ground_err < 1e-5
    assert elapsed < 60.0


def test_c2_nms_oracles():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        preds = _random_preds(rng, int(rng.integers(0, 51)), classes=4, t_max=200)
        window = int(rng.integers(1, 40))
        got = nms_1d(SpotCandidates.from_predictions("g", preds), window)
        assert got.predictions() == _brute_force_nms(preds, window)
    for _ in range(1000):
        def side(n):
            return [
                GroundingPrediction(int(rng.integers(0, 200)),
                                    float(rng.integers(0, 100)) / 100.0)
                for _ in range(n)
            ]
        a, b = side(int(rng.integers(0, 26))), side(int(rng.integers(0, 26)))
        window = int(rng.integers(1, 40))
        got = [(p.time_s, p.confidence) for p in merge_nms(a, b, window)]
        expected = _merge_oracle(a, b, window)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g[0] == e[0] and g[1] == pytest.approx(e[1])
    _report("C2 NMS oracle equivalence (1000 + 1000 instances): PASS")


def test_c3_metric_oracle():
    # through average_map, the function `eval spot` runs: one class, one tolerance
    assert average_map(by_game([_pred(50, 0.9)]), [make_event(52)], [5]).average_map == 1.0
    assert average_map(by_game([_pred(50, 0.9)]), [make_event(52)], [1]).average_map == 0.0
    rng = np.random.default_rng(99)
    for _ in range(1000):
        preds = [
            _pred(int(rng.integers(0, 50)), float(rng.integers(1, 8)) / 7.0,
                  game=("a" if rng.integers(0, 2) else "b"))
            for _ in range(int(rng.integers(0, 9)))
        ]
        gts = [
            make_event(int(rng.integers(0, 50)),
                       game_id=("a" if rng.integers(0, 2) else "b"))
            for _ in range(int(rng.integers(0, 6)))
        ]
        tol = int(rng.integers(1, 15))
        got = average_map(by_game(preds), gts, [tol]).average_map
        assert got == pytest.approx(oracle_ap(preds, gts, tol), abs=1e-12)
    _report("C3 metric oracle equivalence (1000 instances + hand cases): PASS")


def test_c4_fusion_oracle():
    rng = np.random.default_rng(55)
    labels = ["Goal", "Foul", "Shots-off target", "Corner"]
    allowed = frozenset({"Foul", "Goal", "Shots-off target"})
    index = {"Goal": 2, "Foul": 10, "Shots-off target": 6, "Corner": 13}
    for _ in range(1000):
        T = int(rng.integers(50, 400))
        spots = [
            SpotPrediction("g", 1, int(rng.integers(max(0, T - 60), T + 10)),
                           index[lb], lb, float(rng.integers(0, 101)) / 100.0)
            for lb in (labels[int(rng.integers(0, 4))]
                       for _ in range(int(rng.integers(0, 12))))
        ]
        got = fuse_with_spotting(SpotCandidates.from_predictions("g", spots), T,
                                 42, 0.02, 1.25, 0.8)
        assert [(p.time_s, p.confidence) for p in got] == _fuse_oracle(
            spots, T, 42, 0.02, 1.25, 0.8, allowed
        )
    _report("C4 fusion oracle equivalence (1000 instances, W=42 S=0.02 "
            "beta1=1.25 beta2=0.8): PASS")


def test_c5_synthetic_spotting_learnability(tmp_path):
    # full pipeline through the CLI: synth -> spot train -> spot infer -> eval spot
    t0 = time.time()
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--seed", "11", "--halves", "8",
                "--duration", "600", "--dim", "32", "--classes", "3",
                "--events-per-class", "8", "--sigma", "0.25", "--min-gap", "21"]) == 0
    assert run(["spot", "train", "--data", str(data), "--out", str(tmp_path / "train"),
                "--mode", "ultra", "--chunk", "7", "--nms", "20", "--lr", "5e-4",
                "--epochs", "50", "--batch", "32", "--mixup", "0.2",
                "--dropout", "0.0", "--seed", "3"]) == 0
    assert run(["spot", "infer", "--model", str(tmp_path / "train" / "model.sgckpt"),
                "--data", str(data), "--out", str(tmp_path / "preds"),
                "--chunk", "7", "--nms", "20"]) == 0
    assert run(["eval", "spot", "--preds", str(tmp_path / "preds"), "--labels",
                str(data), "--out", str(tmp_path / "eval")]) == 0
    report = json.loads((tmp_path / "eval" / "spot_eval.json").read_text())
    elapsed = time.time() - t0
    ok = report["average_map"] >= 0.90 and elapsed <= 600.0
    _report(
        f"C5 spotting learnability (CLI pipeline): Average-mAP "
        f"{report['average_map']:.4f} (gate 0.90), {elapsed:.0f}s -> "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert report["average_map"] >= 0.90
    assert elapsed <= 600.0


def test_c6_synthetic_grounding_learnability():
    t0 = time.time()
    cfg = SynthConfig(duration_s=1500, feature_dim=32, num_classes=2, events_per_class=5,
                      noise_sigma=0.1, min_gap_s=130, edge_margin_s=120, num_halves=10,
                      with_replays=True, replay_delay_min_s=10, replay_delay_max_s=110,
                      replay_duration_s=8)
    halves = [GameHalf(f, e, r) for f, e, r in synth_dataset(cfg, seed=21)]
    n_replays = sum(len(gh.replays) for gh in halves)
    assert n_replays == 100
    spec = TrainSpec(lr=2e-4, epochs=15, batch_size=32, seed=5)
    config = EncoderConfig(input_dim=32, output_dim=2, model_dim=64, num_layers=4,
                           num_heads=4, hidden_dim=256, dropout_p=0.0, num_segments=2)
    model = train_grounding(halves, spec, config=config)
    preds_per_query, gt_times = [], []
    for gh in halves:
        for rp in gh.replays:
            query = ReplayQuery(rp.game_id, rp.half, rp.replay_start_s, rp.replay_end_s)
            preds = infer_grounding(model, query, gh.features, stride_s=30)
            preds = filter_predictions(preds, rp.replay_end_s, 120)
            preds_per_query.append(preds)
            gt_times.append(rp.event_time_s)
    # through replay_ap_report, the function `eval ground` runs
    score = replay_ap_report(preds_per_query, gt_times)["average_ap"]
    elapsed = time.time() - t0
    ok = score >= 0.85 and elapsed <= 600.0
    _report(
        f"C6 grounding learnability: average-AP {score:.4f} over {n_replays} replays "
        f"(gate 0.85), {elapsed:.0f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert score >= 0.85
    assert elapsed <= 600.0


SYNTH_ARGS = ["--halves", "2", "--duration", "200", "--dim", "16", "--classes", "2",
              "--events-per-class", "3", "--sigma", "0.1", "--min-gap", "25"]
GROUND_SYNTH_ARGS = ["--halves", "2", "--duration", "1100", "--dim", "16",
                     "--classes", "2", "--events-per-class", "3", "--sigma", "0.05",
                     "--min-gap", "130", "--margin", "120", "--replays",
                     "--delay-min", "10", "--delay-max", "110", "--replay-dur", "8"]
FAST_TRAIN = ["--epochs", "2", "--batch", "8", "--layers", "1", "--heads", "2",
              "--model-dim", "16", "--hidden", "32", "--seed", "1"]


def _tree_bytes(root: Path):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"  # manifests carry wall time
    }


def test_c7_command_determinism(tmp_path):
    def twice(label, argv_fn):
        trees = []
        for rep in ("r1", "r2"):
            out = tmp_path / f"{label}_{rep}"
            assert run(argv_fn(out)) == 0, label
            trees.append(_tree_bytes(out))
        assert trees[0] == trees[1], f"{label} not bit-reproducible"

    twice("synth", lambda out: ["synth", "--out", str(out), "--seed", "3", *SYNTH_ARGS])
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--seed", "3", *SYNTH_ARGS]) == 0
    gdata = tmp_path / "gdata"
    assert run(["synth", "--out", str(gdata), "--seed", "4", *GROUND_SYNTH_ARGS]) == 0

    twice("spot_train", lambda out: ["spot", "train", "--data", str(data), "--out",
                                     str(out), *FAST_TRAIN])
    spot_ckpt = tmp_path / "spot_train_r1" / "model.sgckpt"
    twice("spot_infer", lambda out: ["spot", "infer", "--model", str(spot_ckpt),
                                     "--data", str(data), "--out", str(out)])
    twice("ground_train", lambda out: ["ground", "train", "--data", str(gdata),
                                       "--out", str(out), *FAST_TRAIN])
    ground_ckpt = tmp_path / "ground_train_r1" / "model.sgckpt"
    twice("ground_infer", lambda out: ["ground", "infer", "--model", str(ground_ckpt),
                                       "--data", str(gdata), "--out", str(out)])
    _report("C7 determinism (synth, spot train/infer, ground train/infer, "
            "byte-compared twice): PASS")


# trains both heads at their default widths, whose products are large enough
# for OpenBLAS to split them across threads
TRAIN_BOTH_HEADS = """
import sys
from spotground.cli import run
data, gdata, out = sys.argv[1:]
for command, inputs in (("spot", data), ("ground", gdata)):
    argv = [command, "train", "--data", inputs, "--out", f"{out}/{command}", "--epochs", "2"]
    assert run([*argv, "--seed", "1"]) == 0
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
def test_c7_checkpoints_at_two_blas_threads(tmp_path):
    """Both heads' checkpoints are the same bytes with OPENBLAS_NUM_THREADS=2
    as with 1, each set in a fresh process before numpy loads."""
    data, gdata = tmp_path / "data", tmp_path / "gdata"
    assert run(["synth", "--out", str(data), "--seed", "3", *SYNTH_ARGS]) == 0
    assert run(["synth", "--out", str(gdata), "--seed", "4", *GROUND_SYNTH_ARGS]) == 0
    path = os.pathsep.join([str(Path(spotground.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    checkpoints = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-c", TRAIN_BOTH_HEADS, str(data), str(gdata), str(out)],
                       env=env, check=True)
        checkpoints[threads] = [(out / head / "model.sgckpt").read_bytes()
                                for head in ("spot", "ground")]
    assert checkpoints["1"] == checkpoints["2"]
    _report("C7 determinism at two BLAS threads (spot and ground checkpoints): PASS")


def test_c8_real_replay_statistics():
    root = os.environ.get("SPOTGROUND_REPLAY_LABELS")
    if not root:
        _report("C8 real replay stats: SKIPPED (set SPOTGROUND_REPLAY_LABELS to a "
                "dataset directory with labels.json files)")
        pytest.skip("real replay annotations not available")
    from spotground.data import parse_labels

    replays = []
    for labels_path in sorted(Path(root).rglob("labels.json")):
        _, game_replays = parse_labels(labels_path.read_bytes(),
                                       game_id=labels_path.parent.name)
        replays.extend(game_replays)
    stats = replay_stats(replays)

    def norm(label):
        return label.lower().replace("-", " ")

    ok_fraction = abs(stats.fraction_in_0_120 - 0.9283) <= 0.002
    ok_top = [norm(lb) for lb in stats.top_labels] == [
        "foul", "goal", "shots off target"
    ]
    _report(
        f"C8 real replay stats: fraction {stats.fraction_in_0_120:.4f} "
        f"(expect 0.9283 +/- 0.002), top {stats.top_labels} -> "
        f"{'PASS' if ok_fraction and ok_top else 'FAIL'}"
    )
    assert ok_fraction and ok_top


def test_c9_format_round_trips(tmp_path):
    rng = np.random.default_rng(31)
    for _ in range(100):
        matrix = rng.normal(size=(int(rng.integers(1, 30)),
                                  int(rng.integers(1, 30)))).astype(np.float32)
        stream = write_npy(matrix)
        back = parse_npy(stream)
        assert back.tobytes() == matrix.tobytes()
        assert write_npy(back) == stream
    from test_checkpoint import _assert_models_equal, _random_model
    from spotground.checkpoint import load_model, save_model

    for i in range(100):
        model = _random_model(rng)
        path = tmp_path / f"model_{i}.sgckpt"
        save_model(path, model)
        _assert_models_equal(model, load_model(path))
    _report("C9 format round trips (100 NPY + 100 checkpoints, bit-exact): PASS")
