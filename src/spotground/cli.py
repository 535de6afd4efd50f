"""Command-line interface.

One executable covering the pipeline end to end: data synthesis, training,
inference, post-processing, evaluation, replay analysis and gradient
self-verification. Every run writes a manifest (final config, seed, build
id, wall time) next to its outputs; exit codes are 0 on success, 2 on
usage errors and 1 on runtime errors with a single machine-parsable line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_model, save_model
from .data import (
    GameHalf,
    format_game_time,
    load_dataset,
    load_game,
    parse_game_time,
    parse_labels,
)
from .errors import ParseError, ShapeError, SpotGroundError
from .evaluation import (
    EvalReport,
    average_map,
    interval_histogram_svg,
    replay_ap_report,
    replay_stats,
)
from .grounding import (
    GroundingPrediction,
    ReplayQuery,
    filter_predictions,
    fuse_with_spotting,
    infer_grounding,
    merge_nms,
    train_grounding,
)
from .nn import (
    GROUND_GRADCHECK_CONFIG,
    SPOT_GRADCHECK_CONFIG,
    EncoderConfig,
    grounding_grad_check,
    spotting_grad_check,
)
from .spotting import (
    DatasetSplits,
    NetVLADConfig,
    SpotPrediction,
    TrainSpec,
    default_spot_epochs,
    default_spot_lr,
    spot_game,
    train_spotting,
)
from .synth import SynthConfig, write_synth_dataset
from .vocab import DEFAULT_VOCAB, NUM_OUTPUT_CLASSES, label_index, load_vocab, save_vocab

GRADCHECK_GATE = 1e-5


def _build_id() -> str:
    here = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "-C", str(here), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"spotground-{__version__}"


def _config_value(key: str, value, expected: type | None):
    """A config-file value checked against the type its key takes: bool is
    not an int, an int is accepted (as a float) where a float is expected."""
    if expected is None:
        return value
    if expected is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, expected) and (expected is bool or not isinstance(value, bool)):
        return value
    raise UsageError(
        f"config key {key!r} must be {expected.__name__}, got {type(value).__name__} {value!r}"
    )


def _resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < JSON config file < explicit flags; reject unknown keys
    and values of the wrong type."""
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {config_path} must hold a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        flag_types = getattr(args, "flag_types", {})
        for key, value in loaded.items():
            if defaults[key] is None and value is None:
                continue  # keeps the computed default
            expected = flag_types.get(key) if defaults[key] is None else type(defaults[key])
            cfg[key] = _config_value(key, value, expected)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


class UsageError(Exception):
    pass


def _write_manifest(out_dir: Path, command: str, cfg: dict, t0: float, outputs) -> None:
    manifest = {
        "version": 1,
        "command": command,
        "config": cfg,
        "seed": cfg.get("seed"),
        "build": _build_id(),
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": sorted(str(Path(p).relative_to(out_dir)) for p in outputs),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_vocab_arg(path: str | None) -> list[str]:
    return load_vocab(path) if path else list(DEFAULT_VOCAB)


def _iter_game_labels(labels_dir: Path, vocab=None):
    """Yield (game_id, events, replays) for every labelled game directory."""
    for game_dir in sorted(p for p in labels_dir.iterdir() if p.is_dir()):
        events, replays = [], []
        found = False
        for name in ("labels.json", "replays.json"):
            path = game_dir / name
            if path.exists():
                found = True
                evs, rps = parse_labels(path.read_bytes(), game_id=game_dir.name,
                                        vocab=vocab)
                events.extend(evs)
                replays.extend(rps)
        if found:
            yield game_dir.name, events, replays


# ---------------------------------------------------------------------------
# prediction file round trips


def write_spot_predictions(out_dir: Path, game_id: str, preds: list[SpotPrediction]) -> Path:
    doc = {
        "version": 1,
        "game_id": game_id,
        "predictions": [
            {
                "gameTime": format_game_time(p.half, p.time_s),
                "label": p.label,
                "half": p.half,
                "position_s": p.time_s,
                "confidence": p.confidence,
            }
            for p in preds
        ],
    }
    path = out_dir / game_id / "spotting.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def read_spot_predictions(path: Path, vocab) -> list[SpotPrediction]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    game_id = doc.get("game_id", path.parent.name)
    preds = []
    for entry in doc["predictions"]:
        preds.append(
            SpotPrediction(
                game_id,
                int(entry["half"]),
                int(entry["position_s"]),
                label_index(vocab, entry["label"]),
                entry["label"],
                float(entry["confidence"]),
            )
        )
    return preds


def _query_key(q: dict) -> tuple:
    return (int(q["half"]), q["start"], q["end"])


def write_ground_predictions(
    out_dir: Path, game_id: str, results: list[tuple[ReplayQuery, list[GroundingPrediction]]]
) -> Path:
    doc = {
        "version": 1,
        "game_id": game_id,
        "queries": [
            {
                "query": {
                    "half": q.half,
                    "start": format_game_time(q.half, q.start_s),
                    "end": format_game_time(q.half, q.end_s),
                },
                "predictions": [
                    {"position_s": p.time_s, "confidence": p.confidence} for p in preds
                ],
            }
            for q, preds in results
        ],
    }
    path = out_dir / game_id / "grounding.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def read_ground_predictions(path: Path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    game_id = doc.get("game_id", path.parent.name)
    results = []
    for entry in doc["queries"]:
        q = entry["query"]
        half, start = parse_game_time(q["start"])
        _, end = parse_game_time(q["end"])
        query = ReplayQuery(game_id, half, start, end)
        preds = [
            GroundingPrediction(game_id, half, int(p["position_s"]), float(p["confidence"]))
            for p in entry["predictions"]
        ]
        results.append((query, preds))
    return results


# ---------------------------------------------------------------------------
# subcommands


SYNTH_DEFAULTS = {
    "seed": 0,
    "halves": 2,
    "duration": 600,
    "dim": 32,
    "classes": 3,
    "events_per_class": 8,
    "sigma": 0.25,
    "min_gap": 21,
    "margin": 3,
    "prefix": "synth",
    "replays": False,
    "delay_min": 40,
    "delay_max": 40,
    "replay_dur": 8,
}


def cmd_synth(args) -> int:
    t0 = time.time()
    cfg = _resolve_config(args, SYNTH_DEFAULTS)
    out = Path(args.out)
    config = SynthConfig(
        duration_s=cfg["duration"],
        feature_dim=cfg["dim"],
        num_classes=cfg["classes"],
        events_per_class=cfg["events_per_class"],
        noise_sigma=cfg["sigma"],
        min_gap_s=cfg["min_gap"],
        edge_margin_s=cfg["margin"],
        num_halves=cfg["halves"],
        game_prefix=cfg["prefix"],
        with_replays=cfg["replays"],
        replay_delay_min_s=cfg["delay_min"],
        replay_delay_max_s=cfg["delay_max"],
        replay_duration_s=cfg["replay_dur"],
    )
    out.mkdir(parents=True, exist_ok=True)
    written = write_synth_dataset(out, config, cfg["seed"])
    vocab_path = out / "vocab.json"
    save_vocab(vocab_path, DEFAULT_VOCAB)
    written.append(vocab_path)
    _write_manifest(out, "synth", cfg, t0, written)
    print(f"wrote {len(written)} files to {out}")
    return 0


SPOT_TRAIN_DEFAULTS = {
    "seed": 0,
    "mode": "ultra",
    "head": "transformer",
    "chunk": 7,
    "nms": 20,
    "lr": None,  # per-head default resolved below
    "epochs": None,
    "batch": 32,
    "mixup": 0.2,
    "layers": 3,
    "heads": 4,
    "model_dim": 64,
    "hidden": 256,
    "dropout": 0.1,
    "clusters": 64,
}


def _load_splits(data_dir: Path, splits_path: str | None, halves: list[GameHalf]) -> DatasetSplits:
    if splits_path is None:
        return DatasetSplits(train=halves)
    doc = json.loads(Path(splits_path).read_text(encoding="utf-8"))
    unknown = set(doc) - {"train", "valid", "test"}
    if unknown:
        raise UsageError(f"unknown split keys: {sorted(unknown)}")
    by_game: dict[str, list[GameHalf]] = {}
    for gh in halves:
        by_game.setdefault(gh.features.game_id, []).append(gh)
    def take(names):
        out = []
        for name in names:
            if name not in by_game:
                raise UsageError(f"split references unknown game {name!r}")
            out.extend(by_game[name])
        return out
    return DatasetSplits(
        train=take(doc.get("train", [])),
        valid=take(doc.get("valid", [])),
        test=take(doc.get("test", [])),
    )


def _checked(build, **kwargs):
    """build(**kwargs), with a rejected value reported as a usage error."""
    try:
        return build(**kwargs)
    except ShapeError as exc:
        raise UsageError(str(exc)) from exc


def _write_trained(out: Path, command: str, cfg: dict, t0: float, model, what: str) -> int:
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "model.sgckpt"
    save_model(ckpt, model)
    history_path = out / "history.json"
    history_path.write_text(json.dumps(model.history, indent=2) + "\n", encoding="utf-8")
    _write_manifest(out, command, cfg, t0, [ckpt, history_path])
    print(f"trained {what}: {len(model.history)} epochs, "
          f"final train loss {model.history[-1]['train_loss']:.4f}")
    print(f"checkpoint: {ckpt}")
    return 0


def cmd_spot_train(args) -> int:
    t0 = time.time()
    cfg = _resolve_config(args, SPOT_TRAIN_DEFAULTS)
    if cfg["lr"] is None:
        cfg["lr"] = default_spot_lr(cfg["head"])
    if cfg["epochs"] is None:
        cfg["epochs"] = default_spot_epochs(cfg["head"])
    if cfg["head"] == "netvlad" and cfg["chunk"] % 2 != 0:
        raise UsageError(
            f"the netvlad head pools two halves and needs an even --chunk, got {cfg['chunk']}"
        )
    spec = _checked(TrainSpec, mode=cfg["mode"], lr=cfg["lr"], epochs=cfg["epochs"],
                    batch_size=cfg["batch"], chunk_size_s=cfg["chunk"],
                    mixup_alpha=cfg["mixup"], seed=cfg["seed"])
    # checked before any data loads; the input width comes from the data
    if cfg["head"] == "transformer":
        config = _checked(EncoderConfig, input_dim=1, output_dim=NUM_OUTPUT_CLASSES,
                          model_dim=cfg["model_dim"], num_layers=cfg["layers"],
                          num_heads=cfg["heads"], hidden_dim=cfg["hidden"],
                          dropout_p=cfg["dropout"])
    else:
        config = _checked(NetVLADConfig, input_dim=1, clusters=cfg["clusters"])
    vocab = _load_vocab_arg(args.vocab)
    halves = load_dataset(args.data, vocab=vocab)
    splits = _load_splits(Path(args.data), args.splits, halves)
    if cfg["mode"] == "regular" and not splits.valid:
        raise UsageError("regular mode needs --splits with a valid set")
    config = replace(config, input_dim=halves[0].features.dim)
    model = train_spotting(splits, spec, head=cfg["head"], config=config, vocab=vocab)
    return _write_trained(Path(args.out), "spot train", cfg, t0, model, f"{cfg['head']} head")


SPOT_INFER_DEFAULTS = {
    "chunk": 7,
    "nms": 20,
    "threshold": 0.05,
    "jobs": 1,
}


def _check_min(cfg: dict, **bounds) -> None:
    """Reject, as a usage error, a value below its key's lower bound."""
    for key, lo in bounds.items():
        if cfg[key] < lo:
            raise UsageError(f"--{key} must be >= {lo}, got {cfg[key]}")


def _map_games(fn, data: Path, jobs: int, *args) -> list:
    """fn((game_dir, *args)) for every game directory under data, in game
    order; across a pool of `jobs` processes when jobs > 1."""
    game_dirs = sorted(p for p in data.iterdir() if p.is_dir() and any(p.glob("*_*.npy")))
    if not game_dirs:
        raise ParseError(f"no game directories under {data}")
    tasks = [(str(g), *args) for g in game_dirs]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _spot_infer_game(task):
    game_dir, model_path, vocab, chunk, nms, threshold = task
    model = load_model(model_path)
    halves = load_game(Path(game_dir), vocab=vocab)
    preds: list[SpotPrediction] = []
    for gh in halves:
        preds.extend(spot_game(model, gh.features, chunk, nms, threshold))
    return Path(game_dir).name, preds


def cmd_spot_infer(args) -> int:
    t0 = time.time()
    cfg = _resolve_config(args, SPOT_INFER_DEFAULTS)
    _check_min(cfg, chunk=1, nms=0, jobs=1)
    if not 0.0 <= cfg["threshold"] <= 1.0:
        raise UsageError(f"--threshold must lie in [0, 1], got {cfg['threshold']}")
    vocab = _load_vocab_arg(args.vocab)
    out = Path(args.out)
    results = _map_games(_spot_infer_game, Path(args.data), cfg["jobs"], args.model, vocab,
                         cfg["chunk"], cfg["nms"], cfg["threshold"])
    written = []
    total = 0
    for game_id, preds in results:
        written.append(write_spot_predictions(out, game_id, preds))
        total += len(preds)
    _write_manifest(out, "spot infer", cfg, t0, written)
    print(f"{total} predictions over {len(results)} games -> {out}")
    return 0


GROUND_TRAIN_DEFAULTS = {
    "seed": 0,
    "mode": "ultra",
    "lr": 2e-4,
    "epochs": 40,
    "batch": 32,
    "layers": 4,
    "heads": 4,
    "model_dim": 64,
    "hidden": 256,
    "dropout": 0.1,
    "offset_weight": 1.0,
}


def cmd_ground_train(args) -> int:
    t0 = time.time()
    cfg = _resolve_config(args, GROUND_TRAIN_DEFAULTS)
    if cfg["mode"] != "ultra":
        raise UsageError(
            f"grounding trains on every half (ultra mode only), got --mode {cfg['mode']}"
        )
    spec = _checked(TrainSpec, mode=cfg["mode"], lr=cfg["lr"], epochs=cfg["epochs"],
                    batch_size=cfg["batch"], mixup_alpha=0.0, seed=cfg["seed"])
    # checked before any data loads; the input width comes from the data
    config = _checked(EncoderConfig, input_dim=1, output_dim=2, model_dim=cfg["model_dim"],
                      num_layers=cfg["layers"], num_heads=cfg["heads"],
                      hidden_dim=cfg["hidden"], dropout_p=cfg["dropout"], num_segments=2)
    vocab = _load_vocab_arg(args.vocab)
    halves = load_dataset(args.data, vocab=vocab)
    config = replace(config, input_dim=halves[0].features.dim)
    model = train_grounding(halves, spec, config=config, offset_weight=cfg["offset_weight"])
    return _write_trained(Path(args.out), "ground train", cfg, t0, model, "grounding head")


GROUND_INFER_DEFAULTS = {
    "stride": 5,
    "filter": 120,
    "jobs": 1,
}


def _ground_infer_game(task):
    game_dir, model_path, stride, filter_s = task
    model = load_model(model_path)
    halves = load_game(Path(game_dir))
    results = []
    for gh in halves:
        for rp in gh.replays:
            query = ReplayQuery(rp.game_id, rp.half, rp.replay_start_s, rp.replay_end_s)
            preds = infer_grounding(model, query, gh.features, stride_s=stride)
            if filter_s:
                preds = filter_predictions(preds, rp.replay_end_s, filter_s)
            results.append((query, preds))
    return Path(game_dir).name, results


def cmd_ground_infer(args) -> int:
    t0 = time.time()
    cfg = _resolve_config(args, GROUND_INFER_DEFAULTS)
    _check_min(cfg, stride=1, filter=0, jobs=1)
    out = Path(args.out)
    results = _map_games(_ground_infer_game, Path(args.data), cfg["jobs"], args.model,
                         cfg["stride"], cfg["filter"])
    written = []
    n_queries = 0
    for game_id, game_results in results:
        written.append(write_ground_predictions(out, game_id, game_results))
        n_queries += len(game_results)
    _write_manifest(out, "ground infer", cfg, t0, written)
    print(f"{n_queries} replay queries over {len(results)} games -> {out}")
    return 0


GROUND_FUSE_DEFAULTS = {
    "W": 42,
    "S": 0.02,
    "b1": 1.25,
    "b2": 0.8,
}


def cmd_ground_fuse(args) -> int:
    t0 = time.time()
    cfg = _resolve_config(args, GROUND_FUSE_DEFAULTS)
    vocab = _load_vocab_arg(args.vocab)
    labels_dir = Path(args.labels)
    spot_dir = Path(args.spot_preds)
    out = Path(args.out)
    written = []
    n_queries = 0
    for game_id, _, replays in _iter_game_labels(labels_dir, vocab):
        spot_path = spot_dir / game_id / "spotting.json"
        spots = read_spot_predictions(spot_path, vocab) if spot_path.exists() else []
        results = []
        for rp in replays:
            query = ReplayQuery(rp.game_id, rp.half, rp.replay_start_s, rp.replay_end_s)
            half_spots = [p for p in spots if p.half == rp.half]
            preds = fuse_with_spotting(
                half_spots, rp.replay_start_s, cfg["W"], cfg["S"], cfg["b1"], cfg["b2"]
            )
            results.append((query, preds))
            n_queries += 1
        if results:
            written.append(write_ground_predictions(out, game_id, results))
    _write_manifest(out, "ground fuse", cfg, t0, written)
    print(f"fused spotting into {n_queries} replay queries -> {out}")
    return 0


MERGE_DEFAULTS = {"nms": 25}


def cmd_ground_merge(args) -> int:
    t0 = time.time()
    cfg = _resolve_config(args, MERGE_DEFAULTS)
    a_path, b_path = Path(args.a), Path(args.b)
    out = Path(args.out)

    def read_side(path: Path) -> dict[str, list]:
        if path.is_dir():
            return {
                p.parent.name: read_ground_predictions(p)
                for p in sorted(path.glob("*/grounding.json"))
            }
        return {path.stem: read_ground_predictions(path)}

    side_a, side_b = read_side(a_path), read_side(b_path)
    written = []
    for game_id in sorted(set(side_a) | set(side_b)):
        qa = {(q.half, q.start_s, q.end_s): (q, preds) for q, preds in side_a.get(game_id, [])}
        qb = {(q.half, q.start_s, q.end_s): (q, preds) for q, preds in side_b.get(game_id, [])}
        results = []
        for key in sorted(set(qa) | set(qb)):
            query = (qa.get(key) or qb.get(key))[0]
            preds_a = qa.get(key, (None, []))[1]
            preds_b = qb.get(key, (None, []))[1]
            results.append((query, merge_nms(preds_a, preds_b, cfg["nms"])))
        written.append(write_ground_predictions(out, game_id, results))
    _write_manifest(out, "ground merge", cfg, t0, written)
    print(f"merged {len(written)} games -> {out}")
    return 0


EVAL_SPOT_DEFAULTS = {"tolerances": "5:60:5", "jobs": 1}
EVAL_GROUND_DEFAULTS = {"tolerances": "5:60:5"}


def _parse_tolerances(text: str) -> tuple[int, ...]:
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise UsageError(f"bad tolerance range {text!r}, expected start:stop:step")
            start, stop, step = (int(p) for p in parts)
            tols = tuple(range(start, stop + 1, step))
        else:
            tols = tuple(int(p) for p in text.split(",") if p)
    except ValueError as exc:  # a non-integer, or a zero step
        raise UsageError(f"bad --tolerances {text!r}: {exc}") from exc
    if not tols:
        raise UsageError(f"empty tolerance list {text!r}")
    if min(tols) < 0:
        raise UsageError(f"bad --tolerances {text!r}: tolerances must be >= 0 s")
    return tols


def _eval_one_tolerance(task):
    preds, gts, tol, vocab = task
    return average_map(preds, gts, [tol], vocab=vocab)


def _average_map_jobs(preds, gts, tolerances, vocab, jobs) -> EvalReport:
    """average_map, optionally parallel over tolerances. Same result either way."""
    if jobs <= 1 or len(tolerances) == 1:
        return average_map(preds, gts, tolerances, vocab=vocab)
    tasks = [(preds, gts, tol, vocab) for tol in tolerances]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_eval_one_tolerance, tasks))
    per_class: dict = {}
    map_per_tol: dict = {}
    counts: dict = {}
    for part in parts:
        (tol,) = part.tolerances
        map_per_tol[tol] = part.map_per_tolerance[tol]
        counts[tol] = part.counts[tol]
        for label, rows in part.per_class_ap.items():
            per_class.setdefault(label, []).extend(rows)
    avg = float(np.mean([map_per_tol[t] for t in tolerances]))
    return EvalReport(per_class, map_per_tol, avg, counts, tuple(tolerances))


def cmd_eval_spot(args) -> int:
    t0 = time.time()
    cfg = _resolve_config(args, EVAL_SPOT_DEFAULTS)
    _check_min(cfg, jobs=1)
    tolerances = _parse_tolerances(cfg["tolerances"])
    vocab = _load_vocab_arg(args.vocab)
    labels_dir = Path(args.labels)
    preds_dir = Path(args.preds)

    all_preds, all_gts = [], []
    for game_id, events, _ in _iter_game_labels(labels_dir, vocab):
        all_gts.extend(events)
        spot_path = preds_dir / game_id / "spotting.json"
        if spot_path.exists():
            all_preds.extend(read_spot_predictions(spot_path, vocab))
    report = _average_map_jobs(all_preds, all_gts, tolerances, vocab, cfg["jobs"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "spot_eval.json"
    report_path.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    written = [report_path]
    csv_path = out / "spot_eval.csv"
    csv_path.write_text(report.to_csv(), encoding="utf-8")
    written.append(csv_path)
    _write_manifest(out, "eval spot", cfg, t0, written)
    print(f"Average-mAP: {report.average_map:.4f} "
          f"({len(all_preds)} predictions, {len(all_gts)} ground truths)")
    return 0


def cmd_eval_ground(args) -> int:
    t0 = time.time()
    cfg = _resolve_config(args, EVAL_GROUND_DEFAULTS)
    tolerances = _parse_tolerances(cfg["tolerances"])
    labels_dir = Path(args.labels)
    preds_dir = Path(args.preds)

    preds_per_query, gt_times = [], []
    for game_id, _, replays in _iter_game_labels(labels_dir):
        pred_path = preds_dir / game_id / "grounding.json"
        by_key = {}
        if pred_path.exists():
            by_key = {
                (q.half, q.start_s, q.end_s): preds
                for q, preds in read_ground_predictions(pred_path)
            }
        for rp in replays:
            gt_times.append(rp.event_time_s)
            preds_per_query.append(
                by_key.get((rp.half, rp.replay_start_s, rp.replay_end_s), [])
            )
    report = replay_ap_report(preds_per_query, gt_times, tolerances)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "ground_eval.json"
    doc = {
        "average_ap": report["average_ap"],
        "ap_per_tolerance": {str(k): v for k, v in report["ap_per_tolerance"].items()},
        "num_queries": report["num_queries"],
        "num_predictions": report["num_predictions"],
    }
    report_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(out, "eval ground", cfg, t0, [report_path])
    print(f"average-AP: {report['average_ap']:.4f} over {report['num_queries']} queries")
    return 0


ANALYZE_DEFAULTS = {"buckets": 10}


def cmd_analyze_replays(args) -> int:
    t0 = time.time()
    cfg = _resolve_config(args, ANALYZE_DEFAULTS)
    labels_dir = Path(args.labels)

    replays = []
    for _, _, game_replays in _iter_game_labels(labels_dir):
        replays.extend(game_replays)
    stats = replay_stats(replays, bucket_s=cfg["buckets"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stats_path = out / "replay_stats.json"
    stats_path.write_text(
        json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    written = [stats_path]
    if args.svg:
        svg_path = out / args.svg
        svg_path.write_text(interval_histogram_svg(stats), encoding="utf-8")
        written.append(svg_path)
    _write_manifest(out, "analyze replays", cfg, t0, written)
    print(
        f"{stats.total} replays, fraction within 0-120 s: {stats.fraction_in_0_120:.4f}, "
        f"top labels: {', '.join(stats.top_labels)}"
    )
    return 0


GRADCHECK_DEFAULTS = {"trials": 100, "h": 1e-5, "seed": 0}


def cmd_gradcheck(args) -> int:
    cfg = _resolve_config(args, GRADCHECK_DEFAULTS)
    spot_err = spotting_grad_check(
        SPOT_GRADCHECK_CONFIG, trials=cfg["trials"], h=cfg["h"], seed=cfg["seed"]
    )
    ground_err = grounding_grad_check(
        GROUND_GRADCHECK_CONFIG, trials=cfg["trials"], h=cfg["h"], seed=cfg["seed"]
    )
    ok = spot_err < GRADCHECK_GATE and ground_err < GRADCHECK_GATE
    print(f"spotting head max relative error:  {spot_err:.3e}")
    print(f"grounding head max relative error: {ground_err:.3e}")
    print(f"gate {GRADCHECK_GATE:.0e}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotground",
        description="Action spotting and replay grounding over per-second embeddings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="JSON file with defaults; explicit flags override")
        # what a config-file key must hold where its default is None
        p.set_defaults(flag_types={a.dest: a.type for a in p._actions if a.type})

    p = sub.add_parser("synth", help="generate synthetic feature/label data")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--halves", type=int, help="number of halves (two per game)")
    p.add_argument("--duration", type=int, help="seconds per half")
    p.add_argument("--dim", type=int, help="feature dimension")
    p.add_argument("--classes", type=int, help="number of event classes (<= 17)")
    p.add_argument("--events-per-class", type=int, dest="events_per_class")
    p.add_argument("--sigma", type=float, help="noise standard deviation")
    p.add_argument("--min-gap", type=int, dest="min_gap", help="minimum event spacing (s)")
    p.add_argument("--margin", type=int, help="no events within this of the half edges")
    p.add_argument("--prefix", help="game id prefix")
    p.add_argument("--replays", action=argparse.BooleanOptionalAction,
                   help="plant replays after events")
    p.add_argument("--delay-min", type=int, dest="delay_min")
    p.add_argument("--delay-max", type=int, dest="delay_max")
    p.add_argument("--replay-dur", type=int, dest="replay_dur")
    add_config(p)
    p.set_defaults(func=cmd_synth)

    spot = sub.add_parser("spot", help="action spotting").add_subparsers(
        dest="subcommand", required=True
    )
    p = spot.add_parser("train", help="train a spotting head")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab", help="class vocabulary JSON (default: built-in 17 classes)")
    p.add_argument("--splits", help="JSON with train/valid/test game id lists")
    p.add_argument("--mode", choices=["regular", "ultra"])
    p.add_argument("--head", choices=["transformer", "netvlad"])
    p.add_argument("--chunk", type=int,
                   help="chunk size in seconds (default 7; netvlad needs an even value)")
    p.add_argument("--nms", type=int,
                   help="NMS window in seconds, only recorded in the manifest: "
                        "spot infer --nms sets the one inference uses (default 20)")
    p.add_argument("--lr", type=float, help="> 0; default 5e-4 transformer, 1e-4 netvlad")
    p.add_argument("--epochs", type=int, help="default 50 transformer, 40 netvlad")
    p.add_argument("--batch", type=int)
    p.add_argument("--mixup", type=float, help="mixup Beta parameter, >= 0 (0 disables)")
    p.add_argument("--seed", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--model-dim", type=int, dest="model_dim")
    p.add_argument("--hidden", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--clusters", type=int, help="netvlad clusters per temporal half")
    add_config(p)
    p.set_defaults(func=cmd_spot_train)

    p = spot.add_parser("infer", help="slide a trained head over games")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab")
    p.add_argument("--chunk", type=int, help="window length in seconds, >= 1 (default 7)")
    p.add_argument("--nms", type=int, help="NMS window in seconds, >= 0 (default 20)")
    p.add_argument("--threshold", type=float,
                   help="pre-NMS score threshold in [0, 1] (default 0.05)")
    p.add_argument("--jobs", type=int, help="parallel processes over games")
    add_config(p)
    p.set_defaults(func=cmd_spot_infer)

    ground = sub.add_parser("ground", help="replay grounding").add_subparsers(
        dest="subcommand", required=True
    )
    p = ground.add_parser("train", help="train the grounding head")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab")
    p.add_argument("--mode", choices=["regular", "ultra"],
                   help="ultra only: grounding has no splits (regular is rejected)")
    p.add_argument("--lr", type=float, help="default 2e-4")
    p.add_argument("--epochs", type=int, help="default 40")
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--model-dim", type=int, dest="model_dim")
    p.add_argument("--hidden", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--offset-weight", type=float, dest="offset_weight")
    add_config(p)
    p.set_defaults(func=cmd_ground_train)

    p = ground.add_parser("infer", help="ground replay queries against features")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stride", type=int, help="candidate chunk stride, >= 1 (default 5)")
    p.add_argument("--filter", type=int,
                   help="keep predictions within this many seconds before replay end "
                        "(default 120, 0 disables)")
    p.add_argument("--jobs", type=int)
    add_config(p)
    p.set_defaults(func=cmd_ground_infer)

    p = ground.add_parser("fuse", help="derive grounding output from spotting output")
    p.add_argument("--spot-preds", required=True, dest="spot_preds")
    p.add_argument("--labels", required=True, help="dataset dir with replay queries")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab")
    p.add_argument("--W", type=int, help="lookback window before replay start (default 42)")
    p.add_argument("--S", type=float, help="spotting confidence floor (default 0.02)")
    p.add_argument("--b1", type=float, help="nearest-prediction weight (default 1.25)")
    p.add_argument("--b2", type=float, help="second-nearest weight (default 0.8)")
    add_config(p)
    p.set_defaults(func=cmd_ground_fuse)

    p = ground.add_parser("merge", help="score-normalize and NMS-merge two prediction sets")
    p.add_argument("a", help="prediction dir or single grounding JSON")
    p.add_argument("b", help="prediction dir or single grounding JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--nms", type=int, help="merge suppression window (default 25)")
    add_config(p)
    p.set_defaults(func=cmd_ground_merge)

    ev = sub.add_parser("eval", help="tolerance-based metrics").add_subparsers(
        dest="subcommand", required=True
    )
    p = ev.add_parser("spot", help="Average-mAP for spotting predictions")
    p.add_argument("--preds", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab")
    p.add_argument("--tolerances", help="start:stop:step or comma list (default 5:60:5)")
    p.add_argument("--jobs", type=int, help="parallel processes over tolerances")
    add_config(p)
    p.set_defaults(func=cmd_eval_spot)

    p = ev.add_parser("ground", help="average-AP for replay grounding predictions")
    p.add_argument("--preds", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tolerances")
    add_config(p)
    p.set_defaults(func=cmd_eval_ground)

    an = sub.add_parser("analyze", help="dataset analyses").add_subparsers(
        dest="subcommand", required=True
    )
    p = an.add_parser("replays", help="replay interval histogram and label counts")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--buckets", type=int, help="histogram bucket width in seconds")
    p.add_argument("--svg", help="also write an SVG histogram with this filename")
    add_config(p)
    p.set_defaults(func=cmd_analyze_replays)

    p = sub.add_parser("gradcheck", help="verify analytic gradients of both heads")
    p.add_argument("--trials", type=int, help="probed coordinates per head (default 100)")
    p.add_argument("--h", type=float, help="finite-difference step (default 1e-5)")
    p.add_argument("--seed", type=int)
    add_config(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except SpotGroundError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
