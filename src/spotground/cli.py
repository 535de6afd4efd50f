"""Command-line interface.

One executable covering the pipeline end to end: data synthesis, training,
inference, post-processing, evaluation, replay analysis and gradient
self-verification. Each command is one entry of `COMMANDS`: its words, its
path arguments and its defaults table, whose keys are its flags. One runner
resolves the config, range-checks it, runs the command and writes a
manifest (final config, seed, build id, wall time) next to its outputs;
exit codes are 0 on success, 2 on usage errors and 1 on runtime errors
with a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import math
import subprocess
import sys
import time
from concurrent import futures
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .checkpoint import (
    KIND_GROUNDING,
    KIND_SPOT_NETVLAD,
    KIND_SPOT_TRANSFORMER,
    load_model,
    save_model,
)
from .data import (
    GameHalf,
    format_game_time,
    check_annotation_times,
    check_feature_widths,
    game_dirs,
    load_dataset,
    load_game,
    load_labels,
    parse_game_time,
)
from .errors import DomainError, ParseError, ShapeError, SpotGroundError
from .evaluation import (
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
from .jsonio import Records, bare_name, json_document, objects, typed, typed_list, write_json
from .nn import (
    EncoderConfig,
    Workspace,
    grounding_grad_check,
    spotting_grad_check,
)
from .spotting import (
    NetVLADConfig,
    SpotCandidates,
    SpotPrediction,
    TrainSpec,
    default_spot_epochs,
    default_spot_lr,
    netvlad_grad_check,
    spot_game,
    train_spotting,
)
from .synth import SynthConfig, write_synth_dataset
from .vocab import DEFAULT_VOCAB, NUM_OUTPUT_CLASSES, label_index, load_vocab, save_vocab

GRADCHECK_GATE = 1e-5


class UsageError(Exception):
    pass


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


def _load_vocab_arg(path: str | None) -> list[str]:
    return load_vocab(path) if path else list(DEFAULT_VOCAB)


def _game_labels(root: Path, vocab=None) -> dict:
    """game id -> (events, replays) for every directory under root that
    holds labels; a root without one is a ParseError, not an empty score."""
    dirs = sorted(p for p in root.iterdir() if p.is_dir())
    labels = {d.name: labels for d in dirs if (labels := load_labels(d, vocab)) is not None}
    if not labels:
        raise ParseError(f"no game directory under {root} holds labels.json or replays.json")
    return labels


def _unlabelled_documents(preds_dir: Path, name: str, labels: dict) -> None:
    """A ParseError for a prediction document under preds_dir whose game
    the labels lack: it would not be scored."""
    for path in sorted(preds_dir.glob(f"*/{name}")):
        if path.parent.name not in labels:
            raise ParseError(f"{path}: game {path.parent.name!r} has no labels under --labels")


# ---------------------------------------------------------------------------
# prediction file round trips


def write_spot_predictions(out_dir: Path, game_id: str,
                           preds: SpotCandidates | list[SpotPrediction]) -> Path:
    """game_id's spotting.json, one record per prediction in order. A list
    of SpotPredictions is first taken as game_id's columns."""
    if not isinstance(preds, SpotCandidates):
        preds = SpotCandidates.from_predictions(game_id, preds)
    halves, times = preds.halves.tolist(), preds.times.tolist()
    doc = {
        "version": 1,
        "game_id": game_id,
        "predictions": Records({
            "gameTime": list(map(format_game_time, halves, times)),
            "label": preds.labels.tolist(),
            "half": halves,
            "position_s": times,
            "confidence": preds.confidences.tolist(),
        }),
    }
    return write_json(out_dir / game_id / "spotting.json", doc)


def _read_prediction_doc(path: Path, key: str, game_id: str | None = None
                         ) -> tuple[str, list[dict]]:
    """A prediction document's game id and the array of objects under key;
    a document of any other shape is a ParseError. A game id the document
    states must be a bare name (it names a directory under --out); the
    default is its directory's name. A document looked up as game_id's
    must not state another id."""
    doc = json_document(path.read_bytes(), dict, ParseError, f"prediction JSON {path}")
    stated = path.parent.name
    if "game_id" in doc:
        where = f"{path}: game_id"
        stated = bare_name(typed(doc["game_id"], str, ParseError, where), ParseError, where)
    if game_id is not None and stated != game_id:
        raise ParseError(f"{path}: game_id {stated!r} differs from its directory's game "
                         f"{game_id!r}")
    return stated, objects(doc.get(key), ParseError, f"{path}: {key!r}")


def _field_places(path: Path, *keys: str) -> dict[str, str]:
    """key -> how an error names that prediction field of the document at
    path; built once per document, not once per entry."""
    return {key: f"{path}: prediction field {key!r}" for key in keys}


def read_spot_predictions(path: Path, vocab, game_id: str | None = None) -> SpotCandidates:
    """The document's predictions as its game's columns, in document order."""
    game_id, entries = _read_prediction_doc(path, "predictions", game_id)
    at = _field_places(path, "label", "half", "position_s", "confidence")
    labels, halves, times, confidences = (
        typed_list([entry.get(key) for entry in entries], kind, ParseError, at[key])
        for key, kind in (("label", str), ("half", int), ("position_s", int),
                          ("confidence", float)))
    index = {label: c for c, label in enumerate(vocab)}
    if unknown := set(labels) - index.keys():
        label_index(vocab, next(label for label in labels if label in unknown))

    def ints(values, key):
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            raise ParseError(f"{at[key]} must fit in a 64-bit int") from None

    return SpotCandidates(game_id, ints(halves, "half"), np.array(labels, dtype=object),
                          np.fromiter(map(index.__getitem__, labels), np.int64, len(labels)),
                          ints(times, "position_s"), np.array(confidences, dtype=float))


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
    return write_json(out_dir / game_id / "grounding.json", doc)


def read_ground_predictions(path: Path, game_id: str | None = None):
    game_id, entries = _read_prediction_doc(path, "queries", game_id)
    at = _field_places(path, "position_s", "confidence")
    results = []
    for entry in entries:
        q = entry.get("query")
        if not isinstance(q, dict):
            raise ParseError(f"{path}: a query entry needs a 'query' object")
        half, start = parse_game_time(q.get("start"))
        _, end = parse_game_time(q.get("end"))
        query = ReplayQuery(game_id, half, start, end)
        preds = [
            GroundingPrediction(typed(p.get("position_s"), int, ParseError, at["position_s"]),
                                typed(p.get("confidence"), float, ParseError, at["confidence"]))
            for p in objects(entry.get("predictions"), ParseError, f"{path}: 'predictions'")
        ]
        results.append((query, preds))
    return results


# ---------------------------------------------------------------------------
# commands: each body(args, cfg) does its own work and returns the files it wrote


def _checked(build, **kwargs):
    """build(**kwargs), with a rejected value reported as a usage error."""
    try:
        return build(**kwargs)
    except ShapeError as exc:
        raise UsageError(str(exc)) from exc


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


def cmd_synth(args, cfg) -> list[Path]:
    config = _checked(
        SynthConfig,
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
    out = Path(args.out)
    written = write_synth_dataset(out, config, cfg["seed"])
    vocab_path = out / "vocab.json"
    save_vocab(vocab_path, DEFAULT_VOCAB)
    written.append(vocab_path)
    print(f"wrote {len(written)} files to {out}")
    return written


SPOT_TRAIN_DEFAULTS = {
    "seed": 0,
    "mode": "ultra",
    "head": "transformer",
    "chunk": 7,
    "nms": 20,
    "lr": None,  # per-head default resolved by cmd_spot_train
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
# the keys only one head reads: set for the other head, they would have no effect
HEAD_ONLY_KEYS = {
    "transformer": ("layers", "heads", "model_dim", "hidden", "dropout"),
    "netvlad": ("clusters",),
}


def _read_splits(data: Path, path: str | None) -> dict[str, list[str]] | None:
    """The --splits file's game lists, each name a game directory under data
    named once across all splits."""
    if path is None:
        return None
    doc = json_document(Path(path).read_bytes(), dict, UsageError, f"splits file {path}")
    unknown = set(doc) - {"train", "valid", "test"}
    if unknown:
        raise UsageError(f"unknown split keys: {sorted(unknown)}")
    games = {g.name for g in game_dirs(data)}
    named: set[str] = set()
    for split, names in doc.items():
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise UsageError(f"split {split!r} must be a list of game directory names")
        for name in names:
            if name not in games:
                raise UsageError(f"split references unknown game {name!r}")
            if name in named:
                raise UsageError(f"split {split!r} names game {name!r} a second time")
            named.add(name)
    return doc


def _split_halves(halves: list[GameHalf], splits: dict[str, list[str]] | None,
                  mode: str) -> tuple[list[GameHalf], list[GameHalf]]:
    """The (train, valid) halves; ultra mode pools train, valid and test."""
    if splits is None:
        return halves, []
    by_game: dict[str, list[GameHalf]] = {}
    for gh in halves:
        by_game.setdefault(gh.features.game_id, []).append(gh)

    def take(*names):
        return [gh for split in names for name in splits.get(split, []) for gh in by_game[name]]

    if mode == "ultra":
        return take("train", "valid", "test"), []
    return take("train"), take("valid")


def _write_trained(out: Path, model, what: str) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "model.sgckpt"
    save_model(ckpt, model)
    history_path = write_json(out / "history.json", model.history, sort_keys=False)
    print(f"trained {what}: {len(model.history)} epochs, "
          f"final train loss {model.history[-1]['train_loss']:.4f}")
    print(f"checkpoint: {ckpt}")
    return [ckpt, history_path]


def cmd_spot_train(args, cfg) -> list[Path]:
    if cfg["lr"] is None:
        cfg["lr"] = default_spot_lr(cfg["head"])
    if cfg["epochs"] is None:
        cfg["epochs"] = default_spot_epochs(cfg["head"])
    if cfg["head"] == "netvlad" and cfg["chunk"] % 2 != 0:
        raise UsageError(
            f"the netvlad head pools two halves and needs an even --chunk, got {cfg['chunk']}"
        )
    spec = _checked(TrainSpec, lr=cfg["lr"], epochs=cfg["epochs"], batch_size=cfg["batch"],
                    seed=cfg["seed"])
    for head, keys in HEAD_ONLY_KEYS.items():
        for key in keys:
            if head != cfg["head"] and cfg[key] != SPOT_TRAIN_DEFAULTS[key]:
                raise UsageError(f"{_flag(key)} is read only by the {head} head, "
                                 f"not --head {cfg['head']}")
    # checked before any data loads; the input width comes from the data
    if cfg["head"] == "transformer":
        config = _checked(EncoderConfig, input_dim=1, output_dim=NUM_OUTPUT_CLASSES,
                          model_dim=cfg["model_dim"], num_layers=cfg["layers"],
                          num_heads=cfg["heads"], hidden_dim=cfg["hidden"],
                          dropout_p=cfg["dropout"])
    else:
        config = _checked(NetVLADConfig, input_dim=1, clusters=cfg["clusters"])
    vocab = _load_vocab_arg(args.vocab)
    splits = _read_splits(Path(args.data), args.splits)
    if cfg["mode"] == "regular" and not (splits or {}).get("valid"):
        raise UsageError("regular mode needs --splits with a valid set")
    halves = load_dataset(args.data, vocab=vocab)
    config = replace(config, input_dim=halves[0].features.dim)
    train, valid = _split_halves(halves, splits, cfg["mode"])
    model = train_spotting(train, valid, spec, config, cfg["chunk"], cfg["mixup"], vocab)
    return _write_trained(Path(args.out), model, f"{cfg['head']} head")


SPOT_INFER_DEFAULTS = {
    "chunk": 7,
    "nms": 20,
    "threshold": 0.05,
    "jobs": 1,
}


def _map_games(fn, data: Path, jobs: int, *args) -> list:
    """fn((game_dir, *args)) for every game directory under data, in game
    order; across a pool of `jobs` processes when jobs > 1."""
    tasks = [(str(g), *args) for g in game_dirs(data)]
    if jobs > 1:  # each worker silences numpy's warnings, as _run_command does
        with futures.ProcessPoolExecutor(max_workers=jobs, initializer=np.seterr,
                                         initargs=("ignore",)) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _load_head(path: str, kinds: tuple[str, ...], outputs: int):
    """The checkpoint at path, checked to hold one of the heads an infer
    command runs, before any features load."""
    model = load_model(path)
    if model.kind not in kinds or model.config.output_dim != outputs:
        raise DomainError(f"{path} holds a {model.kind} head with {model.config.output_dim} "
                          f"outputs, not {' or '.join(kinds)} with {outputs}")
    return model


def _spot_infer_game(task):
    game_dir, model, vocab, chunk, nms, threshold = task
    game_id = Path(game_dir).name
    halves = [spot_game(model, gh.features, chunk, nms, threshold)
              for gh in load_game(Path(game_dir), vocab=vocab)]
    return game_id, SpotCandidates(game_id, *(np.concatenate([getattr(c, f.name) for c in halves])
                                              for f in fields(SpotCandidates)[1:]))


def cmd_spot_infer(args, cfg) -> list[Path]:
    model = _load_head(args.model, (KIND_SPOT_TRANSFORMER, KIND_SPOT_NETVLAD),
                       NUM_OUTPUT_CLASSES)
    if model.kind == KIND_SPOT_NETVLAD and cfg["chunk"] % 2 != 0:
        raise ShapeError(f"{args.model} holds a netvlad head, which pools two halves and "
                         f"needs an even --chunk, got {cfg['chunk']}")
    check_feature_widths(args.data, model.config.input_dim, args.model)
    vocab = _load_vocab_arg(args.vocab)
    out = Path(args.out)
    results = _map_games(_spot_infer_game, Path(args.data), cfg["jobs"], model, vocab,
                         cfg["chunk"], cfg["nms"], cfg["threshold"])
    written = [write_spot_predictions(out, game_id, preds) for game_id, preds in results]
    total = sum(len(preds) for _, preds in results)
    print(f"{total} predictions over {len(results)} games -> {out}")
    return written


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


def cmd_ground_train(args, cfg) -> list[Path]:
    if cfg["mode"] != "ultra":
        raise UsageError(
            f"grounding trains on every half (ultra mode only), got --mode {cfg['mode']}"
        )
    spec = _checked(TrainSpec, lr=cfg["lr"], epochs=cfg["epochs"], batch_size=cfg["batch"],
                    seed=cfg["seed"])
    # checked before any data loads; the input width comes from the data
    config = _checked(EncoderConfig, input_dim=1, output_dim=2, model_dim=cfg["model_dim"],
                      num_layers=cfg["layers"], num_heads=cfg["heads"],
                      hidden_dim=cfg["hidden"], dropout_p=cfg["dropout"], num_segments=2)
    vocab = _load_vocab_arg(args.vocab)
    halves = load_dataset(args.data, vocab=vocab)
    config = replace(config, input_dim=halves[0].features.dim)
    model = train_grounding(halves, spec, config=config, offset_weight=cfg["offset_weight"])
    return _write_trained(Path(args.out), model, "grounding head")


GROUND_INFER_DEFAULTS = {
    "stride": 5,
    "filter": 120,
    "jobs": 1,
}


def _ground_infer_game(task):
    game_dir, model, stride, filter_s = task
    halves = load_game(Path(game_dir))
    ws = Workspace()
    results = []
    for gh in halves:
        for rp in gh.replays:
            query = ReplayQuery(rp.game_id, rp.half, rp.replay_start_s, rp.replay_end_s)
            preds = infer_grounding(model, query, gh.features, stride_s=stride, workspace=ws)
            if filter_s:
                preds = filter_predictions(preds, rp.replay_end_s, filter_s)
            results.append((query, preds))
    return Path(game_dir).name, results


def cmd_ground_infer(args, cfg) -> list[Path]:
    model = _load_head(args.model, (KIND_GROUNDING,), 2)
    check_feature_widths(args.data, model.config.input_dim, args.model)
    out = Path(args.out)
    results = _map_games(_ground_infer_game, Path(args.data), cfg["jobs"], model,
                         cfg["stride"], cfg["filter"])
    written = [write_ground_predictions(out, game_id, rs) for game_id, rs in results]
    n_queries = sum(len(rs) for _, rs in results)
    print(f"{n_queries} replay queries over {len(results)} games -> {out}")
    return written


GROUND_FUSE_DEFAULTS = {
    "W": 42,
    "S": 0.02,
    "b1": 1.25,
    "b2": 0.8,
}


def cmd_ground_fuse(args, cfg) -> list[Path]:
    vocab = _load_vocab_arg(args.vocab)
    spot_dir = Path(args.spot_preds)
    out = Path(args.out)
    written = []
    n_queries = 0
    for game_id, (_, replays) in _game_labels(Path(args.labels), vocab).items():
        spot_path = spot_dir / game_id / "spotting.json"
        if not replays and not spot_path.exists():  # a game without replays needs none
            continue
        spots = read_spot_predictions(spot_path, vocab, game_id)
        results = []
        for rp in replays:
            query = ReplayQuery(rp.game_id, rp.half, rp.replay_start_s, rp.replay_end_s)
            preds = fuse_with_spotting(spots[spots.halves == rp.half], rp.replay_start_s,
                                       cfg["W"], cfg["S"], cfg["b1"], cfg["b2"])
            results.append((query, preds))
            n_queries += 1
        if results:
            written.append(write_ground_predictions(out, game_id, results))
    print(f"fused spotting into {n_queries} replay queries -> {out}")
    return written


MERGE_DEFAULTS = {"nms": 25}


def cmd_ground_merge(args, cfg) -> list[Path]:
    out = Path(args.out)

    def read_side(path: Path) -> dict[str, list]:
        if path.is_dir():
            return {
                p.parent.name: read_ground_predictions(p, p.parent.name)
                for p in sorted(path.glob("*/grounding.json"))
            }
        game_id, _ = _read_prediction_doc(path, "queries")
        return {game_id: read_ground_predictions(path)}

    side_a, side_b = read_side(Path(args.a)), read_side(Path(args.b))
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
    print(f"merged {len(written)} games -> {out}")
    return written


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


def cmd_eval_spot(args, cfg) -> list[Path]:
    if cfg["jobs"] != 1:  # evaluation runs in one process; no other value has an effect
        raise UsageError(f"--jobs must be 1, got {cfg['jobs']}")
    tolerances = _parse_tolerances(cfg["tolerances"])
    vocab = _load_vocab_arg(args.vocab)
    preds_dir = Path(args.preds)
    labels = _game_labels(Path(args.labels), vocab)
    for game_id, (events, replays) in labels.items():
        check_annotation_times(Path(args.labels) / game_id, events, replays)
    _unlabelled_documents(preds_dir, "spotting.json", labels)
    all_preds = [read_spot_predictions(preds_dir / game_id / "spotting.json", vocab, game_id)
                 for game_id in labels]
    all_gts = [ev for events, _ in labels.values() for ev in events]
    report = average_map(all_preds, all_gts, tolerances, vocab=vocab)
    out = Path(args.out)
    report_path = write_json(out / "spot_eval.json", report.to_dict())
    csv_path = out / "spot_eval.csv"
    csv_path.write_text(report.to_csv(), encoding="utf-8")
    print(f"Average-mAP: {report.average_map:.4f} "
          f"({sum(map(len, all_preds))} predictions, {len(all_gts)} ground truths)")
    return [report_path, csv_path]


def cmd_eval_ground(args, cfg) -> list[Path]:
    tolerances = _parse_tolerances(cfg["tolerances"])
    preds_dir = Path(args.preds)
    labels = _game_labels(Path(args.labels))
    _unlabelled_documents(preds_dir, "grounding.json", labels)
    preds_per_query, gt_times = [], []
    for game_id, (_, replays) in labels.items():
        pred_path = preds_dir / game_id / "grounding.json"
        by_key = {
            (q.half, q.start_s, q.end_s): preds
            for q, preds in read_ground_predictions(pred_path, game_id)
        }
        labelled = {(rp.half, rp.replay_start_s, rp.replay_end_s) for rp in replays}
        if stray := sorted(by_key.keys() - labelled):
            half, start, end = stray[0]
            raise ParseError(f"{pred_path}: query {format_game_time(half, start)} to "
                             f"{format_game_time(half, end)} matches no replay labelled for "
                             f"game {game_id!r}")
        for rp in replays:
            gt_times.append(rp.event_time_s)
            preds_per_query.append(
                by_key.get((rp.half, rp.replay_start_s, rp.replay_end_s), [])
            )
    report = replay_ap_report(preds_per_query, gt_times, tolerances)
    doc = {
        "average_ap": report["average_ap"],
        "ap_per_tolerance": {str(k): v for k, v in report["ap_per_tolerance"].items()},
        "num_queries": report["num_queries"],
        "num_predictions": report["num_predictions"],
    }
    report_path = write_json(Path(args.out) / "ground_eval.json", doc)
    print(f"average-AP: {report['average_ap']:.4f} over {report['num_queries']} queries")
    return [report_path]


ANALYZE_DEFAULTS = {"buckets": 10}


def cmd_analyze_replays(args, cfg) -> list[Path]:
    if args.svg is not None:
        bare_name(args.svg, UsageError, "--svg")
    if args.svg in ("replay_stats.json", "manifest.json"):
        raise UsageError(f"--svg {args.svg!r} would overwrite the command's own output")
    replays = [rp for _, rps in _game_labels(Path(args.labels)).values() for rp in rps]
    stats = replay_stats(replays, bucket_s=cfg["buckets"])
    out = Path(args.out)
    written = [write_json(out / "replay_stats.json", asdict(stats))]
    if args.svg:
        svg_path = out / args.svg
        svg_path.write_text(interval_histogram_svg(stats), encoding="utf-8")
        written.append(svg_path)
    print(
        f"{stats.total} replays, fraction within 0-120 s: {stats.fraction_in_0_120:.4f}, "
        f"top labels: {', '.join(stats.top_labels)}"
    )
    return written


GRADCHECK_DEFAULTS = {"trials": 100, "h": 1e-5, "seed": 0}


def cmd_gradcheck(args, cfg) -> int:
    """The exit code: 0 if every head passes the gate, 1 if not."""
    errors = {head: _checked(check, trials=cfg["trials"], h=cfg["h"], seed=cfg["seed"])
              for head, check in (("spotting", spotting_grad_check),
                                  ("netvlad", netvlad_grad_check),
                                  ("grounding", grounding_grad_check))}
    ok = all(err < GRADCHECK_GATE for err in errors.values())  # NaN fails
    for head, err in errors.items():
        print(f"{head} head max relative error: {err:.3e}")
    print(f"gate {GRADCHECK_GATE:.0e}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# the command table, and the parser and runner built from it


@dataclass(frozen=True)
class Command:
    """One CLI command.

    Each key of `defaults` is a flag, `--` plus the key with `_` turned into
    `-`, taking the default's type (a bool gives `--key/--no-key`). `paths`
    names its path arguments (see PATHS). `body(args, cfg)` does the work and
    returns the files it wrote; a command without `--out` writes no manifest
    and its body returns the exit code.
    """

    words: tuple[str, ...]
    help: str
    body: Callable
    defaults: dict
    paths: tuple[str, ...] = ()
    helps: dict = field(default_factory=dict)


# path argument -> help; --vocab, --splits and --svg are optional, a and b positional
PATHS = {
    "data": "dataset directory, one subdirectory of <half>_<source>.npy files per game",
    "model": "trained checkpoint (model.sgckpt)",
    "labels": "dataset directory with labels.json / replays.json per game",
    "preds": "prediction directory, one subdirectory per game",
    "spot_preds": "spotting prediction directory, one subdirectory per game",
    "a": "prediction dir or single grounding JSON",
    "b": "prediction dir or single grounding JSON",
    "out": "output directory",
    "vocab": "class vocabulary JSON (default: built-in 17 classes)",
    "splits": "JSON with train/valid/test game id lists",
    "svg": "also write an SVG histogram under --out with this bare file name",
}
OPTIONAL_PATHS = {"vocab", "splits", "svg"}
POSITIONAL_PATHS = {"a", "b"}

# the type of a key whose default is None (computed by the command)
TYPES = {"lr": float, "epochs": int}
CHOICES = {"mode": ("regular", "ultra"), "head": ("transformer", "netvlad")}
# (lowest, highest or None) of each key no library constructor checks
BOUNDS = {
    "seed": (0, None),
    "chunk": (1, None),
    "mixup": (0, None),
    "nms": (0, None),
    "threshold": (0, 1),
    "jobs": (1, None),
    "stride": (1, None),
    "filter": (0, None),
    "offset_weight": (0, None),
    "W": (0, None),
    "S": (0, 1),
    "b1": (0, None),
    "b2": (0, None),
    "buckets": (1, None),
}

GROUPS = {
    "spot": "action spotting",
    "ground": "replay grounding",
    "eval": "tolerance-based metrics",
    "analyze": "dataset analyses",
}
COMMANDS = (
    Command(("synth",), "generate synthetic feature/label data", cmd_synth,
            SYNTH_DEFAULTS, ("out",), {
                "halves": "number of halves (two per game)",
                "duration": "seconds per half",
                "dim": "feature dimension",
                "classes": "number of event classes, 1 to 17",
                "events_per_class": "events per class and half",
                "sigma": "noise standard deviation",
                "min_gap": "minimum event spacing (s)",
                "margin": "no events within this of the half edges",
                "prefix": "game id prefix",
                "replays": "plant replays after events",
                "delay_min": "shortest replay end after its event (s)",
                "delay_max": "longest replay end after its event (s)",
                "replay_dur": "replay clip length (s)",
            }),
    Command(("spot", "train"), "train a spotting head", cmd_spot_train,
            SPOT_TRAIN_DEFAULTS, ("data", "out", "vocab", "splits"), {
                "chunk": "chunk size in seconds; netvlad needs an even value",
                "nms": "NMS window in seconds, only recorded in the manifest: "
                       "spot infer --nms sets the one inference uses",
                "lr": "> 0; default 5e-4 transformer, 1e-4 netvlad",
                "epochs": "default 50 transformer, 40 netvlad",
                "mixup": "mixup Beta parameter; 0 disables it",
                "clusters": "netvlad clusters per temporal half",
            }),
    Command(("spot", "infer"), "slide a trained head over games", cmd_spot_infer,
            SPOT_INFER_DEFAULTS, ("model", "data", "out", "vocab"), {
                "chunk": "window length in seconds",
                "nms": "NMS window in seconds",
                "threshold": "pre-NMS score threshold",
                "jobs": "parallel processes over games",
            }),
    Command(("ground", "train"), "train the grounding head", cmd_ground_train,
            GROUND_TRAIN_DEFAULTS, ("data", "out", "vocab"), {
                "mode": "ultra only: grounding has no splits (regular is rejected)",
                "offset_weight": "weight of the offset L2 term",
            }),
    Command(("ground", "infer"), "ground replay queries against features", cmd_ground_infer,
            GROUND_INFER_DEFAULTS, ("model", "data", "out"), {
                "stride": "candidate chunk stride",
                "filter": "keep predictions within this many seconds before replay end; "
                          "0 disables the filter",
                "jobs": "parallel processes over games",
            }),
    Command(("ground", "fuse"), "derive grounding output from spotting output",
            cmd_ground_fuse, GROUND_FUSE_DEFAULTS, ("spot_preds", "labels", "out", "vocab"), {
                "W": "lookback window before replay start",
                "S": "spotting confidence floor",
                "b1": "nearest-prediction weight",
                "b2": "second-nearest weight",
            }),
    Command(("ground", "merge"), "score-normalize and NMS-merge two prediction sets",
            cmd_ground_merge, MERGE_DEFAULTS, ("a", "b", "out"),
            {"nms": "merge suppression window"}),
    Command(("eval", "spot"), "Average-mAP for spotting predictions", cmd_eval_spot,
            EVAL_SPOT_DEFAULTS, ("preds", "labels", "out", "vocab"), {
                "tolerances": "start:stop:step or comma list",
                "jobs": "only 1: evaluation runs in one process",
            }),
    Command(("eval", "ground"), "average-AP for replay grounding predictions",
            cmd_eval_ground, EVAL_GROUND_DEFAULTS, ("preds", "labels", "out"),
            {"tolerances": "start:stop:step or comma list"}),
    Command(("analyze", "replays"), "replay interval histogram and label counts",
            cmd_analyze_replays, ANALYZE_DEFAULTS, ("labels", "out", "svg"),
            {"buckets": "histogram bucket width in seconds"}),
    Command(("gradcheck",), "verify analytic gradients of the transformer and NetVLAD "
            "spotting heads and the grounding head", cmd_gradcheck,
            GRADCHECK_DEFAULTS, (), {
                "trials": "probed coordinates per head, >= 1",
                "h": "finite-difference step, > 0",
            }),
)


def _key_type(key: str, default) -> type:
    return TYPES[key] if default is None else type(default)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _range_text(lo, hi) -> str:
    return f">= {lo}" if hi is None else f"in [{lo}, {hi}]"


def _key_help(cmd: Command, key: str) -> str:
    """The key's help text, then its range and default from the tables."""
    notes = [_range_text(*BOUNDS[key])] if key in BOUNDS else []
    if cmd.defaults[key] is not None:
        notes.append(f"default {cmd.defaults[key]}")
    text = cmd.helps.get(key, "")
    return f"{text} ({', '.join(notes)})".strip() if notes else text


def _add_command(sub, cmd: Command) -> None:
    p = sub.add_parser(cmd.words[-1], help=cmd.help)
    for name in cmd.paths:
        if name in POSITIONAL_PATHS:
            p.add_argument(name, help=PATHS[name])
        else:
            p.add_argument(_flag(name), dest=name, required=name not in OPTIONAL_PATHS,
                           help=PATHS[name])
    for key, default in cmd.defaults.items():
        kind = _key_type(key, default)
        if kind is bool:
            p.add_argument(_flag(key), dest=key, action=argparse.BooleanOptionalAction,
                           help=_key_help(cmd, key))
        else:
            p.add_argument(_flag(key), dest=key, type=kind, choices=CHOICES.get(key),
                           help=_key_help(cmd, key))
    p.add_argument("--config", help="JSON file with defaults; explicit flags override")
    p.set_defaults(cmd=cmd)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotground",
        description="Action spotting and replay grounding over per-second embeddings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for cmd in COMMANDS:
        sub = top
        if len(cmd.words) == 2:
            group = cmd.words[0]
            if group not in groups:
                groups[group] = top.add_parser(group, help=GROUPS[group]).add_subparsers(
                    dest="subcommand", required=True)
            sub = groups[group]
        _add_command(sub, cmd)
    return parser


def _resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < JSON config file < explicit flags; reject unknown keys
    and values of the wrong type."""
    cfg = dict(defaults)
    if args.config:
        try:
            raw = Path(args.config).read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        loaded = json_document(raw, dict, UsageError, f"config file {args.config}")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            if defaults[key] is None and value is None:
                continue  # keeps the computed default
            cfg[key] = typed(value, _key_type(key, defaults[key]), UsageError,
                             f"config key {key!r}")
    for key in defaults:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _check_ranges(cfg: dict) -> None:
    """Reject, as a usage error, a value outside its key's choices or
    bounds, and a float that is NaN or infinite."""
    for key, value in cfg.items():
        if key in CHOICES and value not in CHOICES[key]:
            raise UsageError(f"{_flag(key)} must be one of {CHOICES[key]}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{_flag(key)} must be finite, got {value}")
        if key in BOUNDS:
            lo, hi = BOUNDS[key]
            if not (lo <= value and (hi is None or value <= hi)):  # NaN fails too
                raise UsageError(f"{_flag(key)} must be {_range_text(lo, hi)}, got {value}")


def _run_command(cmd: Command, args: argparse.Namespace) -> int:
    t0 = time.time()
    cfg = _resolve_config(args, cmd.defaults)
    _check_ranges(cfg)
    # a finite value can still overflow; the finiteness checks then report it
    # as one error line, and numpy's own warning lines would come first
    with np.errstate(all="ignore"):
        # looked up by name, so a rebound command function (tracing, tests) is the one run
        result = globals()[cmd.body.__name__](args, cfg)
    if "out" not in cmd.paths:
        return result
    out = Path(args.out)
    manifest = {
        "version": 1,
        "command": " ".join(cmd.words),
        "config": cfg,
        "seed": cfg.get("seed"),
        "build": _build_id(),
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": sorted(str(Path(p).relative_to(out)) for p in result),
    }
    write_json(out / "manifest.json", manifest)
    return 0


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run_command(args.cmd, args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except (SpotGroundError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
