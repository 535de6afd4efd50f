"""Per-layer metrics: what each span counts, and how spans reduce to metrics.

`busy_s` is self time (a span's duration minus what its child spans
cover). FLOP and byte figures of the encoder are computed analytically by
`opcount` from the config and input shape of each call, not measured;
their rates divide by the calls' inclusive time.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

import numpy as np

from spotground.vocab import BACKGROUND_INDEX

from . import opcount
from .spans import Span, self_times

TRAIN_COMMANDS = ("cli.cmd_spot_train", "cli.cmd_ground_train")
LOSSES = ("nn.cross_entropy_soft", "nn.bce_plus_l2")


def _arg(args, kwargs, i: int, name: str):
    return kwargs[name] if name in kwargs else args[i]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _forward(a, k, r):
    config, x = _arg(a, k, 1, "config"), _arg(a, k, 2, "x")
    B, T = np.shape(x)[:2]
    c = opcount.encoder_forward(config, B, T)
    return {"samples": B, "flop": c.flops, "bytes": c.bytes}


def _backward(a, k, r):
    cache = _arg(a, k, 0, "cache")
    B, T = cache["x"].shape[:2]
    c = opcount.encoder_backward(cache["config"], B, T)
    return {"flop": c.flops, "bytes": c.bytes}


def _candidates(a, k, r):
    probs, threshold = _arg(a, k, 0, "probs"), _arg(a, k, 4, "threshold")
    return {"candidates": int((probs[:, :BACKGROUND_INDEX] >= threshold).sum())}


def _kept(n_in):
    return lambda a, k, r: {"in": n_in(a, k), "out": len(r)}


COUNTERS = {
    "nn.encoder_forward_batch": _forward,
    "nn.encoder_backward": _backward,
    "spotting.score_series": lambda a, k, r: {"windows": len(_arg(a, k, 1, "features").data)},
    "spotting.select_predictions": _candidates,
    "spotting.nms_1d": _kept(lambda a, k: len(_arg(a, k, 0, "preds"))),
    "grounding.sample_grounding_pairs": lambda a, k, r: {"pairs": len(r), "skipped": int(not r)},
    "grounding.infer_grounding": lambda a, k, r: {"candidates": len(r)},
    "grounding.filter_predictions": _kept(lambda a, k: len(_arg(a, k, 0, "preds"))),
    "grounding.merge_nms": _kept(
        lambda a, k: len(_arg(a, k, 0, "preds_a")) + len(_arg(a, k, 1, "preds_b"))),
    "npyio.read_npy_file": lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))},
    "checkpoint.save_model": lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))},
    "cli.read_spot_predictions": lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))},
    "cli.read_ground_predictions": lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))},
    "cli.write_spot_predictions": lambda a, k, r: {"bytes": _size(r)},
    "cli.write_ground_predictions": lambda a, k, r: {"bytes": _size(r)},
}

_S, _N, _R = "s", "count", "ratio"
# (name, unit, better)
METRICS = [
    ("nn.encoder_forward_batch.calls", _N, "lower"),
    ("nn.encoder_forward_batch.samples", _N, "higher"),
    ("nn.encoder_forward_batch.busy_s", _S, "lower"),
    ("nn.encoder_backward.calls", _N, "lower"),
    ("nn.encoder_backward.busy_s", _S, "lower"),
    ("nn.adam_step.calls", _N, "lower"),
    ("nn.adam_step.busy_s", _S, "lower"),
    ("nn.loss.busy_s", _S, "lower"),
    ("nn.forward.gflop", "GFLOP", "lower"),
    ("nn.forward.gbyte", "GB", "lower"),
    ("nn.forward.gflop_per_s", "GFLOP/s", "higher"),
    ("nn.backward.gflop", "GFLOP", "lower"),
    ("nn.backward.gbyte", "GB", "lower"),
    ("nn.backward.gflop_per_s", "GFLOP/s", "higher"),
    ("nn.train_self_share", _R, "higher"),
    ("train.step_ms.p50", "ms", "lower"),
    ("train.step_ms.p90", "ms", "lower"),
    ("train.step_ms.samples", _N, "higher"),
    ("spotting.make_chunks.busy_s", _S, "lower"),
    ("spotting.netvlad_forward_batch.busy_s", _S, "lower"),
    ("spotting.netvlad_backward.busy_s", _S, "lower"),
    ("spotting.score_series.windows", _N, "higher"),
    ("spotting.score_series.busy_s", _S, "lower"),
    ("spotting.select_predictions.candidates", _N, "lower"),
    ("spotting.select_predictions.busy_s", _S, "lower"),
    ("spotting.nms_1d.busy_s", _S, "lower"),
    ("spotting.nms_1d.kept_ratio", _R, "higher"),
    ("grounding.sample_grounding_pairs.pairs", _N, "higher"),
    ("grounding.sample_grounding_pairs.replays_skipped", _N, "lower"),
    ("grounding.sample_grounding_pairs.busy_s", _S, "lower"),
    ("grounding.infer_grounding.candidates", _N, "higher"),
    ("grounding.infer_grounding.busy_s", _S, "lower"),
    ("grounding.filter_predictions.kept_ratio", _R, "higher"),
    ("grounding.fuse_with_spotting.busy_s", _S, "lower"),
    ("grounding.merge_nms.busy_s", _S, "lower"),
    ("grounding.merge_nms.kept_ratio", _R, "higher"),
    ("evaluation.average_map.busy_s", _S, "lower"),
    ("evaluation.average_precision_at_tol.calls", _N, "lower"),
    ("evaluation.average_precision_at_tol.busy_s", _S, "lower"),
    ("evaluation.replay_ap_report.busy_s", _S, "lower"),
    ("npyio.read_npy_file.bytes", "B", "lower"),
    ("npyio.read_npy_file.busy_s", _S, "lower"),
    ("data.combine_features.busy_s", _S, "lower"),
    ("data.load_game.calls", _N, "lower"),
    ("data.load_game.busy_s", _S, "lower"),
    ("data.load_dataset.busy_s", _S, "lower"),
    ("checkpoint.load_model.calls", _N, "lower"),
    ("checkpoint.load_model.busy_s", _S, "lower"),
    ("checkpoint.save_model.bytes", "B", "lower"),
    ("checkpoint.save_model.busy_s", _S, "lower"),
    ("cli.read_spot_predictions.bytes", "B", "lower"),
    ("cli.read_spot_predictions.busy_s", _S, "lower"),
    ("cli.write_spot_predictions.bytes", "B", "lower"),
    ("cli.write_spot_predictions.busy_s", _S, "lower"),
    ("cli.read_ground_predictions.bytes", "B", "lower"),
    ("cli.read_ground_predictions.busy_s", _S, "lower"),
    ("cli.write_ground_predictions.bytes", "B", "lower"),
    ("cli.write_ground_predictions.busy_s", _S, "lower"),
    ("cli.import_s", _S, "lower"),
    ("synth.write_synth_dataset.busy_s", _S, "lower"),
    ("trace.untraced_wall_s", _S, "lower"),
    ("trace.traced_wall_s", _S, "lower"),
    ("trace.overhead_s", _S, "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}


def _inside(s: Span, root: Span) -> bool:
    return s.run == root.run and s.sid > root.sid and s.end <= root.end


def step_times_ms(spans: list[Span]) -> list[float]:
    """Gaps between consecutive Adam updates inside each training command."""
    out = []
    for root in (s for s in spans if s.name in TRAIN_COMMANDS):
        ends = sorted(s.end for s in spans if s.name == "nn.adam_step" and _inside(s, root))
        out += [1000.0 * (b - a) for a, b in zip(ends, ends[1:])]
    return out


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all spans share one run id)."""
    selft = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(*names):
        return sum(selft[s.sid] for n in names for s in by_name[n])

    def total(name, key):
        return sum((s.counts or {}).get(key, 0) for s in by_name[name])

    def kept(name):
        n_in = total(name, "in")
        return total(name, "out") / n_in if n_in else 0.0

    def rate(name, key):
        t = sum(s.duration for s in by_name[name])
        return total(name, key) / 1e9 / t if t else 0.0

    m: dict[str, float] = {}
    for full in [n for n, _, _ in METRICS]:
        layer, _, what = full.rpartition(".")
        if what == "busy_s" and layer in by_name:
            m[full] = busy(layer)
        elif what == "calls":
            m[full] = len(by_name[layer])
        elif what == "bytes":
            m[full] = total(layer, "bytes")
    m["nn.encoder_forward_batch.samples"] = total("nn.encoder_forward_batch", "samples")
    m["nn.loss.busy_s"] = busy(*LOSSES)
    m["nn.forward.gflop"] = total("nn.encoder_forward_batch", "flop") / 1e9
    m["nn.forward.gbyte"] = total("nn.encoder_forward_batch", "bytes") / 1e9
    m["nn.forward.gflop_per_s"] = rate("nn.encoder_forward_batch", "flop")
    m["nn.backward.gflop"] = total("nn.encoder_backward", "flop") / 1e9
    m["nn.backward.gbyte"] = total("nn.encoder_backward", "bytes") / 1e9
    m["nn.backward.gflop_per_s"] = rate("nn.encoder_backward", "flop")
    trains = by_name["cli.cmd_spot_train"] + by_name["cli.cmd_ground_train"]
    train_wall = sum(s.duration for s in trains)
    nn_self = sum(selft[s.sid] for root in trains for s in spans
                  if s.name.startswith("nn.") and _inside(s, root))
    m["nn.train_self_share"] = nn_self / train_wall if train_wall else 0.0
    m["spotting.score_series.windows"] = total("spotting.score_series", "windows")
    m["spotting.select_predictions.candidates"] = total("spotting.select_predictions", "candidates")
    m["spotting.nms_1d.kept_ratio"] = kept("spotting.nms_1d")
    m["grounding.sample_grounding_pairs.pairs"] = total("grounding.sample_grounding_pairs", "pairs")
    m["grounding.sample_grounding_pairs.replays_skipped"] = total(
        "grounding.sample_grounding_pairs", "skipped")
    m["grounding.infer_grounding.candidates"] = total("grounding.infer_grounding", "candidates")
    m["grounding.filter_predictions.kept_ratio"] = kept("grounding.filter_predictions")
    m["grounding.merge_nms.kept_ratio"] = kept("grounding.merge_nms")
    return m


def per_layer(spans: list[Span], extra: dict[str, float]) -> dict[str, float]:
    """Median over traced passes of each pass's metrics, plus run-level figures.

    Spans of run "setup" only feed the set-up metric; step times are pooled
    over passes so that p90 rests on every step taken.
    """
    runs: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        runs[s.run].append(s)
    setup = runs.pop("setup", [])
    per_pass = [pass_metrics(ss) for ss in runs.values()]
    out = {name: 0.0 for name, _, _ in METRICS}
    for name in out:
        values = [m[name] for m in per_pass if name in m]
        if values:
            out[name] = statistics.median(values)
    steps = [t for ss in runs.values() for t in step_times_ms(ss)]
    if len(steps) >= 2:
        deciles = statistics.quantiles(steps, n=10)
        out["train.step_ms.p50"] = statistics.median(steps)
        out["train.step_ms.p90"] = deciles[8]
    out["train.step_ms.samples"] = len(steps)
    setup_self = self_times(setup)
    out["synth.write_synth_dataset.busy_s"] = sum(
        setup_self[s.sid] for s in setup if s.name == "synth.write_synth_dataset")
    out.update(extra)
    return out
