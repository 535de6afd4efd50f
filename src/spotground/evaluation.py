"""Tolerance-based detection metrics and replay interval statistics.

A prediction counts as a true positive when an unmatched same-class
ground truth of the same game half lies within the tolerance; matching is
greedy in descending confidence, each ground truth matched at most once.
AP integrates the precision envelope over recall (all-points
interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import EventAnnotation, ReplayAnnotation
from .errors import ShapeError
from .spotting import SpotPrediction

DEFAULT_TOLERANCES: tuple[int, ...] = tuple(range(5, 61, 5))
SVG_WIDTH, SVG_HEIGHT = 640, 360


def _match_flags(keys, times, gt_keys, gt_times, tolerances) -> np.ndarray:
    """Greedy one-to-one matching at every tolerance: TP flags of shape
    (len(tolerances), len(keys)).

    Entries come in rank order; an entry may match only the ground truths
    of its own key. Per tolerance and key, each entry in turn takes the
    nearest unused ground truth within the tolerance (ties to the earlier
    one), if there is one.

    Tolerances run one after another, so memory does not grow with their
    number; within one, the keys' problems run in lockstep. A round gives
    every problem's first entry that has an unused ground truth within
    reach its nearest one, and drops the entries before it: a ground
    truth, once used, stays used, so they never match. So a tolerance
    takes at most as many rounds as the most ground truths any key has.
    """
    flags = np.zeros((len(tolerances), len(keys)), dtype=bool)
    if not len(keys) or not len(gt_keys):
        return flags
    reach = max(max(tolerances), 0)  # times are whole seconds
    gt_order = np.lexsort((gt_times, gt_keys))
    gk, gt = gt_keys[gt_order], gt_times[gt_order]
    # (key, time) as one sorted value per ground truth; times are clipped
    # to just beyond every ground truth's reach, which keeps the values small
    lo_t, hi_t = int(gt.min()) - reach - 1, int(gt.max()) + reach + 1
    span = hi_t - lo_t + reach + 1
    order = np.argsort(keys, kind="stable")  # key by key, rank order within each
    keys, times = keys[order], np.clip(times[order], lo_t, hi_t)
    ranks, at = gk * span + (gt - lo_t), keys * span + (times - lo_t)
    pad = len(gt)  # the index of `used`'s last element, always set
    for row, tol in zip(flags, tolerances):
        # each entry's window of ground truths within tol, as indices into gt
        first = np.searchsorted(ranks, at - tol).astype(np.int32)
        last = np.searchsorted(ranks, at + tol, "right").astype(np.int32)
        rows = np.flatnonzero(last > first)
        if not len(rows):
            continue
        first, last = first[rows], last[rows]
        cells = first[:, None] + np.arange(int((last - first).max()), dtype=np.int32)
        cells[cells >= last[:, None]] = pad
        dist = gt[np.minimum(cells, pad - 1)]
        dist -= times[rows, None]
        np.abs(dist, out=dist)
        used = np.zeros(pad + 1, dtype=bool)
        used[pad] = True
        problems = keys[rows]
        while len(rows):
            free = ~used[cells]
            live = np.flatnonzero(free.any(axis=1))
            if not len(live):
                break
            rows, cells, dist, problems, free = (
                x[live] for x in (rows, cells, dist, problems, free))
            head = np.flatnonzero(np.diff(problems, prepend=-1))  # each problem's first live entry
            # its nearest unused ground truth, ties to the earlier one
            near = np.where(free[head], dist[head], reach + 1).argmin(axis=1)
            used[cells[head, near]] = True
            row[order[rows[head]]] = True
            cells[head] = pad
    return flags


def _ap_from_flags(flags: np.ndarray, n_gt: int) -> float:
    """All-points interpolated AP from rank-ordered TP flags."""
    if n_gt == 0:
        return 0.0
    if len(flags) == 0:
        return 0.0
    tp = np.cumsum(flags)
    precision = tp / np.arange(1, len(flags) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float(envelope[flags].sum() / n_gt)


def _rank_order(classes, keys, times, confidences) -> np.ndarray:
    """Entry indices class by class, each class in rank order: descending
    confidence, then time, then key (the key orders like the (game_id,
    half) or query it stands for), ties keeping input order."""
    return np.lexsort((keys, times, -np.asarray(confidences, dtype=float), classes))


@dataclass
class EvalReport:
    """Average-mAP report: per-class AP at every tolerance plus the means."""

    per_class_ap: dict[str, list[tuple[int, float]]]
    map_per_tolerance: dict[int, float]
    average_map: float
    counts: dict[int, dict[str, int]]
    tolerances: tuple[int, ...] = DEFAULT_TOLERANCES

    def to_dict(self) -> dict:
        return {
            "average_map": self.average_map,
            "tolerances": list(self.tolerances),
            "map_per_tolerance": {str(k): v for k, v in self.map_per_tolerance.items()},
            "per_class_ap": {
                label: [[t, ap] for t, ap in rows] for label, rows in self.per_class_ap.items()
            },
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }

    def to_csv(self) -> str:
        lines = ["class,tolerance_s,ap"]
        for label, rows in sorted(self.per_class_ap.items()):
            for tol, ap in rows:
                lines.append(f"{label},{tol},{ap:.6f}")
        for tol in self.tolerances:
            lines.append(f"__mAP__,{tol},{self.map_per_tolerance[tol]:.6f}")
        lines.append(f"__average_mAP__,,{self.average_map:.6f}")
        return "\n".join(lines) + "\n"


def average_map(
    preds: list[SpotPrediction],
    gts: list[EventAnnotation],
    tolerances: tuple[int, ...] | list[int] = DEFAULT_TOLERANCES,
    vocab: list[str] | tuple[str, ...] | None = None,
) -> EvalReport:
    """Mean AP over classes per tolerance, averaged over tolerances.

    Classes with neither ground truths nor predictions are excluded from
    the class mean; classes with predictions but no ground truths score 0.
    """
    if not tolerances:
        raise ShapeError("tolerance list must be non-empty")
    pred_labels = [p.label for p in preds]
    gt_labels = [g.label for g in gts]
    seen = set(gt_labels) | set(pred_labels)
    labels = sorted(seen) if vocab is None else list(vocab)
    active = list(dict.fromkeys(lb for lb in labels if lb in seen))
    index = {lb: c for c, lb in enumerate(active)}
    halves = {h: i for i, h in enumerate(sorted({(p.game_id, p.half) for p in preds}
                                                | {(g.game_id, g.half) for g in gts}))}
    # a class's matching problem per (game, half): class-major, halves in order
    p_cls = np.array([index.get(lb, -1) for lb in pred_labels], dtype=np.int64)
    p_key = p_cls * len(halves) + np.array([halves[p.game_id, p.half] for p in preds],
                                           dtype=np.int64)
    p_time = np.array([p.time_s for p in preds], dtype=np.int64)
    p_conf = np.array([p.confidence for p in preds], dtype=float)
    ranked = np.flatnonzero(p_cls >= 0)
    ranked = ranked[_rank_order(p_cls[ranked], p_key[ranked], p_time[ranked], p_conf[ranked])]
    g_cls = np.array([index.get(lb, -1) for lb in gt_labels], dtype=np.int64)
    g_key = g_cls * len(halves) + np.array([halves[g.game_id, g.half] for g in gts],
                                           dtype=np.int64)
    counted = g_cls >= 0
    flags = _match_flags(p_key[ranked], p_time[ranked], g_key[counted],
                         np.array([g.time_s for g in gts], dtype=np.int64)[counted], tolerances)
    bounds = np.searchsorted(p_cls[ranked], np.arange(len(active) + 1)).tolist()
    n_gt = np.bincount(g_cls[counted], minlength=len(active)).tolist()

    per_class: dict[str, list[tuple[int, float]]] = {lb: [] for lb in active}
    map_per_tol: dict[int, float] = {}
    counts: dict[int, dict[str, int]] = {}
    for tol, row in zip(tolerances, flags):
        aps = []
        for c, lb in enumerate(active):
            ap = _ap_from_flags(row[bounds[c] : bounds[c + 1]], n_gt[c])
            per_class[lb].append((tol, ap))
            aps.append(ap)
        tp_total = int(row.sum())
        map_per_tol[tol] = float(np.mean(aps)) if aps else 0.0
        counts[tol] = {
            "matched": tp_total,
            "unmatched_predictions": len(preds) - tp_total,
            "unmatched_ground_truths": len(gts) - tp_total,
        }
    avg = float(np.mean([map_per_tol[t] for t in tolerances]))
    return EvalReport(per_class, map_per_tol, avg, counts, tuple(tolerances))


def replay_ap_report(preds_per_query, gt_times, tolerances=DEFAULT_TOLERANCES) -> dict:
    """Pooled single-class AP over replay queries, per tolerance and
    averaged over tolerances ("average_ap").

    Each query's ground-truth event can only be matched by that query's
    own predictions.
    """
    if len(preds_per_query) != len(gt_times):
        raise ShapeError("one ground-truth event per query is required")
    if not tolerances:
        raise ShapeError("tolerance list must be non-empty")
    queries = np.array([q for q, preds in enumerate(preds_per_query) for _ in preds],
                       dtype=np.int64)
    pooled = [p for preds in preds_per_query for p in preds]
    times = np.array([p.time_s for p in pooled], dtype=np.int64)
    ranked = _rank_order(np.zeros_like(queries), queries, times, [p.confidence for p in pooled])
    flags = _match_flags(queries[ranked], times[ranked], np.arange(len(gt_times)),
                         np.array(gt_times, dtype=np.int64), tolerances)
    per_tol = {tol: _ap_from_flags(row, len(gt_times)) for tol, row in zip(tolerances, flags)}
    avg = float(np.mean([per_tol[t] for t in tolerances])) if gt_times else 0.0
    return {
        "average_ap": avg,
        "ap_per_tolerance": per_tol,
        "num_queries": len(gt_times),
        "num_predictions": len(pooled),
    }


@dataclass
class ReplayStats:
    """Replay-to-event interval distribution and per-label counts."""

    interval_histogram: dict[str, int]
    fraction_in_0_120: float
    class_counts: dict[str, int]
    total: int
    bucket_s: int
    top_labels: list[str] = field(default_factory=list)


def replay_stats(replays: list[ReplayAnnotation], bucket_s: int = 10) -> ReplayStats:
    """Histogram of replay_end - event_time intervals plus label counts.

    Negative intervals (impossible through the parsing path, possible for
    hand-built records) land in an "anomalous" bucket and stay in the
    fraction denominator.
    """
    if bucket_s < 1:
        raise ShapeError("bucket size must be >= 1 s")
    intervals = [r.interval_s for r in replays]
    hist: dict[str, int] = {}
    anomalous = 0
    for iv in intervals:
        if iv < 0:
            anomalous += 1
            continue
        lo = (iv // bucket_s) * bucket_s
        key = f"{lo}-{lo + bucket_s - 1}"
        hist[key] = hist.get(key, 0) + 1
    if anomalous:
        hist["anomalous"] = anomalous

    in_range = sum(1 for iv in intervals if 0 <= iv <= 120)
    fraction = in_range / len(intervals) if intervals else 0.0

    class_counts: dict[str, int] = {}
    for r in replays:
        class_counts[r.event_label] = class_counts.get(r.event_label, 0) + 1
    ordered = dict(sorted(class_counts.items(), key=lambda kv: (-kv[1], kv[0])))
    return ReplayStats(
        interval_histogram=hist,
        fraction_in_0_120=fraction,
        class_counts=ordered,
        total=len(replays),
        bucket_s=bucket_s,
        top_labels=list(ordered)[:3],
    )


def interval_histogram_svg(stats: ReplayStats) -> str:
    """Deterministic standalone SVG bar chart of the interval histogram."""
    width, height = SVG_WIDTH, SVG_HEIGHT
    buckets = [
        (int(k.split("-")[0]), v) for k, v in stats.interval_histogram.items() if k != "anomalous"
    ]
    buckets.sort()
    if not buckets:
        buckets = [(0, 0)]
    max_count = max(v for _, v in buckets) or 1
    margin = 40
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    bar_w = plot_w / len(buckets)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for i, (lo, count) in enumerate(buckets):
        h = plot_h * count / max_count
        x = margin + i * bar_w
        y = height - margin - h
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w * 0.9:.1f}" height="{h:.1f}" '
            f'fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{x + bar_w * 0.45:.1f}" y="{height - margin + 14}" '
            f'font-size="9" text-anchor="middle">{lo}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 6}" font-size="11" text-anchor="middle">'
        "replay end minus event time (s)</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
