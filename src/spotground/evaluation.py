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
from .grounding import GroundingPrediction
from .spotting import SpotPrediction

DEFAULT_TOLERANCES: tuple[int, ...] = tuple(range(5, 61, 5))
SVG_WIDTH, SVG_HEIGHT = 640, 360


def _match_flags(entries, gts_by_group, tolerance_s):
    """Greedy one-to-one matching.

    entries: (group_key, time, confidence) already sorted by descending
    confidence. Returns a TP flag per entry; each ground truth time can
    absorb only one prediction, the closest candidate wins (ties to the
    earlier ground truth).
    """
    gts_by_group = {key: sorted(times) for key, times in gts_by_group.items()}
    matched: dict = {key: np.zeros(len(times), dtype=bool) for key, times in gts_by_group.items()}
    flags = np.zeros(len(entries), dtype=bool)
    for i, (key, t, _conf) in enumerate(entries):
        times = gts_by_group.get(key)
        if times is None:
            continue
        used = matched[key]
        best = None
        for j, gt in enumerate(times):
            if used[j]:
                continue
            d = abs(t - gt)
            if d <= tolerance_s and (best is None or d < best[0]):
                best = (d, j)
        if best is not None:
            used[best[1]] = True
            flags[i] = True
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


def _sorted_entries(preds):
    # descending confidence; deterministic tie order by time then class
    return sorted(preds, key=lambda e: (-e[2], e[1], e[0]))


def _class_entries(preds, gts, label):
    """One class's rank-ordered (group, time, confidence) entries, its
    ground-truth times per (game, half) group and its ground-truth count."""
    entries = _sorted_entries(
        [((p.game_id, p.half), p.time_s, p.confidence) for p in preds if p.label == label]
    )
    gts_by_group: dict = {}
    for g in gts:
        if g.label == label:
            gts_by_group.setdefault((g.game_id, g.half), []).append(g.time_s)
    return entries, gts_by_group, sum(len(times) for times in gts_by_group.values())


def average_precision_at_tol(
    preds: list[SpotPrediction],
    gts: list[EventAnnotation],
    label: str,
    tolerance_s: int,
) -> float:
    """AP for one class at one tolerance. No ground truths means AP 0."""
    entries, gts_by_group, n_gt = _class_entries(preds, gts, label)
    return _ap_from_flags(_match_flags(entries, gts_by_group, tolerance_s), n_gt)


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
    if vocab is None:
        labels = sorted({g.label for g in gts} | {p.label for p in preds})
    else:
        labels = list(vocab)
    active = [
        lb
        for lb in labels
        if any(g.label == lb for g in gts) or any(p.label == lb for p in preds)
    ]

    per_class: dict[str, list[tuple[int, float]]] = {lb: [] for lb in active}
    by_class = {lb: _class_entries(preds, gts, lb) for lb in active}
    map_per_tol: dict[int, float] = {}
    counts: dict[int, dict[str, int]] = {}
    for tol in tolerances:
        aps = []
        tp_total = 0
        for lb, (entries, gts_by_group, n_gt) in by_class.items():
            flags = _match_flags(entries, gts_by_group, tol)
            ap = _ap_from_flags(flags, n_gt)
            per_class[lb].append((tol, ap))
            aps.append(ap)
            tp_total += int(flags.sum())
        map_per_tol[tol] = float(np.mean(aps)) if aps else 0.0
        counts[tol] = {
            "matched": tp_total,
            "unmatched_predictions": len(preds) - tp_total,
            "unmatched_ground_truths": len(gts) - tp_total,
        }
    avg = float(np.mean([map_per_tol[t] for t in tolerances]))
    return EvalReport(per_class, map_per_tol, avg, counts, tuple(tolerances))


def replay_average_ap(
    preds_per_query: list[list[GroundingPrediction]],
    gt_times: list[int],
    tolerances: tuple[int, ...] | list[int] = DEFAULT_TOLERANCES,
) -> float:
    """Pooled single-class AP over replay queries, averaged over tolerances.

    Each query's ground-truth event can only be matched by that query's
    own predictions.
    """
    report = replay_ap_report(preds_per_query, gt_times, tolerances)
    return report["average_ap"]


def replay_ap_report(preds_per_query, gt_times, tolerances=DEFAULT_TOLERANCES) -> dict:
    if len(preds_per_query) != len(gt_times):
        raise ShapeError("one ground-truth event per query is required")
    if not tolerances:
        raise ShapeError("tolerance list must be non-empty")
    entries = _sorted_entries(
        [
            (q, p.time_s, p.confidence)
            for q, preds in enumerate(preds_per_query)
            for p in preds
        ]
    )
    gts_by_group = {q: [t] for q, t in enumerate(gt_times)}
    per_tol = {}
    for tol in tolerances:
        flags = _match_flags(entries, gts_by_group, tol)
        per_tol[tol] = _ap_from_flags(flags, len(gt_times))
    avg = float(np.mean([per_tol[t] for t in tolerances])) if gt_times else 0.0
    return {
        "average_ap": avg,
        "ap_per_tolerance": per_tol,
        "num_queries": len(gt_times),
        "num_predictions": len(entries),
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
