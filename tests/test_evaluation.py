import tracemalloc

import numpy as np
import pytest

from conftest import by_game, make_event
from spotground.data import ReplayAnnotation
from spotground.errors import ShapeError
from spotground.evaluation import (
    DEFAULT_TOLERANCES,
    average_map,
    interval_histogram_svg,
    replay_ap_report,
    replay_stats,
)
from spotground.grounding import GroundingPrediction
from spotground.spotting import SpotPrediction


def _pred(t, conf, label="Goal", game="g0", half=1):
    return SpotPrediction(game, half, t, 2, label, conf)


def oracle_ap(preds, gts, tolerance_s):
    """All-points AP recomputed from first principles.

    Greedy matching as a transparent double loop, then AP as the mean over
    ground truths of the best precision among prefixes containing at least
    k true positives.
    """
    order = sorted(preds, key=lambda p: (-p.confidence, p.time_s, (p.game_id, p.half)))
    available = {}
    for g in gts:
        available.setdefault((g.game_id, g.half), []).append(g.time_s)
    for times in available.values():
        times.sort()
    flags = []
    for p in order:
        times = available.get((p.game_id, p.half), [])
        best = None
        for gt in times:
            d = abs(p.time_s - gt)
            if d <= tolerance_s and (best is None or d < abs(p.time_s - best)):
                best = gt
        if best is None:
            flags.append(False)
        else:
            times.remove(best)
            flags.append(True)
    n_gt = len(gts)
    if n_gt == 0:
        return 0.0
    prefix = []
    tp = 0
    for i, f in enumerate(flags, start=1):
        tp += int(f)
        prefix.append((tp, tp / i))
    ap = 0.0
    for k in range(1, tp + 1):
        ap += max(p for (c, p) in prefix if c >= k) / n_gt
    return ap


class TestAveragePrecision:
    """One class's AP at one tolerance, read from average_map, the function
    `eval spot` runs."""

    def test_single_match_within_tolerance(self):
        assert average_map(by_game([_pred(50, 0.9)]), [make_event(52)], [5]).average_map == 1.0

    def test_single_match_outside_tolerance(self):
        assert average_map(by_game([_pred(50, 0.9)]), [make_event(52)], [1]).average_map == 0.0

    def test_no_ground_truth_with_predictions_is_zero(self):
        assert average_map(by_game([_pred(10, 0.5)]), [], [5]).average_map == 0.0

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(1000):
            n_pred = int(rng.integers(0, 8))
            n_gt = int(rng.integers(0, 5))
            tol = int(rng.integers(1, 12))
            # coarse grids force confidence ties and contested matches
            preds = [_pred(int(rng.integers(0, 40)), float(rng.integers(1, 6)) / 5.0,
                           game=("a" if rng.integers(0, 2) else "b"))
                     for _ in range(n_pred)]
            gts = [make_event(int(rng.integers(0, 40)),
                              game_id=("a" if rng.integers(0, 2) else "b"))
                   for _ in range(n_gt)]
            got = average_map(by_game(preds), gts, [tol]).average_map
            assert got == pytest.approx(oracle_ap(preds, gts, tol), abs=1e-12)

    def test_one_to_one_matching_bounds_tp(self, rng):
        preds = [_pred(20, 0.9), _pred(21, 0.8), _pred(22, 0.7)]
        gts = [make_event(20)]
        # only one of three near predictions can match the single GT
        ap = average_map(by_game(preds), gts, [10]).average_map
        assert ap == 1.0  # the top-ranked one matches; later FPs do not lower it

    def test_monotone_in_tolerance(self, rng):
        preds = [_pred(int(t), float(c) / 100.0)
                 for t, c in zip(rng.integers(0, 100, 20), rng.integers(1, 100, 20))]
        gts = [make_event(int(t)) for t in rng.integers(0, 100, 8)]
        columns = by_game(preds)
        aps = [average_map(columns, gts, [tol]).average_map for tol in (1, 3, 5, 10, 20, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(aps, aps[1:]))

    def test_rank_invariance_under_monotone_confidence_transform(self, rng):
        preds = [_pred(int(t), float(c) / 100.0)
                 for t, c in zip(rng.integers(0, 100, 15), rng.integers(1, 100, 15))]
        gts = [make_event(int(t)) for t in rng.integers(0, 100, 6)]
        base = average_map(by_game(preds), gts, [10]).average_map
        squeezed = [
            SpotPrediction(p.game_id, p.half, p.time_s, p.class_index, p.label,
                           p.confidence**2)
            for p in preds
        ]
        assert average_map(by_game(squeezed), gts, [10]).average_map == pytest.approx(base)


class TestAverageMap:
    def test_perfect_predictions(self):
        gts = [make_event(t, label) for t, label in ((10, "Goal"), (60, "Foul"))]
        preds = [_pred(10, 0.9, "Goal"), SpotPrediction("g0", 1, 60, 10, "Foul", 0.8)]
        report = average_map(by_game(preds), gts)
        assert report.average_map == 1.0
        assert all(v == 1.0 for v in report.map_per_tolerance.values())

    def test_empty_predictions(self):
        report = average_map([], [make_event(10)])
        assert report.average_map == 0.0

    def test_single_tolerance_degenerates(self):
        gts = [make_event(10)]
        preds = [_pred(12, 0.9)]
        report = average_map(by_game(preds), gts, tolerances=[5])
        assert report.average_map == report.map_per_tolerance[5]

    def test_self_evaluation_is_perfect(self, rng):
        preds = [_pred(int(t), float(c) / 100.0)
                 for t, c in zip(rng.integers(0, 500, 30), rng.integers(1, 100, 30))]
        gts = [make_event(p.time_s) for p in preds]
        report = average_map(by_game(preds), gts)
        assert report.average_map == 1.0

    def test_classes_without_gt_or_preds_excluded(self):
        gts = [make_event(10, "Goal")]
        preds = [_pred(10, 0.9, "Goal")]
        report = average_map(by_game(preds), gts, vocab=["Goal", "Foul", "Corner"])
        assert set(report.per_class_ap) == {"Goal"}
        assert report.average_map == 1.0

    def test_empty_tolerances_rejected(self):
        with pytest.raises(ShapeError):
            average_map([], [], tolerances=[])

    def test_invariant_average_is_mean_of_means(self, rng):
        preds = [_pred(int(t), float(c) / 100.0, label)
                 for t, c, label in zip(rng.integers(0, 200, 25),
                                        rng.integers(1, 100, 25),
                                        rng.choice(["Goal", "Foul"], 25))]
        gts = [make_event(int(t), label)
               for t, label in zip(rng.integers(0, 200, 12),
                                   rng.choice(["Goal", "Foul"], 12))]
        report = average_map(by_game(preds), gts)
        assert report.average_map == pytest.approx(
            np.mean([report.map_per_tolerance[t] for t in report.tolerances])
        )
        for label, rows in report.per_class_ap.items():
            label_preds = [p for p in preds if p.label == label]
            label_gts = [g for g in gts if g.label == label]
            for tol, ap in rows:
                assert ap == pytest.approx(oracle_ap(label_preds, label_gts, tol), abs=1e-12)


class TestReplayAverageAp:
    """Replay average-AP, read from replay_ap_report, the function `eval
    ground` runs."""

    def test_perfect_top_predictions(self):
        preds_per_query = [[GroundingPrediction(100, 0.9)],
                           [GroundingPrediction(300, 0.8)]]
        assert replay_ap_report(preds_per_query, [102, 298])["average_ap"] == 1.0

    def test_all_beyond_max_tolerance(self):
        preds_per_query = [[GroundingPrediction(100, 0.9)]]
        assert replay_ap_report(preds_per_query, [400])["average_ap"] == 0.0

    def test_two_query_hand_enumeration(self):
        # q0: TP at conf .9; q1: FP at conf .8 then TP at conf .6
        preds_per_query = [
            [GroundingPrediction(100, 0.9)],
            [GroundingPrediction(350, 0.8), GroundingPrediction(201, 0.6)],
        ]
        got = replay_ap_report(preds_per_query, [100, 200], tolerances=[5])["average_ap"]
        # ranks: .9 TP (p=1, r=.5), .8 FP, .6 TP (p=2/3, r=1)
        assert got == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))

    def test_queries_cannot_share_ground_truth(self):
        # both queries predict near q0's event; only q0's prediction may match
        preds_per_query = [
            [GroundingPrediction(100, 0.5)],
            [GroundingPrediction(100, 0.9)],
        ]
        got = replay_ap_report(preds_per_query, [100, 500], tolerances=[5])["average_ap"]
        # rank 1 (q1) is an FP: its own GT is at 500
        assert got == pytest.approx(0.5 * 0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            replay_ap_report([[]], [1, 2])


def _reference_flags(entries, gts_by_group, tolerance_s):
    """Greedy matching one entry at a time: entries are (group, time)
    pairs in rank order; each takes the nearest unused ground truth of its
    group within the tolerance, ties to the earlier one."""
    available = {key: sorted(times) for key, times in gts_by_group.items()}
    used = {key: [False] * len(times) for key, times in available.items()}
    flags = []
    for key, t in entries:
        best = None
        for j, gt in enumerate(available.get(key, [])):
            d = abs(t - gt)
            if not used[key][j] and d <= tolerance_s and (best is None or d < best[0]):
                best = (d, j)
        if best is not None:
            used[key][best[1]] = True
        flags.append(best is not None)
    return np.array(flags, dtype=bool)


def _reference_ap(flags, n_gt):
    if n_gt == 0 or len(flags) == 0:
        return 0.0
    tp = np.cumsum(flags)
    precision = tp / np.arange(1, len(flags) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float(envelope[flags].sum() / n_gt)


def _reference_report(preds, gts, tolerances, vocab):
    """average_map(...).to_dict() computed with the one-entry-at-a-time loop."""
    labels = sorted({g.label for g in gts} | {p.label for p in preds}) if vocab is None \
        else list(vocab)
    active = [lb for lb in labels
              if any(g.label == lb for g in gts) or any(p.label == lb for p in preds)]
    per_class = {lb: [] for lb in active}
    map_per_tol, counts = {}, {}
    for tol in tolerances:
        aps, tp_total = [], 0
        for lb in active:
            ranked = sorted([p for p in preds if p.label == lb],
                            key=lambda p: (-p.confidence, p.time_s, (p.game_id, p.half)))
            by_group = {}
            for g in gts:
                if g.label == lb:
                    by_group.setdefault((g.game_id, g.half), []).append(g.time_s)
            flags = _reference_flags([((p.game_id, p.half), p.time_s) for p in ranked],
                                     by_group, tol)
            ap = _reference_ap(flags, sum(len(v) for v in by_group.values()))
            per_class[lb].append([tol, ap])
            aps.append(ap)
            tp_total += int(flags.sum())
        map_per_tol[str(tol)] = float(np.mean(aps)) if aps else 0.0
        counts[str(tol)] = {"matched": tp_total,
                            "unmatched_predictions": len(preds) - tp_total,
                            "unmatched_ground_truths": len(gts) - tp_total}
    return {"average_map": float(np.mean([map_per_tol[str(t)] for t in tolerances])),
            "tolerances": list(tolerances), "map_per_tolerance": map_per_tol,
            "per_class_ap": per_class, "counts": counts}


class TestLockstepMatching:
    """average_map and replay_ap_report match every tolerance, class and
    (game, half) at once; each problem must come out as the one-entry-at-a-
    time greedy loop has it."""

    LABELS = ("Goal", "Foul", "Corner", "Penalty")

    def _instance(self, rng):
        groups = [(g, h) for g in ("a", "b") for h in (1, 2)]
        gts = []
        for _ in range(int(rng.integers(0, 25))):
            game, half = groups[int(rng.integers(0, 4))]
            label = self.LABELS[int(rng.integers(0, 4))]
            t = int(rng.integers(0, 40)) * 5  # a coarse grid repeats times
            gts.append(make_event(t, label, game, half))
            if rng.random() < 0.3:  # one on each side of a midpoint
                gts.append(make_event(t + 2 * int(rng.integers(1, 20)), label, game, half))
        preds = []
        for _ in range(int(rng.integers(0, 40))):
            game, half = groups[int(rng.integers(0, 4))]
            label = self.LABELS[int(rng.integers(0, 3))]
            if gts and rng.random() < 0.5:  # near, or midway between, ground truths
                t = gts[int(rng.integers(0, len(gts)))].time_s + int(rng.integers(-30, 31))
            else:
                t = int(rng.integers(0, 220))
            preds.append(SpotPrediction(game, half, t, 0, label,
                                        float(rng.integers(1, 5)) / 4.0))  # tied confidences
        return preds, gts

    def test_average_map_matches_the_reference_loop(self, rng):
        for i in range(500):
            preds, gts = self._instance(rng)
            vocab = None if i % 3 else list(self.LABELS[:3])
            got = average_map(by_game(preds), gts, vocab=vocab).to_dict()
            assert got == _reference_report(preds, gts, DEFAULT_TOLERANCES, vocab)

    def test_replay_ap_report_matches_the_reference_loop(self, rng):
        for _ in range(500):
            gt_times = [int(t) for t in rng.integers(0, 30, int(rng.integers(0, 6))) * 5]
            preds_per_query = [
                [GroundingPrediction(t + int(rng.integers(-40, 41)), float(rng.integers(1, 5)) / 4)
                 for _ in range(int(rng.integers(0, 5)))]
                for t in gt_times
            ]
            got = replay_ap_report(preds_per_query, gt_times)
            ranked = sorted(((q, p.time_s, p.confidence)
                             for q, preds in enumerate(preds_per_query) for p in preds),
                            key=lambda e: (-e[2], e[1], e[0]))
            for tol in DEFAULT_TOLERANCES:
                flags = _reference_flags([(q, t) for q, t, _ in ranked],
                                         {q: [t] for q, t in enumerate(gt_times)}, tol)
                assert got["ap_per_tolerance"][tol] == _reference_ap(flags, len(gt_times))
            assert got["num_predictions"] == len(ranked)

    def test_peak_memory_does_not_grow_with_the_tolerances(self):
        # split-scale's size: 3 games x 2 halves x 17 classes, each with 200
        # predictions and 20 ground truths over a 2,700 s half
        rng = np.random.default_rng(7)
        labels = [f"c{c}" for c in range(17)]
        preds, gts = [], []
        for game in ("a", "b", "c"):
            for half in (1, 2):
                for c, label in enumerate(labels):
                    preds += [SpotPrediction(game, half, int(t), c, label, float(conf))
                              for t, conf in zip(rng.integers(0, 2700, 200), rng.random(200))]
                    gts += [make_event(int(t), label, game, half)
                            for t in rng.integers(0, 2700, 20)]

        columns = by_game(preds)

        def peak(tolerances):
            tracemalloc.start()
            try:
                average_map(columns, gts, tolerances, vocab=labels)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, every = peak((max(DEFAULT_TOLERANCES),)), peak(DEFAULT_TOLERANCES)
        assert every < 1.25 * one, (every, one)
        assert every < 256 * len(preds), every / len(preds)


def _replay(end, event, label="Foul", game="g", half=1):
    return ReplayAnnotation(game, half, end - 5, end, event, label)


class TestReplayStats:
    def test_fraction(self):
        replays = [_replay(100, 60), _replay(200, 160), _replay(400, 270)]
        stats = replay_stats(replays)
        assert stats.fraction_in_0_120 == pytest.approx(2 / 3)

    def test_histogram_and_total(self):
        replays = [_replay(100, 60), _replay(200, 155), _replay(300, 170)]
        stats = replay_stats(replays, bucket_s=50)
        assert stats.interval_histogram == {"0-49": 2, "100-149": 1}
        assert stats.total == 3

    def test_top_labels_sorted_by_count(self):
        replays = (
            [_replay(100 * i + 50, 100 * i + 10, "Foul") for i in range(3)]
            + [_replay(1000 + 100 * i, 1000 + 100 * i - 40, "Goal") for i in range(2)]
            + [_replay(2000, 1990, "Shots-off target")]
        )
        stats = replay_stats(replays)
        assert stats.top_labels == ["Foul", "Goal", "Shots-off target"]
        assert stats.class_counts["Foul"] == 3

    def test_svg_is_deterministic_and_wellformed(self):
        replays = [_replay(100, 60), _replay(200, 160)]
        stats = replay_stats(replays)
        svg_a = interval_histogram_svg(stats)
        svg_b = interval_histogram_svg(stats)
        assert svg_a == svg_b
        assert svg_a.startswith("<svg") and svg_a.rstrip().endswith("</svg>")
