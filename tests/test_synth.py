import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spotground import synth
from spotground.errors import PlacementError, ShapeError
from spotground.synth import (
    PATTERN,
    SynthConfig,
    class_directions,
    synth_dataset,
    write_synth_dataset,
)


def test_noiseless_pattern_rows_only():
    cfg = SynthConfig(duration_s=120, feature_dim=8, num_classes=1, events_per_class=1,
                      noise_sigma=0.0, min_gap_s=10, num_halves=1)
    feats, events, _ = next(synth_dataset(cfg, seed=4))
    (ev,) = events
    t = ev.time_s
    nonzero_rows = set(np.nonzero(np.abs(feats.data).sum(axis=1))[0].tolist())
    assert nonzero_rows == set(range(t - 2, t + 3))
    # peak amplitude 1 along the class direction at the event second
    direction = class_directions(cfg, 4)[0]
    assert feats.data[t] @ direction == pytest.approx(1.0, abs=1e-5)


def test_same_seed_identical():
    cfg = SynthConfig(duration_s=400, num_classes=2, events_per_class=3, min_gap_s=45,
                      num_halves=2, with_replays=True, replay_delay_min_s=20,
                      replay_delay_max_s=30, replay_duration_s=5, feature_dim=16)
    a = synth_dataset(cfg, seed=9)
    b = synth_dataset(cfg, seed=9)
    for (fa, ea, ra), (fb, eb, rb) in zip(a, b):
        assert fa.data.tobytes() == fb.data.tobytes()
        assert ea == eb and ra == rb


def test_different_seed_differs():
    cfg = SynthConfig(duration_s=200, num_classes=1, events_per_class=2, min_gap_s=15,
                      num_halves=1)
    a, _, _ = next(synth_dataset(cfg, seed=1))
    b, _, _ = next(synth_dataset(cfg, seed=2))
    assert a.data.tobytes() != b.data.tobytes()


def test_constant_delay():
    cfg = SynthConfig(duration_s=400, feature_dim=8, num_classes=1, events_per_class=3,
                      noise_sigma=0.0, min_gap_s=60, num_halves=1, with_replays=True,
                      replay_delay_min_s=40, replay_delay_max_s=40, replay_duration_s=8)
    _, _, replays = next(synth_dataset(cfg, seed=5))
    assert len(replays) == 3
    assert all(r.replay_end_s - r.event_time_s == 40 for r in replays)


def test_uniform_delay_bounds():
    cfg = SynthConfig(duration_s=2000, feature_dim=8, num_classes=1, events_per_class=8,
                      noise_sigma=0.0, min_gap_s=150, edge_margin_s=120, num_halves=1,
                      with_replays=True, replay_delay_min_s=10, replay_delay_max_s=110,
                      replay_duration_s=8)
    _, _, replays = next(synth_dataset(cfg, seed=6))
    delays = [r.interval_s for r in replays]
    assert all(10 <= d <= 110 for d in delays)
    assert len(set(delays)) > 1


def test_matched_filter_reconstruction():
    # noiseless data is exactly recoverable by per-class matched filters
    cfg = SynthConfig(duration_s=500, feature_dim=16, num_classes=3, events_per_class=4,
                      noise_sigma=0.0, min_gap_s=25, num_halves=1)
    feats, events, _ = next(synth_dataset(cfg, seed=7))
    directions = class_directions(cfg, 7)
    proj = feats.data.astype(np.float64) @ directions.T  # (T, classes)
    kernel = np.asarray(PATTERN)
    for c in range(cfg.num_classes):
        corr = np.correlate(proj[:, c], kernel, mode="same")
        truth = sorted(ev.time_s for ev in events
                       if ev.label == ["Penalty", "Kick-off", "Goal"][c])
        peak = float(kernel @ kernel)
        detected = sorted(int(t) for t in np.nonzero(corr > 0.9 * peak)[0])
        assert detected == truth


def test_every_half_shares_the_class_directions():
    """An event of a label projects to about 1 on that label's one direction
    in every half, whichever game it is in."""
    cfg = SynthConfig(duration_s=300, feature_dim=16, num_classes=2, events_per_class=3,
                      noise_sigma=0.0, min_gap_s=25, num_halves=3, with_replays=True,
                      replay_delay_min_s=12, replay_delay_max_s=12, replay_duration_s=6)
    directions = class_directions(cfg, 8)
    halves = list(synth_dataset(cfg, seed=8))
    assert [(f.game_id, f.half) for f, _, _ in halves] == [
        ("synth_000", 1), ("synth_000", 2), ("synth_001", 1)]
    labels = ["Penalty", "Kick-off"]
    for feats, events, replays in halves:
        assert {ev.label for ev in events} == set(labels)
        for ev in events:
            c = labels.index(ev.label)
            assert feats.data[ev.time_s] @ directions[c] == pytest.approx(1.0, abs=1e-5)
        for rp in replays:  # the signature sits mid-clip on the paired direction
            center = rp.replay_start_s + cfg.replay_duration_s // 2
            signature = directions[cfg.num_classes + labels.index(rp.event_label)]
            assert feats.data[center] @ signature == pytest.approx(1.0, abs=1e-5)


def test_index_sets_the_game_half_and_draws():
    """Half i of a dataset is half 1 + i % 2 of game i // 2, drawn as the
    half generated on its own and the same however many halves follow it."""
    cfg = SynthConfig(duration_s=200, feature_dim=8, num_classes=1, events_per_class=2,
                      min_gap_s=15, num_halves=4, game_prefix="m")
    directions = class_directions(cfg, 5)
    first_two = list(synth_dataset(replace(cfg, num_halves=2), seed=5))
    for i, (feats, events, _) in enumerate(synth_dataset(cfg, seed=5)):
        assert (feats.game_id, feats.half) == (f"m_{i // 2:03d}", 1 + i % 2)
        alone, alone_events, _ = synth._synth_half(cfg, 5, i, directions)
        assert feats.data.tobytes() == alone.data.tobytes() and events == alone_events
        if i < 2:
            alone, alone_events, _ = first_two[i]
            assert feats.data.tobytes() == alone.data.tobytes() and events == alone_events


def test_a_dataset_computes_its_class_directions_once(monkeypatch):
    cfg = SynthConfig(duration_s=200, feature_dim=8, num_classes=2, events_per_class=2,
                      min_gap_s=15, num_halves=4)
    calls = []
    monkeypatch.setattr(synth, "class_directions",
                        lambda *args: calls.append(args) or class_directions(*args))
    assert len(list(synth_dataset(cfg, seed=3))) == 4
    assert calls == [(cfg, 3)]


def test_placement_error_when_too_dense():
    cfg = SynthConfig(duration_s=50, num_classes=3, events_per_class=8, min_gap_s=21,
                      num_halves=1)
    with pytest.raises(PlacementError):
        next(synth_dataset(cfg, seed=0))


def test_replay_collision_is_placement_error():
    # zero slack forces exact 30 s gaps; a 31 s delay stamps the signature
    # onto the next event's pattern
    cfg = SynthConfig(duration_s=185, feature_dim=8, num_classes=1, events_per_class=6,
                      noise_sigma=0.0, min_gap_s=30, num_halves=1, with_replays=True,
                      replay_delay_min_s=31, replay_delay_max_s=31, replay_duration_s=5)
    with pytest.raises(PlacementError):
        next(synth_dataset(cfg, seed=3))


def test_min_gap_respected():
    cfg = SynthConfig(duration_s=600, num_classes=3, events_per_class=8, min_gap_s=21,
                      num_halves=1)
    _, events, _ = next(synth_dataset(cfg, seed=11))
    times = sorted(ev.time_s for ev in events)
    assert min(b - a for a, b in zip(times, times[1:])) >= 21


def test_config_validation():
    with pytest.raises(ShapeError):
        SynthConfig(num_classes=0)
    with pytest.raises(ShapeError):
        SynthConfig(num_classes=5, feature_dim=4)
    with pytest.raises(ShapeError):
        SynthConfig(with_replays=True, num_classes=5, feature_dim=8)
    for bad in ({"duration_s": -5}, {"num_halves": 0}, {"events_per_class": 0},
                {"replay_duration_s": 0}, {"min_gap_s": -1}, {"edge_margin_s": -1},
                {"noise_sigma": -1.0}, {"game_prefix": "../x"}, {"game_prefix": "a/b"}):
        with pytest.raises(ShapeError, match=next(iter(bad))):
            SynthConfig(**bad)


def test_writing_holds_one_half_at_a_time(tmp_path):
    """write_synth_dataset writes each half as it is generated: its peak
    allocation at 4 halves stays about that at 1 half."""
    def peak(halves: int) -> int:
        cfg = SynthConfig(duration_s=600, feature_dim=256, num_classes=3, events_per_class=4,
                          min_gap_s=21, num_halves=halves)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_synth_dataset(tmp_path / str(halves), cfg, seed=1)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak(4) <= 1.2 * peak(1)
