"""Synthetic desk-scale data with exactly known ground truth.

Each event class gets its own unit feature direction; a planted event adds
a triangular bump (peak amplitude 1, spanning +/-2 s) along that direction
on top of Gaussian noise. Replays, when enabled, plant a bump along a
separate class-paired signature direction inside the replay interval:
clip and event carry correlated but distinct signal, the way a replay is
a different camera shot of the same action. Everything is a pure function
of (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import EventAnnotation, FeatureSequence, ReplayAnnotation
from .errors import PlacementError, ShapeError
from .jsonio import bare_name
from .vocab import DEFAULT_VOCAB

PATTERN_RADIUS_S = 2
# triangular profile over offsets -2..2, peak 1 at the event second
PATTERN = np.array([1 / 3, 2 / 3, 1.0, 2 / 3, 1 / 3])


@dataclass(frozen=True)
class SynthConfig:
    duration_s: int = 600
    feature_dim: int = 32
    num_classes: int = 3
    events_per_class: int = 8
    noise_sigma: float = 0.25
    min_gap_s: int = 21
    edge_margin_s: int = 3
    num_halves: int = 2
    game_prefix: str = "synth"
    with_replays: bool = False
    replay_delay_min_s: int = 40
    replay_delay_max_s: int = 40
    replay_duration_s: int = 8

    def __post_init__(self):
        for name in ("duration_s", "num_halves", "events_per_class", "replay_duration_s"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("min_gap_s", "edge_margin_s", "noise_sigma"):
            if not getattr(self, name) >= 0:
                raise ShapeError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 1 <= self.num_classes <= 17:
            raise ShapeError(f"num_classes must be in 1..17, got {self.num_classes}")
        directions_needed = 2 * self.num_classes if self.with_replays else self.num_classes
        if directions_needed > self.feature_dim:
            raise ShapeError(
                f"need feature_dim >= {directions_needed} for orthonormal directions"
            )
        bare_name(self.game_prefix, ShapeError, "game_prefix")  # game ids name directories
        if self.replay_delay_min_s > self.replay_delay_max_s:
            raise ShapeError("replay delay min > max")
        if self.with_replays and self.replay_delay_min_s < 1:
            raise ShapeError("replay delays must be positive")


def class_directions(config: SynthConfig, seed: int) -> np.ndarray:
    """Orthonormal unit directions shared by every half.

    Rows 0..k-1 are the event directions; when replays are enabled, rows
    k..2k-1 are the paired replay-signature directions.
    """
    k = 2 * config.num_classes if config.with_replays else config.num_classes
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    mat = rng.normal(size=(config.feature_dim, k))
    q, _ = np.linalg.qr(mat)
    return q.T  # (k, feature_dim)


def _place_events(rng, config: SynthConfig) -> np.ndarray:
    """Sorted integer event times with pairwise gaps >= min_gap_s.

    With replays enabled the right margin is widened so every replay
    interval (event + delay) fits inside the half by construction.
    """
    n = config.num_classes * config.events_per_class
    lo = config.edge_margin_s
    right_margin = config.edge_margin_s
    if config.with_replays:
        right_margin = max(right_margin, config.replay_delay_max_s + 1)
    hi = config.duration_s - right_margin
    slack = (hi - lo) - (n - 1) * config.min_gap_s
    if slack < 0:
        raise PlacementError(
            f"{n} events with {config.min_gap_s} s gaps do not fit in "
            f"[{lo}, {hi}] ({config.duration_s} s half)"
        )
    extras = np.sort(rng.integers(0, slack + 1, size=n))
    return lo + extras + np.arange(n) * config.min_gap_s


def synth_generate(
    config: SynthConfig,
    seed: int,
    index: int = 0,
    vocab: tuple[str, ...] | list[str] = DEFAULT_VOCAB,
) -> tuple[FeatureSequence, list[EventAnnotation], list[ReplayAnnotation]]:
    """Generate half `index` of the dataset of this seed: half 1 + index % 2
    of game index // 2. Its event times, classes, delays and noise are drawn
    from seed + 1000 * index; the class directions come from seed itself.
    Labels are the first num_classes vocabulary names."""
    game_id = f"{config.game_prefix}_{index // 2:03d}"
    half = 1 + index % 2
    rng = np.random.default_rng(np.random.SeedSequence([seed + 1000 * index, 1, half]))
    directions = class_directions(config, seed)
    labels = list(vocab)[: config.num_classes]

    T, D = config.duration_s, config.feature_dim
    data = (
        rng.normal(0.0, config.noise_sigma, size=(T, D))
        if config.noise_sigma > 0
        else np.zeros((T, D))
    )

    times = _place_events(rng, config)
    classes = rng.permutation(np.repeat(np.arange(config.num_classes), config.events_per_class))

    def plant(center: int, class_idx: int) -> None:
        for offset, amp in zip(range(-PATTERN_RADIUS_S, PATTERN_RADIUS_S + 1), PATTERN):
            t = center + offset
            if 0 <= t < T:
                data[t] += amp * directions[class_idx]

    events: list[EventAnnotation] = []
    for t, c in zip(times, classes):
        plant(int(t), int(c))
        events.append(EventAnnotation(game_id, half, int(t), labels[int(c)]))

    replays: list[ReplayAnnotation] = []
    if config.with_replays:
        claimed: list[tuple[int, int]] = [
            (int(t) - PATTERN_RADIUS_S, int(t) + PATTERN_RADIUS_S) for t in times
        ]
        for t, c in zip(times, classes):
            delay = int(rng.integers(config.replay_delay_min_s, config.replay_delay_max_s + 1))
            end = int(t) + delay
            start = end - config.replay_duration_s
            if start <= int(t) or end >= T:
                raise PlacementError(
                    f"replay [{start}, {end}] for event at {int(t)} does not fit"
                )
            signature_center = start + config.replay_duration_s // 2
            sig_lo = signature_center - PATTERN_RADIUS_S
            sig_hi = signature_center + PATTERN_RADIUS_S
            for lo, hi in claimed:
                if sig_lo <= hi and lo <= sig_hi:
                    raise PlacementError(
                        f"replay signature [{sig_lo}, {sig_hi}] collides with "
                        f"pattern [{lo}, {hi}]; increase min_gap_s"
                    )
            claimed.append((sig_lo, sig_hi))
            plant(signature_center, config.num_classes + int(c))
            replays.append(
                ReplayAnnotation(game_id, half, start, end, int(t), labels[int(c)])
            )

    features = FeatureSequence(game_id, half, data.astype(np.float32), (D,))
    return features, events, replays


def synth_dataset(config: SynthConfig, seed: int, vocab=DEFAULT_VOCAB):
    """Generate num_halves halves as (features, events, replays) triples.

    Halves are grouped two per game: half indices alternate 1, 2 and the
    game counter advances every other half (see synth_generate).
    """
    return [synth_generate(config, seed, i, vocab) for i in range(config.num_halves)]


def write_synth_dataset(root: str | Path, config: SynthConfig, seed: int, vocab=DEFAULT_VOCAB):
    """Write a synthetic dataset in the on-disk layout the loaders expect."""
    from .data import format_game_time
    from .npyio import write_npy_file
    import json

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    docs: dict[Path, dict] = {}
    for features, events, replays in synth_dataset(config, seed, vocab=vocab):
        game_dir = root / features.game_id
        game_dir.mkdir(exist_ok=True)
        npy_path = game_dir / f"{features.half}_synthetic.npy"
        write_npy_file(npy_path, features.data)
        written.append(npy_path)
        doc = docs.setdefault(game_dir / "labels.json", {"annotations": [], "replays": []})
        for ev in events:
            doc["annotations"].append(
                {"gameTime": format_game_time(ev.half, ev.time_s), "label": ev.label}
            )
        for rp in replays:
            doc["replays"].append(
                {
                    "start": format_game_time(rp.half, rp.replay_start_s),
                    "end": format_game_time(rp.half, rp.replay_end_s),
                    "event": format_game_time(rp.half, rp.event_time_s),
                    "label": rp.event_label,
                }
            )
    for path, doc in docs.items():
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(path)
    return written
