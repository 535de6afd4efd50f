"""Feature and annotation ingestion.

Covers the per-second embedding matrices (NPY files, one per game half
and source), the label JSON files, multi-source feature combination and
zero-padded window extraction.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    DomainError,
    IdentityError,
    ParseError,
    ShapeError,
)
from .jsonio import json_document, objects
from .npyio import read_npy_file
from .vocab import DEFAULT_VOCAB

logger = logging.getLogger(__name__)

GAME_TIME_RE = re.compile(r"^\s*(\d+)\s*-\s*(\d{1,3}):([0-5]\d)\s*$")
# the most that the sources of one half may differ in length, in seconds (rows)
LENGTH_SLACK_S = 2


@dataclass(frozen=True)
class FeatureSequence:
    """Per-second embeddings for one half of one game (T rows, D columns):
    row t holds second t, the 1 fps rate of SoccerNet-v2's features."""

    game_id: str
    half: int
    data: np.ndarray
    source_dims: tuple[int, ...]

    def __post_init__(self):
        if self.half not in (1, 2):
            raise DomainError(f"half must be 1 or 2, got {self.half}")
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ShapeError(f"feature matrix must be T x D with T,D >= 1, got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ShapeError("feature matrix contains non-finite values")
        if sum(self.source_dims) != self.data.shape[1]:
            raise ShapeError(
                f"source_dims {self.source_dims} sum to {sum(self.source_dims)}, "
                f"but D = {self.data.shape[1]}"
            )

    @property
    def duration_s(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class EventAnnotation:
    game_id: str
    half: int
    time_s: int
    label: str

    def __post_init__(self):
        if self.time_s < 0:
            raise ParseError(f"event time must be non-negative, got {self.time_s}")


@dataclass(frozen=True)
class ReplayAnnotation:
    game_id: str
    half: int
    replay_start_s: int
    replay_end_s: int
    event_time_s: int
    event_label: str

    def __post_init__(self):
        if not self.replay_start_s < self.replay_end_s:
            raise ParseError(
                f"replay interval [{self.replay_start_s}, {self.replay_end_s}] is empty"
            )
        if self.event_time_s > self.replay_end_s:
            raise ParseError("source event lies after the replay end")

    @property
    def interval_s(self) -> int:
        """Gap between replay end and the original event."""
        return self.replay_end_s - self.event_time_s


def parse_game_time(s: str) -> tuple[int, int]:
    """Parse "H - MM:SS" into (half, seconds within the half)."""
    m = GAME_TIME_RE.match(s) if isinstance(s, str) else None
    if m is None:
        raise ParseError(f"bad game time {s!r}, expected '<half> - <MM>:<SS>'")
    half, minutes, seconds = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if half not in (1, 2):
        raise DomainError(f"half must be 1 or 2, got {half}")
    return half, 60 * minutes + seconds


def format_game_time(half: int, time_s: int) -> str:
    return f"{half} - {time_s // 60:02d}:{time_s % 60:02d}"


def parse_labels(
    stream: bytes | str,
    game_id: str = "",
    vocab: list[str] | tuple[str, ...] | None = None,
) -> tuple[list[EventAnnotation], list[ReplayAnnotation]]:
    """Parse a label JSON document into event and replay annotations.

    The document may carry an "annotations" array, a "replays" array, or
    both. Labels outside the given vocabulary are kept and logged as a
    warning; entries are never silently dropped.
    """
    doc = json_document(stream, dict, ParseError, "label document")
    known = set(vocab if vocab is not None else DEFAULT_VOCAB)

    def check_label(label):
        if not isinstance(label, str) or not label:
            raise ParseError(f"bad label {label!r}")
        if label not in known:
            logger.warning("unknown label %r in %s", label, game_id or "<stream>")

    events: list[EventAnnotation] = []
    for entry in objects(doc.get("annotations", []), ParseError, "'annotations'"):
        if "gameTime" not in entry or "label" not in entry:
            raise ParseError(f"annotation entry missing gameTime/label: {entry!r}")
        half, secs = parse_game_time(entry["gameTime"])
        check_label(entry["label"])
        events.append(EventAnnotation(game_id, half, secs, entry["label"]))

    replays: list[ReplayAnnotation] = []
    for entry in objects(doc.get("replays", []), ParseError, "'replays'"):
        for key in ("start", "end", "event", "label"):
            if key not in entry:
                raise ParseError(f"replay entry missing {key!r}: {entry!r}")
        h_start, start = parse_game_time(entry["start"])
        h_end, end = parse_game_time(entry["end"])
        h_event, event = parse_game_time(entry["event"])
        if not (h_start == h_end == h_event):
            raise ParseError(f"replay entry spans halves: {entry!r}")
        check_label(entry["label"])
        replays.append(ReplayAnnotation(game_id, h_start, start, end, event, entry["label"]))

    return events, replays


def combine_features(sources: list[FeatureSequence]) -> FeatureSequence:
    """L2-normalize each source per frame, then concatenate along features.

    All sources must describe the same game half; lengths may differ by at
    most LENGTH_SLACK_S seconds and are truncated to the shortest. Frames
    with zero norm are kept as zero vectors and counted in a warning.
    """
    if not sources:
        raise ShapeError("combine_features needs at least one source")
    first = sources[0]
    for src in sources[1:]:
        if (src.game_id, src.half) != (first.game_id, first.half):
            raise IdentityError(
                f"sources disagree on identity: {(src.game_id, src.half)} vs "
                f"{(first.game_id, first.half)}"
            )
    lengths = [src.duration_s for src in sources]
    t_min, t_max = min(lengths), max(lengths)
    if t_max - t_min > LENGTH_SLACK_S:
        raise AlignmentError(f"source lengths {lengths} differ by more than {LENGTH_SLACK_S} s")

    zero_frames = 0
    blocks = []
    for src in sources:
        block = src.data[:t_min].astype(np.float32, copy=True)
        with np.errstate(over="ignore"):  # a value above ~1.8e19 overflows the float32 norm
            norms = np.linalg.norm(block, axis=1, keepdims=True)
        big = np.isinf(norms[:, 0])
        if big.any():  # every value is finite, so those frames normalise in float64
            wide = block[big].astype(np.float64)
            block[big] = wide / np.linalg.norm(wide, axis=1, keepdims=True)
            norms[big] = 1.0
        zero = norms[:, 0] == 0.0
        zero_frames += int(zero.sum())
        norms[zero] = 1.0  # leave zero frames untouched
        block /= norms
        blocks.append(block)
    if zero_frames:
        logger.warning(
            "combine_features: %d zero-norm frame(s) left as zero vectors", zero_frames
        )
    combined = np.concatenate(blocks, axis=1)
    dims = tuple(d for src in sources for d in src.source_dims)
    return FeatureSequence(first.game_id, first.half, combined, dims)


def gather_windows(datas: list[np.ndarray], which, starts, length_s: int, dtype) -> np.ndarray:
    """(n, length_s, D) windows in dtype: window i is rows [starts[i],
    starts[i] + length_s) of datas[which[i]], zero-padded outside its
    [0, T). Only the windows' own rows are copied."""
    out = np.zeros((len(starts), length_s, datas[0].shape[1]), dtype=dtype)
    for row, i, start in zip(out, which, starts):
        data = datas[i]
        lo, hi = max(start, 0), min(start + length_s, len(data))
        if lo < hi:
            row[lo - start : hi - start] = data[lo:hi]
    return out


@dataclass
class GameHalf:
    """One half of one game: features plus its ground-truth annotations."""

    features: FeatureSequence
    events: list[EventAnnotation] = field(default_factory=list)
    replays: list[ReplayAnnotation] = field(default_factory=list)


def load_game_half(game_dir: str | Path, game_id: str, half: int) -> FeatureSequence:
    """Load and combine every "<half>_<source>.npy" file in a game directory."""
    game_dir = Path(game_dir)
    paths = sorted(game_dir.glob(f"{half}_*.npy"))
    if not paths:
        raise ParseError(f"no feature files matching '{half}_*.npy' in {game_dir}")
    sources = []
    for path in paths:
        matrix = read_npy_file(path)
        sources.append(
            FeatureSequence(game_id, half, matrix, (matrix.shape[1],))
        )
    return combine_features(sources)


def load_labels(
    game_dir: str | Path, vocab=None
) -> tuple[list[EventAnnotation], list[ReplayAnnotation]] | None:
    """Events and replays of one game directory, or None if it holds no labels.

    Events and replays may live in one labels.json or in separate
    labels.json / replays.json documents.
    """
    game_dir = Path(game_dir)
    paths = [p for p in (game_dir / "labels.json", game_dir / "replays.json") if p.exists()]
    if not paths:
        return None
    events: list[EventAnnotation] = []
    replays: list[ReplayAnnotation] = []
    for path in paths:
        evs, rps = parse_labels(path.read_bytes(), game_id=game_dir.name, vocab=vocab)
        events.extend(evs)
        replays.extend(rps)
    return events, replays


def load_game(game_dir: str | Path, vocab=None) -> list[GameHalf]:
    """Load both halves of a game directory together with its labels."""
    game_dir = Path(game_dir)
    game_id = game_dir.name
    events, replays = load_labels(game_dir, vocab) or ([], [])
    halves = []
    for half in (1, 2):
        if not list(game_dir.glob(f"{half}_*.npy")):
            continue
        features = load_game_half(game_dir, game_id, half)
        halves.append(
            GameHalf(
                features,
                [e for e in events if e.half == half],
                [r for r in replays if r.half == half],
            )
        )
    if not halves:
        raise ParseError(f"{game_dir} contains no feature files")
    return halves


def game_dirs(root: str | Path) -> list[Path]:
    """The game directories under root, those holding "*_*.npy" feature
    files, in name order."""
    root = Path(root)
    dirs = sorted(p for p in root.iterdir() if p.is_dir() and any(p.glob("*_*.npy")))
    if not dirs:
        raise ParseError(f"no game directories with feature files under {root}")
    return dirs


def load_dataset(root: str | Path, vocab=None) -> list[GameHalf]:
    """Load every game directory under root (see game_dirs).

    Every half must have the same feature width: one model reads them all.
    """
    halves: list[GameHalf] = []
    for game_dir in game_dirs(root):
        for gh in load_game(game_dir, vocab=vocab):
            if halves and gh.features.dim != halves[0].features.dim:
                first = halves[0].features
                raise ShapeError(
                    f"{gh.features.game_id} half {gh.features.half} has {gh.features.dim} "
                    f"feature columns, but {first.game_id} half {first.half} has {first.dim}"
                )
            halves.append(gh)
    return halves
