"""Replay grounding: pair sampling, the two-output head, post-processing.

The head sees the candidate chunk and the replay clip as one temporal
sequence (candidate first), distinguished by learned segment offsets, and
emits a replay probability plus the normalized position of the event
within the candidate chunk. Post-processing covers time-window filtering,
fusion with spotting output and the cross-model score-normalized NMS
merge.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .checkpoint import KIND_GROUNDING, Model
from .data import FeatureSequence, GameHalf, ReplayAnnotation, extract_window
from .errors import IdentityError, ParseError, ShapeError
from .nn import (
    EncoderConfig,
    bce_plus_l2,
    embed_input,
    encoder_backward,
    encoder_forward_batch,
    encoder_forward_embedded,
    init_encoder_params,
    sigmoid,
)
from .spotting import SpotPrediction, TrainSpec, _greedy_nms, fit, training_model

logger = logging.getLogger(__name__)

CANDIDATE_CHUNK_S = 30
PRE_REPLAY_WINDOW_S = 120
POSITIVES_PER_REPLAY = 4
NEGATIVES_PER_REPLAY = 4
# how far a sampled chunk keeps the event inside (positive) or outside (negative) its edges
SAMPLING_MARGIN_S = 2
# segment id of each row of a pair sequence: 0 for the candidate chunk, 1 for the replay clip
_SEGMENTS = np.repeat(np.arange(2, dtype=np.int64), CANDIDATE_CHUNK_S)
DEFAULT_FUSION_LABELS = frozenset({"Foul", "Goal", "Shots-off target"})


@dataclass(frozen=True)
class GroundingPrediction:
    game_id: str
    half: int
    time_s: int
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ShapeError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class ReplayQuery:
    game_id: str
    half: int
    start_s: int
    end_s: int


def replay_clip(features: FeatureSequence, start_s: int, end_s: int) -> np.ndarray:
    """The replay interval's rows, truncated or zero-padded to CANDIDATE_CHUNK_S."""
    clip = np.zeros((CANDIDATE_CHUNK_S, features.dim), dtype=features.data.dtype)
    n = min(CANDIDATE_CHUNK_S, end_s - start_s)
    if n > 0:
        clip[:n] = extract_window(features.data, start_s, n)
    return clip


def sample_grounding_pairs(
    replay: ReplayAnnotation,
    features: FeatureSequence,
    rng: np.random.Generator,
) -> list[tuple[int, int, float]]:
    """Draw positive/negative candidate chunks from the pre-replay window,
    as (start_s, label, offset) pairs.

    The window is the PRE_REPLAY_WINDOW_S seconds before the replay starts,
    and a chunk is CANDIDATE_CHUNK_S long. POSITIVES_PER_REPLAY positives
    (label 1) contain the source event, placed at a random offset at least
    SAMPLING_MARGIN_S from the chunk edge when possible; offset is the
    event's position in the chunk, in [0, 1]. NEGATIVES_PER_REPLAY
    negatives (label 0, offset 0.0) keep the event at least
    SAMPLING_MARGIN_S outside the chunk. Replays whose event is not inside
    the window are skipped with a warning.
    """
    if (replay.game_id, replay.half) != (features.game_id, features.half):
        raise IdentityError("replay annotation and features describe different halves")
    chunk_s, margin_s = CANDIDATE_CHUNK_S, SAMPLING_MARGIN_S
    start = replay.replay_start_s
    window_lo = max(0, start - PRE_REPLAY_WINDOW_S)
    last_start = start - chunk_s
    event = replay.event_time_s
    if not (window_lo <= event <= start):
        logger.warning(
            "replay at %d s: event at %d s outside [%d, %d], skipped",
            start, event, window_lo, start,
        )
        return []
    if last_start < window_lo:
        logger.warning("replay at %d s: window too short for a %d s chunk", start, chunk_s)
        return []

    pos_lo = max(window_lo, event - chunk_s + margin_s)
    pos_hi = min(event - margin_s, last_start)
    if pos_lo > pos_hi:  # event too close to an edge for the margin, relax it
        pos_lo = max(window_lo, event - chunk_s)
        pos_hi = min(event, last_start)
    if pos_lo > pos_hi:
        logger.warning("replay at %d s: no positive chunk placement possible", start)
        return []

    pairs = []
    for _ in range(POSITIVES_PER_REPLAY):
        cs = int(rng.integers(pos_lo, pos_hi + 1))
        pairs.append((cs, 1, (event - cs) / chunk_s))
    neg_starts = np.array(
        [
            cs
            for cs in range(window_lo, last_start + 1)
            if not (cs - margin_s <= event <= cs + chunk_s + margin_s)
        ]
    )
    if neg_starts.size == 0:
        logger.warning("replay at %d s: no negative chunk placement possible", start)
    else:
        draws = rng.choice(neg_starts, size=NEGATIVES_PER_REPLAY, replace=True)
        pairs.extend((int(cs), 0, 0.0) for cs in draws)
    return pairs


def _pair_sequences(data: np.ndarray, starts, clip: np.ndarray, out=None) -> np.ndarray:
    """(n, 2 * chunk_s, D) candidate-then-replay sequences: sequence i is
    rows [starts[i], starts[i] + chunk_s) of data, zero-padded outside the
    half, followed by the replay clip. Written into out when given."""
    chunk_s = len(clip)
    if out is None:
        out = np.empty((len(starts), 2 * chunk_s, data.shape[1]), dtype=data.dtype)
    out[:, :chunk_s] = 0.0
    for row, cs in zip(out, starts):
        lo, hi = max(cs, 0), min(cs + chunk_s, len(data))
        if lo < hi:
            row[lo - cs : hi - cs] = data[lo:hi]
    out[:, chunk_s:] = clip
    return out


def default_grounding_config(input_dim: int, dropout_p: float = 0.1) -> EncoderConfig:
    return EncoderConfig(
        input_dim=input_dim,
        output_dim=2,
        model_dim=64,
        num_layers=4,
        num_heads=4,
        hidden_dim=256,
        dropout_p=dropout_p,
        num_segments=2,
    )


def train_grounding(
    halves: list[GameHalf],
    spec: TrainSpec,
    config: EncoderConfig | None = None,
    offset_weight: float = 1.0,
) -> Model:
    """Train the grounding head; pairs are re-sampled every epoch.

    Deterministic for a given (spec.seed, config). spec.lr/epochs default
    to 2e-4 and 40 via the CLI.
    """
    if not offset_weight >= 0.0:
        raise ShapeError(f"offset_weight must be >= 0, got {offset_weight}")
    replays = [(gh, rp) for gh in halves for rp in gh.replays]
    if not replays:
        raise ParseError("empty dataset: no replay annotations")
    input_dim = halves[0].features.dim
    if config is None:
        config = default_grounding_config(input_dim)
    if config.output_dim != 2 or config.num_segments != 2:
        raise ShapeError("grounding config needs output_dim=2 and num_segments=2")
    if config.input_dim != input_dim:
        raise ShapeError(f"config input_dim {config.input_dim} != data dim {input_dim}")

    rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
    model = training_model(KIND_GROUNDING, config, [], init_encoder_params(config, rng))
    clips = [replay_clip(gh.features, rp.replay_start_s, rp.replay_end_s)
             for gh, rp in replays]
    dtype = np.result_type(*(gh.features.data.dtype for gh, _ in replays))

    def epoch_pairs():
        drawn = [sample_grounding_pairs(rp, gh.features, rng) for gh, rp in replays]
        pairs = [p for ps in drawn for p in ps]
        if not pairs:
            raise ParseError("no usable grounding samples (all replays skipped)")
        X = np.empty((len(pairs), 2 * CANDIDATE_CHUNK_S, input_dim), dtype=dtype)
        lo = 0
        for (gh, _), clip, ps in zip(replays, clips, drawn):
            _pair_sequences(gh.features.data, [cs for cs, _, _ in ps], clip,
                            out=X[lo : lo + len(ps)])
            lo += len(ps)
        _, labels, offsets = np.array(pairs, dtype=np.float64).T
        return X, labels, offsets

    def step(xb, labels, offsets):
        out, cache = encoder_forward_batch(
            model.params, config, xb, segments=_SEGMENTS, train_mode=True, rng=rng
        )
        loss, dout = bce_plus_l2(out, labels, offsets, offset_weight)
        return loss, encoder_backward(cache, dout)

    fit(model, spec, rng, epoch_pairs, step)
    return model


def infer_grounding(
    model: Model,
    query: ReplayQuery,
    features: FeatureSequence,
    stride_s: int = 5,
) -> list[GroundingPrediction]:
    """Slide candidate chunks over the pre-replay window.

    Every candidate yields one prediction: time = chunk start +
    CANDIDATE_CHUNK_S * clamp(offset, 0, 1), confidence = replay
    probability. Post-processing (filtering, fusion, merging) is separate.
    """
    if (query.game_id, query.half) != (features.game_id, features.half):
        raise IdentityError("query and features describe different halves")
    if stride_s < 1:
        raise ShapeError("stride must be >= 1 s")
    window_lo = max(0, query.start_s - PRE_REPLAY_WINDOW_S)
    last_start = query.start_s - CANDIDATE_CHUNK_S
    starts = list(range(window_lo, last_start + 1, stride_s))
    if not starts:
        return []
    X = _pair_sequences(features.data, starts,
                        replay_clip(features, query.start_s, query.end_s))
    h = embed_input(model.params, model.config, X)
    out = encoder_forward_embedded(model.params, model.config, h, segments=_SEGMENTS)
    probs = sigmoid(out[:, 0])
    offsets = np.clip(out[:, 1], 0.0, 1.0)
    preds = []
    for cs, prob, off in zip(starts, probs, offsets):
        t = int(round(cs + CANDIDATE_CHUNK_S * float(off)))
        preds.append(GroundingPrediction(query.game_id, query.half, t, float(prob)))
    return preds


# ---------------------------------------------------------------------------
# post-processing


def filter_predictions(
    preds: list[GroundingPrediction], replay_end_s: int, threshold_s: int
) -> list[GroundingPrediction]:
    """Keep predictions inside [replay_end - threshold, replay_end]."""
    if threshold_s <= 0:
        raise ShapeError("filter threshold must be positive")
    return [p for p in preds if replay_end_s - threshold_s <= p.time_s <= replay_end_s]


def fuse_with_spotting(
    spot_preds: list[SpotPrediction],
    replay_start_s: int,
    W: int = 42,
    S: float = 0.02,
    beta1: float = 1.25,
    beta2: float = 0.8,
    allowed_labels: frozenset[str] | set[str] = DEFAULT_FUSION_LABELS,
) -> list[GroundingPrediction]:
    """Turn nearby spotting output into grounding predictions.

    Keep spots with an allowed label and confidence above S that fall in
    [T - W, T]; the nearest and second-nearest to T (ties to the earlier
    timestamp) are emitted with confidences beta1 * conf and beta2 * conf,
    clamped to [0, 1].
    """
    T = replay_start_s
    eligible = [
        p
        for p in spot_preds
        if p.label in allowed_labels and p.confidence > S and T - W <= p.time_s <= T
    ]
    eligible.sort(key=lambda p: (abs(T - p.time_s), p.time_s, -p.confidence, p.class_index))
    out = []
    for p, beta in zip(eligible[:2], (beta1, beta2)):
        conf = min(max(beta * p.confidence, 0.0), 1.0)
        out.append(GroundingPrediction(p.game_id, p.half, p.time_s, conf))
    return out


def minmax_normalize(values: list[float]) -> list[float]:
    """Min-max to [0, 1]; constant (or single-element) input maps to 1.0."""
    if not values:
        return []
    lo, hi = min(values), max(values)
    if hi == lo:
        return [1.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def merge_nms(
    preds_a: list[GroundingPrediction],
    preds_b: list[GroundingPrediction],
    window_s: int = 25,
) -> list[GroundingPrediction]:
    """Normalize each source's scores to [0, 1], union, greedy temporal NMS."""
    pool: list[GroundingPrediction] = []
    for preds in (preds_a, preds_b):
        for p, conf in zip(preds, minmax_normalize([p.confidence for p in preds])):
            pool.append(GroundingPrediction(p.game_id, p.half, p.time_s, conf))
    return sorted(_greedy_nms(pool, window_s), key=lambda p: p.time_s)
