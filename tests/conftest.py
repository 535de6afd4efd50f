from __future__ import annotations

import numpy as np
import pytest

from spotground.data import EventAnnotation, FeatureSequence
from spotground.spotting import SpotCandidates


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_features(T=100, D=8, game_id="g0", half=1, seed=0, data=None):
    if data is None:
        data = np.random.default_rng(seed).normal(size=(T, D)).astype(np.float32)
    return FeatureSequence(game_id, half, data)


def padded_window(data, start, length):
    """Rows [start, start + length) of data, zero outside [0, T): a plain
    slice of data with enough zero rows stacked on either side."""
    pad = np.zeros((abs(start) + length, data.shape[1]), dtype=data.dtype)
    return np.concatenate([pad, data, pad])[len(pad) + start : len(pad) + start + length]


def make_event(time_s, label="Goal", game_id="g0", half=1):
    return EventAnnotation(game_id, half, time_s, label)


def float_arrays(obj):
    """Every floating-point array inside nested dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj] if np.issubdtype(obj.dtype, np.floating) else []
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in float_arrays(item)]
    return []


def by_game(preds):
    """SpotPrediction objects as columns, one SpotCandidates per game in
    game order, each game's predictions in list order."""
    games = sorted({p.game_id for p in preds})
    return [SpotCandidates.from_predictions(g, [p for p in preds if p.game_id == g])
            for g in games]

