import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import float_arrays, make_features, padded_window
from spotground.checkpoint import KIND_GROUNDING, Model
from spotground.data import GameHalf, ReplayAnnotation
from spotground.grounding import (
    GroundingPrediction,
    ReplayQuery,
    _pair_sequences,
    filter_predictions,
    fuse_with_spotting,
    infer_grounding,
    merge_nms,
    minmax_normalize,
    sample_grounding_pairs,
    train_grounding,
)
from spotground.nn import (
    GROUND_GRADCHECK_CONFIG,
    EncoderConfig,
    Workspace,
    bce_plus_l2,
    encoder_forward_batch,
    init_encoder_params,
    sigmoid,
)
from spotground.spotting import SpotCandidates, SpotPrediction, TrainSpec
from spotground.synth import SynthConfig, synth_dataset


def _replay(start=200, end=210, event=160, game_id="g0", half=1, label="Goal"):
    return ReplayAnnotation(game_id, half, start, end, event, label)


def _config(input_dim=16, dropout_p=0.0):
    """The grounding architecture the CLI trains by default, for input_dim."""
    return replace(GROUND_GRADCHECK_CONFIG, input_dim=input_dim, dropout_p=dropout_p)


def _want_pair(data, cs, replay_start, replay_end):
    """A candidate-then-replay sequence from explicit zero-padded slices: the
    candidate's 30 rows, then the replay's first 30 rows with those at or
    past its end zeroed."""
    clip = padded_window(data, replay_start, 30)
    clip[max(replay_end - replay_start, 0):] = 0.0
    return np.concatenate([padded_window(data, cs, 30), clip])


def _zero_ground_model(input_dim=8):
    config = _config(input_dim)
    params = {k: np.zeros_like(v)
              for k, v in init_encoder_params(config, np.random.default_rng(0)).items()}
    return Model(KIND_GROUNDING, config, [], params)


class TestSampling:
    def test_positives_contain_event(self, rng):
        feats = make_features(T=400, D=8)
        pairs = sample_grounding_pairs(_replay(), feats, rng)
        positives = [(cs, off) for cs, label, off in pairs if label == 1]
        assert len(positives) == 4 and len(pairs) == 8
        for cs, off in positives:
            assert 0.0 <= off <= 1.0 and cs + off * 30 == 160
        # the candidate row at the offset is the event row
        X = _pair_sequences([feats.data], [0] * 4, [cs for cs, _ in positives],
                            np.array([[200, 210]]), feats.data.dtype, None)
        for x, (cs, _) in zip(X, positives):
            np.testing.assert_array_equal(x[160 - cs], feats.data[160])
            np.testing.assert_array_equal(x, _want_pair(feats.data, cs, 200, 210))

    def test_offset_zero_when_chunk_starts_at_event(self, rng):
        feats = make_features(T=400, D=8)
        # the window opens at the event, so every positive chunk starts there
        pairs = sample_grounding_pairs(_replay(start=200, end=210, event=80), feats, rng)
        positives = [(cs, off) for cs, label, off in pairs if label == 1]
        assert positives == [(80, 0.0)] * 4
        X = _pair_sequences([feats.data], [0], [80], np.array([[200, 210]]), feats.data.dtype,
                            None)
        np.testing.assert_array_equal(X[0, 0], feats.data[80])
        np.testing.assert_array_equal(X[0], _want_pair(feats.data, 80, 200, 210))

    def test_negatives_exclude_event_over_many_replays(self, rng):
        feats = make_features(T=4000, D=8)
        checked = 0
        for i in range(500):
            event = int(rng.integers(130, 3800))
            start = event + int(rng.integers(5, 115))
            replay = _replay(start=start, end=start + 10, event=event)
            for cs, label, off in sample_grounding_pairs(replay, feats, rng):
                if label == 0:
                    checked += 1
                    assert off == 0.0
                    # event row must not be any candidate row
                    assert not cs <= event < cs + 30
        assert checked > 1000

    def test_event_outside_window_skipped(self, rng, caplog):
        feats = make_features(T=600, D=8)
        replay = _replay(start=400, end=410, event=200)  # 200 s before start
        with caplog.at_level("WARNING"):
            assert sample_grounding_pairs(replay, feats, rng) == []
        assert "outside" in caplog.text

    def test_window_clipped_at_zero(self, rng):
        feats = make_features(T=300, D=8)
        replay = _replay(start=40, end=50, event=20)
        pairs = sample_grounding_pairs(replay, feats, rng)
        assert any(label == 1 for _, label, _ in pairs)  # [0, 40] admits chunks holding t=20

    def test_replay_clip_truncated_to_30s(self):
        feats = make_features(T=400, D=8)
        X = _pair_sequences([feats.data], [0, 0], [100, 150], np.array([[200, 280]]),
                            feats.data.dtype, None)
        assert X.shape == (2, 60, 8)
        np.testing.assert_array_equal(X[:, :30], [feats.data[100:130], feats.data[150:180]])
        np.testing.assert_array_equal(X[:, 30:], [feats.data[200:230]] * 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pair_sequences_match_stacked_windows(self, dtype):
        rng = np.random.default_rng(4)
        datas = [rng.normal(size=(T, 5)).astype(dtype) for T in (150, 90)]
        # one replay of each half runs past its end too, and the last is over 30 s long
        intervals = np.array([(140, 175), (60, 70), (85, 100), (20, 95)])
        halves = [0, 0, 1, 1]  # the half of each replay
        # the replays interleave; starts 131, 149, 150 (half 0) and 65, 89 (half 1) run
        # past their half's end
        which = [0, 2, 1, 0, 2, 0, 1, 2, 0, 3]
        starts = [0, 0, 7, 120, 65, 131, 149, 89, 150, 40]
        X = _pair_sequences([datas[h] for h in halves], which, starts, intervals, dtype, None)
        want = np.stack([_want_pair(datas[halves[r]], cs, *intervals[r])
                         for r, cs in zip(which, starts)])
        assert X.dtype == want.dtype == dtype
        np.testing.assert_array_equal(X, want)

    def test_pair_sequences_in_a_reused_workspace(self):
        """Gathered into a workspace whose "batch" buffer holds NaN from an
        earlier use, the sequences view that buffer and match a fresh gather."""
        rng = np.random.default_rng(5)
        datas = [rng.normal(size=(120, 4)).astype(np.float32)]
        intervals = np.array([(100, 112)])
        which, starts = [0, 0, 0], [95, 10, 60]
        fresh = _pair_sequences(datas, which, starts, intervals, np.float32, None)
        ws = Workspace()
        ws.array("batch", (2 * len(starts), 30, 4), np.float32)[:] = np.nan
        got = _pair_sequences(datas, which, starts, intervals, np.float32, ws)
        assert np.shares_memory(got, ws.array("batch", (2 * len(starts), 30, 4), np.float32))
        assert got.tobytes() == fresh.tobytes()

    def test_training_epoch_matches_stacked_windows(self, monkeypatch):
        """The first epoch, gathered by the training step as one shuffled
        batch, against the same draws built from explicit slices; one
        replay's candidates run past its half's end, and one replay is
        longer than its 30 s clip. Noisy halves, so that no row the clips
        zero past a replay's end is zero already."""
        import copy

        import spotground.grounding as grounding

        halves = _grounding_halves(n_halves=2, sigma=0.25)
        short = make_features(T=150, D=16, game_id="short", seed=5)
        halves.append(GameHalf(short, [], [ReplayAnnotation("short", 1, 175, 185, 148, "Goal")]))
        long = make_features(T=300, D=16, game_id="long", seed=6)
        halves.append(GameHalf(long, [], [ReplayAnnotation("long", 1, 100, 150, 80, "Goal")]))
        seen = {}

        def first_batch(model, spec, rng, epoch_data, step):
            seen["rng"] = copy.deepcopy(rng)
            seen["data"] = data = epoch_data()
            seen["perm"] = perm = np.random.default_rng(0).permutation(len(data[0]))
            step(*(a[perm] for a in data))

        def forward(params, config, x, **kwargs):
            seen["x"] = x
            return encoder_forward_batch(params, config, x, **kwargs)

        monkeypatch.setattr(grounding, "fit", first_batch)
        monkeypatch.setattr(grounding, "encoder_forward_batch", forward)
        spec = TrainSpec(epochs=1, seed=3)
        train_grounding(halves, spec, config=_config())
        X, perm = seen["x"], seen["perm"]
        _, _, labels, offsets = seen["data"]
        rng = seen["rng"]
        windows, want_labels, want_offsets, overrun = [], [], [], False
        for gh in halves:
            for rp in gh.replays:
                for cs, label, off in sample_grounding_pairs(rp, gh.features, rng):
                    overrun |= cs + 30 > gh.features.duration_s
                    windows.append(_want_pair(gh.features.data, cs, rp.replay_start_s,
                                              rp.replay_end_s))
                    want_labels.append(label)
                    want_offsets.append(off)
        assert overrun
        np.testing.assert_array_equal(X, np.stack(windows)[perm])
        np.testing.assert_array_equal(labels, want_labels)
        np.testing.assert_array_equal(offsets, want_offsets)
        assert X.dtype == np.float32 and labels.dtype == offsets.dtype == np.float64


class TestGroundForward:
    def test_zero_weights_probability_half(self):
        model = _zero_ground_model()
        feats = make_features(T=400, D=8)
        query = ReplayQuery("g0", 1, 200, 210)
        preds = infer_grounding(model, query, feats, stride_s=5)
        assert preds
        # probability sigmoid(0) and offset 0: each time is its chunk's start
        assert all(p.confidence == 0.5 for p in preds)
        assert [p.time_s for p in preds] == list(range(80, 171, 5))

    def test_eval_determinism(self):
        config = _config(8)
        model = Model(KIND_GROUNDING, config, [],
                      init_encoder_params(config, np.random.default_rng(1)))
        feats = make_features(T=400, D=8, seed=3)
        query = ReplayQuery("g0", 1, 200, 210)
        assert infer_grounding(model, query, feats) == infer_grounding(model, query, feats)


def _logit(p):
    return np.log(p / (1.0 - p))


class TestGroundLoss:
    """bce_plus_l2 on (logit, offset) rows, as the grounding head emits them."""

    def test_bce_at_half_with_exact_offset(self):
        loss, _ = bce_plus_l2(np.array([[0.0, 0.4]]), [1.0], [0.4])
        assert loss == pytest.approx(np.log(2.0))

    def test_negative_ignores_offset(self):
        loss, dout = bce_plus_l2(np.array([[0.0, 99.0]]), [0.0], [0.0])
        assert loss == pytest.approx(np.log(2.0))
        assert dout[0, 1] == 0.0

    def test_clamped_at_extremes(self):
        # sigmoid(+-40) lies within 1e-17 of 1 and 0, far inside the clamp
        high, d_high = bce_plus_l2(np.array([[40.0, 0.0]]), [0.0], [0.0])
        low, d_low = bce_plus_l2(np.array([[-40.0, 0.0]]), [0.0], [0.0])
        assert np.isfinite(high)
        assert low == pytest.approx(0.0, abs=1e-6)
        assert d_high[0, 0] == d_low[0, 0] == 0.0  # flat where clamped

    def test_nonnegative_and_zero_at_exact(self):
        loss, _ = bce_plus_l2(np.array([[_logit(1.0 - 1e-7), 0.7]]), [1.0], [0.7])
        assert loss == pytest.approx(0.0, abs=1e-6)
        for prob in (0.1, 0.5, 0.9):
            for off in (0.0, 0.7, 1.0):
                loss, _ = bce_plus_l2(np.array([[_logit(prob), off]]), [1.0], [0.7])
                assert loss >= 0.0


def _grounding_halves(seed=21, n_halves=4, sigma=0.0):
    cfg = SynthConfig(duration_s=1100, feature_dim=16, num_classes=2, events_per_class=3,
                      noise_sigma=sigma, min_gap_s=130, edge_margin_s=120,
                      num_halves=n_halves, with_replays=True, replay_delay_min_s=10,
                      replay_delay_max_s=110, replay_duration_s=8)
    return [GameHalf(f, e, r) for f, e, r in synth_dataset(cfg, seed=seed)]


@pytest.fixture(scope="module")
def trained_grounding():
    """One noiseless training run shared by the behavioural tests."""
    halves = _grounding_halves()
    spec = TrainSpec(lr=5e-4, epochs=20, batch_size=16, seed=2)
    model = train_grounding(halves, spec, config=_config())
    return halves, model


class TestTrainGrounding:
    def test_loss_decreases_on_synthetic_replays(self, trained_grounding):
        halves, model = trained_grounding
        assert sum(len(gh.replays) for gh in halves) >= 20
        losses = [h["train_loss"] for h in model.history]
        assert losses[9] < losses[0]
        assert losses[-1] < 0.1
        assert {a.dtype for a in float_arrays(model.params)} == {np.dtype(np.float32)}

    def test_trained_probabilities_separate(self, trained_grounding, rng):
        halves, model = trained_grounding
        X, labels = [], []
        for gh in halves:
            for rp in gh.replays:
                pairs = sample_grounding_pairs(rp, gh.features, rng)
                X.append(_pair_sequences([gh.features.data], [0] * len(pairs),
                                         [cs for cs, _, _ in pairs],
                                         np.array([[rp.replay_start_s, rp.replay_end_s]]),
                                         gh.features.data.dtype, None))
                labels.extend(label for _, label, _ in pairs)
        X, labels = np.concatenate(X), np.array(labels)
        seg = np.repeat([[0] * 30 + [1] * 30], len(X), axis=0)  # candidate, replay
        out, _ = encoder_forward_batch(model.params, model.config, X, segments=seg)
        probs = sigmoid(out[:, 0])
        assert probs[labels == 1].mean() > 0.8
        assert probs[labels == 0].mean() < 0.2

    def test_top_prediction_within_5s_of_event(self, trained_grounding):
        halves, model = trained_grounding
        for gh in halves:
            for rp in gh.replays:
                query = ReplayQuery(rp.game_id, rp.half, rp.replay_start_s,
                                    rp.replay_end_s)
                preds = infer_grounding(model, query, gh.features, stride_s=10)
                top = max(preds, key=lambda p: p.confidence)
                assert abs(top.time_s - rp.event_time_s) <= 5

    def test_seed_determinism(self, tmp_path):
        from spotground.checkpoint import save_model

        halves = _grounding_halves(n_halves=2)
        spec = TrainSpec(lr=2e-4, epochs=2, batch_size=16, seed=9)
        config = _config(dropout_p=0.1)
        paths = []
        for name in ("a", "b"):
            model = train_grounding(halves, spec, config=config)
            path = tmp_path / f"{name}.sgckpt"
            save_model(path, model)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_default_hyperparameters(self):
        from spotground.cli import GROUND_TRAIN_DEFAULTS

        assert GROUND_TRAIN_DEFAULTS["lr"] == 2e-4
        assert GROUND_TRAIN_DEFAULTS["epochs"] == 40


class TestTrainingMemory:
    def test_epoch_peak_is_below_one_stack_of_the_replay_clips(self):
        """One epoch on 8 x 2700 s halves at D=256 with 128 replays gathers
        each batch's replay clips with its candidates: its peak stays below
        the bytes of every replay's (30, D) clip stacked."""
        cfg = SynthConfig(duration_s=2700, feature_dim=256, num_classes=2, events_per_class=8,
                          noise_sigma=0.25, min_gap_s=130, edge_margin_s=120, num_halves=8,
                          with_replays=True, replay_delay_min_s=10, replay_delay_max_s=110,
                          replay_duration_s=8)
        halves = [GameHalf(f, e, r) for f, e, r in synth_dataset(cfg, seed=3)]
        replays = sum(len(gh.replays) for gh in halves)
        assert replays == 128
        spec = TrainSpec(lr=1e-3, epochs=1, batch_size=8, seed=1)
        config = EncoderConfig(input_dim=256, output_dim=2, model_dim=16, num_layers=1,
                               num_heads=2, hidden_dim=32, dropout_p=0.1, num_segments=2)
        tracemalloc.start()
        try:
            train_grounding(halves, spec, config=config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        clip_stack = replays * 30 * 256 * halves[0].features.data.itemsize
        assert peak < clip_stack, (peak, clip_stack)


class TestInferGrounding:
    def test_stride_five_gives_19_chunks(self):
        model = _zero_ground_model()
        feats = make_features(T=600, D=8)
        preds = infer_grounding(model, ReplayQuery("g0", 1, 300, 310), feats, stride_s=5)
        assert len(preds) == 19

    def test_times_inside_chunk_bounds(self, rng):
        config = _config(8)
        model = Model(KIND_GROUNDING, config, [],
                      init_encoder_params(config, np.random.default_rng(2)))
        feats = make_features(T=600, D=8)
        preds = infer_grounding(model, ReplayQuery("g0", 1, 300, 310), feats, stride_s=5)
        starts = range(180, 271, 5)
        for cs, p in zip(starts, preds):
            assert cs <= p.time_s <= cs + 30

    def test_empty_window(self):
        model = _zero_ground_model()
        feats = make_features(T=100, D=8)
        assert infer_grounding(model, ReplayQuery("g0", 1, 10, 20), feats) == []


class TestFilter:
    def test_threshold_100(self):
        preds = [GroundingPrediction(t, 0.5) for t in (90, 150, 210)]
        kept = filter_predictions(preds, 200, 100)
        assert [p.time_s for p in kept] == [150]

    def test_threshold_120_keeps_90(self):
        preds = [GroundingPrediction(t, 0.5) for t in (90, 150, 210)]
        kept = filter_predictions(preds, 200, 120)
        assert [p.time_s for p in kept] == [90, 150]

    def test_empty(self):
        assert filter_predictions([], 100, 100) == []

    def test_subset_and_idempotent(self, rng):
        preds = [GroundingPrediction(int(t), 0.5)
                 for t in rng.integers(0, 400, 60)]
        once = filter_predictions(preds, 250, 100)
        assert set(p.time_s for p in once) <= set(p.time_s for p in preds)
        assert filter_predictions(once, 250, 100) == once


def _spot(t, conf, label="Goal", game="g", half=1):
    return SpotPrediction(game, half, t, {"Goal": 2, "Foul": 10,
                                          "Shots-off target": 6,
                                          "Corner": 13}[label], label, conf)


def _columns(spots):
    return SpotCandidates.from_predictions("g", spots)


def _fuse_oracle(spots, T, W, S, b1, b2, allowed):
    eligible = [p for p in spots
                if p.label in allowed and p.confidence > S and T - W <= p.time_s <= T]
    eligible = sorted(eligible,
                      key=lambda p: (abs(T - p.time_s), p.time_s, -p.confidence,
                                     p.class_index))
    out = []
    for p, b in zip(eligible[:2], (b1, b2)):
        out.append((p.time_s, min(max(b * p.confidence, 0.0), 1.0)))
    return out


class TestFusion:
    def test_worked_example(self):
        T = 500
        spots = [_spot(T - 10, 0.4, "Goal"), _spot(T - 30, 0.6, "Foul")]
        out = fuse_with_spotting(_columns(spots), T)
        assert [(p.time_s, p.confidence) for p in out] == [
            (T - 10, 0.5),
            (T - 30, pytest.approx(0.48)),
        ]

    def test_defaults(self):
        import inspect

        sig = inspect.signature(fuse_with_spotting)
        assert sig.parameters["W"].default == 42
        assert sig.parameters["S"].default == 0.02
        assert sig.parameters["beta1"].default == 1.25
        assert sig.parameters["beta2"].default == 0.8

    def test_label_and_score_filtering(self):
        T = 100
        spots = [
            _spot(T - 5, 0.9, "Corner"),  # label not allowed
            _spot(T - 6, 0.01, "Goal"),  # below S
            _spot(T - 50, 0.9, "Goal"),  # outside [T-42, T]
        ]
        assert fuse_with_spotting(_columns(spots), T) == []

    def test_confidence_clamped(self):
        T = 100
        out = fuse_with_spotting(_columns([_spot(T - 1, 0.9, "Goal")]), T)
        assert out[0].confidence == 1.0  # 0.9 * 1.25 clamped

    def test_matches_exhaustive_oracle(self, rng):
        labels = ["Goal", "Foul", "Shots-off target", "Corner"]
        allowed = frozenset({"Foul", "Goal", "Shots-off target"})
        for _ in range(1000):
            T = int(rng.integers(50, 300))
            spots = [
                _spot(int(rng.integers(T - 60, T + 10)),
                      float(rng.integers(0, 101)) / 100.0,
                      labels[int(rng.integers(0, 4))])
                for _ in range(int(rng.integers(0, 12)))
            ]
            got = fuse_with_spotting(_columns(spots), T, 42, 0.02, 1.25, 0.8)
            assert [(p.time_s, p.confidence) for p in got] == _fuse_oracle(
                spots, T, 42, 0.02, 1.25, 0.8, allowed
            )

    def test_invariants(self, rng):
        for _ in range(200):
            T = int(rng.integers(50, 200))
            spots = [_spot(int(rng.integers(T - 60, T)), float(rng.random()), "Goal")
                     for _ in range(8)]
            out = fuse_with_spotting(_columns(spots), T)
            assert len(out) <= 2
            for p in out:
                assert T - 42 <= p.time_s <= T
                assert 0.0 <= p.confidence <= 1.0


def _merge_oracle(a, b, window):
    def norm(preds):
        if not preds:
            return []
        confs = [p.confidence for p in preds]
        lo, hi = min(confs), max(confs)
        if hi == lo:
            return [(p.time_s, 1.0) for p in preds]
        return [(p.time_s, (p.confidence - lo) / (hi - lo)) for p in preds]

    pool = norm(a) + norm(b)
    kept = []
    while pool:
        best = max(pool, key=lambda e: (e[1], -e[0]))
        kept.append(best)
        pool = [e for e in pool if abs(e[0] - best[0]) > window]
    return sorted(kept)


class TestMergeNms:
    def test_minmax(self):
        assert minmax_normalize([0.2, 0.6]) == [0.0, 1.0]
        assert minmax_normalize([0.7]) == [1.0]
        assert minmax_normalize([0.3, 0.3]) == [1.0, 1.0]
        assert minmax_normalize([]) == []

    def test_close_pair_keeps_higher(self):
        a = [GroundingPrediction(100, 0.9), GroundingPrediction(50, 0.2)]
        b = [GroundingPrediction(110, 0.6), GroundingPrediction(40, 0.1)]
        out = merge_nms(a, b, 25)
        # after per-source normalization the two sources' tops are both 1.0;
        # 100 vs 110 are within 25 so one survives
        times = [p.time_s for p in out]
        assert 100 in times and 110 not in times

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(1000):
            a = [GroundingPrediction(int(rng.integers(0, 200)),
                                     float(rng.integers(0, 100)) / 100.0)
                 for _ in range(int(rng.integers(0, 25)))]
            b = [GroundingPrediction(int(rng.integers(0, 200)),
                                     float(rng.integers(0, 100)) / 100.0)
                 for _ in range(int(rng.integers(0, 25)))]
            window = int(rng.integers(1, 40))
            got = [(p.time_s, p.confidence) for p in merge_nms(a, b, window)]
            assert got == pytest.approx(_merge_oracle(a, b, window))

    def test_survivor_gaps(self, rng):
        a = [GroundingPrediction(int(t), float(c) / 100.0)
             for t, c in zip(rng.integers(0, 300, 30), rng.integers(0, 100, 30))]
        out = merge_nms(a, [], 25)
        times = sorted(p.time_s for p in out)
        assert all(b - t > 25 for t, b in zip(times, times[1:]))
