import tracemalloc

import numpy as np
import pytest

from conftest import float_arrays, make_event, make_features, padded_window
from spotground.checkpoint import KIND_SPOT_NETVLAD, KIND_SPOT_TRANSFORMER, Model
from spotground.checkpoint import load_model, save_model
from spotground.data import GameHalf
from spotground.errors import NumericError, ParseError, ShapeError
from spotground.grounding import train_grounding
from spotground.nn import (
    AdamState,
    EncoderConfig,
    Workspace,
    cross_entropy_soft,
    encoder_forward_batch,
    grad_check,
    init_encoder_params,
    softmax,
)
from spotground.spotting import (
    NetVLADConfig,
    SpotPrediction,
    TrainSpec,
    _chunk_samples,
    _eval_loss,
    _row_backward,
    default_spot_epochs,
    default_spot_lr,
    fit,
    init_netvlad_params,
    make_chunks,
    mixup,
    netvlad_backward,
    netvlad_forward_batch,
    nms_1d,
    score_series,
    select_predictions,
    spot_game,
    train_spotting,
    training_model,
)
from spotground.synth import SynthConfig, synth_dataset
from spotground.vocab import BACKGROUND_INDEX, DEFAULT_VOCAB


def _zero_transformer_model(input_dim=6):
    config = EncoderConfig(input_dim=input_dim, output_dim=18, model_dim=8, num_layers=1,
                           num_heads=1, hidden_dim=8, dropout_p=0.0)
    from spotground.nn import init_encoder_params

    params = {k: np.zeros_like(v)
              for k, v in init_encoder_params(config, np.random.default_rng(0)).items()}
    return Model(KIND_SPOT_TRANSFORMER, config, list(DEFAULT_VOCAB), params)


class TestMakeChunks:
    def test_tiling_count_and_padding(self):
        feats = make_features(T=100, D=4)
        assert make_chunks(feats, [], 7).shape == (15, 18)
        which, starts, _, windows = _chunk_samples([GameHalf(feats)], 7, DEFAULT_VOCAB)
        X = windows(which, starts)
        assert X.shape == (15, 7, 4)
        assert np.all(X[-1, 2:] == 0.0)  # rows 100..104 padded

    def test_event_labels_chunk(self):
        feats = make_features(T=50, D=4)
        targets = make_chunks(feats, [make_event(10, "Goal")], 7)
        assert targets[1, DEFAULT_VOCAB.index("Goal")] == 1.0  # chunk [7, 14)

    def test_tie_breaks_to_earlier_event(self):
        feats = make_features(T=50, D=4)
        events = [make_event(8, "Foul"), make_event(13, "Goal")]
        for ordering in (events, events[::-1]):
            targets = make_chunks(feats, ordering, 7)
            # chunk [7, 14): center 10.5, both events 2.5 s away
            assert targets[1, DEFAULT_VOCAB.index("Foul")] == 1.0

    def test_partition_property(self):
        feats = make_features(T=101, D=3)
        which, starts, Y, windows = _chunk_samples([GameHalf(feats)], 7, DEFAULT_VOCAB)
        X = windows(which, starts)
        assert len(X) == len(Y) == len(range(0, 105, 7))
        np.testing.assert_array_equal(X.reshape(-1, 3)[:101], feats.data)

    def test_background_default(self):
        feats = make_features(T=20, D=4)
        assert np.all(make_chunks(feats, [], 5)[:, BACKGROUND_INDEX] == 1.0)

    @pytest.mark.parametrize("dtypes", [[np.float32] * 4, [np.float64] * 4,
                                        [np.float32, np.float64, np.float32, np.float32]])
    def test_chunk_samples_match_stacked_windows(self, dtypes):
        lengths, L = (101, 13, 50, 7), 7  # one T below L, one a multiple of it
        rng = np.random.default_rng(3)
        halves = [GameHalf(make_features(game_id=f"g{i}",
                                         data=rng.normal(size=(T, 5)).astype(dtype)),
                           [make_event(int(T * 0.6), "Goal", game_id=f"g{i}")])
                  for i, (T, dtype) in enumerate(zip(lengths, dtypes))]
        which, starts, Y, windows = _chunk_samples(halves, L, DEFAULT_VOCAB)
        want_x = np.stack([padded_window(gh.features.data, start, L)
                           for gh in halves for start in range(0, gh.features.duration_s, L)])
        want_y = np.concatenate([make_chunks(gh.features, gh.events, L) for gh in halves])
        assert len(which) == len(starts) == len(want_x) == 15 + 2 + 8 + 1
        np.testing.assert_array_equal(Y, want_y)
        # batches gather in any order, each in the dtype of all the halves
        perm = rng.permutation(len(Y))
        for lo in range(0, len(perm), 6):
            idx = perm[lo : lo + 6]
            X = windows(which[idx], starts[idx])
            assert X.dtype == np.result_type(*dtypes)
            np.testing.assert_array_equal(X, want_x[idx])


class _FixedDraws:
    """Stands in for the generator: a fixed partner permutation and lam."""

    def __init__(self, partner, lam):
        self.partner, self.lam = np.asarray(partner), lam

    def permutation(self, n):
        assert n == len(self.partner)
        return self.partner

    def beta(self, a, b, size):
        return np.full(size, self.lam)


class TestMixup:
    @staticmethod
    def _batch(classes, seed=0, width=4):
        x = np.random.default_rng(seed).normal(size=(len(classes), 7, width))
        y = np.zeros((len(classes), 18))
        y[np.arange(len(classes)), classes] = 1.0
        return x, y

    def test_lambda_one_returns_first(self):
        x, y = self._batch([2, 5, 9])
        xm, ym = mixup(x, y, 0.5, _FixedDraws([2, 0, 1], 1.0))
        np.testing.assert_array_equal(xm, x)
        np.testing.assert_array_equal(ym, y)

    def test_half_mix(self):
        x, y = self._batch([2, 5])
        xm, ym = mixup(x, y, 0.5, _FixedDraws([1, 0], 0.5))
        assert ym[0, 2] == 0.5 and ym[0, 5] == 0.5
        np.testing.assert_allclose(xm[0], 0.5 * (x[0] + x[1]), atol=1e-15)
        np.testing.assert_array_equal(xm[0], xm[1])

    def test_simplex_preserved_over_draws(self, rng):
        x, y = self._batch([3, 9, 17, 0])
        for _ in range(250):
            xm, ym = mixup(x, y, 0.2, rng)
            assert xm.shape == x.shape
            assert ym.min() >= 0.0
            np.testing.assert_allclose(ym.sum(axis=1), 1.0)

    def test_shape_mismatch(self, rng):
        x, y = self._batch([0, 1, 2])
        with pytest.raises(ShapeError):
            mixup(x, y[:2], 0.2, rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [4, 4096])  # 4096: a block holds two samples
    def test_a_reused_workspace_keeps_the_arithmetic(self, dtype, width):
        """Bit-equal to lam * x + (1 - lam) * x[partner] from the same draws."""
        ws = Workspace()
        for seed, n in enumerate((6, 2, 6, 5)):
            x, y = self._batch(list(range(n)), seed, width)
            x = x.astype(dtype)
            xm, ym = mixup(x, y, 0.2, np.random.default_rng(seed), ws)
            draws = np.random.default_rng(seed)
            partner = draws.permutation(n)
            lam = draws.beta(0.2, 0.2, size=(n, 1)).astype(dtype)
            want = lam[:, :, None] * x + (1.0 - lam[:, :, None]) * x[partner]
            assert xm.dtype == dtype and xm.tobytes() == want.tobytes()
            assert ym.tobytes() == (lam * y + (1.0 - lam) * y[partner]).tobytes()


class TestSpotForward:
    def test_zero_weights_uniform(self):
        model = _zero_transformer_model()
        probs = score_series(model, make_features(T=20, D=6), 7)
        np.testing.assert_allclose(probs, np.full((20, 18), 1 / 18), atol=1e-12)

    def test_sums_to_one(self):
        config = EncoderConfig(input_dim=6, output_dim=18, model_dim=16, num_layers=2,
                               num_heads=2, hidden_dim=16, dropout_p=0.0)
        model = Model(KIND_SPOT_TRANSFORMER, config, list(DEFAULT_VOCAB),
                      init_encoder_params(config, np.random.default_rng(1)))
        probs = score_series(model, make_features(T=70, D=6), 9)  # two batches
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert probs.min() >= 0.0


class TestNetVLAD:
    def test_k1_reduces_to_mean_residual_direction(self, rng):
        config = NetVLADConfig(input_dim=5, clusters=1)
        params = init_netvlad_params(config, np.random.default_rng(2))
        x = rng.normal(size=(3, 8, 5))
        _, cache = netvlad_forward_batch(params, config, x)
        for i, (half_key, rows) in enumerate((("past", x[:, :4]), ("future", x[:, 4:]))):
            centers = params[f"vlad.{half_key}.centers"]
            expected = rows.mean(axis=1) - centers[0]  # assignments are all 1 for k=1
            expected /= np.linalg.norm(expected, axis=1, keepdims=True)
            got = _normalised_rows(cache)[:, i, 0, :]
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_identical_frames_symmetric_descriptors(self, rng):
        config = NetVLADConfig(input_dim=4, clusters=3)
        params = init_netvlad_params(config, np.random.default_rng(3))
        for name in ("assign_w", "assign_b", "centers"):
            params[f"vlad.future.{name}"] = params[f"vlad.past.{name}"].copy()
        frame = rng.normal(size=4)
        x = np.tile(frame, (1, 6, 1))
        _, cache = netvlad_forward_batch(params, config, x)
        np.testing.assert_allclose(cache["vlad"][:, 0], cache["vlad"][:, 1], atol=1e-12)

    def test_descriptor_unit_norm(self, rng):
        """The logits are those of the unit-norm descriptor, which the
        forward folds into the output product instead of forming."""
        config = NetVLADConfig(input_dim=6, clusters=4)
        params = init_netvlad_params(config, np.random.default_rng(4))
        x = rng.normal(size=(5, 10, 6))
        logits, cache = netvlad_forward_batch(params, config, x)
        out_desc = _normalised_rows(cache).reshape(5, -1) / cache["scale"]
        np.testing.assert_allclose(np.linalg.norm(out_desc, axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(logits, out_desc @ params["vlad.out.w"] + params["vlad.out.b"],
                                   rtol=1e-12, atol=1e-15)

    def test_odd_length_rejected(self, rng):
        config = NetVLADConfig(input_dim=4, clusters=2)
        params = init_netvlad_params(config, np.random.default_rng(5))
        with pytest.raises(ShapeError):
            netvlad_forward_batch(params, config, rng.normal(size=(1, 7, 4)))

    def test_overflow_is_a_numeric_error(self, rng):
        config = NetVLADConfig(input_dim=4, clusters=2)
        params = init_netvlad_params(config, np.random.default_rng(5))
        params["vlad.past.assign_w"][:] = 1e308  # finite, but the assignment overflows
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="NetVLAD output"):
            netvlad_forward_batch(params, config, rng.normal(size=(2, 4, 4)))

    def test_gradients_match_finite_differences(self, rng):
        config = NetVLADConfig(input_dim=4, output_dim=5, clusters=3)
        params = init_netvlad_params(config, np.random.default_rng(6))
        x = rng.normal(size=(2, 6, 4))
        targets = np.zeros((2, 5))
        targets[[0, 1], [1, 4]] = 1.0
        from spotground.nn import cross_entropy_soft

        def loss_fn(p, want):
            logits, cache = netvlad_forward_batch(p, config, x)
            loss, dlogits = cross_entropy_soft(logits, targets)
            if not want:
                return loss, None
            return loss, netvlad_backward(cache, dlogits)

        assert grad_check(params, loss_fn, trials=60, rng=np.random.default_rng(7)) < 1e-5

    def test_normalize_backward_from_the_cached_output(self, rng):
        """The folded row terms give d(v / |v|): g - alpha v = (dy - y <y, dy>)
        / |v| with dy = dz W_k.T, and a zero row passes nothing."""
        config, params, x, _ = _netvlad_case(np.float64, zero_row=True)
        _, cache = netvlad_forward_batch(params, config, x)
        B, R, D = len(x), 2 * config.clusters, config.input_dim
        w = params["vlad.out.w"].reshape(R, D, -1)
        dz = rng.normal(size=(B, config.output_dim))
        _, g, alpha = _row_backward(cache["products"], cache["inv_norms"], dz, w, Workspace())
        v = cache["vlad"].reshape(B, R, D)
        got = g - alpha.T[:, :, None] * v
        y = _normalised_rows(cache).reshape(B, R, D)
        dy = np.einsum("bo,rdo->brd", dz, w)
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
        want = (dy - y * (y * dy).sum(axis=-1, keepdims=True)) / np.maximum(norms, 1e-300)
        want[norms[..., 0] == 0.0] = 0.0
        assert (norms == 0.0).sum() == 1 and not got[0, 0].any()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_step_stays_in_the_parameters_dtype(self, rng, dtype):
        from spotground.nn import adam_step, cross_entropy_soft

        config = NetVLADConfig(input_dim=6, output_dim=5, clusters=3)
        params = {k: v.astype(dtype)
                  for k, v in init_netvlad_params(config, np.random.default_rng(8)).items()}
        state = AdamState.for_params(params)
        x = rng.normal(size=(4, 8, 6)).astype(np.float32)
        targets = np.eye(5)[[0, 1, 2, 4]]
        x, targets = mixup(x, targets, 0.2, rng)
        logits, cache = netvlad_forward_batch(params, config, x)
        _, dlogits = cross_entropy_soft(logits, targets)
        grads = netvlad_backward(cache, dlogits)
        adam_step(params, grads, state, lr=1e-3)
        arrays = float_arrays([logits, cache, grads, params, state.m, state.v])
        assert len(arrays) > 30
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}


def _normalised_rows(cache):
    """The intra-normalised rows y = v / |v| (zero rows stay zero) of a
    forward's cache, from its raw rows and inverse norms."""
    vlad = cache["vlad"]
    return vlad * cache["inv_norms"].reshape(*vlad.shape[:3], 1)


def _reference_normalize(v):
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(norms > 0.0, norms, 1.0), norms


def _reference_normalize_backward(dy, y, norms):
    dv = y * np.einsum("...d,...d->...", y, dy)[..., None]
    np.subtract(dy, dv, out=dv)
    dv /= np.where(norms > 0.0, norms, np.inf)
    return dv


def _reference_netvlad(params, config, x, dlogits_of):
    """The NetVLAD forward and backward as first written: each half's
    normalised rows concatenated, the (B, 2KD) descriptor L2-normalised
    before the output product, and broadcast-and-sum reductions. Returns
    (logits, grads); dlogits_of(logits) gives d loss / d logits."""
    x = np.asarray(x, dtype=params["vlad.out.w"].dtype)
    half = x.shape[1] // 2
    recs, flats = [], []
    for prefix, xh in (("vlad.past.", x[:, :half]), ("vlad.future.", x[:, half:])):
        assign = softmax(xh @ params[prefix + "assign_w"] + params[prefix + "assign_b"])
        mass = assign.sum(axis=1)
        vlad = assign.transpose(0, 2, 1) @ xh - mass[:, :, None] * params[prefix + "centers"][None]
        normed, norms = _reference_normalize(vlad)
        recs.append((prefix, xh, assign, mass, normed, norms))
        flats.append(normed.reshape(len(x), -1))
    out_desc, desc_norms = _reference_normalize(np.concatenate(flats, axis=1))
    logits = out_desc @ params["vlad.out.w"] + params["vlad.out.b"]
    dlogits = dlogits_of(logits)
    grads = {"vlad.out.w": out_desc.T @ dlogits, "vlad.out.b": dlogits.sum(axis=0)}
    ddesc = _reference_normalize_backward(dlogits @ params["vlad.out.w"].T, out_desc, desc_norms)
    for j, (prefix, xh, assign, mass, normed, norms) in enumerate(recs):
        B, K, D = normed.shape
        dvlad = _reference_normalize_backward(
            ddesc[:, j * K * D : (j + 1) * K * D].reshape(B, K, D), normed, norms)
        centers = params[prefix + "centers"]
        grads[prefix + "centers"] = -(mass[:, :, None] * dvlad).sum(axis=0)
        dmass = -(dvlad * centers).sum(axis=-1)
        dassign = xh @ dvlad.transpose(0, 2, 1) + dmass[:, None, :]
        dl = assign * (dassign - (dassign * assign).sum(axis=-1, keepdims=True))
        grads[prefix + "assign_w"] = xh.reshape(-1, D).T @ dl.reshape(-1, K)
        grads[prefix + "assign_b"] = dl.sum(axis=(0, 1))
    return logits, grads


def _netvlad_case(dtype, B=6, L=8, D=40, K=3, seed=0, zero_row=False):
    """Parameters, input and targets; sample 0 and the centres are zero, so
    sample 0 has zero VLAD rows and a zero descriptor. With zero_row, only
    past centre 0 and sample 0's past frames are zero, so sample 0's first
    row is zero and its other rows, -mass_k c_k and the future's, are not."""
    config = NetVLADConfig(input_dim=D, output_dim=18, clusters=K)
    rng = np.random.default_rng(seed)
    params = {k: v.astype(dtype) for k, v in init_netvlad_params(config, rng).items()}
    params["vlad.out.b"][:] = rng.normal(size=18)
    x = rng.normal(size=(B, L, D)).astype(dtype)
    if zero_row:
        params["vlad.past.centers"][0] = 0.0
        x[0, : L // 2] = 0.0
    else:
        params["vlad.past.centers"][:] = params["vlad.future.centers"][:] = 0.0
        x[0] = 0.0
    return config, params, x, np.eye(18)[rng.integers(0, 18, B)]


def _netvlad_step(params, config, x, targets, workspace=None):
    logits, cache = netvlad_forward_batch(params, config, x, workspace)
    _, dlogits = cross_entropy_soft(logits, targets)
    return logits, netvlad_backward(cache, dlogits)


def _assert_float64_matches_reference(config, params, x, targets):
    """Logits and every gradient within 1e-12 of the oracle's; returns the logits."""
    logits, grads = _netvlad_step(params, config, x, targets)
    want_logits, want = _reference_netvlad(
        params, config, x, lambda lg: cross_entropy_soft(lg, targets)[1])
    assert _max_rel_diff(logits, want_logits) < 1e-12
    assert sorted(grads) == sorted(want)
    for name in want:
        assert grads[name].shape == want[name].shape, name
        assert _max_rel_diff(grads[name], want[name]) < 1e-12, name
    return logits


def _max_rel_diff(got, want) -> float:
    """Largest |got - want| over the largest |want| (itself if want is 0)."""
    want = np.asarray(want, dtype=np.float64)
    diff = float(np.abs(np.asarray(got, dtype=np.float64) - want).max())
    scale = float(np.abs(want).max())
    return diff / scale if scale else diff


class TestNetVLADAgainstReference:
    """The workspace forward and backward against the pre-workspace code."""

    @pytest.mark.parametrize("shape", [dict(), dict(B=1, L=2, D=5, K=1),  # B=1: all zero
                                       dict(B=2, L=2, D=5, K=1), dict(B=9, L=12, K=4)])
    def test_float64_logits_and_grads_match(self, shape):
        config, params, x, targets = _netvlad_case(np.float64, **shape)
        logits = _assert_float64_matches_reference(config, params, x, targets)
        # the zero sample: logits are the bias, and its VLAD rows pass nothing
        np.testing.assert_array_equal(logits[0], params["vlad.out.b"])

    def test_float64_zero_row_beside_non_zero_rows(self):
        """One zero row in a sample, where the norm is not differentiable:
        it adds nothing to the logits or any gradient, its sample's
        descriptor norm counts only the other rows, and no finite
        difference is taken."""
        config, params, x, targets = _netvlad_case(np.float64, zero_row=True)
        _, cache = netvlad_forward_batch(params, config, x)
        assert cache["inv_norms"][0, 0] == 0.0 and np.count_nonzero(cache["inv_norms"] == 0) == 1
        _assert_float64_matches_reference(config, params, x, targets)

    def test_float32_difference_is_pinned(self):
        config, params, x, targets = _netvlad_case(np.float32, B=32, D=256, K=4)
        logits, grads = _netvlad_step(params, config, x, targets)
        want_logits, want = _reference_netvlad(
            params, config, x, lambda lg: cross_entropy_soft(lg, targets)[1])
        assert _max_rel_diff(logits, want_logits) < 2e-6
        for name in want:
            assert grads[name].dtype == np.float32
            assert _max_rel_diff(grads[name], want[name]) < 5e-6, name

    def test_a_reused_workspace_gives_what_fresh_ones_give(self):
        ws = Workspace()
        for seed, B in enumerate((6, 2, 6)):  # full, partial, full
            config, params, x, targets = _netvlad_case(np.float32, B=B, seed=seed)
            logits, grads = _netvlad_step(params, config, x, targets, ws)
            fresh_logits, fresh = _netvlad_step(params, config, x, targets)
            assert logits.tobytes() == fresh_logits.tobytes()
            assert {k: v.tobytes() for k, v in grads.items()} == {
                k: v.tobytes() for k, v in fresh.items()}

    def test_a_warm_step_allocates_less_than_one_descriptor(self):
        config, params, x, targets = _netvlad_case(np.float32, B=16, L=8, D=512, K=4)
        ws = Workspace()
        _netvlad_step(params, config, x, targets, ws)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _netvlad_step(params, config, x, targets, ws)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 * 4 * 512 * 4, peak  # one (B, 2KD) float32 descriptor

    def test_only_the_raw_rows_and_g_are_descriptor_sized(self):
        """Neither the normalised rows nor their gradient is formed: a fresh
        workspace ends one step with two buffers of B * 2K * D elements."""
        config, params, x, targets = _netvlad_case(np.float32)
        B, _, D = x.shape
        ws = Workspace()
        _netvlad_step(params, config, x, targets, ws)
        sized = sorted(name for (name, _), flat in ws._flat.items()
                       if flat.size == B * 2 * config.clusters * D)
        assert sized == ["vlad", "vlad.g"]


def _brute_force_nms(preds, window_s):
    """Repeated max-scan greedy suppression, the transparent oracle."""
    remaining = list(preds)
    kept = []
    while remaining:
        best = remaining[0]
        for p in remaining[1:]:
            if (p.confidence, -p.time_s) > (best.confidence, -best.time_s):
                best = p
        kept.append(best)
        remaining = [
            p
            for p in remaining
            if not (
                p.game_id == best.game_id
                and p.half == best.half
                and p.class_index == best.class_index
                and abs(p.time_s - best.time_s) <= window_s
            )
        ]
    return sorted(kept, key=lambda p: (p.game_id, p.half, p.time_s, p.class_index))


def _random_preds(rng, n, classes=3, t_max=120):
    preds = []
    for _ in range(n):
        preds.append(
            SpotPrediction(
                "g", 1, int(rng.integers(0, t_max)), int(rng.integers(0, classes)),
                DEFAULT_VOCAB[int(rng.integers(0, classes))],
                float(rng.integers(1, 1000)) / 1000.0,
            )
        )
    return preds


class TestNms:
    def test_window_keeps_far_apart(self):
        preds = [
            SpotPrediction("g", 1, 10, 0, "Penalty", 0.9),
            SpotPrediction("g", 1, 15, 0, "Penalty", 0.8),
            SpotPrediction("g", 1, 40, 0, "Penalty", 0.7),
        ]
        kept = nms_1d(preds, 20)
        assert [(p.time_s, p.confidence) for p in kept] == [(10, 0.9), (40, 0.7)]

    def test_empty(self):
        assert nms_1d([], 20) == []

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(300):
            preds = _random_preds(rng, int(rng.integers(0, 50)))
            window = int(rng.integers(1, 40))
            assert nms_1d(preds, window) == _brute_force_nms(preds, window)
        for _ in range(100):  # window 0 suppresses only same-second duplicates
            preds = _random_preds(rng, int(rng.integers(0, 50)), t_max=20)
            assert nms_1d(preds, 0) == _brute_force_nms(preds, 0)
        for window in (0, 1, 3, 10):  # tie-heavy: few times, three confidences
            preds = [
                SpotPrediction("g", 1, int(t), int(c), DEFAULT_VOCAB[int(c)], conf)
                for t, c, conf in zip(rng.integers(0, 15, 200), rng.integers(0, 2, 200),
                                      rng.choice([0.25, 0.5, 0.75], 200))
            ]
            assert nms_1d(preds, window) == _brute_force_nms(preds, window)

    def test_selection_matches_brute_force_oracle(self, rng):
        # the array path `spot infer` runs, from a score series with tied scores
        for _ in range(200):
            probs = rng.integers(0, 8, (int(rng.integers(1, 60)), 18)) / 8.0
            window = int(rng.integers(0, 30))
            candidates = [
                SpotPrediction("g", 2, t, c, DEFAULT_VOCAB[c], float(probs[t, c]))
                for t in range(len(probs)) for c in range(BACKGROUND_INDEX) if probs[t, c] >= 0.5
            ]
            got = select_predictions(probs, "g", 2, DEFAULT_VOCAB, 0.5, window)
            assert got == _brute_force_nms(candidates, window)

    def test_survivor_gaps_exceed_window(self, rng):
        for _ in range(50):
            preds = _random_preds(rng, 30)
            window = int(rng.integers(1, 30))
            kept = nms_1d(preds, window)
            by_class = {}
            for p in kept:
                by_class.setdefault(p.class_index, []).append(p.time_s)
            for times in by_class.values():
                times.sort()
                assert all(b - a > window for a, b in zip(times, times[1:]))


def _tiny_halves(seed=11, sigma=0.0, halves=2):
    cfg = SynthConfig(duration_s=200, feature_dim=16, num_classes=2, events_per_class=3,
                      noise_sigma=sigma, min_gap_s=25, num_halves=halves)
    return [GameHalf(f, e, r) for f, e, r in synth_dataset(cfg, seed=seed)]


@pytest.fixture(scope="module")
def trained_two_class():
    """Noiseless two-class training shared by the behavioural tests."""
    halves = _tiny_halves(seed=13)
    spec = TrainSpec(lr=1e-3, epochs=25, batch_size=8, seed=4)
    config = EncoderConfig(input_dim=16, output_dim=18, model_dim=16, num_layers=1,
                           num_heads=2, hidden_dim=32, dropout_p=0.0)
    model = train_spotting(halves, [], spec, config, chunk_size_s=7, mixup_alpha=0.0)
    return halves, spec, model


class TestTraining:
    def test_default_hyperparameters(self):
        assert default_spot_lr("transformer") == 5e-4
        assert default_spot_epochs("transformer") == 50
        assert default_spot_lr("netvlad") == 1e-4
        assert default_spot_epochs("netvlad") == 40

    def test_loss_decreases(self, trained_two_class):
        _, _, model = trained_two_class
        losses = [h["train_loss"] for h in model.history]
        assert losses[9] < losses[0]

    def test_event_chunk_argmax_recovers_planted_class(self, trained_two_class):
        halves, _, model = trained_two_class
        which, starts, Y, windows = _chunk_samples(halves, 7, DEFAULT_VOCAB)
        events = Y[:, BACKGROUND_INDEX] != 1.0
        assert events.sum() >= 10
        logits, _ = encoder_forward_batch(model.params, model.config,
                                          windows(which[events], starts[events]))
        hits = np.argmax(logits, axis=1) == np.argmax(Y[events], axis=1)
        assert hits.mean() >= 0.95

    def test_training_runs_in_float32_and_saves_f4(self, trained_two_class, tmp_path):
        _, _, model = trained_two_class
        assert {a.dtype for a in float_arrays(model.params)} == {np.dtype(np.float32)}
        save_model(tmp_path / "m.sgckpt", model)  # as <f4 tensors, read back as float32
        loaded = load_model(tmp_path / "m.sgckpt")
        assert {a.dtype for a in float_arrays(loaded.params)} == {np.dtype(np.float32)}

    def test_netvlad_loss_decreases(self):
        halves = _tiny_halves()
        spec = TrainSpec(lr=1e-3, epochs=8, batch_size=8, seed=2)
        config = NetVLADConfig(input_dim=16, clusters=4)
        model = train_spotting(halves, [], spec, config, chunk_size_s=8, mixup_alpha=0.0)
        assert model.kind == KIND_SPOT_NETVLAD
        assert {a.dtype for a in float_arrays(model.params)} == {np.dtype(np.float32)}
        assert model.history[-1]["train_loss"] < model.history[0]["train_loss"]

    def test_seed_determinism_bit_identical(self, tmp_path):
        from spotground.checkpoint import save_model

        halves = _tiny_halves()
        spec = TrainSpec(lr=1e-3, epochs=3, batch_size=8, seed=7)
        config = EncoderConfig(input_dim=16, output_dim=18, model_dim=16, num_layers=1,
                               num_heads=2, hidden_dim=32, dropout_p=0.1)
        paths = []
        for name in ("a", "b"):
            model = train_spotting(halves, [], spec, config, chunk_size_s=7, mixup_alpha=0.2)
            path = tmp_path / f"{name}.sgckpt"
            save_model(path, model)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_regular_mode_selects_best_validation(self):
        halves = _tiny_halves(halves=2)
        spec = TrainSpec(lr=1e-3, epochs=5, batch_size=8, seed=1)
        config = EncoderConfig(input_dim=16, output_dim=18, model_dim=16, num_layers=1,
                               num_heads=2, hidden_dim=32, dropout_p=0.0)
        model = train_spotting([halves[0]], [halves[1]], spec, config, chunk_size_s=7,
                               mixup_alpha=0.0)
        assert "valid_loss" in model.history[0]
        # returned parameters are the snapshot with the lowest validation loss
        valid = _chunk_samples([halves[1]], 7, DEFAULT_VOCAB)
        returned_loss = _eval_loss(model, *valid, spec.batch_size, Workspace())
        assert returned_loss == pytest.approx(
            min(h["valid_loss"] for h in model.history), abs=1e-12
        )

    def test_spec_rejects_non_positive_lr_and_negative_mixup(self):
        for bad in ({"lr": 0.0}, {"lr": -1e-3}, {"lr": float("nan")},
                    {"epochs": 0}, {"batch_size": 0}):
            with pytest.raises(ShapeError, match=next(iter(bad))):
                TrainSpec(**bad)
        for mixup_alpha in (-0.1, float("nan")):  # rejected before any chunk is cut
            with pytest.raises(ShapeError, match="mixup_alpha"):
                train_spotting([], [], TrainSpec(epochs=1), NetVLADConfig(input_dim=16),
                               chunk_size_s=8, mixup_alpha=mixup_alpha)

    def test_empty_dataset(self):
        spec = TrainSpec(epochs=1)
        with pytest.raises(ParseError):
            train_spotting([], [], spec, NetVLADConfig(input_dim=16), chunk_size_s=8,
                           mixup_alpha=0.0)

    def test_eval_loss_reuses_the_workspace(self):
        """A second validation pass in one workspace gathers and runs every
        batch in the buffers of the first: it allocates less than one
        gathered batch."""
        cfg = SynthConfig(duration_s=200, feature_dim=256, num_classes=2, events_per_class=3,
                          min_gap_s=25, num_halves=2)
        halves = [GameHalf(f, e, r) for f, e, r in synth_dataset(cfg, seed=5)]
        config = EncoderConfig(input_dim=256, output_dim=18, model_dim=16, num_layers=1,
                               num_heads=2, hidden_dim=32, dropout_p=0.0)
        model = training_model(KIND_SPOT_TRANSFORMER, config, DEFAULT_VOCAB,
                               init_encoder_params(config, np.random.default_rng(0)))
        samples = _chunk_samples(halves, 7, DEFAULT_VOCAB)
        batch_size, ws = 16, Workspace()
        first = _eval_loss(model, *samples, batch_size, ws)
        tracemalloc.start()
        try:
            second = _eval_loss(model, *samples, batch_size, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert second == first
        batch_bytes = batch_size * 7 * 256 * np.dtype(np.float32).itemsize
        assert peak < batch_bytes, (peak, batch_bytes)


class TestTrainingMemory:
    """Training gathers each batch from the loaded halves: no copy of the
    dataset's chunks or grounding pairs is built."""

    @pytest.fixture(scope="class")
    def halves(self):
        cfg = SynthConfig(duration_s=2200, feature_dim=256, num_classes=2, events_per_class=3,
                          noise_sigma=0.25, min_gap_s=130, edge_margin_s=120, num_halves=8,
                          with_replays=True, replay_delay_min_s=10, replay_delay_max_s=110,
                          replay_duration_s=8)
        return [GameHalf(f, e, r) for f, e, r in synth_dataset(cfg, seed=3)]

    @pytest.mark.parametrize("head", ["transformer", "netvlad", "grounding"])
    def test_training_peak_is_below_half_the_loaded_features(self, halves, head):
        spec = TrainSpec(lr=1e-3, epochs=1, batch_size=8, seed=1)
        small = dict(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, dropout_p=0.1)
        tracemalloc.start()
        try:
            if head == "grounding":
                train_grounding(halves, spec, config=EncoderConfig(
                    input_dim=256, output_dim=2, num_segments=2, **small))
            elif head == "netvlad":
                train_spotting(halves, [], spec, NetVLADConfig(input_dim=256, clusters=4),
                               chunk_size_s=8, mixup_alpha=0.2)
            else:
                config = EncoderConfig(input_dim=256, output_dim=18, **small)
                train_spotting(halves, [], spec, config, chunk_size_s=8, mixup_alpha=0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        loaded = sum(gh.features.data.nbytes for gh in halves)
        assert peak < 0.5 * loaded, (peak, loaded)


class TestFit:
    def test_epochs_visit_every_sample_once_and_average_the_loss(self):
        params = {"w": np.zeros(1)}
        model = Model(KIND_SPOT_TRANSFORMER, None, [], params)
        x = np.arange(10.0)
        seen = []

        def step(xb, yb):
            np.testing.assert_array_equal(yb, 2.0 * xb)  # arrays stay aligned
            seen.append(xb)
            return float(xb.mean()), {"w": np.ones(1)}

        spec = TrainSpec(lr=0.1, epochs=3, batch_size=4)
        fit(model, spec, np.random.default_rng(0), lambda: (x, 2.0 * x), step,
            lambda record: record.update(extra=len(seen)))
        assert len(seen) == 9  # 3 batches of <= 4, per epoch
        for e in range(3):
            np.testing.assert_array_equal(np.sort(np.concatenate(seen[3 * e : 3 * e + 3])), x)
        assert [h["epoch"] for h in model.history] == [0, 1, 2]
        for h in model.history:
            assert h["train_loss"] == pytest.approx(x.mean())
        assert [h["extra"] for h in model.history] == [3, 6, 9]
        assert [h["grad_norm"] for h in model.history] == [1.0, 1.0, 1.0]
        assert params["w"][0] < 0.0  # Adam stepped against the constant gradient


class TestSpotGame:
    def test_threshold_one_gives_empty(self, rng):
        model = _zero_transformer_model(input_dim=16)
        feats = make_features(T=60, D=16)
        assert spot_game(model, feats, 7, 20, threshold=1.0) == []

    def test_trained_model_localizes_noiseless_events(self):
        cfg = SynthConfig(duration_s=200, feature_dim=16, num_classes=1,
                          events_per_class=4, noise_sigma=0.0, min_gap_s=30,
                          num_halves=2)
        halves = [GameHalf(f, e, r) for f, e, r in synth_dataset(cfg, seed=13)]
        spec = TrainSpec(lr=1e-3, epochs=20, batch_size=8, seed=4)
        config = EncoderConfig(input_dim=16, output_dim=18, model_dim=16, num_layers=1,
                               num_heads=2, hidden_dim=32, dropout_p=0.0)
        model = train_spotting(halves, [], spec, config, chunk_size_s=7, mixup_alpha=0.0)
        for gh in halves:
            preds = spot_game(model, gh.features, 7, 20, threshold=0.05)
            assert len(preds) == len(gh.events)
            for ev in gh.events:
                close = [p for p in preds
                         if p.label == ev.label and abs(p.time_s - ev.time_s) <= 2]
                assert len(close) == 1

    def test_monotone_transform_invariance(self, rng):
        probs = rng.random((80, 18))
        base = select_predictions(probs, "g", 1, DEFAULT_VOCAB, 0.0, 15)
        key = [(p.time_s, p.class_index) for p in base]
        for transform in (np.sqrt, lambda s: s**3, lambda s: s / 2.0):
            alt = select_predictions(transform(probs), "g", 1, DEFAULT_VOCAB, 0.0, 15)
            assert [(p.time_s, p.class_index) for p in alt] == key

    def test_shorter_than_chunk_still_scores_every_second(self):
        model = _zero_transformer_model(input_dim=16)
        feats = make_features(T=3, D=16)
        probs = score_series(model, feats, 7)
        assert probs.shape == (3, 18)


def _window_reference(model, data, chunk):
    """Per-window probabilities: each window a zero-padded slice, centred
    on its second, and run through the full forward pass."""
    windows = np.stack([padded_window(data, t - chunk // 2, chunk) for t in range(len(data))])
    if model.kind == KIND_SPOT_TRANSFORMER:
        logits, _ = encoder_forward_batch(model.params, model.config, windows)
    else:
        logits, _ = netvlad_forward_batch(model.params, model.config, windows)
    return softmax(logits)


class TestScoreSeries:
    def test_transformer_matches_per_window_forward(self, tmp_path):
        config = EncoderConfig(input_dim=5, output_dim=18, model_dim=8, num_layers=2,
                               num_heads=2, hidden_dim=16, dropout_p=0.0)
        rng = np.random.default_rng(21)
        params = init_encoder_params(config, rng)
        for name in params:  # non-zero biases, so pad rows embed to a non-zero row
            if name.endswith((".b", ".bq", ".bv", ".bo", ".b1", ".b2")):
                params[name] = rng.normal(size=params[name].shape)
        path = tmp_path / "model.sgckpt"
        save_model(path, Model(KIND_SPOT_TRANSFORMER, config, list(DEFAULT_VOCAB), params))
        model = load_model(path)
        for T in (1, 3, 7, 50, 130):  # 130 s crosses two batch boundaries
            feats = make_features(T=T, D=5, seed=T)
            for chunk in (1, 2, 7, 8):
                probs = score_series(model, feats, chunk)
                np.testing.assert_allclose(probs, _window_reference(model, feats.data, chunk),
                                           rtol=0, atol=1e-12)

    def test_netvlad_matches_per_window_forward(self):
        config = NetVLADConfig(input_dim=4, clusters=3)
        params = init_netvlad_params(config, np.random.default_rng(22))
        model = Model(KIND_SPOT_NETVLAD, config, list(DEFAULT_VOCAB), params)
        for T in (1, 7, 50, 130):
            feats = make_features(T=T, D=4, seed=T)
            for chunk in (2, 8):
                probs = score_series(model, feats, chunk)
                np.testing.assert_allclose(probs, _window_reference(model, feats.data, chunk),
                                           rtol=0, atol=1e-12)

    def test_netvlad_scoring_allocates_less_than_one_copy_of_the_half(self):
        config = NetVLADConfig(input_dim=256, clusters=4)
        params = {k: v.astype(np.float32)
                  for k, v in init_netvlad_params(config, np.random.default_rng(23)).items()}
        model = Model(KIND_SPOT_NETVLAD, config, list(DEFAULT_VOCAB), params)
        feats = make_features(T=2700, D=256)
        tracemalloc.start()
        try:
            score_series(model, feats, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < feats.data.nbytes, peak

    def test_chunk_below_one_rejected(self):
        with pytest.raises(ShapeError):
            score_series(_zero_transformer_model(input_dim=16), make_features(T=5, D=16), 0)
