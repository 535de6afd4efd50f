import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import float_arrays
from spotground.errors import ConsistencyError, NumericError, ShapeError
from spotground import nn
from spotground.nn import (
    AdamState,
    EncoderConfig,
    Workspace,
    adam_step,
    bce_plus_l2,
    cross_entropy_soft,
    embed_input,
    encoder_backward,
    encoder_forward_batch,
    encoder_forward_embedded,
    grad_check,
    grounding_grad_check,
    init_encoder_params,
    positional_encoding,
    softmax,
    spotting_grad_check,
)
from spotground.spotting import mixup

SMALL = EncoderConfig(input_dim=6, output_dim=5, model_dim=16, num_layers=2,
                      num_heads=2, hidden_dim=24, dropout_p=0.0)


def _zero_params(config):
    rng = np.random.default_rng(0)
    return {k: np.zeros_like(v) for k, v in init_encoder_params(config, rng).items()}


class TestPositionalEncoding:
    def test_row_zero_alternates(self):
        pe = positional_encoding(3, 8)
        np.testing.assert_array_equal(pe[0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_scalar_values(self):
        pe = positional_encoding(4, 2)
        np.testing.assert_allclose(pe[1], [np.sin(1.0), np.cos(1.0)], atol=1e-12)
        np.testing.assert_allclose(pe[1], [0.84147, 0.54030], atol=1e-5)

    def test_range(self):
        pe = positional_encoding(512, 64)
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_odd_dim_rejected(self):
        with pytest.raises(ShapeError):
            positional_encoding(4, 3)


class TestPooledMean:
    """The encoder pools with a sum and a divide by the int T, bit-equal to
    np.mean, which divides the same sum in float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sum_then_divide_is_bit_equal_to_mean(self, dtype):
        rng = np.random.default_rng(0)
        for shape in [(64, 7, 16), (8, 60, 16), (32, 7, 64), (5, 13, 3), (4, 1, 8)] * 100:
            h = (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
            pooled = np.sum(h, axis=1)
            pooled /= shape[1]
            assert pooled.tobytes() == np.mean(h, axis=1).tobytes()

    @pytest.mark.parametrize("T", [1, 7, 60])
    def test_the_encoder_pools_the_mean_of_its_last_layer(self, T):
        params = {k: v.astype(np.float32)
                  for k, v in init_encoder_params(SMALL, np.random.default_rng(T)).items()}
        x = np.random.default_rng(T + 1).normal(size=(3, T, SMALL.input_dim)).astype(np.float32)
        _, cache = encoder_forward_batch(params, SMALL, x)
        last = SMALL.num_layers - 1
        xhat, _ = cache["layers"][last]["ln2"]
        h = xhat * params[f"layer{last}.ln2.g"]
        h += params[f"layer{last}.ln2.b"]  # the last layer norm's output, as it is computed
        assert cache["pooled"].tobytes() == np.mean(h, axis=1).tobytes()


class TestWorkspaceTables:
    def test_a_table_is_built_once_per_key(self):
        ws, built = Workspace(), []

        def build():
            built.append(1)
            return np.arange(3.0)

        first = ws.table(("t", 3), build)
        assert ws.table(("t", 3), build) is first and len(built) == 1
        ws.table(("t", 4), build)
        assert len(built) == 2

    def test_the_positional_table_is_built_once_per_workspace(self, monkeypatch):
        params = init_encoder_params(SMALL, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 9, SMALL.input_dim))
        fresh = encoder_forward_batch(params, SMALL, x)[0].tobytes()
        built = []
        monkeypatch.setattr(nn, "positional_encoding",
                            lambda T, d: built.append((T, d)) or positional_encoding(T, d))
        ws = Workspace()
        for _ in range(3):
            assert encoder_forward_batch(params, SMALL, x, workspace=ws)[0].tobytes() == fresh
        assert built == [(9, SMALL.model_dim)]


class TestForward:
    def test_zero_weights_zero_logits(self, rng):
        params = _zero_params(SMALL)
        x = rng.normal(size=(3, 4, SMALL.input_dim))
        logits, _ = encoder_forward_batch(params, SMALL, x)
        np.testing.assert_array_equal(logits, np.zeros((3, SMALL.output_dim)))

    def test_eval_mode_deterministic(self, rng):
        params = init_encoder_params(SMALL, np.random.default_rng(1))
        x = rng.normal(size=(2, 5, SMALL.input_dim))
        a, _ = encoder_forward_batch(params, SMALL, x)
        b, _ = encoder_forward_batch(params, SMALL, x)
        assert a.tobytes() == b.tobytes()

    def test_attention_rows_sum_to_one(self, rng):
        params = init_encoder_params(SMALL, np.random.default_rng(2))
        x = rng.normal(size=(2, 9, SMALL.input_dim))
        _, cache = encoder_forward_batch(params, SMALL, x)
        for rec in cache["layers"]:
            sums = rec["attn"].sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_layernorm_unit_statistics(self, rng):
        # with row variance >> eps the normalized variance sits within 1e-6 of 1
        from spotground.nn import _layernorm_forward

        x = rng.normal(0.0, 50.0, size=(3, 7, 16))
        _, xhat, _ = _layernorm_forward(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(xhat.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(xhat.var(axis=-1), 1.0, atol=1e-6)

    def test_layernorm_row_statistics_in_network(self, rng):
        # activations have O(1) row variance, so eps = 1e-5 shows up at ~1e-5
        params = init_encoder_params(SMALL, np.random.default_rng(3))
        x = rng.normal(size=(2, 6, SMALL.input_dim))
        _, cache = encoder_forward_batch(params, SMALL, x)
        for rec in cache["layers"]:
            for key in ("ln1", "ln2"):
                xhat, _ = rec[key]
                np.testing.assert_allclose(xhat.mean(axis=-1), 0.0, atol=1e-9)
                np.testing.assert_allclose(xhat.var(axis=-1), 1.0, atol=1e-4)

    def test_nan_input_raises_named_numeric_error(self):
        params = init_encoder_params(SMALL, np.random.default_rng(4))
        x = np.zeros((2, 3, SMALL.input_dim))
        x[1, 1, 2] = np.nan
        with pytest.raises(NumericError, match="input projection"):
            encoder_forward_batch(params, SMALL, x)

    def test_shape_mismatch(self):
        params = init_encoder_params(SMALL, np.random.default_rng(5))
        with pytest.raises(ShapeError):
            encoder_forward_batch(params, SMALL, np.zeros((1, 3, SMALL.input_dim + 1)))
        with pytest.raises(ShapeError):  # one unbatched sequence
            encoder_forward_batch(params, SMALL, np.zeros((3, SMALL.input_dim)))

    def test_dropout_needs_rng(self):
        config = EncoderConfig(input_dim=4, output_dim=2, model_dim=8, num_layers=1,
                               num_heads=1, hidden_dim=8, dropout_p=0.5)
        params = init_encoder_params(config, np.random.default_rng(6))
        with pytest.raises(ShapeError):
            encoder_forward_batch(params, config, np.zeros((1, 3, 4)), train_mode=True)


class TestEmbeddedEntry:
    def test_embedded_body_gives_the_batch_logits(self, rng):
        params = init_encoder_params(SMALL, np.random.default_rng(7))
        params["in.b"] = rng.normal(size=SMALL.model_dim)
        x = rng.normal(size=(3, 5, SMALL.input_dim))
        logits, _ = encoder_forward_batch(params, SMALL, x)
        h = embed_input(params, SMALL, x)
        np.testing.assert_array_equal(encoder_forward_embedded(params, SMALL, h), logits)

    def test_embedding_is_rowwise_and_zero_row_is_scaled_bias(self, rng):
        params = init_encoder_params(SMALL, np.random.default_rng(8))
        params["in.b"] = rng.normal(size=SMALL.model_dim)
        x = rng.normal(size=(4, SMALL.input_dim))
        whole = embed_input(params, SMALL, x)
        for t in range(4):
            np.testing.assert_allclose(embed_input(params, SMALL, x[t]), whole[t], atol=1e-12)
        np.testing.assert_array_equal(embed_input(params, SMALL, np.zeros(SMALL.input_dim)),
                                      params["in.b"] * np.sqrt(SMALL.model_dim))

    def test_embedded_width_is_checked(self):
        params = init_encoder_params(SMALL, np.random.default_rng(9))
        with pytest.raises(ShapeError):
            encoder_forward_embedded(params, SMALL, np.zeros((1, 3, SMALL.input_dim)))
        with pytest.raises(ShapeError):
            embed_input(params, SMALL, np.zeros((3, SMALL.input_dim + 1)))


def test_hand_computed_single_head_trace():
    """Independent step-by-step recomputation of a tiny forward pass."""
    config = EncoderConfig(input_dim=2, output_dim=2, model_dim=2, num_layers=1,
                           num_heads=1, hidden_dim=2, dropout_p=0.0)
    p = {
        "in.w": np.array([[0.10, 0.20], [0.30, -0.10]]),
        "in.b": np.array([0.05, -0.05]),
        "layer0.attn.wq": np.array([[0.20, -0.10], [0.10, 0.30]]),
        "layer0.attn.bq": np.array([0.01, 0.02]),
        "layer0.attn.wk": np.array([[-0.30, 0.20], [0.20, 0.10]]),
        "layer0.attn.wv": np.array([[0.40, 0.10], [-0.20, 0.20]]),
        "layer0.attn.bv": np.array([-0.02, 0.04]),
        "layer0.attn.wo": np.array([[0.30, -0.20], [0.10, 0.50]]),
        "layer0.attn.bo": np.array([0.02, -0.03]),
        "layer0.ln1.g": np.array([1.10, 0.90]),
        "layer0.ln1.b": np.array([0.01, -0.02]),
        "layer0.ffn.w1": np.array([[0.50, -0.30], [0.20, 0.40]]),
        "layer0.ffn.b1": np.array([0.10, -0.10]),
        "layer0.ffn.w2": np.array([[0.30, 0.20], [-0.10, 0.60]]),
        "layer0.ffn.b2": np.array([0.05, 0.00]),
        "layer0.ln2.g": np.array([0.95, 1.05]),
        "layer0.ln2.b": np.array([-0.01, 0.02]),
        "out.w": np.array([[0.70, -0.40], [0.20, 0.30]]),
        "out.b": np.array([0.10, -0.20]),
    }
    x = np.array([[1.0, 0.0], [0.0, 1.0]])

    # by-hand pipeline, scalar by scalar
    scale_embed = np.sqrt(2.0)
    pe = np.array([[np.sin(0.0), np.cos(0.0)], [np.sin(1.0), np.cos(1.0)]])
    h0 = (x @ p["in.w"] + p["in.b"]) * scale_embed + pe

    q = h0 @ p["layer0.attn.wq"] + p["layer0.attn.bq"]
    k = h0 @ p["layer0.attn.wk"]
    v = h0 @ p["layer0.attn.wv"] + p["layer0.attn.bv"]
    scores = q @ k.T / np.sqrt(2.0)
    attn = np.empty_like(scores)
    for i in range(2):
        row = np.exp(scores[i] - scores[i].max())
        attn[i] = row / row.sum()
    y = (attn @ v) @ p["layer0.attn.wo"] + p["layer0.attn.bo"]

    def ln(mat, g, b):
        out = np.empty_like(mat)
        for i in range(mat.shape[0]):
            mu = mat[i].mean()
            var = mat[i].var()
            out[i] = (mat[i] - mu) / np.sqrt(var + 1e-5) * g + b
        return out

    h1 = ln(h0 + y, p["layer0.ln1.g"], p["layer0.ln1.b"])
    f = np.maximum(h1 @ p["layer0.ffn.w1"] + p["layer0.ffn.b1"], 0.0)
    f = f @ p["layer0.ffn.w2"] + p["layer0.ffn.b2"]
    h2 = ln(h1 + f, p["layer0.ln2.g"], p["layer0.ln2.b"])
    expected = h2.mean(axis=0) @ p["out.w"] + p["out.b"]

    logits, _ = encoder_forward_batch(p, config, x[None])
    np.testing.assert_allclose(logits[0], expected, atol=1e-12)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        params = init_encoder_params(SMALL, np.random.default_rng(7))
        x = rng.normal(size=(2, 4, SMALL.input_dim))
        _, cache = encoder_forward_batch(params, SMALL, x)
        grads = encoder_backward(cache, np.zeros((2, SMALL.output_dim)))
        for name, g in grads.items():
            assert np.all(g == 0.0), name

    def test_final_bias_grad_equals_upstream(self, rng):
        params = init_encoder_params(SMALL, np.random.default_rng(8))
        x = rng.normal(size=(2, 4, SMALL.input_dim))
        _, cache = encoder_forward_batch(params, SMALL, x)
        upstream = rng.normal(size=(2, SMALL.output_dim))
        grads = encoder_backward(cache, upstream)
        np.testing.assert_allclose(grads["out.b"], upstream.sum(axis=0), atol=1e-12)

    def test_mismatched_upstream_raises(self, rng):
        params = init_encoder_params(SMALL, np.random.default_rng(9))
        _, cache = encoder_forward_batch(params, SMALL, rng.normal(size=(1, 4, SMALL.input_dim)))
        with pytest.raises(ConsistencyError):
            encoder_backward(cache, np.zeros((1, SMALL.output_dim + 1)))
        with pytest.raises(ConsistencyError):  # upstream must keep the batch axis
            encoder_backward(cache, np.zeros(SMALL.output_dim))

    def test_bogus_cache_raises(self):
        with pytest.raises(ConsistencyError):
            encoder_backward({"x": None}, np.zeros(3))


def _query_major_attention(q, k, v, num_heads, ws, attn, o):
    """The reference: scaled dot-product attention with query-major scores,
    (B, H, T_query, T_key), and a softmax over their last axis, as the
    kernel computed it before it took the scores key-major."""
    def split(x):
        return nn._split_heads(x, num_heads)

    qh, kh, vh = split(q), split(k), split(v)
    scale = 1.0 / math.sqrt(q.shape[-1] // num_heads)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    weights = softmax(scores)
    attn[...] = weights
    B, H, T, dk = weights.shape[0], num_heads, q.shape[1], q.shape[-1] // num_heads
    o[...] = (weights @ vh).transpose(0, 2, 1, 3).reshape(B, T, H * dk)


def _query_major_attention_backward(q, k, v, attn, do, num_heads, ws, dq, dk, dv):
    """The reference backward of `_query_major_attention`."""
    def split(x):
        return nn._split_heads(x, num_heads)

    def merge(x):
        B, H, T, dk = x.shape
        return x.transpose(0, 2, 1, 3).reshape(B, T, H * dk)

    qh, kh, vh, doh = split(q), split(k), split(v), split(do)
    scale = 1.0 / math.sqrt(q.shape[-1] // num_heads)
    weights = attn
    dattn = doh @ vh.transpose(0, 1, 3, 2)
    dvh = weights.transpose(0, 1, 3, 2) @ doh
    dscores = weights * (dattn - nn._row_sum(dattn * weights))
    dq[...] = merge((dscores @ kh) * scale)
    dk[...] = merge((dscores.transpose(0, 1, 3, 2) @ qh) * scale)
    dv[...] = merge(dvh)


ORACLE = EncoderConfig(input_dim=8, output_dim=3, model_dim=16, num_layers=2, num_heads=2,
                       hidden_dim=24, dropout_p=0.1, num_segments=2)


def _train_pass(params, x, seed, workspace=None, config=ORACLE):
    """Logits and grads of one dropout forward and backward."""
    T = x.shape[1]
    segments = (np.arange(T) >= T // 2).astype(np.int64)
    logits, cache = encoder_forward_batch(params, config, x, segments, train_mode=True,
                                          rng=np.random.default_rng(seed), workspace=workspace)
    upstream = np.random.default_rng(seed + 1).normal(size=logits.shape).astype(x.dtype)
    grads = encoder_backward(cache, upstream)
    return logits.tobytes(), {k: g.tobytes() for k, g in grads.items()}


class TestKeyMajorScores:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [7, 16, 60])
    @pytest.mark.parametrize("heads", [1, 2, 4])  # heads 16, 8 and 4 wide
    def test_logits_and_grads_are_bit_equal_to_the_query_major_reference(
            self, heads, T, dtype, monkeypatch):
        config = replace(ORACLE, num_heads=heads)
        params = {k: v.astype(dtype)
                  for k, v in init_encoder_params(config, np.random.default_rng(T)).items()}
        x = np.random.default_rng(T + 1).normal(size=(1, T, config.input_dim)).astype(dtype)
        got = _train_pass(params, x, T, config=config)
        monkeypatch.setattr(nn, "_attention", _query_major_attention)
        monkeypatch.setattr(nn, "_attention_backward", _query_major_attention_backward)
        assert _train_pass(params, x, T, config=config) == got

    def test_a_reused_workspace_gives_what_fresh_ones_give(self):
        params = {k: v.astype(np.float32)
                  for k, v in init_encoder_params(ORACLE, np.random.default_rng(0)).items()}
        rng = np.random.default_rng(1)
        ws = Workspace()
        for seed, n in enumerate((6, 2, 6)):  # full, partial, full
            x = rng.normal(size=(n, 10, ORACLE.input_dim)).astype(np.float32)
            assert _train_pass(params, x, seed, ws) == _train_pass(params, x, seed)
            h = embed_input(params, ORACLE, x)
            segments = np.zeros(10, np.int64)
            assert (encoder_forward_embedded(params, ORACLE, h, segments, ws).tobytes()
                    == encoder_forward_embedded(params, ORACLE, h, segments).tobytes())

    @staticmethod
    def _peak_growth(call) -> int:
        """Bytes allocated at the peak of call() above what was live before it."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_a_warm_workspace_allocates_no_activation(self):
        """A second call on one workspace allocates less than one (B, T,
        model_dim) activation, in inference and in training."""
        spot = EncoderConfig(input_dim=32, output_dim=18)
        params = {k: v.astype(np.float32)
                  for k, v in init_encoder_params(spot, np.random.default_rng(0)).items()}
        h = np.random.default_rng(1).normal(size=(64, 7, spot.model_dim)).astype(np.float32)
        ws = Workspace()
        encoder_forward_embedded(params, spot, h, workspace=ws)
        assert self._peak_growth(lambda: encoder_forward_embedded(params, spot, h,
                                                                  workspace=ws)) < h.nbytes

        ground = EncoderConfig(input_dim=32, output_dim=2, num_layers=4, num_segments=2)
        params = {k: v.astype(np.float32)
                  for k, v in init_encoder_params(ground, np.random.default_rng(2)).items()}
        x = np.random.default_rng(3).normal(size=(8, 60, 32)).astype(np.float32)
        segments = np.repeat([0, 1], 30)
        rng = np.random.default_rng(4)

        def step():
            logits, cache = encoder_forward_batch(params, ground, x, segments, train_mode=True,
                                                  rng=rng, workspace=ws)
            encoder_backward(cache, np.ones_like(logits))

        ws = Workspace()
        step()
        assert self._peak_growth(step) < 8 * 60 * ground.model_dim * 4


class TestGradCheck:
    def test_quadratic_toy_loss_is_exact(self):
        params = {"w": np.array([1.0, -2.0, 0.5])}

        def loss_fn(p, want_grads):
            loss = float((p["w"] ** 2).sum())
            return loss, {"w": 2.0 * p["w"]} if want_grads else None

        err = grad_check(params, loss_fn, trials=20, h=1e-5)
        assert err < 1e-9

    def test_nan_error_fails_and_empty_or_zero_step_probes_are_rejected(self):
        params = {"w": np.array([1.0, -2.0, 0.5])}

        def loss_fn(p, want_grads):  # all-NaN analytic gradient
            loss = float((p["w"] ** 2).sum())
            return loss, {"w": np.full(3, np.nan)} if want_grads else None

        assert np.isnan(grad_check(params, loss_fn, trials=5))
        for bad in ({"trials": 0}, {"trials": -1}, {"h": 0.0}, {"h": -1e-5},
                    {"h": float("nan")}):
            with pytest.raises(ShapeError):
                grad_check(params, loss_fn, **bad)

    def test_spotting_head_small(self):
        assert spotting_grad_check(trials=40, seed=1) < 1e-5

    def test_grounding_head_small(self):
        assert grounding_grad_check(trials=40, seed=1) < 1e-5


class TestEdgeShapes:
    def test_single_position_sequence(self, rng):
        config = EncoderConfig(input_dim=4, output_dim=3, model_dim=8, num_layers=2,
                               num_heads=1, hidden_dim=8, dropout_p=0.0)
        params = init_encoder_params(config, np.random.default_rng(0))
        logits, cache = encoder_forward_batch(params, config, rng.normal(size=(2, 1, 4)))
        assert logits.shape == (2, 3)
        grads = encoder_backward(cache, np.ones((2, 3)))
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_head_width_one(self, rng):
        config = EncoderConfig(input_dim=2, output_dim=2, model_dim=4, num_layers=1,
                               num_heads=4, hidden_dim=2, dropout_p=0.0)
        params = init_encoder_params(config, np.random.default_rng(2))
        logits, _ = encoder_forward_batch(params, config, rng.normal(size=(3, 5, 2)))
        assert np.all(np.isfinite(logits))

    def test_gradients_through_dropout(self):
        # reseeding inside the closure fixes the masks, so central
        # differences see the same stochastic network every call
        config = EncoderConfig(input_dim=5, output_dim=4, model_dim=8, num_layers=2,
                               num_heads=2, hidden_dim=12, dropout_p=0.3)
        params = init_encoder_params(config, np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(2, 6, 5))
        targets = np.zeros((2, 4))
        targets[:, 2] = 1.0

        def loss_fn(p, want_grads):
            drop_rng = np.random.default_rng(99)
            logits, cache = encoder_forward_batch(p, config, x, train_mode=True,
                                                  rng=drop_rng)
            loss, dlogits = cross_entropy_soft(logits, targets)
            if not want_grads:
                return loss, None
            return loss, encoder_backward(cache, dlogits)

        assert grad_check(params, loss_fn, trials=50, rng=np.random.default_rng(5)) < 1e-5

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_segment_index_outside_the_table_is_a_shape_error(self, bad):
        config = replace(ORACLE, dropout_p=0.0)
        params = init_encoder_params(config, np.random.default_rng(6))
        segments = np.array([0, 1, bad])
        with pytest.raises(ShapeError, match=r"segments must lie in \[0, 2\)"):
            encoder_forward_batch(params, config, np.zeros((1, 3, config.input_dim)), segments)


class TestLosses:
    def test_cross_entropy_uniform(self):
        logits = np.zeros((1, 4))
        target = np.array([[0.0, 1.0, 0.0, 0.0]])
        loss, dlogits = cross_entropy_soft(logits, target)
        assert loss == pytest.approx(np.log(4.0))
        np.testing.assert_allclose(dlogits, (np.full((1, 4), 0.25) - target))

    def test_bce_at_half_is_ln2(self):
        outputs = np.array([[0.0, 0.3]])
        loss, _ = bce_plus_l2(outputs, [1.0], [0.3])
        assert loss == pytest.approx(np.log(2.0))

    def test_negative_label_ignores_offset(self):
        loss_a, _ = bce_plus_l2(np.array([[0.2, 0.9]]), [0.0], [0.0])
        loss_b, _ = bce_plus_l2(np.array([[0.2, -5.0]]), [0.0], [0.0])
        assert loss_a == pytest.approx(loss_b)

    def test_bce_on_saturated_float32_logits_is_silent_and_matches_float64(self):
        outputs = np.array([[-200.0, 0.5], [200.0, 0.1], [-200.0, 0.0], [200.0, 0.0]])
        labels, offsets = [1.0, 0.0, 0.0, 1.0], [0.25, 0.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss32, dout32 = bce_plus_l2(outputs.astype(np.float32), labels, offsets)
        loss64, dout64 = bce_plus_l2(outputs, labels, offsets)
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        assert dout32.dtype == np.float32 and dout64.dtype == np.float64
        np.testing.assert_allclose(dout32, dout64, rtol=1e-6)


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        params = {"w": np.array([1.0, -1.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -1.0])
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        params = {"w": np.array([0.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.array([1.0])}, state, lr=0.1)
        assert params["w"][0] == pytest.approx(-0.1, rel=1e-6)

    def test_converges_on_quadratic(self):
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        for _ in range(200):
            adam_step(params, {"w": 2.0 * params["w"]}, state, lr=0.1)
        assert abs(params["w"][0]) < 0.05

    def test_nonfinite_gradient_rejected(self):
        params = {"w": np.array([0.0])}
        state = AdamState.for_params(params)
        with pytest.raises(NumericError):
            adam_step(params, {"w": np.array([np.inf])}, state, lr=0.1)

    def test_nonfinite_gradient_updates_nothing_and_names_the_first_tensor(self):
        params = {"c": np.array([1.0, 2.0]), "a": np.array([1.0]), "b": np.array([1.0])}
        state = AdamState.for_params(params)
        grads = {"a": np.array([1.0]), "b": np.array([np.nan]), "c": np.array([np.inf, 1.0])}
        with pytest.raises(NumericError, match="for b$"):
            adam_step(params, grads, state, lr=0.1)
        assert {k: v.tolist() for k, v in params.items()} == {
            "a": [1.0], "b": [1.0], "c": [1.0, 2.0]}
        assert state.step == 0
        assert not state.m.any() and not state.v.any()

    def test_returns_the_global_gradient_norm(self):
        params = {"a": np.zeros(2, np.float32), "b": np.zeros((1, 1), np.float32)}
        state = AdamState.for_params(params)
        assert adam_step(params, {"a": np.array([3.0, 0.0], np.float32),
                                  "b": np.array([[4.0]], np.float32)}, state, lr=0.1) == 5.0
        # each square (1e36) fits float32, their sum (1e39) does not
        params = {"a": np.zeros(1000, np.float32)}
        state = AdamState.for_params(params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = adam_step(params, {"a": np.full(1000, 1e18, np.float32)}, state, lr=0.1)
        assert norm == pytest.approx(np.sqrt(1000) * 1e18, rel=1e-6)

    def test_entries_become_views_of_one_buffer(self):
        params = {k: v.astype(np.float32)
                  for k, v in init_encoder_params(SMALL, np.random.default_rng(0)).items()}
        before = {k: v.copy() for k, v in params.items()}
        state = AdamState.for_params(params)
        assert list(params) == list(before)  # the dict keeps its order
        assert state.flat.size == sum(v.size for v in before.values())
        for name, arr in params.items():
            assert arr.base is state.flat and arr.flags.c_contiguous
            assert arr.dtype == np.float32 and arr.shape == before[name].shape
            np.testing.assert_array_equal(arr, before[name])
        # in sorted name order, each view follows the previous one
        offsets = [params[n].ctypes.data - state.flat.ctypes.data for n in sorted(params)]
        assert offsets == [4 * o for o in np.cumsum([0] + [params[n].size
                                                           for n in sorted(params)][:-1])]

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ConsistencyError):
            AdamState.for_params({"a": np.zeros(2), "b": np.zeros(2, np.float32)})

    def test_rebound_parameters_are_a_consistency_error(self):
        params = {"a": np.zeros(2), "b": np.zeros(3)}
        state = AdamState.for_params(params)
        grads = {"a": np.ones(2), "b": np.ones(3)}
        copied = {k: v.copy() for k, v in params.items()}
        with pytest.raises(ConsistencyError):
            adam_step(copied, grads, state, lr=0.1)
        params["b"] = params["b"].copy()
        with pytest.raises(ConsistencyError):
            adam_step(params, grads, state, lr=0.1)
        with pytest.raises(ConsistencyError):
            adam_step({**copied, "c": np.zeros(1)}, grads, state, lr=0.1)
        assert state.step == 0 and not state.flat.any()

    def test_flat_update_is_bit_equal_to_the_per_tensor_loop(self):
        """50 float32 steps on the spotting encoder's parameters."""
        config = EncoderConfig(input_dim=32, output_dim=18)
        rng = np.random.default_rng(0)
        params = {k: v.astype(np.float32) for k, v in init_encoder_params(config, rng).items()}
        ref = {k: v.copy() for k, v in params.items()}
        ref_m = {k: np.zeros_like(v) for k, v in ref.items()}
        ref_v = {k: np.zeros_like(v) for k, v in ref.items()}
        state = AdamState.for_params(params)
        for step in range(1, 51):
            scale = 10.0 ** rng.integers(-6, 3)
            grads = {k: (scale * rng.normal(size=v.shape)).astype(np.float32)
                     for k, v in ref.items()}
            adam_step(params, grads, state, lr=5e-4)
            _per_tensor_adam_step(ref, grads, ref_m, ref_v, step, lr=5e-4)
        names = sorted(ref)
        assert state.step == 50
        for name in names:
            assert params[name].tobytes() == ref[name].tobytes(), name
        assert state.m.tobytes() == np.concatenate([ref_m[n].ravel() for n in names]).tobytes()
        assert state.v.tobytes() == np.concatenate([ref_v[n].ravel() for n in names]).tobytes()

    def test_checkpoint_of_viewed_parameters_round_trips_byte_identical(self, tmp_path):
        from spotground.checkpoint import KIND_SPOT_TRANSFORMER, Model, load_model, save_model

        config = EncoderConfig(input_dim=8, output_dim=18, model_dim=16, num_layers=2,
                               num_heads=2, hidden_dim=24)
        params = {k: v.astype(np.float32)
                  for k, v in init_encoder_params(config, np.random.default_rng(1)).items()}
        plain = Model(KIND_SPOT_TRANSFORMER, config, ["Goal"], {k: v.copy()
                                                                 for k, v in params.items()})
        AdamState.for_params(params)
        viewed = Model(KIND_SPOT_TRANSFORMER, config, ["Goal"], params)
        save_model(tmp_path / "plain.sgckpt", plain)
        save_model(tmp_path / "viewed.sgckpt", viewed)
        save_model(tmp_path / "again.sgckpt", load_model(tmp_path / "viewed.sgckpt"))
        data = (tmp_path / "viewed.sgckpt").read_bytes()
        assert data == (tmp_path / "plain.sgckpt").read_bytes()
        assert data == (tmp_path / "again.sgckpt").read_bytes()


def _per_tensor_adam_step(params, grads, m, v, step, lr, betas=(0.9, 0.999), eps=1e-8):
    """The reference update: one tensor at a time, in sorted name order."""
    b1, b2 = betas
    c1 = 1.0 - b1**step
    c2 = 1.0 - b2**step
    for name in sorted(params):
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        params[name] -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)


class TestDtype:
    """The kernel runs in the parameters' dtype: a numpy float64 scalar or a
    float64 temporary anywhere in a step would show up as a promoted array."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("head", ["spotting", "grounding"])
    def test_train_step_stays_in_the_parameters_dtype(self, head, dtype):
        rng = np.random.default_rng(0)
        config = EncoderConfig(input_dim=6, output_dim=18 if head == "spotting" else 2,
                               model_dim=16, num_layers=2, num_heads=2, hidden_dim=24,
                               dropout_p=0.2, num_segments=0 if head == "spotting" else 2)
        params = {k: v.astype(dtype) for k, v in init_encoder_params(config, rng).items()}
        state = AdamState.for_params(params)
        x = rng.normal(size=(4, 6, 6)).astype(np.float32)  # features are stored as <f4
        segments = None
        if head == "spotting":
            targets = np.eye(18)[rng.integers(0, 18, 4)]
            x, targets = mixup(x, targets, 0.2, rng)
            assert x.dtype == np.float32
        else:
            segments = np.repeat([[0, 0, 0, 1, 1, 1]], 4, axis=0)
        logits, cache = encoder_forward_batch(params, config, x, segments=segments,
                                              train_mode=True, rng=rng)
        if head == "spotting":
            _, dlogits = cross_entropy_soft(logits, targets)
        else:
            _, dlogits = bce_plus_l2(logits, [1, 0, 1, 0], [0.5, 0.0, 0.2, 0.0])
        grads = encoder_backward(cache, dlogits)
        adam_step(params, grads, state, lr=1e-3)

        assert "drop0" in cache and "ffn_drop" in cache["layers"][0]
        arrays = float_arrays([logits, cache, grads, params, state.m, state.v])
        assert len(arrays) > 100
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}
        assert {a.dtype for a in float_arrays(embed_input(params, config, x))} == {
            np.dtype(dtype)}
