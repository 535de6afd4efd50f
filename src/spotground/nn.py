"""Dense numerical kernel: encoder heads with hand-written backprop.

Everything here runs on plain numpy arrays in the dtype of the parameters:
training casts its freshly initialised parameters to float32, while
grad_check drives the very same functions with float64 parameters.
Scalars inside the kernel are Python floats, never numpy float64 scalars,
which would silently promote a float32 array to float64. The encoder is the
classic post-norm arrangement: input projection (scaled by sqrt(model_dim)
before the positional encoding is added, per the original encoder recipe,
so low-magnitude embedding rows are not drowned by the encoding), optional
learned segment offsets, sinusoidal positional encoding, N x (multi-head
self-attention + residual + layer-norm, ReLU feed-forward + residual +
layer-norm), mean pooling over time, final linear projection. The input
projection is its own step (`embed_input`), so inference can embed a
sequence once and run the body on windows of it (`encoder_forward_embedded`).
The backward pass is exact and is verified against central finite
differences by grad_check.

Every product of an activation and a weight goes through `_mm`, which runs
it as one 2-D BLAS product over all rows: numpy's `@` on a 3-D activation
loops over the batch axis, and is slower still with a transposed weight.
Last-axis means and sums (layer norm, softmax) and the bias gradients'
sums over rows are BLAS products with a constant vector, for the same
reason. Only the per-head attention products stay batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConsistencyError, NumericError, ShapeError

LN_EPS = 1e-5


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    output_dim: int
    model_dim: int = 64
    num_layers: int = 3
    num_heads: int = 4
    hidden_dim: int = 256
    dropout_p: float = 0.1
    num_segments: int = 0  # 2 for the grounding head, 0 otherwise

    def __post_init__(self):
        if self.num_heads < 1 or self.model_dim % self.num_heads != 0:
            raise ShapeError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.model_dim % 2 != 0:  # sin/cos pairs of the positional encoding
            raise ShapeError(f"model_dim must be even, got {self.model_dim}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ShapeError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if min(self.input_dim, self.output_dim, self.model_dim, self.hidden_dim) < 1:
            raise ShapeError("all dimensions must be positive")
        if self.num_layers < 1:
            raise ShapeError("need at least one encoder layer")
        if self.num_segments < 0:
            raise ShapeError(f"num_segments must be >= 0, got {self.num_segments}")

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "model_dim": self.model_dim,
            "num_layers": self.num_layers,
            "num_heads": self.num_heads,
            "hidden_dim": self.hidden_dim,
            "dropout_p": self.dropout_p,
            "num_segments": self.num_segments,
        }


def positional_encoding(T: int, d: int) -> np.ndarray:
    """Sinusoidal table: PE[t, 2i] = sin(t / 10000^(2i/d)), PE[t, 2i+1] = cos(...)."""
    if d % 2 != 0:
        raise ShapeError(f"positional encoding dimension must be even, got {d}")
    if T < 1:
        raise ShapeError(f"need T >= 1, got {T}")
    pos = np.arange(T, dtype=np.float64)[:, None]
    even = np.arange(0, d, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, even / d)
    pe = np.empty((T, d), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    e /= _row_sum(e)
    return e


def _mm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x (..., k) @ w (k, n) -> (..., n), as one 2-D BLAS product over all rows."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, keeping it, as a BLAS product with ones."""
    return _mm(x, np.ones((x.shape[-1], 1), dtype=x.dtype))


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the last axis, keeping it, as a BLAS product."""
    d = x.shape[-1]
    return _mm(x, np.full((d, 1), 1.0 / d, dtype=x.dtype))


def _col_sum(x: np.ndarray) -> np.ndarray:
    """Sum over every leading axis, (..., n) -> (n,), as a BLAS product with ones."""
    x = x.reshape(-1, x.shape[-1])
    return np.ones(x.shape[0], dtype=x.dtype) @ x


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def encoder_param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every encoder parameter, in initialisation order."""
    dm, dh, dout = config.model_dim, config.hidden_dim, config.output_dim
    shapes: dict[str, tuple[int, ...]] = {"in.w": (config.input_dim, dm), "in.b": (dm,)}
    if config.num_segments:
        shapes["seg.emb"] = (config.num_segments, dm)
    for i in range(config.num_layers):
        pre = f"layer{i}."
        for name in ("attn.wq", "attn.wk", "attn.wv", "attn.wo"):
            shapes[pre + name] = (dm, dm)
        # no key bias: a shared shift on the keys cancels inside the row
        # softmax, leaving a provably inert parameter
        for name in ("attn.bq", "attn.bv", "attn.bo", "ln1.g", "ln1.b"):
            shapes[pre + name] = (dm,)
        shapes[pre + "ffn.w1"] = (dm, dh)
        shapes[pre + "ffn.b1"] = (dh,)
        shapes[pre + "ffn.w2"] = (dh, dm)
        for name in ("ffn.b2", "ln2.g", "ln2.b"):
            shapes[pre + name] = (dm,)
    shapes["out.w"] = (dm, dout)
    shapes["out.b"] = (dout,)
    return shapes


def init_encoder_params(config: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot weights, N(0, 0.02) segment offsets, unit layer-norm gains, zero biases."""
    p: dict[str, np.ndarray] = {}
    for name, shape in encoder_param_shapes(config).items():
        if name == "seg.emb":
            p[name] = rng.normal(0.0, 0.02, size=shape)
        elif len(shape) == 2:
            p[name] = _glorot(rng, *shape)
        else:
            p[name] = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
    return p


def _check_finite(arr: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values after {where}")


def _dropout_mask(rng, shape, p, dtype):
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


def _layernorm_forward(x, g, b):
    xc = x - _row_mean(x)
    inv_std = 1.0 / np.sqrt(_row_mean(xc * xc) + LN_EPS)
    xhat = xc * inv_std
    return xhat * g + b, xhat, inv_std


def _layernorm_backward(dy, xhat, inv_std, g):
    dgamma = _col_sum(dy * xhat)
    dbeta = _col_sum(dy)
    dxhat = dy * g
    m1 = _row_mean(dxhat)
    m2 = _row_mean(dxhat * xhat)
    dx = inv_std * (dxhat - m1 - xhat * m2)
    return dx, dgamma, dbeta


def _split_heads(x, num_heads):
    B, T, dm = x.shape
    dk = dm // num_heads
    return x.reshape(B, T, num_heads, dk).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, H, T, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, T, H * dk)


def embed_input(params: dict[str, np.ndarray], config: EncoderConfig, x: np.ndarray):
    """Input projection, (..., input_dim) -> (..., model_dim), scaled by sqrt(model_dim).

    It acts on each row alone, so a sequence can be embedded once and
    windows cut from the embedded rows. A zero row embeds to exactly
    in.b * sqrt(model_dim).
    """
    x = np.asarray(x, dtype=params["in.w"].dtype)
    if x.shape[-1] != config.input_dim:
        raise ShapeError(f"input dim {x.shape[-1]} != configured {config.input_dim}")
    return (_mm(x, params["in.w"]) + params["in.b"]) * math.sqrt(config.model_dim)


def encoder_forward_batch(
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    x: np.ndarray,
    segments: np.ndarray | None = None,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
):
    """Run the encoder on a batch. Returns (logits (B, out), cache for backward)."""
    x = np.asarray(x, dtype=params["in.w"].dtype)
    if x.ndim != 3:
        raise ShapeError(f"expected (B, T, input_dim), got shape {x.shape}")
    logits, cache = _encode(params, config, embed_input(params, config, x), segments,
                            train_mode, rng)
    cache["x"] = x
    return logits, cache


def encoder_forward_embedded(
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    h: np.ndarray,
    segments: np.ndarray | None = None,
):
    """Inference logits (B, out) from embedded rows (B, T, model_dim).

    The rows come from `embed_input`; what follows is the body of
    `encoder_forward_batch` after its input projection. No backward cache
    is kept, so each layer's activations are freed as the next one runs.
    """
    h = np.asarray(h, dtype=params["in.w"].dtype)
    if h.ndim != 3 or h.shape[2] != config.model_dim:
        raise ShapeError(f"expected (B, T, {config.model_dim}) embedded rows, got {h.shape}")
    return _encode(params, config, h, segments, False, None, keep_layers=False)[0]


def _encode(params, config, h, segments, train_mode, rng, keep_layers=True):
    """Encoder body from the embedded input h (B, T, model_dim) to logits."""
    B, T, _ = h.shape
    if config.num_segments and segments is None:
        raise ShapeError("this encoder requires a segments array")
    dropping = train_mode and config.dropout_p > 0.0
    if dropping and rng is None:
        raise ShapeError("train-mode forward with dropout needs an rng")

    cache: dict = {
        "params": params,
        "config": config,
        "segments": segments,
        "train_mode": train_mode,
        "embed_scale": math.sqrt(config.model_dim),
    }
    if config.num_segments:
        seg = np.asarray(segments, dtype=np.int64)
        if seg.shape != (B, T) and seg.shape != (T,):
            raise ShapeError(f"segments shape {seg.shape} does not match ({B}, {T})")
        if seg.ndim == 1:
            seg = np.broadcast_to(seg, (B, T))
        cache["segments"] = seg
        h = h + params["seg.emb"][seg]
    h = h + positional_encoding(T, config.model_dim).astype(h.dtype, copy=False)
    if dropping:
        mask0 = _dropout_mask(rng, h.shape, config.dropout_p, h.dtype)
        h = h * mask0
        cache["drop0"] = mask0
    _check_finite(h, "input projection")

    scale = 1.0 / math.sqrt(config.model_dim // config.num_heads)
    layers = []
    for i in range(config.num_layers):
        pre = f"layer{i}."
        rec: dict = {"x": h}
        q = _mm(h, params[pre + "attn.wq"]) + params[pre + "attn.bq"]
        k = _mm(h, params[pre + "attn.wk"])
        v = _mm(h, params[pre + "attn.wv"]) + params[pre + "attn.bv"]
        rec["q"], rec["k"], rec["v"] = q, k, v
        qh, kh, vh = (_split_heads(t, config.num_heads) for t in (q, k, v))
        scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
        attn = softmax(scores)
        rec["attn"] = attn
        o = _merge_heads(attn @ vh)
        rec["o"] = o
        y = _mm(o, params[pre + "attn.wo"]) + params[pre + "attn.bo"]
        if dropping:
            rec["attn_drop"] = _dropout_mask(rng, y.shape, config.dropout_p, y.dtype)
            y = y * rec["attn_drop"]
        h1, xhat1, inv1 = _layernorm_forward(h + y, params[pre + "ln1.g"], params[pre + "ln1.b"])
        rec["ln1"] = (xhat1, inv1)
        rec["h1"] = h1

        f_pre = _mm(h1, params[pre + "ffn.w1"]) + params[pre + "ffn.b1"]
        f1 = np.maximum(f_pre, 0.0)
        rec["f_pre"], rec["f1"] = f_pre, f1
        f2 = _mm(f1, params[pre + "ffn.w2"]) + params[pre + "ffn.b2"]
        if dropping:
            rec["ffn_drop"] = _dropout_mask(rng, f2.shape, config.dropout_p, f2.dtype)
            f2 = f2 * rec["ffn_drop"]
        h, xhat2, inv2 = _layernorm_forward(h1 + f2, params[pre + "ln2.g"], params[pre + "ln2.b"])
        rec["ln2"] = (xhat2, inv2)
        _check_finite(h, f"encoder layer {i}")
        if keep_layers:
            layers.append(rec)
    cache["layers"] = layers

    pooled = h.mean(axis=1)
    cache["pooled"] = pooled
    logits = pooled @ params["out.w"] + params["out.b"]
    _check_finite(logits, "output projection")
    cache["logits_shape"] = logits.shape
    return logits, cache


def _weight_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over every leading axis of a[..., i] * b[..., j], as one BLAS product."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def encoder_backward(cache: dict, upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate d loss / d logits through the cached forward pass."""
    params, config = cache.get("params"), cache.get("config")
    if params is None or "layers" not in cache:
        raise ConsistencyError("cache does not come from encoder_forward_batch")
    upstream = np.asarray(upstream, dtype=params["in.w"].dtype)
    if upstream.shape != cache["logits_shape"]:
        raise ConsistencyError(
            f"upstream gradient shape {upstream.shape} does not match "
            f"forward output {cache['logits_shape']}"
        )
    B, T, _ = cache["x"].shape
    grads: dict[str, np.ndarray] = {}

    pooled = cache["pooled"]
    grads["out.w"] = pooled.T @ upstream
    grads["out.b"] = _col_sum(upstream)
    dpooled = upstream @ params["out.w"].T
    dh = np.repeat(dpooled[:, None, :], T, axis=1) / T

    scale = 1.0 / math.sqrt(config.model_dim // config.num_heads)
    for i in reversed(range(config.num_layers)):
        pre = f"layer{i}."
        rec = cache["layers"][i]
        xhat2, inv2 = rec["ln2"]
        dr2, dg2, db2 = _layernorm_backward(dh, xhat2, inv2, params[pre + "ln2.g"])
        grads[pre + "ln2.g"], grads[pre + "ln2.b"] = dg2, db2

        df2 = dr2 * rec["ffn_drop"] if "ffn_drop" in rec else dr2
        grads[pre + "ffn.w2"] = _weight_grad(rec["f1"], df2)
        grads[pre + "ffn.b2"] = _col_sum(df2)
        dfpre = _mm(df2, params[pre + "ffn.w2"].T)
        dfpre *= rec["f_pre"] > 0.0
        grads[pre + "ffn.w1"] = _weight_grad(rec["h1"], dfpre)
        grads[pre + "ffn.b1"] = _col_sum(dfpre)
        dh1 = dr2 + _mm(dfpre, params[pre + "ffn.w1"].T)

        xhat1, inv1 = rec["ln1"]
        dr1, dg1, db1 = _layernorm_backward(dh1, xhat1, inv1, params[pre + "ln1.g"])
        grads[pre + "ln1.g"], grads[pre + "ln1.b"] = dg1, db1

        dy = dr1 * rec["attn_drop"] if "attn_drop" in rec else dr1
        dx = dr1.copy()
        grads[pre + "attn.wo"] = _weight_grad(rec["o"], dy)
        grads[pre + "attn.bo"] = _col_sum(dy)
        do = _mm(dy, params[pre + "attn.wo"].T)

        H = config.num_heads
        doh = _split_heads(do, H)
        qh, kh, vh = (_split_heads(rec[n], H) for n in ("q", "k", "v"))
        attn = rec["attn"]
        dattn = doh @ vh.transpose(0, 1, 3, 2)
        dvh = attn.transpose(0, 1, 3, 2) @ doh
        dscores = attn * (dattn - _row_sum(dattn * attn))
        dqh = (dscores @ kh) * scale
        dkh = (dscores.transpose(0, 1, 3, 2) @ qh) * scale
        dq, dk, dv = (_merge_heads(t) for t in (dqh, dkh, dvh))

        x_l = rec["x"]
        for name, dt in (("q", dq), ("k", dk), ("v", dv)):
            grads[pre + f"attn.w{name}"] = _weight_grad(x_l, dt)
            if name != "k":
                grads[pre + f"attn.b{name}"] = _col_sum(dt)
            dx += _mm(dt, params[pre + f"attn.w{name}"].T)
        dh = dx

    if "drop0" in cache:
        dh = dh * cache["drop0"]
    if config.num_segments:
        seg = cache["segments"]
        demb = np.zeros_like(params["seg.emb"])
        for k in range(config.num_segments):
            demb[k] = dh[seg == k].sum(axis=0)
        grads["seg.emb"] = demb
    dproj = dh * cache["embed_scale"]
    grads["in.w"] = _weight_grad(cache["x"], dproj)
    grads["in.b"] = _col_sum(dproj)
    return grads


# ---------------------------------------------------------------------------
# losses


def cross_entropy_soft(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy against target distributions. Returns (loss, dlogits)."""
    logits = np.atleast_2d(logits)
    targets = np.atleast_2d(targets)
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    B = logits.shape[0]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    loss = -(targets * log_probs).sum() / B
    dlogits = (np.exp(log_probs) - targets) / B
    return loss, dlogits


PROB_CLAMP = 1e-7


def bce_plus_l2(
    outputs: np.ndarray,
    labels: np.ndarray,
    offset_targets: np.ndarray,
    offset_weight: float = 1.0,
):
    """Grounding loss: BCE on sigmoid(outputs[:, 0]) plus weighted squared
    offset error on outputs[:, 1], the latter only for positive samples.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the log; inside
    the clamp region the gradient is zero, matching the clamped loss. The
    loss is computed in float64 whatever the outputs' dtype, so no finite
    logit overflows. Returns (mean loss, d loss / d outputs), the latter
    in the outputs' dtype.
    """
    outputs = np.atleast_2d(outputs)
    if outputs.shape[1] != 2:
        raise ShapeError(f"grounding outputs must have 2 columns, got {outputs.shape}")
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    offset_targets = np.asarray(offset_targets, dtype=np.float64).reshape(-1)
    B = outputs.shape[0]
    prob = sigmoid(outputs[:, 0])
    off = outputs[:, 1].astype(np.float64)
    clamped = np.clip(prob, PROB_CLAMP, 1.0 - PROB_CLAMP)
    bce = -(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped))
    off_err = off - offset_targets
    l2 = offset_weight * labels * off_err**2
    loss = (bce + l2).sum() / B

    inside = (prob > PROB_CLAMP) & (prob < 1.0 - PROB_CLAMP)
    dout = np.zeros_like(outputs)
    dout[:, 0] = np.where(inside, prob - labels, 0.0) / B
    dout[:, 1] = 2.0 * offset_weight * labels * off_err / B
    return loss, dout


def sigmoid(x):
    """The logistic function in float64; exp only ever sees -|x|, so it never overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Every parameter in one flat buffer, its two moments and the step counter.

    `for_params` copies the parameters into `flat`, in sorted name order,
    and rebinds each entry of the caller's dict to a view of it, so the
    dict keeps its names, shapes and dtype while `adam_step` updates the
    whole buffer at once. `views` are those entries; `g` and `scratch` are
    the step's working buffers.
    """

    names: tuple[str, ...]
    views: tuple[np.ndarray, ...]
    flat: np.ndarray
    m: np.ndarray
    v: np.ndarray
    g: np.ndarray
    scratch: np.ndarray
    step: int = 0

    @staticmethod
    def for_params(params: dict[str, np.ndarray]) -> "AdamState":
        names = tuple(sorted(params))
        dtypes = {params[n].dtype for n in names}
        if len(dtypes) != 1:
            raise ConsistencyError(f"parameters must share one dtype, got "
                                   f"{sorted(map(str, dtypes))}")
        flat = np.concatenate([params[n].reshape(-1) for n in names])
        lo = 0
        for n in names:
            shape, size = params[n].shape, params[n].size
            params[n] = flat[lo : lo + size].reshape(shape)
            lo += size
        return AdamState(names, tuple(params[n] for n in names), flat, np.zeros_like(flat),
                         np.zeros_like(flat), np.empty_like(flat), np.empty_like(flat))


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> float:
    """One bias-corrected adaptive-moment update of the state's flat buffer,
    in place. Returns the global L2 norm of the gradient.

    The element-wise arithmetic is the per-tensor update's, in the same
    order, so the result does not depend on how the parameters are laid
    out. A non-finite gradient raises before anything is updated.
    """
    if len(params) != len(state.views) or any(
        params.get(n) is not view for n, view in zip(state.names, state.views)
    ):
        raise ConsistencyError("parameters no longer view the optimizer's buffer")
    g, s = state.g, state.scratch
    np.concatenate([grads[n].reshape(-1) for n in state.names], out=g)
    if not np.isfinite(g).all():
        ends = np.cumsum([view.size for view in state.views])
        first = np.flatnonzero(~np.isfinite(g))[0]
        bad = state.names[int(np.searchsorted(ends, first, side="right"))]
        raise NumericError(f"non-finite gradient for {bad}")
    with np.errstate(over="ignore"):
        norm = math.sqrt(float(g @ g))
    if math.isinf(norm):  # every element is finite, so only the sum of squares overflowed
        norm = float(np.linalg.norm(g.astype(np.float64)))

    b1, b2 = betas
    state.step += 1
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    m, v = state.m, state.v
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=s)
    v *= b2
    np.multiply(g, 1.0 - b2, out=s)
    v += np.multiply(s, g, out=s)
    np.divide(v, c2, out=s)  # s: the denominator sqrt(v / c2) + eps
    np.sqrt(s, out=s)
    s += eps
    np.divide(m, c1, out=g)  # g: the update lr * (m / c1) / s
    g *= lr
    g /= s
    state.flat -= g
    return norm


# ---------------------------------------------------------------------------
# gradient verification


def grad_check(
    params: dict[str, np.ndarray],
    loss_fn,
    trials: int = 100,
    h: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients with central finite differences.

    loss_fn(params, want_grads) must return (loss, grads-or-None) and be a
    pure function of params. Probes `trials` uniformly random coordinates
    and returns the maximum relative error |a - n| / max(|a|, |n|, 1e-12),
    NaN if any probe's error is NaN.
    """
    if trials < 1:
        raise ShapeError(f"trials must be >= 1, got {trials}")
    if not h > 0.0:
        raise ShapeError(f"finite-difference step h must be > 0, got {h}")
    rng = rng if rng is not None else np.random.default_rng(0)
    _, grads = loss_fn(params, True)
    names = sorted(params)
    sizes = np.array([params[n].size for n in names])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])

    errs = []
    for _ in range(trials):
        flat = int(rng.integers(0, total))
        which = int(np.searchsorted(offsets, flat, side="right") - 1)
        name = names[which]
        idx = flat - int(offsets[which])
        arr = params[name]
        orig = arr.flat[idx]
        arr.flat[idx] = orig + h
        loss_plus, _ = loss_fn(params, False)
        arr.flat[idx] = orig - h
        loss_minus, _ = loss_fn(params, False)
        arr.flat[idx] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * h)
        analytic = grads[name].flat[idx]
        errs.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12))
    return float(np.max(errs))  # np.max keeps a NaN, the builtin max can drop it


SPOT_GRADCHECK_CONFIG = EncoderConfig(
    input_dim=16, output_dim=18, model_dim=64, num_layers=3, num_heads=4,
    hidden_dim=256, dropout_p=0.0,
)
GROUND_GRADCHECK_CONFIG = EncoderConfig(
    input_dim=16, output_dim=2, model_dim=64, num_layers=4, num_heads=4,
    hidden_dim=256, dropout_p=0.0, num_segments=2,
)


def spotting_grad_check(
    config: EncoderConfig | None = None,
    trials: int = 100,
    h: float = 1e-5,
    seed: int = 0,
    batch: int = 2,
    T: int = 7,
) -> float:
    """Finite-difference check of the spotting head under cross-entropy."""
    config = config or SPOT_GRADCHECK_CONFIG
    if config.dropout_p:
        config = replace(config, dropout_p=0.0)
    rng = np.random.default_rng(seed)
    params = init_encoder_params(config, rng)
    x = rng.normal(size=(batch, T, config.input_dim))
    targets = np.zeros((batch, config.output_dim))
    targets[np.arange(batch), rng.integers(0, config.output_dim, batch)] = 1.0

    def loss_fn(p, want_grads):
        logits, cache = encoder_forward_batch(p, config, x)
        loss, dlogits = cross_entropy_soft(logits, targets)
        if not want_grads:
            return loss, None
        return loss, encoder_backward(cache, dlogits)

    return grad_check(params, loss_fn, trials=trials, h=h, rng=rng)


def grounding_grad_check(
    config: EncoderConfig | None = None,
    trials: int = 100,
    h: float = 1e-5,
    seed: int = 0,
    batch: int = 2,
    T: int = 16,
) -> float:
    """Finite-difference check of the grounding head under BCE + L2."""
    config = config or GROUND_GRADCHECK_CONFIG
    if config.dropout_p:
        config = replace(config, dropout_p=0.0)
    rng = np.random.default_rng(seed)
    params = init_encoder_params(config, rng)
    x = rng.normal(size=(batch, T, config.input_dim))
    segments = np.zeros((batch, T), dtype=np.int64)
    segments[:, T // 2 :] = 1
    labels = rng.integers(0, 2, batch).astype(np.float64)
    offsets = rng.random(batch)

    def loss_fn(p, want_grads):
        outputs, cache = encoder_forward_batch(p, config, x, segments=segments)
        loss, dout = bce_plus_l2(outputs, labels, offsets)
        if not want_grads:
            return loss, None
        return loss, encoder_backward(cache, dout)

    return grad_check(params, loss_fn, trials=trials, h=h, rng=rng)
