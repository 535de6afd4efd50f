"""Dense numerical kernel: encoder heads with hand-written backprop.

Everything here runs on plain numpy arrays in the dtype of the parameters:
training casts its freshly initialised parameters to float32, while
grad_check drives the very same functions with float64 parameters.
Scalars inside the kernel are Python floats, never numpy float64 scalars,
which would silently promote a float32 array to float64. The encoder is the
classic post-norm arrangement: input projection (scaled by sqrt(model_dim)
before the positional encoding is added, per the original encoder recipe,
so low-magnitude embedding rows are not drowned by the encoding), optional
learned segment offsets, sinusoidal positional encoding, N x
(`attention_block`: multi-head self-attention, `ffn_block`: ReLU feed-forward;
each + dropout + residual + layer-norm), mean pooling over time, final
linear projection. The input projection is its own step (`embed_input`), so
inference can embed a sequence once and run the body on windows of it
(`encoder_forward_embedded`). The backward pass is exact and is verified
against central finite differences by grad_check.

Every product of an activation and a weight goes through `_mm`, which runs
it as one 2-D BLAS product over all rows: numpy's `@` on a 3-D activation
loops over the batch axis, and is slower still with a transposed weight.
Last-axis means and sums (layer norm, softmax) and the bias gradients'
sums over rows are BLAS products with a constant vector, for the same
reason. Only the per-head attention products stay batched.

Attention scores are computed key-major, (T_key, B, H, T_query), so the
softmax's max, subtract and exp run down whole contiguous rows. One copy
then stores the weights query-major, where the row sums and every product
with the weights run as on query-major scores: products on key-major
weights, through transpose flags, round differently at some head widths.

Every activation and gradient is written into a `Workspace`, so a stream
of batches allocates nothing of activation size. Buffer lifetime: a
forward's logits and cache stay valid until the next forward on the same
workspace, a backward's gradients until the next backward. A call given no
workspace makes a fresh one, so grad_check runs the code training runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

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


# elements per block of an element-wise chain run a block at a time, so
# that each block's arrays stay in cache between the chain's passes
CACHE_BLOCK = 65536


class Workspace:
    """Named reusable buffers, one flat array per (name, dtype), grown to the
    largest request so far; a smaller batch gets a leading slice. Also
    keeps tables that depend only on their key, built once."""

    def __init__(self):
        self._flat: dict[tuple[str, np.dtype], np.ndarray] = {}
        self._tables: dict[tuple, np.ndarray] = {}

    def table(self, key: tuple, build) -> np.ndarray:
        """The table for key: build() on the first request, the same array after."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = build()
        return table

    def array(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (name, np.dtype(dtype))
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            flat = self._flat[key] = np.empty(size, dtype=key[1])
        return flat[:size].reshape(shape)


def _mm(x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x (..., k) @ w (k, n) -> (..., n), as one 2-D BLAS product over all
    rows; into out (C-contiguous) if given."""
    if out is None:
        out = np.empty((*x.shape[:-1], w.shape[-1]), dtype=np.result_type(x, w))
    np.matmul(x.reshape(-1, x.shape[-1]), w, out=out.reshape(-1, w.shape[-1]))
    return out


def _row_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over the last axis, keeping it, as a BLAS product with ones."""
    return _mm(x, np.ones((x.shape[-1], 1), dtype=x.dtype), out)


def _row_mean(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Mean over the last axis, keeping it, as a BLAS product."""
    d = x.shape[-1]
    return _mm(x, np.full((d, 1), 1.0 / d, dtype=x.dtype), out)


def _col_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over every leading axis, (..., n) -> (n,), as a BLAS product with ones."""
    x = x.reshape(-1, x.shape[-1])
    return np.matmul(np.ones(x.shape[0], dtype=x.dtype), x, out=out)


def _weight_grad(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over every leading axis of a[..., i] * b[..., j], as one BLAS product."""
    return np.matmul(a.reshape(-1, a.shape[-1]).T, b.reshape(-1, b.shape[-1]), out=out)


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


def _dropout(x, p, rng, ws: Workspace, name: str) -> np.ndarray:
    """Inverted dropout of x, in place. Returns the mask, 1 / (1 - p) where a
    uniform draw is >= p and 0 elsewhere, in the workspace buffer name."""
    mask = ws.array(name, x.shape, x.dtype)
    np.greater_equal(rng.random(out=ws.array("drop.u", x.shape, np.float64)), p, out=mask)
    mask /= 1.0 - p
    x *= mask
    return mask


def _split_heads(x, num_heads):
    """(B, T, H * dk) -> a (B, H, T, dk) view."""
    B, T, dm = x.shape
    return x.reshape(B, T, num_heads, dm // num_heads).transpose(0, 2, 1, 3)


def _attention(q, k, v, num_heads, ws: Workspace, attn, o):
    """Scaled dot-product attention of every head, scores taken key-major.
    Writes the weights into attn (B, H, T_query, T_key), the context into o."""
    B, T, dm = q.shape
    qh, kh = _split_heads(q, num_heads), _split_heads(k, num_heads)
    scores = ws.array("attn.scores", (T, B, num_heads, T), q.dtype)
    np.matmul(kh, qh.transpose(0, 1, 3, 2), out=scores.transpose(1, 2, 0, 3))
    scores *= 1.0 / math.sqrt(dm // num_heads)
    rows = scores.reshape(T, -1)
    rows -= np.max(rows, axis=0, out=ws.array("attn.max", rows.shape[1:], q.dtype))
    np.exp(scores, out=scores)
    np.copyto(attn, scores.transpose(1, 2, 3, 0))
    attn /= _row_sum(attn, ws.array("attn.sum", (B, num_heads, T, 1), q.dtype))
    np.matmul(attn, _split_heads(v, num_heads), out=_split_heads(o, num_heads))


def _attention_backward(q, k, v, attn, do, num_heads, ws: Workspace, dq, dk, dv):
    """Gradients of `_attention` with respect to q, k and v, from d loss /
    d context; written into dq, dk and dv."""
    qh, kh, vh, doh = (_split_heads(t, num_heads) for t in (q, k, v, do))
    dattn = np.matmul(doh, vh.transpose(0, 1, 3, 2), out=ws.array("dattn", attn.shape, q.dtype))
    np.matmul(attn.transpose(0, 1, 3, 2), doh, out=_split_heads(dv, num_heads))
    prod = np.multiply(dattn, attn, out=ws.array("attn.prod", attn.shape, q.dtype))
    dattn -= _row_sum(prod, ws.array("attn.sum", (*attn.shape[:-1], 1), q.dtype))
    dattn *= attn  # d loss / d scores
    scale = 1.0 / math.sqrt(q.shape[-1] // num_heads)
    np.matmul(dattn, kh, out=_split_heads(dq, num_heads))
    dq *= scale
    np.matmul(dattn.transpose(0, 1, 3, 2), qh, out=_split_heads(dk, num_heads))
    dk *= scale


def _add_norm(y, x, params, ln, p, rng, ws: Workspace, tag: str, **saved):
    """Both blocks' tail: dropout of y in place (given an rng), + the residual x,
    layer norm by params ln + "g", ln + "b", into buffers tag + ... Returns
    (output, record): saved, x, "norm" (xhat, inv_std) and the "drop" mask."""
    drop = None if rng is None else _dropout(y, p, rng, ws, tag + "drop")
    y += x
    xhat = ws.array(tag + "xhat", y.shape, y.dtype)
    inv_std = ws.array(tag + "inv", (*y.shape[:-1], 1), y.dtype)
    np.subtract(y, _row_mean(y, inv_std), out=xhat)  # inv_std holds the mean until here
    _row_mean(np.multiply(xhat, xhat, out=ws.array("ln.sq", y.shape, y.dtype)), inv_std)
    inv_std += LN_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    out = np.multiply(xhat, params[ln + "g"], out=ws.array(tag + "y", y.shape, y.dtype))
    out += params[ln + "b"]
    return out, {**saved, "x": x, "norm": (xhat, inv_std), "drop": drop}


def _add_norm_backward(dh, rec, params, ln, ws: Workspace, grad, name: str):
    """Backward of `_add_norm`: dh, d loss / d output, becomes in place the residual's
    share of d loss / d input. Returns d loss / d y: dh, or its dropped copy in name."""
    xhat, inv_std = rec["norm"]
    t = ws.array("ln.t", dh.shape, dh.dtype)
    _col_sum(np.multiply(dh, xhat, out=t), grad(ln + "g"))
    _col_sum(dh, grad(ln + "b"))
    dxhat = np.multiply(dh, params[ln + "g"], out=ws.array("ln.dxhat", dh.shape, dh.dtype))
    m1 = _row_mean(dxhat, ws.array("ln.m1", inv_std.shape, dh.dtype))
    m2 = _row_mean(np.multiply(dxhat, xhat, out=t), ws.array("ln.m2", inv_std.shape, dh.dtype))
    dxhat -= m1
    dxhat -= np.multiply(xhat, m2, out=t)
    np.multiply(inv_std, dxhat, out=dh)
    drop = rec["drop"]
    return dh if drop is None else np.multiply(dh, drop, out=ws.array(name, dh.shape, dh.dtype))


def attention_block(params, pre, config: EncoderConfig, h, ws: Workspace, tag, rng):
    """Self-attention on h (B, T, model_dim) with the parameters pre + "attn.*" and
    "ln1.*", into buffers tag + ... Returns (output, record for the backward)."""
    q, k, v = (_mm(h, params[pre + f"attn.w{name}"], ws.array(tag + name, h.shape, h.dtype))
               for name in "qkv")
    q += params[pre + "attn.bq"]
    v += params[pre + "attn.bv"]
    B, T, _ = h.shape
    attn = ws.array(tag + "attn", (B, config.num_heads, T, T), h.dtype)
    o = ws.array(tag + "o", h.shape, h.dtype)
    _attention(q, k, v, config.num_heads, ws, attn, o)
    y = _mm(o, params[pre + "attn.wo"], ws.array("attn.y", h.shape, h.dtype))
    y += params[pre + "attn.bo"]
    return _add_norm(y, h, params, pre + "ln1.", config.dropout_p, rng, ws, tag + "ln1.",
                     q=q, k=k, v=v, attn=attn, o=o)


def attention_block_backward(params, pre, rec: dict, dh, ws: Workspace, grad):
    """Overwrites dh, d loss / d output, with d loss / d input and returns it;
    grad(name) is the buffer each parameter's gradient is written into."""
    dy = _add_norm_backward(dh, rec, params, pre + "ln1.", ws, grad, "dy")
    _weight_grad(rec["o"], dy, grad(pre + "attn.wo"))
    _col_sum(dy, grad(pre + "attn.bo"))
    do = _mm(dy, params[pre + "attn.wo"].T, ws.array("do", dh.shape, dh.dtype))
    dq, dk, dv = (ws.array(name, dh.shape, dh.dtype) for name in ("dq", "dk", "dv"))
    heads = rec["attn"].shape[1]
    _attention_backward(rec["q"], rec["k"], rec["v"], rec["attn"], do, heads, ws, dq, dk, dv)
    # dh holds the residual's share, so the input gradient sums in this order
    for name, d in (("q", dq), ("k", dk), ("v", dv)):
        _weight_grad(rec["x"], d, grad(pre + f"attn.w{name}"))
        if name != "k":
            _col_sum(d, grad(pre + f"attn.b{name}"))
        dh += _mm(d, params[pre + f"attn.w{name}"].T, ws.array("dx.part", dh.shape, dh.dtype))
    return dh


def ffn_block(params, pre, config: EncoderConfig, h, ws: Workspace, tag, rng):
    """ReLU feed-forward on h (B, T, model_dim), parameters pre + "ffn.*", "ln2.*"."""
    f1 = _mm(h, params[pre + "ffn.w1"],
             ws.array(tag + "f1", (*h.shape[:-1], config.hidden_dim), h.dtype))
    f1 += params[pre + "ffn.b1"]
    np.maximum(f1, 0.0, out=f1)
    f2 = _mm(f1, params[pre + "ffn.w2"], ws.array("ffn.y", h.shape, h.dtype))
    f2 += params[pre + "ffn.b2"]
    return _add_norm(f2, h, params, pre + "ln2.", config.dropout_p, rng, ws, tag + "ln2.", f1=f1)


def ffn_block_backward(params, pre, rec: dict, dh, ws: Workspace, grad):
    """Backward of `ffn_block`, as `attention_block_backward` is of its block."""
    df2 = _add_norm_backward(dh, rec, params, pre + "ln2.", ws, grad, "df2")
    _weight_grad(rec["f1"], df2, grad(pre + "ffn.w2"))
    _col_sum(df2, grad(pre + "ffn.b2"))
    dfpre = _mm(df2, params[pre + "ffn.w2"].T, ws.array("dfpre", rec["f1"].shape, dh.dtype))
    dfpre *= np.greater(rec["f1"], 0.0, out=ws.array("relu", dfpre.shape, bool))
    _weight_grad(rec["x"], dfpre, grad(pre + "ffn.w1"))
    _col_sum(dfpre, grad(pre + "ffn.b1"))
    dh += _mm(dfpre, params[pre + "ffn.w1"].T, ws.array("dx.part", dh.shape, dh.dtype))
    return dh


def embed_input(params: dict[str, np.ndarray], config: EncoderConfig, x: np.ndarray,
                workspace: Workspace | None = None):
    """Input projection, (..., input_dim) -> (..., model_dim), scaled by sqrt(model_dim).

    It acts on each row alone, so a sequence can be embedded once and
    windows cut from the embedded rows. A zero row embeds to exactly
    in.b * sqrt(model_dim). The result views the workspace's "embed" buffer.
    """
    x = np.asarray(x, dtype=params["in.w"].dtype)
    if x.shape[-1] != config.input_dim:
        raise ShapeError(f"input dim {x.shape[-1]} != configured {config.input_dim}")
    ws = Workspace() if workspace is None else workspace
    h = _mm(x, params["in.w"], ws.array("embed", (*x.shape[:-1], config.model_dim), x.dtype))
    h += params["in.b"]
    h *= math.sqrt(config.model_dim)
    return h


def encoder_forward_batch(
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    x: np.ndarray,
    segments: np.ndarray | None = None,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    workspace: Workspace | None = None,
):
    """Run the encoder on a batch. Returns (logits (B, out), cache for backward),
    both views of the workspace."""
    x = np.asarray(x, dtype=params["in.w"].dtype)
    if x.ndim != 3:
        raise ShapeError(f"expected (B, T, input_dim), got shape {x.shape}")
    ws = Workspace() if workspace is None else workspace
    logits, cache = _encode(params, config, embed_input(params, config, x, ws), segments,
                            train_mode, rng, ws)
    cache["x"] = x
    return logits, cache


def encoder_forward_embedded(
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    h: np.ndarray,
    segments: np.ndarray | None = None,
    workspace: Workspace | None = None,
):
    """Inference logits (B, out) from embedded rows (B, T, model_dim).

    The rows come from `embed_input`; what follows is the body of
    `encoder_forward_batch` after its input projection. No backward cache
    is kept, so every layer writes into the same buffers.
    """
    h = np.asarray(h, dtype=params["in.w"].dtype)
    if h.ndim != 3 or h.shape[2] != config.model_dim:
        raise ShapeError(f"expected (B, T, {config.model_dim}) embedded rows, got {h.shape}")
    ws = Workspace() if workspace is None else workspace
    return _encode(params, config, h, segments, False, None, ws, keep_layers=False)[0]


def _encode(params, config, h, segments, train_mode, rng, ws, keep_layers=True):
    """Encoder body from the embedded input h (B, T, model_dim) to logits.
    With keep_layers each layer has its own buffers, kept for backward."""
    B, T, dm = h.shape
    dt = h.dtype
    if config.num_segments and segments is None:
        raise ShapeError("this encoder requires a segments array")
    dropping = train_mode and config.dropout_p > 0.0
    if dropping and rng is None:
        raise ShapeError("train-mode forward with dropout needs an rng")

    cache: dict = {"params": params, "config": config, "workspace": ws, "layers": []}
    x0 = ws.array("h0", h.shape, dt)
    if config.num_segments:
        seg = np.asarray(segments, dtype=np.int64)
        if seg.shape != (B, T) and seg.shape != (T,):
            raise ShapeError(f"segments shape {seg.shape} does not match ({B}, {T})")
        if seg.min() < 0 or seg.max() >= config.num_segments:
            raise ShapeError(f"segments must lie in [0, {config.num_segments})")
        if seg.ndim == 1:
            seg = np.broadcast_to(seg, (B, T))
        cache["segments"] = seg
        np.take(params["seg.emb"], seg, axis=0, out=x0, mode="clip")  # in range: checked
        np.add(h, x0, out=x0)
        h = x0
    pe = ws.table(("pe", T, dm, dt), lambda: positional_encoding(T, dm).astype(dt, copy=False))
    np.add(h, pe, out=x0)
    h = x0
    if dropping:
        cache["drop0"] = _dropout(h, config.dropout_p, rng, ws, "drop0")
    _check_finite(h, "input projection")

    drop_rng = rng if dropping else None
    for i in range(config.num_layers):
        pre = f"layer{i}."
        tag = pre if keep_layers else ""
        h1, attn_rec = attention_block(params, pre, config, h, ws, tag, drop_rng)
        # without keep_layers this overwrites the layer's input h, read for the last time above
        h, ffn_rec = ffn_block(params, pre, config, h1, ws, tag, drop_rng)
        _check_finite(h, f"encoder layer {i}")
        cache["layers"].append((attn_rec, ffn_rec))

    # bit-equal to np.mean, which divides the same sum in float64 and rounds:
    # for a quotient of float32 values that is the float32 quotient
    pooled = np.sum(h, axis=1, out=ws.array("pooled", (B, dm), dt))
    pooled /= T
    cache["pooled"] = pooled
    logits = np.matmul(pooled, params["out.w"],
                       out=ws.array("logits", (B, config.output_dim), dt))
    logits += params["out.b"]
    _check_finite(logits, "output projection")
    cache["logits_shape"] = logits.shape
    return logits, cache


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
    ws = cache["workspace"]
    B, T, _ = cache["x"].shape
    dm, dtype = config.model_dim, upstream.dtype
    grads: dict[str, np.ndarray] = {}

    def grad(name):
        grads[name] = ws.array("grad." + name, params[name].shape, dtype)
        return grads[name]

    _weight_grad(cache["pooled"], upstream, grad("out.w"))
    _col_sum(upstream, grad("out.b"))
    dpooled = upstream @ params["out.w"].T
    dh = np.divide(dpooled[:, None, :], T, out=ws.array("dh", (B, T, dm), dtype))
    for i in reversed(range(config.num_layers)):
        attn_rec, ffn_rec = cache["layers"][i]
        dh = ffn_block_backward(params, f"layer{i}.", ffn_rec, dh, ws, grad)
        dh = attention_block_backward(params, f"layer{i}.", attn_rec, dh, ws, grad)

    if "drop0" in cache:
        dh *= cache["drop0"]
    if config.num_segments:
        seg = cache["segments"]
        demb = grad("seg.emb")
        for k in range(config.num_segments):
            demb[k] = dh[seg == k].sum(axis=0)
    dh *= math.sqrt(dm)
    _weight_grad(cache["x"], dh, grad("in.w"))
    _col_sum(dh, grad("in.b"))
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

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


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
) -> float:
    """One bias-corrected adaptive-moment update of the state's flat buffer,
    in place. Returns the global L2 norm of the gradient.

    The element-wise arithmetic is the per-tensor update's, in the same
    order, so the result does not depend on how the parameters are laid
    out; it runs over blocks of CACHE_BLOCK elements, which stay in cache
    between its passes. A non-finite gradient raises before anything is
    updated: it makes the sum of squares non-finite, and only then is
    each element checked.
    """
    if len(params) != len(state.views) or any(
        params.get(n) is not view for n, view in zip(state.names, state.views)
    ):
        raise ConsistencyError("parameters no longer view the optimizer's buffer")
    g = state.g
    np.concatenate([grads[n].reshape(-1) for n in state.names], out=g)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = math.sqrt(float(g @ g))  # not finite if any element is NaN or +-inf
    if not math.isfinite(norm):
        if not np.isfinite(g).all():
            ends = np.cumsum([view.size for view in state.views])
            first = np.flatnonzero(~np.isfinite(g))[0]
            bad = state.names[int(np.searchsorted(ends, first, side="right"))]
            raise NumericError(f"non-finite gradient for {bad}")
        # every element is finite, so only the sum of squares overflowed
        norm = float(np.linalg.norm(g.astype(np.float64)))

    b1, b2 = ADAM_BETAS
    state.step += 1
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for lo in range(0, g.size, CACHE_BLOCK):
        flat, m, v, gb, s = (a[lo : lo + CACHE_BLOCK]
                             for a in (state.flat, state.m, state.v, g, state.scratch))
        m *= b1
        m += np.multiply(gb, 1.0 - b1, out=s)
        v *= b2
        np.multiply(gb, 1.0 - b2, out=s)
        v += np.multiply(s, gb, out=s)
        np.divide(v, c2, out=s)  # s: the denominator sqrt(v / c2) + eps
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.divide(m, c1, out=gb)  # gb: the update lr * (m / c1) / s
        gb *= lr
        gb /= s
        flat -= gb
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
GRADCHECK_BATCH = 2
SPOT_GRADCHECK_T = 7  # a spotting chunk
GROUND_GRADCHECK_T = 16  # two segments of 8 rows


def _head_grad_check(config, trials, h, seed, T, draw_loss, init=init_encoder_params,
                     forward=encoder_forward_batch, backward=encoder_backward) -> float:
    """Finite-difference check of one head on a random batch, in float64.

    The rng draws the parameters with init(config, rng), then the
    (GRADCHECK_BATCH, T) input, then, through draw_loss(rng, config), the
    head's targets; draw_loss returns the loss, a function of the outputs
    giving (loss, d loss / d outputs). forward(params, config, x) runs
    the head as a pure function of params (eval mode, or dropout masks drawn
    afresh from one seed), and backward(cache, d loss / d outputs) gives its gradients.
    """
    rng = np.random.default_rng(seed)
    params = init(config, rng)
    x = rng.normal(size=(GRADCHECK_BATCH, T, config.input_dim))
    loss = draw_loss(rng, config)

    def loss_fn(p, want_grads):
        outputs, cache = forward(p, config, x)
        value, dout = loss(outputs)
        if not want_grads:
            return value, None
        return value, backward(cache, dout)

    return grad_check(params, loss_fn, trials=trials, h=h, rng=rng)


def _class_targets_loss(rng, config):
    """The spotting heads' gradient-check loss: cross-entropy against one
    drawn class per sample."""
    targets = np.zeros((GRADCHECK_BATCH, config.output_dim))
    classes = rng.integers(0, config.output_dim, GRADCHECK_BATCH)
    targets[np.arange(GRADCHECK_BATCH), classes] = 1.0
    return lambda logits: cross_entropy_soft(logits, targets)


def spotting_grad_check(trials: int = 100, h: float = 1e-5, seed: int = 0) -> float:
    """Finite-difference check of the SPOT_GRADCHECK_CONFIG head under cross-entropy."""
    return _head_grad_check(SPOT_GRADCHECK_CONFIG, trials, h, seed, SPOT_GRADCHECK_T,
                            _class_targets_loss)


def grounding_grad_check(trials: int = 100, h: float = 1e-5, seed: int = 0) -> float:
    """Finite-difference check of the GROUND_GRADCHECK_CONFIG head under BCE + L2."""
    segments = np.zeros((GRADCHECK_BATCH, GROUND_GRADCHECK_T), dtype=np.int64)
    segments[:, GROUND_GRADCHECK_T // 2 :] = 1

    def draw_loss(rng, config):
        labels = rng.integers(0, 2, GRADCHECK_BATCH).astype(np.float64)
        offsets = rng.random(GRADCHECK_BATCH)
        return lambda outputs: bce_plus_l2(outputs, labels, offsets)

    return _head_grad_check(GROUND_GRADCHECK_CONFIG, trials, h, seed, GROUND_GRADCHECK_T,
                            draw_loss, forward=partial(encoder_forward_batch, segments=segments))
