"""Action spotting: chunk sampling, the two heads, training and inference.

A half is cut into fixed-length chunks; each chunk is classified into one
of 17 event classes or background. Inference slides a window at 1 s
stride, assigns probabilities to window centers and reduces the per-class
score series with greedy temporal NMS.

The NetVLAD head writes into an `nn.Workspace`, with the encoder's buffer
lifetimes; its row norms and reductions are BLAS products. Both of its
normalisations are folded into per-row scalars: the forward scales each
raw row's output product by its inverse norm, and the backward hands the
centre, mass and assignment gradients the row gradient as two terms,
g - alpha v, so neither the normalised rows nor their gradient is ever
formed. A training step also gathers and mixes up its batch in the
workspace.
"""

from __future__ import annotations

import copy
import itertools
import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .checkpoint import KIND_SPOT_NETVLAD, KIND_SPOT_TRANSFORMER, Model
from .data import EventAnnotation, FeatureSequence, GameHalf, gather_windows
from .errors import ParseError, ShapeError
from .nn import (
    CACHE_BLOCK,
    AdamState,
    _check_finite,
    _glorot,
    EncoderConfig,
    Workspace,
    adam_step,
    cross_entropy_soft,
    embed_input,
    encoder_backward,
    encoder_forward_batch,
    encoder_forward_embedded,
    init_encoder_params,
    softmax,
)
from .vocab import BACKGROUND_INDEX, DEFAULT_VOCAB, NUM_OUTPUT_CLASSES, label_index

logger = logging.getLogger(__name__)

# windows per forward pass in score_series: 64 was the fastest of 16, 64,
# 256 and 1024 at SoccerNet-split scale
SCORE_BATCH = 64


@dataclass(frozen=True)
class SpotPrediction:
    game_id: str
    half: int
    time_s: int
    class_index: int
    label: str
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ShapeError(f"confidence {self.confidence} outside [0, 1]")
        if not 0 <= self.class_index < BACKGROUND_INDEX:
            raise ShapeError("background is never emitted as a prediction")


@dataclass(frozen=True)
class SpotCandidates:
    """One half's candidate predictions as arrays, class-major and each
    class's times ascending: candidate i is class classes[i], named
    labels[i], at second times[i] with confidence confidences[i]."""

    game_id: str
    half: int
    labels: np.ndarray  # of str
    classes: np.ndarray
    times: np.ndarray
    confidences: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class TrainSpec:
    lr: float = 5e-4
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.lr > 0.0:
            raise ShapeError(f"lr must be > 0, got {self.lr}")


def fit(model: Model, spec: TrainSpec, rng: np.random.Generator, epoch_data, batch_step,
        end_epoch=None) -> None:
    """The training loop every head runs: epochs of shuffled batches, one
    Adam update per batch, one history record per epoch.

    epoch_data() returns the epoch's arrays, indexed alike along axis 0.
    batch_step(*batch) runs forward, loss and backward on one batch of
    them and returns (mean loss, grads). end_epoch(record), if given, may
    add to the epoch's record before it joins model.history. Each epoch
    the rng serves epoch_data first, then the permutation, then each
    batch step in turn. The Adam moments live only for this run; the
    record's grad_norm is the mean over the epoch's steps of the global
    gradient L2 norm.
    """
    opt = AdamState.for_params(model.params)
    for epoch in range(spec.epochs):
        data = epoch_data()
        n = len(data[0])
        perm = rng.permutation(n)
        epoch_loss = 0.0
        norms = []
        for lo in range(0, n, spec.batch_size):
            idx = perm[lo : lo + spec.batch_size]
            loss, grads = batch_step(*(a[idx] for a in data))
            norms.append(adam_step(model.params, grads, opt, spec.lr))
            epoch_loss += loss * len(idx)
        record = {"epoch": epoch, "train_loss": epoch_loss / n,
                  "grad_norm": sum(norms) / len(norms)}
        if end_epoch is not None:
            end_epoch(record)
        model.history.append(record)
        logger.debug("%s epoch %d: %s", model.kind, epoch, record)


def training_model(kind: str, config, vocab, params: dict[str, np.ndarray]) -> Model:
    """A model about to be trained: the initialised parameters cast to
    float32, the dtype every training step then runs in."""
    params = {name: p.astype(np.float32) for name, p in params.items()}
    return Model(kind=kind, config=config, vocab=list(vocab), params=params)


def make_chunks(
    features: FeatureSequence,
    events: list[EventAnnotation],
    chunk_size_s: int,
    vocab=DEFAULT_VOCAB,
) -> np.ndarray:
    """(n, 18) targets of the half's chunks: the chunk starting at second
    k * chunk_size_s is labelled with the event nearest its center
    (earlier timestamp wins exact ties), or background."""
    if chunk_size_s < 1:
        raise ShapeError("chunk size must be >= 1 s")
    starts = range(0, features.duration_s, chunk_size_s)
    targets = np.zeros((len(starts), NUM_OUTPUT_CLASSES))
    for i, start in enumerate(starts):
        inside = [ev for ev in events if start <= ev.time_s < start + chunk_size_s]
        if inside:
            center = start + chunk_size_s / 2.0
            best = min(inside, key=lambda ev: (abs(ev.time_s - center), ev.time_s))
            targets[i, label_index(vocab, best.label)] = 1.0
        else:
            targets[i, BACKGROUND_INDEX] = 1.0
    return targets


def mixup(xb: np.ndarray, yb: np.ndarray, alpha: float, rng: np.random.Generator,
          workspace: Workspace | None = None):
    """Mix each sample of a batch with a partner drawn from the same batch.

    The rng draws the partner permutation, then one Beta(alpha, alpha)
    coefficient lam per sample; inputs and targets both become
    lam * own + (1 - lam) * partner, so targets stay on the simplex. The
    inputs are mixed a block of samples at a time, CACHE_BLOCK elements or
    one sample, so each block's passes run in cache. The mixed inputs view
    the workspace.
    """
    if len(xb) != len(yb):
        raise ShapeError(f"mixup batch sizes differ: {len(xb)} inputs vs {len(yb)} targets")
    ws = Workspace() if workspace is None else workspace
    partner = rng.permutation(len(xb))
    lam = rng.beta(alpha, alpha, size=(len(xb), 1)).astype(xb.dtype)
    own, other = lam[:, :, None], 1.0 - lam[:, :, None]
    mixed = ws.array("mixup", xb.shape, xb.dtype)
    step = max(1, CACHE_BLOCK // math.prod(xb.shape[1:]))
    scratch = ws.array("mixup.partner", (min(step, len(xb)), *xb.shape[1:]), xb.dtype)
    for lo in range(0, len(xb), step):
        hi = min(lo + step, len(xb))
        np.multiply(own[lo:hi], xb[lo:hi], out=mixed[lo:hi])
        part = np.take(xb, partner[lo:hi], axis=0, out=scratch[: hi - lo],
                       mode="clip")  # a permutation: in range, and "clip" skips a buffered copy
        part *= other[lo:hi]
        mixed[lo:hi] += part
    return mixed, lam * yb + (1.0 - lam) * yb[partner]


# ---------------------------------------------------------------------------
# NetVLAD++-style pooling head


@dataclass(frozen=True)
class NetVLADConfig:
    input_dim: int
    output_dim: int = NUM_OUTPUT_CLASSES
    clusters: int = 64

    def __post_init__(self):
        if self.clusters < 1:
            raise ShapeError("need at least one cluster")
        if min(self.input_dim, self.output_dim) < 1:
            raise ShapeError("all dimensions must be positive")


def netvlad_param_shapes(config: NetVLADConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every NetVLAD head parameter, in initialisation order."""
    D, K = config.input_dim, config.clusters
    shapes: dict[str, tuple[int, ...]] = {}
    for half in ("past", "future"):
        shapes[f"vlad.{half}.assign_w"] = (D, K)
        shapes[f"vlad.{half}.assign_b"] = (K,)
        shapes[f"vlad.{half}.centers"] = (K, D)
    shapes["vlad.out.w"] = (2 * K * D, config.output_dim)
    shapes["vlad.out.b"] = (config.output_dim,)
    return shapes


def init_netvlad_params(config: NetVLADConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot assignment and output weights, N(0, 1/D) centres, zero biases."""
    p: dict[str, np.ndarray] = {}
    for name, shape in netvlad_param_shapes(config).items():
        if len(shape) == 1:
            p[name] = np.zeros(shape)
        elif name.endswith("centers"):
            p[name] = rng.normal(0.0, 1.0 / np.sqrt(config.input_dim), size=shape)
        else:
            p[name] = _glorot(rng, *shape)
    return p


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products (..., 1) of the (..., D) rows of a and b, as batched
    (1, D) @ (D, 1) BLAS products."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0]


def _vlad_half_forward(params, prefix, xh, vlad, ws: Workspace):
    """Writes one half's raw VLAD rows, sum_t assign[t, k] * (xh[t] - c[k]),
    into vlad (B, K, D)."""
    logits = xh @ params[prefix + "assign_w"] + params[prefix + "assign_b"]
    assign = softmax(logits)  # (B, Th, K)
    mass = assign.sum(axis=1)  # (B, K)
    np.matmul(assign.transpose(0, 2, 1), xh, out=vlad)
    vlad -= np.multiply(mass[:, :, None], params[prefix + "centers"],
                        out=ws.array("vlad.tmp", vlad.shape, vlad.dtype))
    return {"xh": xh, "assign": assign, "mass": mass}


def netvlad_forward_batch(params, config: NetVLADConfig, x: np.ndarray,
                          workspace: Workspace | None = None):
    """Past/future VLAD descriptors, intra- then L2-normalized, to logits.

    Neither normalisation is applied to the rows. The 2K raw rows v_k
    (both halves' clusters, in descriptor order) meet their blocks W_k of
    the output weight in one batched product P_k = v_k @ W_k, and with n_k
    = ||v_k|| and s = sqrt(number of non-zero rows), the descriptor's norm
    once every row is unit or zero, logits = (sum_k P_k / n_k) / s + b.
    A zero row has inverse norm 0 and adds nothing. Logits and cache view
    the workspace.
    """
    x = np.asarray(x, dtype=params["vlad.out.w"].dtype)
    if x.ndim != 3:
        raise ShapeError(f"expected (B, L, D), got {x.shape}")
    B, L, D = x.shape
    if L % 2 != 0:
        raise ShapeError(f"NetVLAD pooling needs an even chunk length, got L={L}")
    if D != config.input_dim:
        raise ShapeError(f"input dim {D} != configured {config.input_dim}")
    ws = Workspace() if workspace is None else workspace
    dt, half, R, O = x.dtype, L // 2, 2 * config.clusters, config.output_dim
    vlad = ws.array("vlad", (B, 2, config.clusters, D), dt)
    rec_p = _vlad_half_forward(params, "vlad.past.", x[:, :half], vlad[:, 0], ws)
    rec_f = _vlad_half_forward(params, "vlad.future.", x[:, half:], vlad[:, 1], ws)
    rows = vlad.reshape(B, R, D)
    norms = np.sqrt(_row_dots(rows, rows))[..., 0]  # (B, 2K)
    inv_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    products = np.matmul(rows.transpose(1, 0, 2), params["vlad.out.w"].reshape(R, D, O),
                         out=ws.array("vlad.products", (R, B, O), dt))
    logits = np.matmul(inv_norms[:, None, :], products.transpose(1, 0, 2),
                       out=ws.array("vlad.logits", (B, 1, O), dt))[:, 0]
    # s, or 1 for a zero descriptor, whose sum is 0 already
    scale = np.maximum(np.sqrt(np.count_nonzero(inv_norms, axis=1, keepdims=True), dtype=dt), 1.0)
    logits /= scale
    logits += params["vlad.out.b"]
    _check_finite(logits, "NetVLAD output projection")
    cache = {
        "params": params,
        "workspace": ws,
        "past": rec_p,
        "future": rec_f,
        "vlad": vlad,
        "inv_norms": inv_norms,
        "products": products,
        "scale": scale,
    }
    return logits, cache


def _row_backward(products, inv_norms, dz, w, ws: Workspace):
    """The intra-normalisation backward, folded into per-row terms.

    For row k with y_k = v_k / n_k and upstream dy_k = dz @ W_k.T, d loss /
    d v_k = (dy_k - y_k <y_k, dy_k>) / n_k = g_k - alpha_k v_k, where u_k =
    dz / n_k, g_k = u_k @ W_k.T and alpha_k = (P_k . dz) / n_k^3. Returns
    u (2K, B, O), g (B, 2K, D) and alpha (2K, B); a zero row gets all
    three zero. Neither dy nor d loss / d v is formed.
    """
    (R, B, O), D = products.shape, w.shape[1]
    inv = inv_norms.T  # (2K, B)
    u = np.multiply(inv[:, :, None], dz, out=ws.array("vlad.u", (R, B, O), dz.dtype))
    g = ws.array("vlad.g", (B, R, D), dz.dtype)
    np.matmul(u, w.transpose(0, 2, 1), out=g.transpose(1, 0, 2))
    alpha = np.sum(products * u, axis=-1)
    alpha *= inv
    alpha *= inv
    return u, g, alpha


def _vlad_half_backward(params, prefix, rec, v, g, alpha, u, w, grad, ws: Workspace):
    """Gradients of one half's parameters from its rows' terms: v and g
    (B, K, D), alpha (K, B), u (K, B, O) and its blocks w (K, D, O) of the
    output weight. Each consumer of d loss / d v = g - alpha v is linear
    in it, so takes g and alpha v apart."""
    xh, assign, mass = rec["xh"], rec["assign"], rec["mass"]
    K, D = v.shape[1:]
    centers = params[prefix + "centers"]
    by_cluster = v.transpose(1, 0, 2)  # (K, B, D)
    # - sum_b mass_bk dv_bk = sum_b mass_bk alpha_bk v_bk - W_k sum_b mass_bk u_bk
    dcenters = grad(prefix + "centers")
    np.matmul((mass.T * alpha)[:, None, :], by_cluster, out=dcenters[:, None, :])
    dcenters -= (w @ np.matmul(mass.T[:, None, :], u).transpose(0, 2, 1))[..., 0]
    # dmass_bk = - <dv_bk, c_k> = alpha_bk <v_bk, c_k> - (c_k W_k) . u_bk
    dmass = alpha * _row_dots(by_cluster, centers[:, None, :])[..., 0]
    dmass -= np.matmul(u, np.matmul(centers[:, None, :], w).transpose(0, 2, 1))[..., 0]
    dassign = xh @ g.transpose(0, 2, 1)  # (B, Th, K)
    dassign -= alpha.T[:, None, :] * (xh @ v.transpose(0, 2, 1))
    dassign += dmass.T[:, None, :]
    dlogits = assign * (dassign - (dassign * assign).sum(axis=-1, keepdims=True))
    # summed per-frame (D, B) @ (B, K) products: xh.reshape(-1, D) would
    # copy the strided half
    per_frame = np.matmul(xh.transpose(1, 2, 0), dlogits.transpose(1, 0, 2),
                          out=ws.array("vlad.per_frame", (xh.shape[1], D, K), xh.dtype))
    np.sum(per_frame, axis=0, out=grad(prefix + "assign_w"))
    np.sum(dlogits, axis=(0, 1), out=grad(prefix + "assign_b"))


def netvlad_backward(cache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the cached forward, written into its workspace.

    With dz = dlogits / s, the output weight's block k gets v_k.T @ (dz /
    n_k), and the rows' gradient is left as `_row_backward`'s terms. The
    descriptor-level L2 backward keeps only its 1 / s: its other term is a
    multiple of each unit or zero row y_k, which the intra-normalisation
    backward projects out exactly.
    """
    params, ws = cache["params"], cache["workspace"]
    w = params["vlad.out.w"]
    dlogits = np.asarray(dlogits, dtype=w.dtype)
    vlad = cache["vlad"]
    B, _, K, D = vlad.shape
    blocks = w.reshape(2 * K, D, -1)
    grads: dict[str, np.ndarray] = {}

    def grad(name):
        grads[name] = ws.array("grad." + name, params[name].shape, w.dtype)
        return grads[name]

    u, g, alpha = _row_backward(cache["products"], cache["inv_norms"],
                                dlogits / cache["scale"], blocks, ws)
    np.matmul(vlad.reshape(B, 2 * K, D).transpose(1, 2, 0), u,
              out=grad("vlad.out.w").reshape(blocks.shape))
    np.sum(dlogits, axis=0, out=grad("vlad.out.b"))
    for i, half in enumerate(("past", "future")):
        k = slice(i * K, (i + 1) * K)
        _vlad_half_backward(params, f"vlad.{half}.", cache[half], vlad[:, i],
                            g[:, k], alpha[k], u[k], blocks[k], grad, ws)
    return grads


# ---------------------------------------------------------------------------
# training


def _head_forward(model: Model, xb: np.ndarray, workspace: Workspace, train_mode=False, rng=None):
    if model.kind == KIND_SPOT_TRANSFORMER:
        return encoder_forward_batch(model.params, model.config, xb,
                                     train_mode=train_mode, rng=rng, workspace=workspace)
    if model.kind == KIND_SPOT_NETVLAD:
        return netvlad_forward_batch(model.params, model.config, xb, workspace)
    raise ShapeError(f"unknown spotting head {model.kind!r}")


def _head_backward(model: Model, cache, dlogits):
    if model.kind == KIND_SPOT_TRANSFORMER:
        return encoder_backward(cache, dlogits)
    return netvlad_backward(cache, dlogits)


def default_spot_lr(head: str) -> float:
    return 5e-4 if head == "transformer" else 1e-4


def default_spot_epochs(head: str) -> int:
    return 50 if head == "transformer" else 40


def _chunk_samples(halves, chunk_size_s, vocab):
    """(which, starts, Y, windows) of the halves' chunks, tiled at stride
    L = chunk_size_s: chunk i is the L rows of halves[which[i]] from
    second starts[i], with target Y[i]. A batch gathered by
    windows(which, starts, workspace=None) has the dtype of all the halves."""
    if not halves:
        raise ParseError("empty dataset: no chunks to train on")
    L = chunk_size_s
    Y = np.concatenate([make_chunks(gh.features, gh.events, L, vocab) for gh in halves])
    starts = [np.arange(0, gh.features.duration_s, L) for gh in halves]
    which = np.repeat(np.arange(len(halves)), [len(s) for s in starts])
    datas = [gh.features.data for gh in halves]
    dtype = np.result_type(*(data.dtype for data in datas))
    windows = partial(gather_windows, datas, length_s=L, dtype=dtype)
    return which, np.concatenate(starts), Y, windows


def _eval_loss(model, which, starts, Y, windows, batch_size, workspace: Workspace):
    """Mean loss over the chunks, each batch gathered and run in the workspace."""
    total = 0.0
    for lo in range(0, len(Y), batch_size):
        xb = windows(which[lo : lo + batch_size], starts[lo : lo + batch_size],
                     workspace=workspace)
        logits, _ = _head_forward(model, xb, workspace)
        loss, _ = cross_entropy_soft(logits, Y[lo : lo + batch_size])
        total += loss * len(xb)
    return total / len(Y)


def train_spotting(
    train: list[GameHalf],
    valid: list[GameHalf],
    spec: TrainSpec,
    config: EncoderConfig | NetVLADConfig,
    chunk_size_s: int,
    mixup_alpha: float,
    vocab=DEFAULT_VOCAB,
) -> Model:
    """Train a spotting head on the train halves' chunks: NetVLAD for a
    NetVLADConfig, the transformer for an EncoderConfig. Deterministic for
    a given (spec.seed, config).

    With valid halves, each epoch records their loss and the parameters
    with the best one are returned; with none, the final epoch's. A
    mixup_alpha of 0 disables mixup.
    """
    if not mixup_alpha >= 0.0:
        raise ShapeError(f"mixup_alpha must be >= 0, got {mixup_alpha}")
    which, starts, Y, windows = _chunk_samples(train, chunk_size_s, vocab)
    input_dim = train[0].features.dim
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
    if isinstance(config, NetVLADConfig):
        params = init_netvlad_params(config, rng)
        kind = KIND_SPOT_NETVLAD
    else:
        params = init_encoder_params(config, rng)
        kind = KIND_SPOT_TRANSFORMER
    if config.output_dim != NUM_OUTPUT_CLASSES:
        raise ShapeError(f"spotting heads emit {NUM_OUTPUT_CLASSES} classes, "
                         f"config has {config.output_dim}")
    if config.input_dim != input_dim:
        raise ShapeError(f"config input_dim {config.input_dim} != data dim {input_dim}")

    model = training_model(kind, config, vocab, params)
    ws = Workspace()

    def step(which, starts, yb):
        xb = windows(which, starts, workspace=ws)
        if mixup_alpha > 0.0:
            xb, yb = mixup(xb, yb, mixup_alpha, rng, ws)
        logits, cache = _head_forward(model, xb, ws, train_mode=True, rng=rng)
        loss, dlogits = cross_entropy_soft(logits, yb)
        return loss, _head_backward(model, cache, dlogits)

    best: dict = {}
    keep_best = None
    if valid:
        valid_chunks = _chunk_samples(valid, chunk_size_s, vocab)

        def keep_best(record):
            record["valid_loss"] = vloss = _eval_loss(model, *valid_chunks, spec.batch_size, ws)
            if not best or vloss < best["loss"]:
                best.update(loss=vloss, params=copy.deepcopy(model.params))

    fit(model, spec, rng, lambda: (which, starts, Y), step, keep_best)
    if best:
        model.params = best["params"]
    return model


# ---------------------------------------------------------------------------
# inference


def _nms_keep(times, confidences, window_s: int) -> list[int]:
    """Greedy temporal NMS on arrays: the indices of the survivors, in the
    order they are accepted.

    In (-confidence, time) order, ties keeping input order, accept each
    entry that lies more than window_s from every one accepted before it.
    An accepted entry blocks the distinct times within window_s of it in a
    mask, so each entry costs one mask look-up.
    """
    times = np.asarray(times)
    order = np.lexsort((times, -np.asarray(confidences, dtype=float)))
    seconds, slot = np.unique(times, return_inverse=True)
    lo = np.searchsorted(seconds, times - window_s)
    hi = np.maximum(np.searchsorted(seconds, times + window_s, "right"), lo)
    free = bytearray(b"\x01") * len(seconds)
    kept = []
    for i, s, a, b in zip(order.tolist(), *(x[order].tolist() for x in (slot, lo, hi))):
        if free[s]:
            kept.append(i)
            free[a:b] = bytes(b - a)
    return kept


def _halves(preds: list[SpotPrediction]) -> list[SpotCandidates]:
    """Each (game, half)'s predictions as SpotCandidates, in (game_id, half)
    order; equal (class, time) predictions keep their input order."""
    ordered = sorted(preds, key=lambda p: (p.game_id, p.half, p.class_index, p.time_s))
    halves = []
    for (game_id, half), group in itertools.groupby(ordered, lambda p: (p.game_id, p.half)):
        group = list(group)
        classes, times, confidences = (np.array([getattr(p, a) for p in group])
                                       for a in ("class_index", "time_s", "confidence"))
        labels = np.array([p.label for p in group], dtype=object)
        halves.append(SpotCandidates(game_id, half, labels, classes, times, confidences))
    return halves


def nms_1d(preds: list[SpotPrediction] | SpotCandidates, window_s: int) -> list[SpotPrediction]:
    """Greedy per-class, per-half temporal NMS.

    Accept the highest-confidence prediction, drop same-class predictions
    within +/-window_s of it, repeat. Survivors are returned sorted by
    (game_id, half, time, class) and are pairwise more than window_s apart
    within a class. A list is split into its halves' SpotCandidates, so
    every half runs the same array code, and only survivors become
    predictions.
    """
    kept = []
    for c in [preds] if isinstance(preds, SpotCandidates) else _halves(preds):
        bounds = np.searchsorted(c.classes, np.arange(BACKGROUND_INDEX + 1)).tolist()
        idx = np.array([lo + i for lo, hi in zip(bounds, bounds[1:])
                        for i in _nms_keep(c.times[lo:hi], c.confidences[lo:hi], window_s)],
                       dtype=np.intp)
        idx = idx[np.lexsort((c.classes[idx], c.times[idx]))]  # time, then class
        kept += [SpotPrediction(c.game_id, c.half, t, k, label, conf)
                 for t, k, label, conf in zip(*(x[idx].tolist() for x in (
                     c.times, c.classes, c.labels, c.confidences)))]
    return kept


def score_series(model: Model, features: FeatureSequence, chunk_size_s: int) -> np.ndarray:
    """(T, 18) class probabilities, one row per second (window centers).

    The window centred on second t starts at second t - chunk // 2 and has
    zero rows outside the half. The transformer's input projection acts on
    each row alone, so its windows slide over the half's rows embedded
    once; a zero pad row embeds to in.b * sqrt(model_dim). NetVLAD gathers
    each batch's windows from the half itself, with no padded copy of it.
    Every batch reuses one workspace.
    """
    if chunk_size_s < 1:
        raise ShapeError("chunk size must be >= 1")
    data = features.data
    T, D = data.shape
    left = chunk_size_s // 2
    embedded = model.kind == KIND_SPOT_TRANSFORMER
    ws = Workspace()
    if embedded:
        padded = np.empty((T + chunk_size_s - 1, model.config.model_dim),
                          dtype=model.params["in.w"].dtype)
        padded[:] = embed_input(model.params, model.config, np.zeros(D), ws)
        for lo in range(0, T, SCORE_BATCH):
            hi = min(lo + SCORE_BATCH, T)
            padded[left + lo : left + hi] = embed_input(model.params, model.config,
                                                        data[lo:hi], ws)
        windows = np.lib.stride_tricks.sliding_window_view(padded, chunk_size_s, axis=0)
        windows = windows.transpose(0, 2, 1)  # (T, chunk, model_dim)
    probs = np.empty((T, NUM_OUTPUT_CLASSES))
    for lo in range(0, T, SCORE_BATCH):
        hi = min(lo + SCORE_BATCH, T)
        if embedded:  # its first step copies the strided windows into the workspace
            logits = encoder_forward_embedded(model.params, model.config, windows[lo:hi],
                                              workspace=ws)
        else:
            xb = gather_windows([data], [0] * (hi - lo), range(lo - left, hi - left),
                                chunk_size_s, data.dtype, ws)
            logits, _ = _head_forward(model, xb, ws)
        probs[lo:hi] = softmax(logits)
    return probs


def select_predictions(
    probs: np.ndarray,
    game_id: str,
    half: int,
    vocab,
    threshold: float,
    nms_window_s: int,
) -> list[SpotPrediction]:
    """Threshold a (T, 18) score series and reduce it with per-class NMS.

    Selection depends only on the ordering of scores above the threshold,
    so any strictly increasing transform of the series leaves the
    surviving (time, class) set unchanged. Background is never emitted.
    """
    labels = np.array([vocab[c] if c < len(vocab) else str(c) for c in range(BACKGROUND_INDEX)],
                      dtype=object)
    by_class = probs[:, :BACKGROUND_INDEX].T
    cs, ts = np.nonzero(by_class >= threshold)  # class-major, each class's times ascending
    return nms_1d(SpotCandidates(game_id, half, labels[cs], cs, ts, by_class[cs, ts]),
                  nms_window_s)


def spot_game(
    model: Model,
    features: FeatureSequence,
    chunk_size_s: int = 7,
    nms_window_s: int = 20,
    threshold: float = 0.05,
) -> list[SpotPrediction]:
    """Slide at 1 s stride, threshold the per-class score series, NMS."""
    probs = score_series(model, features, chunk_size_s)
    return select_predictions(
        probs, features.game_id, features.half, model.vocab, threshold, nms_window_s
    )
