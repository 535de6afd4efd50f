"""Action spotting: chunk tensors, the two heads, training and inference.

A half is cut into fixed-length chunks; each chunk is classified into one
of 17 event classes or background. Inference slides a window at 1 s
stride, assigns probabilities to window centers and reduces the per-class
score series with greedy temporal NMS.
"""

from __future__ import annotations

import bisect
import copy
import logging
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import KIND_SPOT_NETVLAD, KIND_SPOT_TRANSFORMER, Model
from .data import EventAnnotation, FeatureSequence, GameHalf
from .errors import ParseError, ShapeError
from .nn import (
    AdamState,
    _glorot,
    EncoderConfig,
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
class TrainSpec:
    mode: str = "ultra"  # "regular" keeps the best-validation checkpoint
    lr: float = 5e-4
    epochs: int = 50
    batch_size: int = 32
    chunk_size_s: int = 7
    mixup_alpha: float = 0.2  # 0 disables mixup
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("regular", "ultra"):
            raise ShapeError(f"mode must be regular or ultra, got {self.mode!r}")
        for name in ("epochs", "batch_size", "chunk_size_s"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.lr > 0.0:
            raise ShapeError(f"lr must be > 0, got {self.lr}")
        if not self.mixup_alpha >= 0.0:
            raise ShapeError(f"mixup_alpha must be >= 0, got {self.mixup_alpha}")


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


@dataclass
class DatasetSplits:
    train: list[GameHalf]
    valid: list[GameHalf] = field(default_factory=list)
    test: list[GameHalf] = field(default_factory=list)

    def pooled(self) -> list[GameHalf]:
        return list(self.train) + list(self.valid) + list(self.test)


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


def mixup(xb: np.ndarray, yb: np.ndarray, alpha: float, rng: np.random.Generator):
    """Mix each sample of a batch with a partner drawn from the same batch.

    The rng draws the partner permutation, then one Beta(alpha, alpha)
    coefficient lam per sample; inputs and targets both become
    lam * own + (1 - lam) * partner, so targets stay on the simplex.
    """
    if len(xb) != len(yb):
        raise ShapeError(f"mixup batch sizes differ: {len(xb)} inputs vs {len(yb)} targets")
    partner = rng.permutation(len(xb))
    lam = rng.beta(alpha, alpha, size=(len(xb), 1)).astype(xb.dtype)
    return (lam[:, :, None] * xb + (1.0 - lam[:, :, None]) * xb[partner],
            lam * yb + (1.0 - lam) * yb[partner])


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


def _safe_row_normalize(v: np.ndarray):
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return v / safe, norms


def _vlad_half_forward(params, prefix, xh):
    logits = xh @ params[prefix + "assign_w"] + params[prefix + "assign_b"]
    assign = softmax(logits)  # (B, Th, K)
    mass = assign.sum(axis=1)  # (B, K)
    centers = params[prefix + "centers"]
    vlad = assign.transpose(0, 2, 1) @ xh - mass[:, :, None] * centers[None]
    normed, norms = _safe_row_normalize(vlad)
    rec = {"xh": xh, "assign": assign, "mass": mass, "norms": norms, "normed": normed}
    return normed.reshape(xh.shape[0], -1), rec


def netvlad_forward_batch(params, config: NetVLADConfig, x: np.ndarray):
    """Past/future VLAD descriptors, intra- then L2-normalized, to logits."""
    x = np.asarray(x, dtype=params["vlad.out.w"].dtype)
    if x.ndim != 3:
        raise ShapeError(f"expected (B, L, D), got {x.shape}")
    B, L, D = x.shape
    if L % 2 != 0:
        raise ShapeError(f"NetVLAD pooling needs an even chunk length, got L={L}")
    if D != config.input_dim:
        raise ShapeError(f"input dim {D} != configured {config.input_dim}")
    half = L // 2
    flat_p, rec_p = _vlad_half_forward(params, "vlad.past.", x[:, :half])
    flat_f, rec_f = _vlad_half_forward(params, "vlad.future.", x[:, half:])
    desc = np.concatenate([flat_p, flat_f], axis=1)  # (B, 2KD)
    out_desc, desc_norms = _safe_row_normalize(desc)
    logits = out_desc @ params["vlad.out.w"] + params["vlad.out.b"]
    cache = {
        "params": params,
        "config": config,
        "past": rec_p,
        "future": rec_f,
        "desc_norms": desc_norms,
        "out_desc": out_desc,
    }
    return logits, cache


def _l2_normalize_backward(dy, y, norms):
    """dL/dv from dL/dy for the forward's rowwise y = v / ||v||, given its
    output y and norms; zero rows (y = 0) pass zero gradient."""
    dv = y * np.einsum("...d,...d->...", y, dy)[..., None]
    np.subtract(dy, dv, out=dv)
    dv /= np.where(norms > 0.0, norms, np.inf)
    return dv


def _vlad_half_backward(params, prefix, rec, dflat, grads):
    xh, assign, mass = rec["xh"], rec["assign"], rec["mass"]
    B = xh.shape[0]
    K, D = params[prefix + "centers"].shape
    dnormed = dflat.reshape(B, K, D)
    dvlad = _l2_normalize_backward(dnormed, rec["normed"], rec["norms"])
    centers = params[prefix + "centers"]
    grads[prefix + "centers"] = -(mass[:, :, None] * dvlad).sum(axis=0)
    dmass = -(dvlad * centers).sum(axis=-1)
    dassign = xh @ dvlad.transpose(0, 2, 1) + dmass[:, None, :]
    dlogits = assign * (dassign - (dassign * assign).sum(axis=-1, keepdims=True))
    grads[prefix + "assign_w"] = xh.reshape(-1, D).T @ dlogits.reshape(-1, K)
    grads[prefix + "assign_b"] = dlogits.sum(axis=(0, 1))


def netvlad_backward(cache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    params = cache["params"]
    dlogits = np.asarray(dlogits, dtype=params["vlad.out.w"].dtype)
    grads: dict[str, np.ndarray] = {}
    out_desc = cache["out_desc"]
    grads["vlad.out.w"] = out_desc.T @ dlogits
    grads["vlad.out.b"] = dlogits.sum(axis=0)
    ddesc = dlogits @ params["vlad.out.w"].T
    ddesc = _l2_normalize_backward(ddesc, out_desc, cache["desc_norms"])
    half = ddesc.shape[1] // 2
    _vlad_half_backward(params, "vlad.past.", cache["past"], ddesc[:, :half], grads)
    _vlad_half_backward(params, "vlad.future.", cache["future"], ddesc[:, half:], grads)
    return grads


# ---------------------------------------------------------------------------
# training


def _head_forward(model: Model, xb: np.ndarray, train_mode=False, rng=None):
    if model.kind == KIND_SPOT_TRANSFORMER:
        return encoder_forward_batch(model.params, model.config, xb,
                                     train_mode=train_mode, rng=rng)
    if model.kind == KIND_SPOT_NETVLAD:
        return netvlad_forward_batch(model.params, model.config, xb)
    raise ShapeError(f"unknown spotting head {model.kind!r}")


def _head_backward(model: Model, cache, dlogits):
    if model.kind == KIND_SPOT_TRANSFORMER:
        return encoder_backward(cache, dlogits)
    return netvlad_backward(cache, dlogits)


def default_spot_lr(head: str) -> float:
    return 5e-4 if head == "transformer" else 1e-4


def default_spot_epochs(head: str) -> int:
    return 50 if head == "transformer" else 40


def _chunk_tensors(halves, spec, vocab):
    """(N, L, D) chunks and (N, 18) targets of the halves, tiled at stride
    L: the chunks do not overlap, so each row is copied once into a zeroed
    buffer that pads every half's tail to a whole chunk."""
    if not halves:
        raise ParseError("empty dataset: no chunks to train on")
    L = spec.chunk_size_s
    Y = [make_chunks(gh.features, gh.events, L, vocab) for gh in halves]
    X = np.zeros((sum(len(y) for y in Y) * L, halves[0].features.dim),
                 dtype=np.result_type(*(gh.features.data.dtype for gh in halves)))
    lo = 0
    for gh, y in zip(halves, Y):
        X[lo : lo + gh.features.duration_s] = gh.features.data
        lo += len(y) * L
    return X.reshape(-1, L, X.shape[1]), np.concatenate(Y)


def _eval_loss(model, X, Y, batch_size):
    total = 0.0
    for lo in range(0, len(X), batch_size):
        xb, yb = X[lo : lo + batch_size], Y[lo : lo + batch_size]
        logits, _ = _head_forward(model, xb)
        loss, _ = cross_entropy_soft(logits, yb)
        total += loss * len(xb)
    return total / len(X)


def train_spotting(
    splits: DatasetSplits,
    spec: TrainSpec,
    head: str = "transformer",
    config: EncoderConfig | NetVLADConfig | None = None,
    vocab=DEFAULT_VOCAB,
) -> Model:
    """Train a spotting head. Deterministic for a given (spec.seed, config).

    Regular mode trains on the train split and returns the parameters with
    the best validation loss; ultra mode pools every split and returns the
    final epoch.
    """
    if head not in ("transformer", "netvlad"):
        raise ShapeError(f"unknown head {head!r}")
    halves = splits.pooled() if spec.mode == "ultra" else list(splits.train)
    if not halves:
        raise ParseError("empty dataset")
    if spec.mode == "regular" and not splits.valid:
        raise ParseError("regular mode needs a validation split")

    X, Y = _chunk_tensors(halves, spec, vocab)
    input_dim = X.shape[2]
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
    if head == "transformer":
        if config is None:
            config = EncoderConfig(input_dim=input_dim, output_dim=NUM_OUTPUT_CLASSES)
        params = init_encoder_params(config, rng)
        kind = KIND_SPOT_TRANSFORMER
    else:
        if config is None:
            config = NetVLADConfig(input_dim=input_dim)
        params = init_netvlad_params(config, rng)
        kind = KIND_SPOT_NETVLAD
    if config.output_dim != NUM_OUTPUT_CLASSES:
        raise ShapeError(f"spotting heads emit {NUM_OUTPUT_CLASSES} classes, "
                         f"config has {config.output_dim}")
    if config.input_dim != input_dim:
        raise ShapeError(f"config input_dim {config.input_dim} != data dim {input_dim}")

    model = training_model(kind, config, vocab, params)

    def step(xb, yb):
        if spec.mixup_alpha > 0.0:
            xb, yb = mixup(xb, yb, spec.mixup_alpha, rng)
        logits, cache = _head_forward(model, xb, train_mode=True, rng=rng)
        loss, dlogits = cross_entropy_soft(logits, yb)
        return loss, _head_backward(model, cache, dlogits)

    best: dict = {}
    keep_best = None
    if spec.mode == "regular":
        valid = _chunk_tensors(splits.valid, spec, vocab)

        def keep_best(record):
            record["valid_loss"] = vloss = _eval_loss(model, *valid, spec.batch_size)
            if not best or vloss < best["loss"]:
                best.update(loss=vloss, params=copy.deepcopy(model.params))

    fit(model, spec, rng, lambda: (X, Y), step, keep_best)
    if best:
        model.params = best["params"]
    return model


# ---------------------------------------------------------------------------
# inference


def _greedy_nms(preds: list, window_s: int) -> list:
    """Greedy temporal NMS of predictions with time_s and confidence.

    In (-confidence, time_s) order, accept each prediction that lies more
    than window_s from every one accepted before it. Returns the accepted
    ones in that order.
    """
    kept = []
    taken: list[int] = []  # accepted times, sorted
    for p in sorted(preds, key=lambda p: (-p.confidence, p.time_s)):
        # only the nearest accepted time on each side can be within the window
        i = bisect.bisect_left(taken, p.time_s)
        if ((i == 0 or p.time_s - taken[i - 1] > window_s)
                and (i == len(taken) or taken[i] - p.time_s > window_s)):
            kept.append(p)
            taken.insert(i, p.time_s)
    return kept


def nms_1d(preds: list[SpotPrediction], window_s: int) -> list[SpotPrediction]:
    """Greedy per-class, per-half temporal NMS.

    Accept the highest-confidence prediction, drop same-class predictions
    within +/-window_s of it, repeat. Survivors are returned time-sorted
    and are pairwise more than window_s apart within a class.
    """
    groups: dict[tuple, list[SpotPrediction]] = {}
    for p in preds:
        groups.setdefault((p.game_id, p.half, p.class_index), []).append(p)
    kept = [p for group in groups.values() for p in _greedy_nms(group, window_s)]
    return sorted(kept, key=lambda p: (p.game_id, p.half, p.time_s, p.class_index))


def score_series(model: Model, features: FeatureSequence, chunk_size_s: int,
                 batch_size: int = 64) -> np.ndarray:
    """(T, 18) class probabilities, one row per second (window centers).

    The window centred on second t starts at second t - chunk // 2 and has
    zero rows outside the half. The transformer's input projection acts on
    each row alone, so its windows slide over the half's rows embedded
    once; a zero pad row embeds to in.b * sqrt(model_dim).
    """
    if chunk_size_s < 1 or batch_size < 1:
        raise ShapeError("chunk size and batch size must be >= 1")
    data = features.data
    T, D = data.shape
    left = chunk_size_s // 2
    embedded = model.kind == KIND_SPOT_TRANSFORMER
    if embedded:
        padded = np.empty((T + chunk_size_s - 1, model.config.model_dim),
                          dtype=model.params["in.w"].dtype)
        padded[:] = embed_input(model.params, model.config, np.zeros(D))
        for lo in range(0, T, batch_size):
            hi = min(lo + batch_size, T)
            padded[left + lo : left + hi] = embed_input(model.params, model.config, data[lo:hi])
    else:
        padded = np.zeros((T + chunk_size_s - 1, D), dtype=data.dtype)
        padded[left : left + T] = data
    windows = np.lib.stride_tricks.sliding_window_view(padded, chunk_size_s, axis=0)
    windows = windows.transpose(0, 2, 1)  # (T, chunk, width)
    probs = np.empty((T, NUM_OUTPUT_CLASSES))
    for lo in range(0, T, batch_size):
        xb = np.ascontiguousarray(windows[lo : lo + batch_size])
        if embedded:
            logits = encoder_forward_embedded(model.params, model.config, xb)
        else:
            logits, _ = _head_forward(model, xb)
        probs[lo : lo + logits.shape[0]] = softmax(logits)
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
    labels = [vocab[c] if c < len(vocab) else str(c) for c in range(BACKGROUND_INDEX)]
    by_class = probs[:, :BACKGROUND_INDEX].T
    cs, ts = np.nonzero(by_class >= threshold)
    candidates = [
        SpotPrediction(game_id, half, t, c, labels[c], conf)
        for c, t, conf in zip(cs.tolist(), ts.tolist(), by_class[cs, ts].tolist())
    ]
    return nms_1d(candidates, nms_window_s)


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
