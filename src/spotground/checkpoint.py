"""Model checkpoint container and its on-disk format.

One self-describing binary file: an 8-byte magic, a little-endian uint32
header length, a JSON header (version, head kind, config, vocabulary,
tensor manifest), then the raw little-endian parameter bytes. Optimizer
state is not kept: nothing resumes training. Round-trips are bit-exact,
which also makes trained checkpoints byte-comparable across reruns of
the same seed.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError, UnsupportedLayoutError
from .nn import EncoderConfig, encoder_param_shapes

MAGIC = b"SGMODEL\x00"
FORMAT_VERSION = 2

KIND_SPOT_TRANSFORMER = "spot_transformer"
KIND_SPOT_NETVLAD = "spot_netvlad"
KIND_GROUNDING = "grounding"

_DTYPES = {"<f8": np.dtype("<f8"), "<f4": np.dtype("<f4")}
_HEADER_START = len(MAGIC) + 4
_HEADER_KEYS = {"version", "model_kind", "config", "vocab", "tensors"}
_TENSOR_KEYS = {"name", "shape", "dtype", "offset", "nbytes"}
_PARAM_PREFIX = "param:"


@dataclass
class Model:
    """A trained head: weights plus everything needed to run it."""

    kind: str
    config: object  # EncoderConfig or spotting.NetVLADConfig
    vocab: list[str]
    params: dict[str, np.ndarray]
    history: list[dict] = field(default_factory=list)  # not serialized


def _config_to_dict(config) -> dict:
    d = asdict(config)
    d["kind"] = type(config).__name__
    return d


def _config_from_dict(d):
    """A head config from its header dict: exactly the config's fields, each
    an int (or, for a float field, an int or float) the config accepts."""
    if not isinstance(d, dict):
        raise FormatError("checkpoint config must be a JSON object")
    d = dict(d)
    kind = d.pop("kind", None)
    if kind == "EncoderConfig":
        cls = EncoderConfig
    elif kind == "NetVLADConfig":
        from .spotting import NetVLADConfig

        cls = NetVLADConfig
    else:
        raise FormatError(f"unknown config kind {kind!r}")
    types = {f.name: f.type for f in fields(cls)}
    if set(d) != set(types):
        raise FormatError(f"{kind} fields {sorted(d)} are not {sorted(types)}")
    for name, value in d.items():
        number = (int,) if types[name] == "int" else (int, float)
        if isinstance(value, bool) or not isinstance(value, number):
            raise FormatError(f"{kind} field {name!r} has bad value {value!r}")
    try:
        return cls(**d)
    except ShapeError as exc:
        raise FormatError(f"bad {kind} in checkpoint: {exc}") from exc


def _param_shapes(kind: str, config) -> dict[str, tuple[int, ...]]:
    if kind == KIND_SPOT_NETVLAD:
        from .spotting import NetVLADConfig, netvlad_param_shapes

        if isinstance(config, NetVLADConfig):
            return netvlad_param_shapes(config)
    elif isinstance(config, EncoderConfig):
        return encoder_param_shapes(config)
    raise FormatError(f"a {kind!r} head cannot have a {type(config).__name__}")


def save_model(path: str | Path, model: Model) -> None:
    tensors = {_PARAM_PREFIX + name: arr for name, arr in model.params.items()}

    manifest = []
    offset = 0
    ordered = sorted(tensors)
    blobs = []
    for name in ordered:
        arr = np.ascontiguousarray(tensors[name])
        if arr.dtype == np.float64:
            dtype = "<f8"
        elif arr.dtype == np.float32:
            dtype = "<f4"
        else:
            raise UnsupportedLayoutError(f"tensor {name} has unsupported dtype {arr.dtype}")
        blob = arr.astype(dtype, copy=False).tobytes(order="C")
        manifest.append(
            {"name": name, "shape": list(arr.shape), "dtype": dtype, "offset": offset,
             "nbytes": len(blob)}
        )
        blobs.append(blob)
        offset += len(blob)

    header = {
        "version": FORMAT_VERSION,
        "model_kind": model.kind,
        "config": _config_to_dict(model.config),
        "vocab": list(model.vocab),
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_header(raw: bytes, path) -> tuple[dict, int]:
    """The header dict and the offset its tensor bytes start at."""
    if raw[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path} is not a model checkpoint (bad magic)")
    if len(raw) < _HEADER_START:
        raise FormatError(f"{path} is truncated inside the header length")
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    data_start = _HEADER_START + header_len
    if data_start > len(raw):
        raise FormatError(f"{path} is truncated inside the header")
    try:
        header = json.loads(raw[_HEADER_START:data_start].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or bad JSON
        raise FormatError(f"{path} has a malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path} header must be a JSON object")
    version = header.get("version")
    if version != FORMAT_VERSION or not _is_count(version):
        raise FormatError(f"{path} has checkpoint version {version!r}, not {FORMAT_VERSION}")
    if set(header) != _HEADER_KEYS:
        raise FormatError(f"{path} header must have keys {sorted(_HEADER_KEYS)}")
    if header["model_kind"] not in (KIND_SPOT_TRANSFORMER, KIND_SPOT_NETVLAD, KIND_GROUNDING):
        raise FormatError(f"unknown model kind {header['model_kind']!r}")
    vocab = header["vocab"]
    if not isinstance(vocab, list) or not all(isinstance(v, str) for v in vocab):
        raise FormatError("checkpoint vocab must be a list of strings")
    if not isinstance(header["tensors"], list):
        raise FormatError("checkpoint tensor manifest must be a list")
    return header, data_start


def _read_tensor(entry, raw: bytes, data_start: int) -> tuple[str, np.ndarray]:
    """One manifest entry's tensor, after checking its shape, size, bounds
    and that every value is finite."""
    if not isinstance(entry, dict) or set(entry) != _TENSOR_KEYS:
        raise FormatError(f"tensor entry must be an object with keys {sorted(_TENSOR_KEYS)}")
    name, shape, dtype = entry["name"], entry["shape"], _DTYPES.get(entry["dtype"])
    if not isinstance(name, str) or not name.startswith(_PARAM_PREFIX):
        raise FormatError(f"bad tensor name {name!r}")
    if dtype is None:
        raise FormatError(f"tensor {name} has unsupported dtype {entry['dtype']!r}")
    if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
        raise FormatError(f"tensor {name} has bad shape {shape!r}")
    offset, nbytes = entry["offset"], entry["nbytes"]
    if not (_is_count(offset) and _is_count(nbytes)) or nbytes != math.prod(shape) * dtype.itemsize:
        raise FormatError(f"tensor {name}: {nbytes!r} bytes do not hold shape {shape}")
    start = data_start + offset
    if start + nbytes > len(raw):
        raise FormatError(f"checkpoint truncated at tensor {name}")
    arr = np.frombuffer(raw, dtype, math.prod(shape), start).reshape(shape).copy()
    if not np.isfinite(arr).all():
        raise FormatError(f"tensor {name} holds NaN or infinite values")
    return name, arr


def load_model(path: str | Path) -> Model:
    """Read a checkpoint, checking its header schema and that its tensors are
    exactly the parameters its head config defines, with finite values."""
    raw = Path(path).read_bytes()
    header, data_start = _read_header(raw, path)
    config = _config_from_dict(header["config"])
    # a layer holds tensors: bounds the layout built below for a bogus layer count
    if getattr(config, "num_layers", 0) > len(header["tensors"]):
        raise FormatError(f"{path} holds fewer tensors than its config has layers")
    shapes = _param_shapes(header["model_kind"], config)
    params = {name[len(_PARAM_PREFIX):]: arr for name, arr in
              (_read_tensor(entry, raw, data_start) for entry in header["tensors"])}
    if {n: a.shape for n, a in params.items()} != shapes:
        raise FormatError(f"{path}: the param tensors do not match the config")
    return Model(kind=header["model_kind"], config=config, vocab=header["vocab"],
                 params=params)
