"""Minimal NPY v1.0 reader/writer for 2-D little-endian float32 matrices.

The on-disk layout is the standard NPY format, restricted to what the
feature files actually use: magic ``\\x93NUMPY``, version 1.0, a header
dict declaring ``'<f4'``, C order and a 2-D shape, then the raw payload.
Anything else is rejected with a specific error rather than guessed at.
"""

from __future__ import annotations

import ast
import struct

import numpy as np

from .errors import FormatError, ShapeError, TruncationError, UnsupportedLayoutError

MAGIC = b"\x93NUMPY"
VERSION = (1, 0)
_HEADER_ALIGN = 64


def _parse_header(stream: bytes) -> tuple[tuple[int, int], int]:
    """The (rows, cols) shape and the payload offset that the header of an
    NPY v1.0 stream declares, with parse_npy's header errors."""
    if len(stream) < 10 or stream[:6] != MAGIC:
        raise FormatError("not an NPY stream (bad magic)")
    major, minor = stream[6], stream[7]
    if (major, minor) != VERSION:
        raise FormatError(f"unsupported NPY version {major}.{minor}, expected 1.0")
    (header_len,) = struct.unpack("<H", stream[8:10])
    header_end = 10 + header_len
    if len(stream) < header_end:
        raise TruncationError("stream ends inside the header")
    try:
        header = ast.literal_eval(stream[10:header_end].decode("latin1"))
    except (ValueError, SyntaxError, TypeError, RecursionError) as exc:  # TypeError: {[]: 1}
        raise FormatError(f"malformed NPY header: {exc}") from exc
    if not isinstance(header, dict) or set(header) != {"descr", "fortran_order", "shape"}:
        raise FormatError("NPY header is not the expected dict")

    if header["descr"] != "<f4":
        raise UnsupportedLayoutError(f"dtype {header['descr']!r} not supported, expected '<f4'")
    if not isinstance(header["fortran_order"], bool):
        raise FormatError(f"fortran_order {header['fortran_order']!r} is not a bool")
    if header["fortran_order"]:
        raise UnsupportedLayoutError("fortran-ordered payloads are not supported")
    shape = header["shape"]
    if (
        not isinstance(shape, tuple)
        or len(shape) != 2
        or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)
    ):
        raise UnsupportedLayoutError(f"shape {shape!r} is not a 2-D shape")
    return shape, header_end


def parse_npy(stream: bytes) -> np.ndarray:
    """Decode an NPY v1.0 byte stream into a (T, D) float32 matrix.

    Raises FormatError for bad magic/version/header syntax,
    UnsupportedLayoutError for any dtype other than '<f4', Fortran order
    or non-2-D shapes, and TruncationError when the payload size does not
    match the declared shape.
    """
    (rows, cols), header_end = _parse_header(stream)
    payload = stream[header_end:]
    expected = rows * cols * 4
    if len(payload) != expected:
        raise TruncationError(f"payload is {len(payload)} bytes, header declares {expected}")
    data = np.frombuffer(payload, dtype="<f4").reshape(rows, cols)
    return np.ascontiguousarray(data)


def write_npy(matrix: np.ndarray) -> bytes:
    """Encode a 2-D matrix as NPY v1.0 bytes ('<f4', C order).

    parse_npy(write_npy(m)) is bit-exact for float32 input.
    """
    arr = np.ascontiguousarray(matrix, dtype="<f4")
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got {arr.ndim}-D")
    header = "{'descr': '<f4', 'fortran_order': False, 'shape': (%d, %d), }" % arr.shape
    # pad with spaces so magic+version+len+header is a multiple of 64, newline-terminated
    unpadded = len(MAGIC) + 2 + 2 + len(header) + 1
    pad = (-unpadded) % _HEADER_ALIGN
    header_bytes = (header + " " * pad + "\n").encode("latin1")
    out = bytearray()
    out += MAGIC
    out += bytes(VERSION)
    out += struct.pack("<H", len(header_bytes))
    out += header_bytes
    out += arr.tobytes(order="C")
    return bytes(out)


def read_npy_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return parse_npy(fh.read())


def read_npy_shape(path) -> tuple[int, int]:
    """The (rows, cols) shape the NPY file's header declares, with
    parse_npy's header checks; the payload is neither read nor checked."""
    with open(path, "rb") as fh:  # magic, version, length and the longest v1.0 header
        return _parse_header(fh.read(10 + 0xFFFF))[0]


def write_npy_file(path, matrix: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(write_npy(matrix))
