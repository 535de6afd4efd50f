"""Minimal NPY v1.0 reader/writer for 2-D little-endian float32 matrices.

The on-disk layout is the standard NPY format, restricted to what the
feature files actually use: magic ``\\x93NUMPY``, version 1.0, a header
dict declaring ``'<f4'``, C order and a 2-D shape, then the raw payload.
Anything else is rejected with a specific error rather than guessed at.
"""

from __future__ import annotations

import ast
import io
import struct
from typing import BinaryIO

import numpy as np

from .errors import FormatError, ShapeError, TruncationError, UnsupportedLayoutError
from .nn import CACHE_BLOCK

MAGIC = b"\x93NUMPY"
VERSION = (1, 0)
_HEADER_ALIGN = 64


def _read_header(stream) -> tuple[int, int]:
    """The (rows, cols) shape that the header of an NPY v1.0 stream
    declares, read from a binary stream left at the payload's first byte."""
    prefix = stream.read(10)
    if len(prefix) < 10 or prefix[:6] != MAGIC:
        raise FormatError("not an NPY stream (bad magic)")
    major, minor = prefix[6], prefix[7]
    if (major, minor) != VERSION:
        raise FormatError(f"unsupported NPY version {major}.{minor}, expected 1.0")
    (header_len,) = struct.unpack("<H", prefix[8:10])
    text = stream.read(header_len)
    if len(text) < header_len:
        raise TruncationError("stream ends inside the header")
    try:
        header = ast.literal_eval(text.decode("latin1"))
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
    return shape


def parse_npy(stream: bytes | BinaryIO) -> np.ndarray:
    """Decode an NPY v1.0 stream, bytes or a binary file at its first byte,
    into a (T, D) float32 matrix. The payload is read straight into the
    matrix, with no intermediate copy.

    Raises FormatError for bad magic/version/header syntax,
    UnsupportedLayoutError for any dtype other than '<f4', Fortran order
    or non-2-D shapes, and TruncationError when the payload size does not
    match the declared shape.
    """
    if isinstance(stream, bytes):
        stream = io.BytesIO(stream)
    rows, cols = _read_header(stream)
    start = stream.tell()
    size = stream.seek(0, io.SEEK_END) - start
    stream.seek(start)
    if size != rows * cols * 4:  # checked before the matrix is allocated
        raise TruncationError(f"payload is {size} bytes, header declares {rows * cols * 4}")
    data = np.empty((rows, cols), dtype="<f4")
    if stream.readinto(data) != data.nbytes:
        raise TruncationError("stream ends inside the payload")
    return data


def write_npy(matrix: np.ndarray, stream: BinaryIO | None = None) -> bytes | None:
    """Encode a 2-D matrix as NPY v1.0 ('<f4', C order) into a binary file
    at its write position, or as the returned bytes if none is given.

    The payload is written CACHE_BLOCK elements of rows at a time straight
    from the matrix: a C-ordered float32 one is never copied, and any other
    dtype or stride is converted one block at a time.
    parse_npy(write_npy(m)) is bit-exact for float32 input.
    """
    if stream is None:
        buffer = io.BytesIO()
        write_npy(matrix, buffer)
        return buffer.getvalue()
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got {matrix.ndim}-D")
    header = "{'descr': '<f4', 'fortran_order': False, 'shape': (%d, %d), }" % matrix.shape
    # pad with spaces so magic+version+len+header is a multiple of 64, newline-terminated
    unpadded = len(MAGIC) + 2 + 2 + len(header) + 1
    pad = (-unpadded) % _HEADER_ALIGN
    header_bytes = (header + " " * pad + "\n").encode("latin1")
    stream.write(MAGIC + bytes(VERSION) + struct.pack("<H", len(header_bytes)) + header_bytes)
    rows = max(CACHE_BLOCK // max(matrix.shape[1], 1), 1)
    for lo in range(0, matrix.shape[0], rows):
        stream.write(np.ascontiguousarray(matrix[lo : lo + rows], dtype="<f4"))


def read_npy_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return parse_npy(fh)


def read_npy_shape(path) -> tuple[int, int]:
    """The (rows, cols) shape the NPY file's header declares, with
    parse_npy's header checks; the payload is neither read nor checked."""
    with open(path, "rb") as fh:
        return _read_header(fh)


def write_npy_file(path, matrix: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_npy(matrix, fh)
