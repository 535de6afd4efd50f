import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotground.errors import (
    FormatError,
    ShapeError,
    SpotGroundError,
    TruncationError,
    UnsupportedLayoutError,
)
from spotground.npyio import parse_npy, read_npy_file, write_npy


def _manual_stream(shape, values, descr="'<f4'", fortran="False"):
    header = "{'descr': %s, 'fortran_order': %s, 'shape': %s, }" % (descr, fortran, shape)
    pad = (-(6 + 2 + 2 + len(header) + 1)) % 64
    header_bytes = (header + " " * pad + "\n").encode("latin1")
    out = b"\x93NUMPY" + bytes((1, 0)) + struct.pack("<H", len(header_bytes)) + header_bytes
    return out + np.asarray(values, dtype="<f4").tobytes()


def test_shape_3x2_direct_encoding():
    stream = _manual_stream("(3, 2)", [0, 1, 2, 3, 4, 5])
    assert np.array_equal(parse_npy(stream), [[0, 1], [2, 3], [4, 5]])


def test_single_element():
    stream = _manual_stream("(1, 1)", [1.0])
    assert np.array_equal(parse_npy(stream), [[1.0]])


def test_round_trip_100_random_matrices_bit_exact(rng):
    for _ in range(100):
        rows = int(rng.integers(1, 20))
        cols = int(rng.integers(1, 20))
        matrix = rng.normal(size=(rows, cols)).astype(np.float32)
        stream = write_npy(matrix)
        back = parse_npy(stream)
        assert back.dtype == np.float32
        assert back.tobytes() == matrix.tobytes()
        assert write_npy(back) == stream


def test_numpy_reads_our_writer_and_vice_versa(rng):
    # independent oracle: the reference NPY implementation
    matrix = rng.normal(size=(5, 3)).astype(np.float32)
    assert np.array_equal(np.load(io.BytesIO(write_npy(matrix))), matrix)
    buf = io.BytesIO()
    np.save(buf, matrix)
    assert np.array_equal(parse_npy(buf.getvalue()), matrix)


def test_bad_magic():
    with pytest.raises(FormatError):
        parse_npy(b"NOTNPY\x01\x00" + b"\x00" * 32)


def test_unsupported_version():
    stream = bytearray(_manual_stream("(1, 1)", [0.0]))
    stream[6] = 2
    with pytest.raises(FormatError):
        parse_npy(bytes(stream))


def test_unsupported_dtype():
    with pytest.raises(UnsupportedLayoutError):
        parse_npy(_manual_stream("(1, 1)", [0.0], descr="'<f8'") )


def test_fortran_order_rejected():
    with pytest.raises(UnsupportedLayoutError):
        parse_npy(_manual_stream("(1, 1)", [0.0], fortran="True"))


def test_fortran_order_must_be_a_bool():
    for fortran in ("[]", "0", "None", "'False'"):  # falsy, or a true string, but no bool
        with pytest.raises(FormatError, match="fortran_order"):
            parse_npy(_manual_stream("(1, 1)", [0.0], fortran=fortran))


def test_shape_entries_must_be_ints_not_bools():
    for shape in ("(True, True)", "(1, False)", "(1.0, 1)"):
        with pytest.raises(UnsupportedLayoutError):
            parse_npy(_manual_stream(shape, [0.0]))


def test_non_2d_shape_rejected():
    with pytest.raises(UnsupportedLayoutError):
        parse_npy(_manual_stream("(4,)", [0.0] * 4))
    with pytest.raises(UnsupportedLayoutError):
        parse_npy(_manual_stream("(2, 1, 2)", [0.0] * 4))


def test_truncated_payload():
    stream = _manual_stream("(3, 2)", [0, 1, 2, 3, 4, 5])
    with pytest.raises(TruncationError):
        parse_npy(stream[:-4])
    with pytest.raises(TruncationError):
        parse_npy(stream + b"\x00\x00\x00\x00")


def test_file_payload_of_the_wrong_size(tmp_path):
    path = tmp_path / "m.npy"
    stream = write_npy(np.arange(6, dtype=np.float32).reshape(3, 2))
    for wrong in (stream[:-4], stream + b"\x00\x00\x00\x00"):
        path.write_bytes(wrong)
        with pytest.raises(TruncationError):
            read_npy_file(path)
    path.write_bytes(stream)
    assert read_npy_file(path).tobytes() == stream[-24:]


def test_huge_declared_shape_is_a_truncation_not_an_allocation():
    with pytest.raises(TruncationError):
        parse_npy(_manual_stream("(1000000000, 1000000000)", [0.0]))


def test_malformed_header_dict():
    for header in ("not a dict", "{[]: 1}"):  # the latter is a TypeError to literal_eval
        pad = (-(6 + 2 + 2 + len(header) + 1)) % 64
        header_bytes = (header + " " * pad + "\n").encode("latin1")
        stream = b"\x93NUMPY" + bytes((1, 0)) + struct.pack("<H", len(header_bytes)) + header_bytes
        with pytest.raises(FormatError):
            parse_npy(stream)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(edits=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)), min_size=1,
                      max_size=3))
def test_mutated_header_fails_only_with_spotground_errors(edits):
    stream = bytearray(write_npy(np.zeros((3, 2), dtype=np.float32)))
    for at, value in edits:
        stream[at] = value
    try:
        parse_npy(bytes(stream))
    except SpotGroundError:
        pass


def test_writer_rejects_non_2d():
    with pytest.raises(ShapeError):
        write_npy(np.zeros(3, dtype=np.float32))
