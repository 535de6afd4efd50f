import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_features
from spotground.npyio import write_npy
from spotground.data import (
    FeatureSequence,
    combine_features,
    extract_window,
    load_game,
    load_labels,
    parse_game_time,
    parse_labels,
)
from spotground.errors import (
    AlignmentError,
    DomainError,
    IdentityError,
    ParseError,
    SpotGroundError,
)


class TestParseGameTime:
    def test_basic(self):
        assert parse_game_time("1 - 12:34") == (1, 754)

    def test_zero(self):
        assert parse_game_time("2 - 00:00") == (2, 0)

    def test_long_half(self):
        assert parse_game_time("1 - 90:07") == (1, 5407)

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_game_time("first half 12:34")

    def test_half_domain_error(self):
        with pytest.raises(DomainError):
            parse_game_time("3 - 01:00")


class TestParseLabels:
    def test_single_event(self):
        doc = b'{"annotations":[{"gameTime":"1 - 12:34","label":"Goal"}]}'
        events, replays = parse_labels(doc, game_id="g")
        assert len(events) == 1 and not replays
        assert (events[0].half, events[0].time_s, events[0].label) == (1, 754, "Goal")

    def test_empty(self):
        assert parse_labels(b'{"annotations":[]}') == ([], [])

    def test_replay_entry(self):
        doc = json.dumps(
            {
                "replays": [
                    {"start": "1 - 10:00", "end": "1 - 10:20", "event": "1 - 09:30",
                     "label": "Foul"}
                ]
            }
        ).encode()
        _, replays = parse_labels(doc)
        (rp,) = replays
        assert rp.replay_end_s - rp.event_time_s == 50

    def test_malformed_json(self):
        for doc in (b"{not json", b"\xff\xfe{}", b'{"annotations": null}', b'{"replays": [1]}',
                    b'{"annotations": [{"gameTime": 754, "label": "Goal"}]}'):
            with pytest.raises(ParseError):
                parse_labels(doc)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(doc=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
        | st.sampled_from(["1 - 10:00", "2 - 00:05", "3 - 01:00", "1 - 9:99", "Goal"]),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
            st.sampled_from(["annotations", "replays", "gameTime", "label", "start", "end",
                             "event"]), inner, max_size=5),
        max_leaves=25))
    def test_only_spotground_errors_escape(self, doc):
        try:
            parse_labels(json.dumps(doc))
        except SpotGroundError:
            pass

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(stream=st.binary(max_size=40))
    def test_only_spotground_errors_escape_raw_bytes(self, stream):
        try:
            parse_labels(stream)
        except SpotGroundError:
            pass

    def test_unknown_label_kept_and_reported(self, caplog):
        doc = b'{"annotations":[{"gameTime":"1 - 00:01","label":"Dance"}]}'
        with caplog.at_level("WARNING"):
            events, _ = parse_labels(doc)
        assert len(events) == 1
        assert "Dance" in caplog.text


class TestLoadLabels:
    def test_events_and_replays_from_both_documents(self, tmp_path):
        (tmp_path / "labels.json").write_text(
            '{"annotations": [{"gameTime": "2 - 00:07", "label": "Goal"}]}')
        (tmp_path / "replays.json").write_text(
            '{"replays": [{"start": "1 - 00:10", "end": "1 - 00:20", "event": "1 - 00:05",'
            ' "label": "Foul"}]}')
        events, replays = load_labels(tmp_path)
        assert [(e.game_id, e.half, e.time_s) for e in events] == [(tmp_path.name, 2, 7)]
        assert [(r.replay_end_s, r.event_label) for r in replays] == [(20, "Foul")]

    def test_directory_without_labels_is_none(self, tmp_path):
        assert load_labels(tmp_path) is None


class TestCombineFeatures:
    def test_multi_backbone_dims_concatenate_to_10624(self):
        dims = [2048, 2048, 384, 2048, 2048, 2048]
        sources = [make_features(T=3, D=d, seed=i) for i, d in enumerate(dims)]
        combined = combine_features(sources)
        assert combined.dim == 10624
        assert combined.source_dims == tuple(dims)

    def test_single_unit_norm_source_is_identity(self):
        data = np.random.default_rng(0).normal(size=(10, 8)).astype(np.float32)
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        src = make_features(data=data)
        out = combine_features([src])
        np.testing.assert_allclose(out.data, data, rtol=1e-6)

    def test_two_sources_frame_normalization(self):
        a = make_features(data=np.array([[3.0, 4.0]], dtype=np.float32))
        b = make_features(data=np.array([[0.0, 1.0]], dtype=np.float32))
        out = combine_features([a, b])
        np.testing.assert_allclose(out.data[0], [0.6, 0.8, 0.0, 1.0], rtol=1e-6)

    def test_segment_norms_one_or_zero(self, rng):
        dims = [4, 7, 3]
        sources = [make_features(T=20, D=d, seed=i) for i, d in enumerate(dims)]
        sources[1].data[5] = 0.0  # zero frame survives as zeros
        out = combine_features(sources)
        offset = 0
        for d in dims:
            norms = np.linalg.norm(out.data[:, offset : offset + d], axis=1)
            assert np.all((np.abs(norms - 1.0) < 1e-5) | (norms == 0.0))
            offset += d

    def test_frame_that_overflows_the_float32_norm_becomes_a_unit_vector(self):
        data = np.array([[1e20, 0.0, 0.0, 0.0], [3e19, -4e19, 0.0, 0.0], [3.0, 4.0, 0.0, 0.0]],
                        dtype=np.float32)
        other = np.array([[0.0, 1.0]] * 3, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = combine_features([make_features(data=data), make_features(data=other)])
        np.testing.assert_allclose(out.data[:, :4], [[1, 0, 0, 0], [0.6, -0.8, 0, 0],
                                                     [0.6, 0.8, 0, 0]], rtol=1e-6)
        np.testing.assert_array_equal(out.data[:, 4:], other)
        # frames whose float32 norm is finite take the float32 path, bit for bit
        assert out.data[2, :4].tobytes() == (data[2] / np.linalg.norm(data[2])).tobytes()

    def test_permutation_covariant(self):
        dims = [4, 7, 3]
        sources = [make_features(T=6, D=d, seed=i) for i, d in enumerate(dims)]
        out = combine_features(sources)
        perm = [2, 0, 1]
        out_p = combine_features([sources[i] for i in perm])
        blocks = np.split(out.data, np.cumsum(dims)[:-1], axis=1)
        np.testing.assert_array_equal(out_p.data, np.concatenate([blocks[i] for i in perm], axis=1))

    def test_identity_mismatch(self):
        a = make_features(game_id="g1")
        b = make_features(game_id="g2")
        with pytest.raises(IdentityError):
            combine_features([a, b])

    def test_length_slack(self):
        a = make_features(T=100)
        b = make_features(T=98)
        assert combine_features([a, b]).duration_s == 98
        c = make_features(T=97)
        with pytest.raises(AlignmentError):
            combine_features([a, c])

    def test_zero_norm_warning_count(self, caplog):
        data = np.zeros((4, 3), dtype=np.float32)
        data[0, 0] = 1.0
        with caplog.at_level("WARNING"):
            out = combine_features([make_features(data=data)])
        assert "3 zero-norm" in caplog.text
        assert np.all(out.data[1:] == 0.0)


class TestFeatureSequenceInvariants:
    def test_rejects_nan(self):
        data = np.ones((3, 2), dtype=np.float32)
        data[1, 1] = np.nan
        with pytest.raises(Exception):
            FeatureSequence("g", 1, data, (2,))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(Exception):
            FeatureSequence("g", 1, np.ones((3, 2), dtype=np.float32), (3,))


class TestExtractWindow:
    def test_centered_window(self):
        feats = make_features(T=200, D=4)
        np.testing.assert_array_equal(extract_window(feats.data, 98, 5), feats.data[98:103])

    def test_boundary_zero_padding(self):
        feats = make_features(T=50, D=4)
        window = extract_window(feats.data, -1, 5)
        assert np.all(window[0] == 0.0)  # t = -1 row
        np.testing.assert_array_equal(window[1:], feats.data[0:4])
        tail = extract_window(feats.data, 48, 5)
        np.testing.assert_array_equal(tail[:2], feats.data[48:50])
        assert np.all(tail[2:] == 0.0) and tail.dtype == feats.data.dtype


def _game_files():
    """NPY bytes of a game directory: half 1 from two sources, half 2 from one."""
    rng = np.random.default_rng(9)
    shapes = {"1_a.npy": (12, 3), "1_b.npy": (12, 2), "2_a.npy": (11, 4)}
    return {name: write_npy(rng.normal(size=shape).astype(np.float32))
            for name, shape in shapes.items()}


GAME_FILES = _game_files()


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_npy_bytes_fail_only_with_spotground_errors(tmp_path_factory, data):
    files = {name: bytearray(raw) for name, raw in GAME_FILES.items()}
    for _ in range(data.draw(st.integers(1, 3))):
        raw = files[data.draw(st.sampled_from(sorted(files)))]
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    game_dir = tmp_path_factory.mktemp("game")
    for name, raw in files.items():
        (game_dir / name).write_bytes(bytes(raw))
    try:
        halves = load_game(game_dir)
    except SpotGroundError:
        return
    assert [gh.features.half for gh in halves] == [1, 2]
    assert halves[0].features.source_dims == (3, 2)
