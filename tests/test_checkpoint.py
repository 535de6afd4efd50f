import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotground.checkpoint import (
    KIND_GROUNDING,
    KIND_SPOT_TRANSFORMER,
    Model,
    load_model,
    save_model,
)
from spotground.errors import FormatError, SpotGroundError
from spotground.nn import EncoderConfig, encoder_forward_batch, init_encoder_params
from spotground.spotting import NetVLADConfig, init_netvlad_params, netvlad_forward_batch
from spotground.vocab import DEFAULT_VOCAB


def _random_model(rng):
    config = EncoderConfig(
        input_dim=int(rng.integers(2, 12)),
        output_dim=int(rng.integers(2, 20)),
        model_dim=8,
        num_layers=int(rng.integers(1, 3)),
        num_heads=2,
        hidden_dim=int(rng.integers(4, 16)),
        dropout_p=0.0,
    )
    params = init_encoder_params(config, rng)
    return Model(KIND_SPOT_TRANSFORMER, config, list(DEFAULT_VOCAB), params)


def _assert_models_equal(a, b):
    assert a.kind == b.kind
    assert a.config == b.config
    assert a.vocab == b.vocab
    assert sorted(a.params) == sorted(b.params)
    for key in a.params:
        assert a.params[key].tobytes() == b.params[key].tobytes()


def test_round_trip_100_random_models_bit_exact(tmp_path, rng):
    for i in range(100):
        model = _random_model(rng)
        path = tmp_path / f"m{i}.sgckpt"
        save_model(path, model)
        _assert_models_equal(model, load_model(path))


def test_save_is_deterministic(tmp_path, rng):
    model = _random_model(rng)
    save_model(tmp_path / "a.sgckpt", model)
    save_model(tmp_path / "b.sgckpt", model)
    assert (tmp_path / "a.sgckpt").read_bytes() == (tmp_path / "b.sgckpt").read_bytes()


def test_netvlad_config_round_trip(tmp_path, rng):
    config = NetVLADConfig(input_dim=6, clusters=3)
    model = Model("spot_netvlad", config, list(DEFAULT_VOCAB),
                  init_netvlad_params(config, rng))
    save_model(tmp_path / "nv.sgckpt", model)
    back = load_model(tmp_path / "nv.sgckpt")
    assert isinstance(back.config, NetVLADConfig)
    _assert_models_equal(model, back)


def test_grounding_model_round_trip(tmp_path, rng):
    config = EncoderConfig(input_dim=4, output_dim=2, model_dim=8, num_layers=1,
                           num_heads=2, hidden_dim=8, num_segments=2)
    model = Model(KIND_GROUNDING, config, [], init_encoder_params(config, rng))
    save_model(tmp_path / "g.sgckpt", model)
    _assert_models_equal(model, load_model(tmp_path / "g.sgckpt"))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.sgckpt"
    path.write_bytes(b"NOTAMODELxxxxxxxxxxxx")
    with pytest.raises(FormatError):
        load_model(path)


def test_float32_tensors_preserved(tmp_path):
    config = EncoderConfig(input_dim=2, output_dim=2, model_dim=4, num_layers=1,
                           num_heads=1, hidden_dim=4)
    params = init_encoder_params(config, np.random.default_rng(0))
    params["in.w"] = params["in.w"].astype(np.float32)
    model = Model(KIND_SPOT_TRANSFORMER, config, list(DEFAULT_VOCAB), params)
    save_model(tmp_path / "f32.sgckpt", model)
    back = load_model(tmp_path / "f32.sgckpt")
    assert back.params["in.w"].dtype == np.float32
    assert back.params["in.w"].tobytes() == params["in.w"].tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_non_finite_tensor_is_a_format_error_naming_it(tmp_path, value, dtype):
    config = NetVLADConfig(input_dim=6, clusters=3)
    params = {name: arr.astype(dtype)
              for name, arr in init_netvlad_params(config, np.random.default_rng(0)).items()}
    params["vlad.past.centers"][1, 2] = value
    path = tmp_path / "nv.sgckpt"
    save_model(path, Model("spot_netvlad", config, list(DEFAULT_VOCAB), params))
    with pytest.raises(FormatError,
                       match=r"^tensor param:vlad\.past\.centers holds NaN or infinite values$"):
        load_model(path)


def test_version_1_checkpoint_is_one_format_error(tmp_path, rng):
    """A checkpoint of the format that kept Adam moments and the optimizer step."""
    path = tmp_path / "v1.sgckpt"
    save_model(path, _random_model(rng))
    raw = path.read_bytes()
    end = 12 + int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:end])
    header.update(version=1, opt_step=3)
    head = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(head).to_bytes(4, "little") + head + raw[end:])
    with pytest.raises(FormatError, match="version 1, not 2"):
        load_model(path)


def _valid_checkpoints():
    """Raw bytes of one checkpoint per head kind."""
    rng = np.random.default_rng(5)
    enc = EncoderConfig(input_dim=4, output_dim=18, model_dim=8, num_layers=1, num_heads=2,
                        hidden_dim=8)
    params = init_encoder_params(enc, rng)
    nv = NetVLADConfig(input_dim=4, clusters=2)
    ground = EncoderConfig(input_dim=4, output_dim=2, model_dim=8, num_layers=1, num_heads=2,
                           hidden_dim=8, num_segments=2)
    models = [
        Model(KIND_SPOT_TRANSFORMER, enc, list(DEFAULT_VOCAB), params),
        Model("spot_netvlad", nv, list(DEFAULT_VOCAB), init_netvlad_params(nv, rng)),
        Model(KIND_GROUNDING, ground, [], init_encoder_params(ground, rng)),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.sgckpt"
        out = []
        for model in models:
            save_model(path, model)
            out.append(path.read_bytes())
        return out


VALID_CHECKPOINTS = _valid_checkpoints()


def _load_bytes(tmp_dir: Path, raw: bytes):
    path = tmp_dir / "fuzz.sgckpt"
    path.write_bytes(raw)
    return load_model(path)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_header_fails_only_with_format_errors(tmp_path_factory, data):
    raw = bytearray(data.draw(st.sampled_from(VALID_CHECKPOINTS)))
    header_end = 12 + int.from_bytes(raw[8:12], "little")
    raw[data.draw(st.integers(0, header_end - 1))] = data.draw(st.integers(0, 255))
    try:
        model = _load_bytes(tmp_path_factory.getbasetemp(), bytes(raw))
    except FormatError:
        return
    # a checkpoint that loads holds every tensor its head's forward reads
    x = np.zeros((2, 4, model.config.input_dim))
    try:
        if isinstance(model.config, NetVLADConfig):
            netvlad_forward_batch(model.params, model.config, x)
        else:
            segments = np.zeros((2, 4), dtype=int) if model.config.num_segments else None
            encoder_forward_batch(model.params, model.config, x, segments=segments)
    except SpotGroundError:
        pass


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_truncated_checkpoint_is_a_format_error(tmp_path_factory, data):
    raw = data.draw(st.sampled_from(VALID_CHECKPOINTS))
    with pytest.raises(FormatError):
        _load_bytes(tmp_path_factory.getbasetemp(), raw[: data.draw(st.integers(0, len(raw) - 1))])
