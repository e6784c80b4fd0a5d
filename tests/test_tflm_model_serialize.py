"""Model graph validation and the OMGM binary format."""

import numpy as np
import pytest

from repro.errors import ModelFormatError
from repro.tflm.model import Model, ModelMetadata
from repro.tflm.ops.fully_connected import FullyConnected
from repro.tflm.ops.reshape import Reshape
from repro.tflm.serialize import MAGIC, deserialize_model, serialize_model
from repro.tflm.tensor import QuantParams, TensorSpec
from tests.helpers import build_float_mlp, build_tiny_int8_model


# --- graph validation --------------------------------------------------------

def test_valid_model_passes():
    build_tiny_int8_model().validate()


def test_duplicate_tensor_rejected():
    model = Model(metadata=ModelMetadata(name="m"))
    model.add_tensor(TensorSpec("t", (1,), "float32"))
    with pytest.raises(ModelFormatError):
        model.add_tensor(TensorSpec("t", (2,), "float32"))


def test_missing_io_rejected():
    model = Model(metadata=ModelMetadata(name="m"))
    model.add_tensor(TensorSpec("x", (1, 2), "float32"))
    with pytest.raises(ModelFormatError):
        model.validate()


def test_undeclared_io_tensor_rejected():
    model = Model(metadata=ModelMetadata(name="m"))
    model.add_tensor(TensorSpec("x", (1, 2), "float32"))
    model.inputs = ["x"]
    model.outputs = ["ghost"]
    with pytest.raises(ModelFormatError):
        model.validate()


def test_constant_as_input_rejected():
    model = Model(metadata=ModelMetadata(name="m"))
    model.add_tensor(TensorSpec("x", (1, 2), "float32"),
                     np.zeros((1, 2), dtype=np.float32))
    model.inputs = ["x"]
    model.outputs = ["x"]
    with pytest.raises(ModelFormatError, match="constant"):
        model.validate()


def test_use_before_def_rejected():
    model = Model(metadata=ModelMetadata(name="m"))
    model.add_tensor(TensorSpec("x", (1, 4), "float32"))
    model.add_tensor(TensorSpec("mid", (1, 4), "float32"))
    model.add_tensor(TensorSpec("y", (2, 2), "float32"))
    model.add_operator(Reshape(["mid"], ["y"]))
    model.add_operator(Reshape(["x"], ["mid"]))
    model.inputs = ["x"]
    model.outputs = ["y"]
    with pytest.raises(ModelFormatError, match="before defined"):
        model.validate()


def test_unproduced_output_rejected():
    model = Model(metadata=ModelMetadata(name="m"))
    model.add_tensor(TensorSpec("x", (1, 4), "float32"))
    model.add_tensor(TensorSpec("y", (1, 4), "float32"))
    model.inputs = ["x"]
    model.outputs = ["y"]
    with pytest.raises(ModelFormatError, match="never produced"):
        model.validate()


def test_constant_shape_mismatch_rejected():
    model = Model(metadata=ModelMetadata(name="m"))
    with pytest.raises(ModelFormatError):
        model.add_tensor(TensorSpec("w", (2, 2), "float32"),
                         np.zeros((3, 3), dtype=np.float32))


def test_weight_bytes_and_macs():
    model = build_tiny_int8_model()
    assert model.weight_bytes() > 0
    assert model.total_macs() > 0
    assert len(model.op_summary()) == 3


# --- serialization ------------------------------------------------------------

def test_roundtrip_preserves_everything():
    model = build_tiny_int8_model()
    blob = serialize_model(model)
    assert blob.startswith(MAGIC)
    restored = deserialize_model(blob)
    assert restored.metadata == model.metadata
    assert list(restored.tensors) == list(model.tensors)
    for name, spec in model.tensors.items():
        restored_spec = restored.tensors[name]
        assert restored_spec.shape == spec.shape
        assert restored_spec.dtype == spec.dtype
        if spec.quant:
            assert restored_spec.quant.scale == spec.quant.scale
            assert restored_spec.quant.zero_point == spec.quant.zero_point
    for name, array in model.constants.items():
        assert np.array_equal(restored.constants[name], array)
    assert [op.to_dict() for op in restored.operators] == \
        [op.to_dict() for op in model.operators]
    assert restored.inputs == model.inputs
    assert restored.outputs == model.outputs


def test_roundtrip_float_model():
    model = build_float_mlp()
    restored = deserialize_model(serialize_model(model))
    assert np.array_equal(restored.constants["w"], model.constants["w"])


def test_serialization_is_deterministic():
    assert serialize_model(build_tiny_int8_model()) == \
        serialize_model(build_tiny_int8_model())


def test_restored_model_produces_identical_outputs():
    from repro.tflm.interpreter import Interpreter

    model = build_tiny_int8_model()
    restored = deserialize_model(serialize_model(model))
    x = np.random.default_rng(0).integers(-128, 127, size=(1, 8, 6, 1),
                                          dtype=np.int8)
    original_idx, original_scores = Interpreter(model).classify(x)
    restored_idx, restored_scores = Interpreter(restored).classify(x)
    assert original_idx == restored_idx
    assert np.array_equal(original_scores, restored_scores)


def test_bad_magic_rejected():
    blob = serialize_model(build_tiny_int8_model())
    with pytest.raises(ModelFormatError, match="magic"):
        deserialize_model(b"XXXX" + blob[4:])


def test_crc_detects_corruption():
    blob = bytearray(serialize_model(build_tiny_int8_model()))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(ModelFormatError, match="CRC"):
        deserialize_model(bytes(blob))


def test_truncation_detected():
    blob = serialize_model(build_tiny_int8_model())
    with pytest.raises(ModelFormatError):
        deserialize_model(blob[:10])


def test_unsupported_version_rejected():
    blob = bytearray(serialize_model(build_tiny_int8_model()))
    blob[4] = 99  # version field (little-endian u16 at offset 4)
    import struct
    import zlib

    body = bytes(blob[:-4])
    patched = body + struct.pack("<I", zlib.crc32(body))
    with pytest.raises(ModelFormatError, match="version"):
        deserialize_model(patched)


def test_stored_constant_shorter_than_its_shape_rejected():
    """A CRC-valid stream whose tensor shape claims more elements than
    the stored constant holds raises a format error, not numpy's."""
    import dataclasses

    model = build_tiny_int8_model()
    name = sorted(model.constants)[0]
    spec = model.tensors[name]
    model.tensors[name] = dataclasses.replace(
        spec, shape=(spec.shape[0] * 1000,) + spec.shape[1:])
    with pytest.raises(ModelFormatError, match="constant size"):
        deserialize_model(serialize_model(model))


def test_deeply_nested_params_rejected():
    """Nested list tags cost the reader two frames a level; a stream of
    them raises a format error, not RecursionError."""
    model = build_float_mlp()
    nested = ()
    for _ in range(600):
        nested = (nested,)
    model.operators[0].params["deep"] = nested
    with pytest.raises(ModelFormatError, match="nest"):
        deserialize_model(serialize_model(model))


def test_unsupported_param_type_rejected():
    model = build_float_mlp()
    model.operators[0].params["bad"] = {"nested": "dict"}
    with pytest.raises(ModelFormatError, match="param type"):
        serialize_model(model)


def test_params_tuple_roundtrip():
    model = build_float_mlp()
    model.operators[0].params["stride"] = (2, 2)
    model.operators[0].params["flag"] = True
    model.operators[0].params["ratio"] = 0.5
    model.operators[0].params["note"] = "hello"
    model.operators[0].params["nothing"] = None
    restored = deserialize_model(serialize_model(model))
    params = restored.operators[0].params
    assert params["stride"] == (2, 2)
    assert params["flag"] is True
    assert params["ratio"] == 0.5
    assert params["note"] == "hello"
    assert params["nothing"] is None
