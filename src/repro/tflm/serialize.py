"""Binary model format ("OMGM") — the artifact OMG encrypts and ships.

A compact, self-contained binary encoding playing the role of the
TFLite flatbuffer: header, metadata, tensor table (with quantization
parameters), operator list, and raw constant buffers, closed by a CRC32.
The CRC detects accidental corruption; *tamper* protection comes from
the AES-GCM envelope the provisioning layer wraps around these bytes.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import ModelFormatError
from repro.tflm.model import Model, ModelMetadata
from repro.tflm.ops.base import op_class
from repro.tflm.tensor import DTYPES, QuantParams, TensorSpec

__all__ = ["MAGIC", "FORMAT_VERSION", "serialize_model", "deserialize_model"]

MAGIC = b"OMGM"
FORMAT_VERSION = 1

_DTYPE_CODES = {name: i for i, name in enumerate(sorted(DTYPES))}
_CODE_DTYPES = {i: name for name, i in _DTYPE_CODES.items()}

# Tagged-union value encoding for operator params.
_TAG_NONE, _TAG_BOOL, _TAG_INT, _TAG_FLOAT, _TAG_STR, _TAG_LIST = range(6)
# Params are flat values or short lists; the bound keeps a crafted
# stream of nested list tags from recursing without limit.
_MAX_PARAM_DEPTH = 8


class _Writer:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

    def u8(self, value: int) -> None:
        self.raw(struct.pack("<B", value))

    def u16(self, value: int) -> None:
        self.raw(struct.pack("<H", value))

    def u32(self, value: int) -> None:
        self.raw(struct.pack("<I", value))

    def i64(self, value: int) -> None:
        self.raw(struct.pack("<q", value))

    def f64(self, value: float) -> None:
        self.raw(struct.pack("<d", value))

    def string(self, text: str) -> None:
        encoded = text.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ModelFormatError("string too long for format")
        self.u16(len(encoded))
        self.raw(encoded)

    def value(self, item) -> None:
        """Encode a params value (None/bool/int/float/str/list)."""
        if item is None:
            self.u8(_TAG_NONE)
        elif isinstance(item, bool):
            self.u8(_TAG_BOOL)
            self.u8(1 if item else 0)
        elif isinstance(item, int):
            self.u8(_TAG_INT)
            self.i64(item)
        elif isinstance(item, float):
            self.u8(_TAG_FLOAT)
            self.f64(item)
        elif isinstance(item, str):
            self.u8(_TAG_STR)
            self.string(item)
        elif isinstance(item, (list, tuple)):
            self.u8(_TAG_LIST)
            self.u16(len(item))
            for element in item:
                self.value(element)
        else:
            raise ModelFormatError(
                f"unsupported operator param type {type(item).__name__}"
            )

    def bytes_out(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def raw(self, length: int) -> bytes:
        if self._offset + length > len(self._data):
            raise ModelFormatError("truncated model stream")
        out = self._data[self._offset:self._offset + length]
        self._offset += length
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.raw(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.raw(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.raw(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.raw(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def string(self) -> str:
        try:
            return self.raw(self.u16()).decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError("malformed string in model stream") from None

    def value(self, depth: int = 0):
        if depth > _MAX_PARAM_DEPTH:
            raise ModelFormatError("operator params nest too deeply")
        tag = self.u8()
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_BOOL:
            return bool(self.u8())
        if tag == _TAG_INT:
            return self.i64()
        if tag == _TAG_FLOAT:
            return self.f64()
        if tag == _TAG_STR:
            return self.string()
        if tag == _TAG_LIST:
            return tuple(self.value(depth + 1) for _ in range(self.u16()))
        # The tag byte is decoded from (possibly plaintext) model bytes;
        # keep it out of the exception text.
        raise ModelFormatError("unknown value tag")

    @property
    def exhausted(self) -> bool:
        return self._offset >= len(self._data)


def serialize_model(model: Model) -> bytes:
    """Encode ``model`` as OMGM bytes (validates the graph first)."""
    model.validate()
    writer = _Writer()
    writer.raw(MAGIC)
    writer.u16(FORMAT_VERSION)
    writer.u16(0)  # flags, reserved

    meta = model.metadata
    writer.string(meta.name)
    writer.u32(meta.version)
    writer.string(meta.description)
    writer.u16(len(meta.labels))
    for label in meta.labels:
        writer.string(label)

    writer.u32(len(model.tensors))
    for spec in model.tensors.values():
        writer.string(spec.name)
        writer.u8(len(spec.shape))
        for dim in spec.shape:
            writer.u32(dim)
        writer.u8(_DTYPE_CODES[spec.dtype])
        writer.u8(1 if spec.quant else 0)
        if spec.quant:
            writer.f64(spec.quant.scale)
            writer.i64(spec.quant.zero_point)
        writer.u8(1 if spec.is_constant else 0)

    writer.u16(len(model.inputs))
    for name in model.inputs:
        writer.string(name)
    writer.u16(len(model.outputs))
    for name in model.outputs:
        writer.string(name)

    writer.u32(len(model.operators))
    for op in model.operators:
        writer.string(op.opcode)
        writer.u16(len(op.inputs))
        for name in op.inputs:
            writer.string(name)
        writer.u16(len(op.outputs))
        for name in op.outputs:
            writer.string(name)
        writer.u16(len(op.params))
        for key in sorted(op.params):
            writer.string(key)
            writer.value(op.params[key])

    writer.u32(len(model.constants))
    for name in sorted(model.constants):
        data = np.ascontiguousarray(model.constants[name])
        writer.string(name)
        blob = data.tobytes()
        writer.u32(len(blob))
        writer.raw(blob)

    body = writer.bytes_out()
    return body + struct.pack("<I", zlib.crc32(body))


def deserialize_model(blob: bytes) -> Model:
    """Decode OMGM bytes back into a validated :class:`Model`."""
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise ModelFormatError("not an OMGM model (bad magic)")
    body, crc_bytes = blob[:-4], blob[-4:]
    if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(body):
        raise ModelFormatError("model CRC mismatch (corrupted stream)")
    reader = _Reader(body)
    reader.raw(4)  # magic
    version = reader.u16()
    if version != FORMAT_VERSION:
        # Do not echo the decoded bytes: on the decrypt path this blob
        # is derived from plaintext model material.
        raise ModelFormatError("unsupported format version")
    reader.u16()  # flags

    name = reader.string()
    model_version = reader.u32()
    description = reader.string()
    labels = tuple(reader.string() for _ in range(reader.u16()))
    metadata = ModelMetadata(name=name, version=model_version,
                             labels=labels, description=description)
    model = Model(metadata=metadata)

    tensor_count = reader.u32()
    specs = []
    for _ in range(tensor_count):
        tensor_name = reader.string()
        shape = tuple(reader.u32() for _ in range(reader.u8()))
        dtype = _CODE_DTYPES.get(reader.u8())
        if dtype is None:
            raise ModelFormatError("unknown tensor dtype code")
        quant = None
        if reader.u8():
            scale = reader.f64()
            zero_point = reader.i64()
            quant = QuantParams(scale=scale, zero_point=zero_point)
        is_constant = bool(reader.u8())
        specs.append(TensorSpec(tensor_name, shape, dtype, quant,
                                is_constant))

    model.inputs = [reader.string() for _ in range(reader.u16())]
    model.outputs = [reader.string() for _ in range(reader.u16())]

    operator_count = reader.u32()
    for _ in range(operator_count):
        opcode = reader.string()
        op_inputs = [reader.string() for _ in range(reader.u16())]
        op_outputs = [reader.string() for _ in range(reader.u16())]
        params = {}
        for _ in range(reader.u16()):
            key = reader.string()
            params[key] = reader.value()
        model.add_operator(op_class(opcode)(op_inputs, op_outputs, params))

    constants: dict[str, bytes] = {}
    for _ in range(reader.u32()):
        const_name = reader.string()
        constants[const_name] = reader.raw(reader.u32())

    for spec in specs:
        data = None
        if spec.name in constants:
            if len(constants[spec.name]) != spec.num_bytes:
                raise ModelFormatError("constant size does not match its tensor")
            data = np.frombuffer(
                constants[spec.name], dtype=DTYPES[spec.dtype]
            ).reshape(spec.shape)
        model.add_tensor(spec, data)
    model.validate()
    return model
