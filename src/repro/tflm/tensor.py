"""Tensor metadata for the TFLM-like engine.

Tensors are described by a :class:`TensorSpec` (shape, dtype, optional
affine quantization); the interpreter owns the backing buffers inside
its arena, mirroring TensorFlow Lite for Microcontrollers' split between
the static model schema and runtime allocations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelFormatError

__all__ = ["QuantParams", "TensorSpec", "DTYPES"]

DTYPES = {
    "int8": np.int8,
    "uint8": np.uint8,
    "int32": np.int32,
    "float32": np.float32,
}


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization: ``real = scale * (q - zero_point)``."""

    scale: float
    zero_point: int

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ModelFormatError("quantization scale must be positive")

    def quantize(self, real: np.ndarray, dtype: str = "int8") -> np.ndarray:
        np_dtype = DTYPES[dtype]
        info = np.iinfo(np_dtype)
        q = np.round(real / self.scale) + self.zero_point
        return np.clip(q, info.min, info.max).astype(np_dtype)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        return (q.astype(np.float64) - self.zero_point) * self.scale


@dataclass(frozen=True)
class TensorSpec:
    """Static description of one tensor in a model graph."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    quant: QuantParams | None = None
    is_constant: bool = False

    def __post_init__(self) -> None:
        if self.dtype not in DTYPES:
            raise ModelFormatError("unsupported tensor dtype")
        if any(dim <= 0 for dim in self.shape):
            raise ModelFormatError("non-positive dim in tensor shape")
        if self.dtype in ("int8", "uint8") and self.quant is None:
            raise ModelFormatError("integer tensors need quant params")

    @property
    def num_elements(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    @property
    def num_bytes(self) -> int:
        return self.num_elements * np.dtype(DTYPES[self.dtype]).itemsize

    def empty_array(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=DTYPES[self.dtype])

    def validate_array(self, array: np.ndarray) -> None:
        if tuple(array.shape) != self.shape:
            raise ModelFormatError("array shape differs from its tensor")
        if array.dtype != DTYPES[self.dtype]:
            raise ModelFormatError("array dtype differs from its tensor")
