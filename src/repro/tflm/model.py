"""Model graph: tensors + constants + an ordered operator list.

Like a TFLite flatbuffer, a :class:`Model` is a static artifact: specs
and weights only, no runtime state.  The interpreter allocates buffers;
the serializer turns the model into the bytes OMG encrypts and ships.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelFormatError
from repro.tflm.ops.base import Op
from repro.tflm.tensor import DTYPES, TensorSpec

__all__ = ["ModelMetadata", "Model"]


@dataclass(frozen=True)
class ModelMetadata:
    """Descriptive fields carried inside the model artifact."""

    name: str = "model"
    version: int = 1
    labels: tuple[str, ...] = ()
    description: str = ""


@dataclass
class Model:
    """A complete inference graph."""

    metadata: ModelMetadata
    tensors: dict[str, TensorSpec] = field(default_factory=dict)
    constants: dict[str, np.ndarray] = field(default_factory=dict)
    operators: list[Op] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)

    def add_tensor(self, spec: TensorSpec,
                   data: np.ndarray | None = None) -> TensorSpec:
        """Register a tensor; pass ``data`` to make it a constant."""
        if spec.name in self.tensors:
            raise ModelFormatError("duplicate tensor name")
        if data is not None:
            if not spec.is_constant:
                spec = TensorSpec(spec.name, spec.shape, spec.dtype,
                                  spec.quant, is_constant=True)
            data = np.ascontiguousarray(data, dtype=DTYPES[spec.dtype])
            spec.validate_array(data)
            self.constants[spec.name] = data
        self.tensors[spec.name] = spec
        return spec

    def add_operator(self, op: Op) -> None:
        self.operators.append(op)

    def validate(self) -> None:
        """Check graph consistency and single-pass executability."""
        if not self.inputs or not self.outputs:
            raise ModelFormatError("model must declare inputs and outputs")
        for name in self.inputs + self.outputs:
            if name not in self.tensors:
                raise ModelFormatError("undeclared I/O tensor")
        for name in self.inputs:
            if name in self.constants:
                raise ModelFormatError("a model input is a constant")
        available = set(self.inputs) | set(self.constants)
        for op in self.operators:
            op.validate(self.tensors)
            for name in op.inputs:
                if name not in available:
                    raise ModelFormatError(
                        f"{op.opcode}: tensor used before defined "
                        "(operators must be in execution order)"
                    )
            for name in op.outputs:
                if name in self.constants:
                    raise ModelFormatError(
                        f"{op.opcode}: writes a constant tensor"
                    )
                available.add(name)
        if any(name not in available for name in self.outputs):
            raise ModelFormatError("a model output is never produced")

    def weight_bytes(self) -> int:
        """Total size of constant data (the IP being protected)."""
        return sum(arr.nbytes for arr in self.constants.values())

    def total_macs(self) -> int:
        """Multiply-accumulates for one inference (timing model input)."""
        return sum(op.cost(self.tensors).macs for op in self.operators)

    def op_summary(self) -> list[str]:
        return [
            f"{op.opcode}: {', '.join(op.inputs)} -> {', '.join(op.outputs)}"
            for op in self.operators
        ]
