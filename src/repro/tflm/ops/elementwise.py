"""Elementwise binary ops (Add, Mul) and tensor combination (Concat).

Needed by the larger keyword-spotting architectures in the model zoo
(residual connections, gating in recurrent cells).  Int8 semantics
follow TFLite's reference kernels: operands are rescaled into the
output's quantization domain before combining.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InterpreterError
from repro.tflm.ops.base import Op, OpCost, register_op

__all__ = ["Add", "Mul", "Concatenate"]


class _Binary(Op):
    """Shared validation for same-shape binary elementwise ops."""

    def validate(self, specs):
        super().validate(specs)
        a_spec = specs[self.inputs[0]]
        b_spec = specs[self.inputs[1]]
        out_spec = specs[self.outputs[0]]
        if not (a_spec.shape == b_spec.shape == out_spec.shape):
            raise InterpreterError(
                f"{self.opcode}: shapes must match"
            )
        if not (a_spec.dtype == b_spec.dtype == out_spec.dtype):
            raise InterpreterError(f"{self.opcode}: dtypes must match")

    def cost(self, specs):
        return OpCost(elements=2 * specs[self.outputs[0]].num_elements)


@register_op
class Add(_Binary):
    """Elementwise addition with optional fused ReLU."""

    opcode = "add"

    def run(self, tensors, specs, plan=None):
        a_spec = specs[self.inputs[0]]
        out_spec = specs[self.outputs[0]]
        a = tensors[self.inputs[0]]
        b = tensors[self.inputs[1]]
        fused_relu = self.params.get("activation") == "relu"
        if a_spec.dtype == "float32":
            result = a.astype(np.float64) + b.astype(np.float64)
            if fused_relu:
                result = np.maximum(result, 0.0)
            tensors[self.outputs[0]] = result.astype(np.float32)
            return
        real = (a_spec.quant.dequantize(a)
                + specs[self.inputs[1]].quant.dequantize(b))
        if fused_relu:
            real = np.maximum(real, 0.0)
        tensors[self.outputs[0]] = out_spec.quant.quantize(real)


@register_op
class Mul(_Binary):
    """Elementwise (Hadamard) multiplication."""

    opcode = "mul"

    def run(self, tensors, specs, plan=None):
        a_spec = specs[self.inputs[0]]
        out_spec = specs[self.outputs[0]]
        a = tensors[self.inputs[0]]
        b = tensors[self.inputs[1]]
        if a_spec.dtype == "float32":
            tensors[self.outputs[0]] = (
                a.astype(np.float64) * b.astype(np.float64)
            ).astype(np.float32)
            return
        real = (a_spec.quant.dequantize(a)
                * specs[self.inputs[1]].quant.dequantize(b))
        tensors[self.outputs[0]] = out_spec.quant.quantize(real)


@register_op
class Concatenate(Op):
    """Concatenation along ``params['axis']`` (default: last)."""

    opcode = "concatenate"

    def validate(self, specs):
        super().validate(specs)
        axis = self.params.get("axis", -1)
        out_spec = specs[self.outputs[0]]
        shapes = [specs[name].shape for name in self.inputs]
        rank = len(out_spec.shape)
        axis = axis % rank
        for shape in shapes:
            if len(shape) != rank:
                raise InterpreterError("concatenate: rank mismatch")
            for dim in range(rank):
                if dim != axis and shape[dim] != out_spec.shape[dim]:
                    raise InterpreterError(
                        "concatenate: non-axis dim mismatch"
                    )
        if sum(shape[axis] for shape in shapes) != out_spec.shape[axis]:
            raise InterpreterError(
                "concatenate: concatenated size does not match output"
            )
        dtypes = {specs[name].dtype for name in self.inputs}
        if len(dtypes) != 1 or out_spec.dtype not in dtypes:
            raise InterpreterError("concatenate: dtypes must match")

    def run(self, tensors, specs, plan=None):
        axis = self.params.get("axis", -1)
        out_spec = specs[self.outputs[0]]
        parts = []
        for name in self.inputs:
            part = tensors[name]
            spec = specs[name]
            if spec.dtype != "float32" and spec.quant != out_spec.quant:
                # Requantize into the output domain first.
                part = out_spec.quant.quantize(spec.quant.dequantize(part))
            parts.append(part)
        tensors[self.outputs[0]] = np.concatenate(parts, axis=axis)

    def cost(self, specs):
        return OpCost(elements=specs[self.outputs[0]].num_elements)
