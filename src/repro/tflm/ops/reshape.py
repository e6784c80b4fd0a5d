"""Shape-only ops: Reshape and Dequantize/Quantize casts."""

from __future__ import annotations

import numpy as np

from repro.errors import InterpreterError
from repro.tflm.ops.base import Op, OpCost, register_op

__all__ = ["Reshape", "Quantize", "Dequantize"]


@register_op
class Reshape(Op):
    opcode = "reshape"

    def validate(self, specs):
        super().validate(specs)
        x_spec = specs[self.inputs[0]]
        out_spec = specs[self.outputs[0]]
        if x_spec.num_elements != out_spec.num_elements:
            raise InterpreterError(
                "reshape: element counts differ"
            )
        if x_spec.dtype != out_spec.dtype:
            raise InterpreterError("reshape: dtype must be unchanged")

    def run(self, tensors, specs, plan=None):
        shape = specs[self.outputs[0]].shape
        tensors[self.outputs[0]] = tensors[self.inputs[0]].reshape(
            (-1,) + shape[1:] if shape else ())

    def cost(self, specs):
        return OpCost()  # zero-copy in real TFLM


@register_op
class Quantize(Op):
    """float32 -> int8/uint8 cast using the output's quant params."""

    opcode = "quantize"

    def run(self, tensors, specs, plan=None):
        out_spec = specs[self.outputs[0]]
        tensors[self.outputs[0]] = out_spec.quant.quantize(
            tensors[self.inputs[0]], out_spec.dtype)

    def cost(self, specs):
        return OpCost(elements=specs[self.inputs[0]].num_elements)


@register_op
class Dequantize(Op):
    """int8/uint8 -> float32 cast using the input's quant params."""

    opcode = "dequantize"

    def run(self, tensors, specs, plan=None):
        x_spec = specs[self.inputs[0]]
        tensors[self.outputs[0]] = x_spec.quant.dequantize(
            tensors[self.inputs[0]]).astype(np.float32)

    def cost(self, specs):
        return OpCost(elements=specs[self.inputs[0]].num_elements)
