"""Softmax (classifier head).

The int8 path dequantizes, computes a numerically-stable softmax, and
requantizes into the TFLite-conventional output quantization
(scale = 1/256, zero_point = -128) so outputs use the full int8 range.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InterpreterError
from repro.tflm.ops.base import Op, OpCost, register_op

__all__ = ["Softmax", "SOFTMAX_OUTPUT_SCALE", "SOFTMAX_OUTPUT_ZERO_POINT"]

SOFTMAX_OUTPUT_SCALE = 1.0 / 256.0
SOFTMAX_OUTPUT_ZERO_POINT = -128


def _stable_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@register_op
class Softmax(Op):
    opcode = "softmax"

    def validate(self, specs):
        super().validate(specs)
        x_spec = specs[self.inputs[0]]
        out_spec = specs[self.outputs[0]]
        if x_spec.shape != out_spec.shape:
            raise InterpreterError(
                "softmax: input/output shape mismatch"
            )
        if out_spec.dtype == "int8":
            quant = out_spec.quant
            if (abs(quant.scale - SOFTMAX_OUTPUT_SCALE) > 1e-9
                    or quant.zero_point != SOFTMAX_OUTPUT_ZERO_POINT):
                raise InterpreterError(
                    "softmax int8 output must use scale 1/256, zero_point "
                    f"-128 (got {quant.scale}, {quant.zero_point})"
                )

    def run(self, tensors, specs, plan=None):
        x_spec = specs[self.inputs[0]]
        x = tensors[self.inputs[0]]
        if x_spec.dtype == "float32":
            tensors[self.outputs[0]] = _stable_softmax(
                x.astype(np.float64)).astype(np.float32)
            return
        real = x_spec.quant.dequantize(x)
        probs = _stable_softmax(real)
        q = np.round(probs / SOFTMAX_OUTPUT_SCALE) + SOFTMAX_OUTPUT_ZERO_POINT
        np.minimum(q, 127, out=q)
        np.maximum(q, -128, out=q)
        tensors[self.outputs[0]] = q.astype(np.int8)

    def cost(self, specs):
        # exp + divide per element: charge a few element-ops.
        return OpCost(elements=4 * specs[self.inputs[0]].num_elements)
