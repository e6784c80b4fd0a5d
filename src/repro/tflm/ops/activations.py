"""Standalone activation ops: ReLU, ReLU6."""

from __future__ import annotations

import numpy as np

from repro.errors import InterpreterError
from repro.tflm.ops.base import Op, OpCost, register_op

__all__ = ["Relu", "Relu6"]


class _Clamp(Op):
    """Shared clamp logic; bounds are in real-valued units."""

    real_min = 0.0
    real_max: float | None = None

    def validate(self, specs):
        super().validate(specs)
        x_spec = specs[self.inputs[0]]
        out_spec = specs[self.outputs[0]]
        if x_spec.shape != out_spec.shape or x_spec.dtype != out_spec.dtype:
            raise InterpreterError(
                f"{self.opcode}: input/output spec mismatch"
            )

    def run(self, tensors, specs, plan=None):
        x_spec = specs[self.inputs[0]]
        x = tensors[self.inputs[0]]
        if x_spec.dtype == "float32":
            result = np.maximum(x, self.real_min)
            if self.real_max is not None:
                result = np.minimum(result, self.real_max)
            tensors[self.outputs[0]] = result.astype(np.float32)
            return
        quant = x_spec.quant
        qmin = int(round(self.real_min / quant.scale)) + quant.zero_point
        qmin = max(qmin, -128)
        qmax = 127
        if self.real_max is not None:
            qmax = min(int(round(self.real_max / quant.scale))
                       + quant.zero_point, 127)
        tensors[self.outputs[0]] = np.clip(x, qmin, qmax).astype(x.dtype)

    def cost(self, specs):
        return OpCost(elements=specs[self.inputs[0]].num_elements)


@register_op
class Relu(_Clamp):
    opcode = "relu"
    real_min = 0.0
    real_max = None


@register_op
class Relu6(_Clamp):
    opcode = "relu6"
    real_min = 0.0
    real_max = 6.0
