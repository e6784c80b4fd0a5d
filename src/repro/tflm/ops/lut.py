"""Saturating nonlinearities via lookup tables (Tanh, Sigmoid, Pad, Mean).

TFLM evaluates int8 tanh/sigmoid with a 256-entry lookup table computed
from the input quantization — the exact trick reproduced here, so
recurrent cells (which gate with sigmoid/tanh) run in integer
arithmetic.  Pad and Mean support the pooling-free architectures in the
model zoo.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InterpreterError
from repro.tflm.ops.base import Op, OpCost, register_op
from repro.tflm.tensor import QuantParams

__all__ = ["Tanh", "Logistic", "Pad", "Mean",
           "TANH_OUTPUT_QUANT", "LOGISTIC_OUTPUT_QUANT"]

# TFLite conventions: tanh output in [-1, 1] at scale 1/128, zp 0;
# sigmoid output in [0, 1] at scale 1/256, zp -128.
TANH_OUTPUT_QUANT = QuantParams(scale=1.0 / 128.0, zero_point=0)
LOGISTIC_OUTPUT_QUANT = QuantParams(scale=1.0 / 256.0, zero_point=-128)


class _LutActivation(Op):
    """int8 activation via per-instance LUT; float path is direct."""

    function = staticmethod(np.tanh)
    output_quant = TANH_OUTPUT_QUANT

    def validate(self, specs):
        super().validate(specs)
        x_spec = specs[self.inputs[0]]
        out_spec = specs[self.outputs[0]]
        if x_spec.shape != out_spec.shape:
            raise InterpreterError(f"{self.opcode}: shape mismatch")
        if out_spec.dtype == "int8":
            if out_spec.quant != self.output_quant:
                raise InterpreterError(
                    f"{self.opcode}: int8 output must use the TFLite "
                    f"convention {self.output_quant}"
                )

    def _build_lut(self, quant: QuantParams) -> np.ndarray:
        q_values = np.arange(-128, 128)
        real = quant.dequantize(q_values)
        activated = self.function(real)
        return self.output_quant.quantize(activated)

    def run(self, tensors, specs, plan=None):
        x_spec = specs[self.inputs[0]]
        x = tensors[self.inputs[0]]
        if x_spec.dtype == "float32":
            tensors[self.outputs[0]] = self.function(
                x.astype(np.float64)).astype(np.float32)
            return
        lut = self._build_lut(x_spec.quant)
        tensors[self.outputs[0]] = lut[x.astype(np.int32) + 128]

    def cost(self, specs):
        return OpCost(elements=specs[self.inputs[0]].num_elements)


@register_op
class Tanh(_LutActivation):
    opcode = "tanh"
    function = staticmethod(np.tanh)
    output_quant = TANH_OUTPUT_QUANT


@register_op
class Logistic(_LutActivation):
    opcode = "logistic"

    @staticmethod
    def function(x):
        return 1.0 / (1.0 + np.exp(-x))

    output_quant = LOGISTIC_OUTPUT_QUANT


@register_op
class Pad(Op):
    """Zero-point padding: params['paddings'] = ((b, a), ...) per axis."""

    opcode = "pad"

    def _paddings(self, rank):
        paddings = self.params.get("paddings")
        if paddings is None or len(paddings) != rank:
            raise InterpreterError("pad: paddings must cover every axis")
        return [(int(before), int(after)) for before, after in paddings]

    def validate(self, specs):
        super().validate(specs)
        x_spec = specs[self.inputs[0]]
        out_spec = specs[self.outputs[0]]
        paddings = self._paddings(len(x_spec.shape))
        expected = tuple(dim + before + after
                         for dim, (before, after)
                         in zip(x_spec.shape, paddings))
        if out_spec.shape != expected:
            raise InterpreterError(
                "pad: output shape differs from the padded input"
            )

    def run(self, tensors, specs, plan=None):
        x_spec = specs[self.inputs[0]]
        x = tensors[self.inputs[0]]
        paddings = self._paddings(x.ndim)
        if x_spec.dtype == "float32":
            fill = 0.0
        else:
            fill = x_spec.quant.zero_point
        tensors[self.outputs[0]] = np.pad(
            x, paddings, constant_values=fill)

    def cost(self, specs):
        return OpCost(elements=specs[self.outputs[0]].num_elements)


@register_op
class Mean(Op):
    """Mean over params['axes'] (keepdims), e.g. global average pool."""

    opcode = "mean"

    def validate(self, specs):
        super().validate(specs)
        x_spec = specs[self.inputs[0]]
        out_spec = specs[self.outputs[0]]
        axes = tuple(self.params.get("axes", ()))
        if not axes:
            raise InterpreterError("mean: axes required")
        expected = tuple(1 if i in axes else dim
                         for i, dim in enumerate(x_spec.shape))
        if out_spec.shape != expected:
            raise InterpreterError(
                "mean: output shape differs from the reduced input"
            )

    def run(self, tensors, specs, plan=None):
        x_spec = specs[self.inputs[0]]
        out_spec = specs[self.outputs[0]]
        x = tensors[self.inputs[0]]
        # A unit leading dim is the batch axis: reducing it would mix
        # samples, and skipping it changes no value.
        axes = tuple(axis for axis in self.params["axes"]
                     if axis or x_spec.shape[0] != 1)
        if x_spec.dtype == "float32":
            tensors[self.outputs[0]] = x.astype(np.float64).mean(
                axis=axes, keepdims=True).astype(np.float32)
            return
        real = x_spec.quant.dequantize(x).mean(axis=axes, keepdims=True)
        tensors[self.outputs[0]] = out_spec.quant.quantize(real)

    def cost(self, specs):
        return OpCost(elements=specs[self.inputs[0]].num_elements)
