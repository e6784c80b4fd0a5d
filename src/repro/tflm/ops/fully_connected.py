"""Fully-connected (dense) kernel, float and int8."""

from __future__ import annotations

import numpy as np

from repro.errors import InterpreterError
from repro.tflm.ops.base import Op, OpCost, register_op
from repro.tflm.quantize import (
    fold_requant,
    requantize_folded,
    requantize_int32,
)

__all__ = ["FullyConnected"]


@register_op
class FullyConnected(Op):
    """y = x @ W^T + b with weights (out_features, in_features).

    The input is flattened to (batch, in_features) first, matching
    TFLite's implicit flatten for dense layers after convolutions.
    """

    opcode = "fully_connected"

    def validate(self, specs):
        super().validate(specs)
        x_spec = specs[self.inputs[0]]
        w_spec = specs[self.inputs[1]]
        out_spec = specs[self.outputs[0]]
        if len(w_spec.shape) != 2:
            raise InterpreterError(
                "fully_connected: weights must be 2-D"
            )
        out_features, in_features = w_spec.shape
        if x_spec.num_elements != in_features:
            raise InterpreterError(
                "fully_connected: input size does not match the weights"
            )
        if out_spec.shape != (1, out_features):
            raise InterpreterError(
                "fully_connected: output must be (1, out_features)"
            )

    def plan(self, tensors, specs):
        """Pre-transpose/cast weights, fold the int8 requantization
        epilogue."""
        if self.inputs[1] not in tensors:
            return None
        x_spec = specs[self.inputs[0]]
        weights = tensors[self.inputs[1]]
        bias = tensors[self.inputs[2]] if len(self.inputs) > 2 else None
        if x_spec.dtype == "float32":
            w_t = np.ascontiguousarray(weights.astype(np.float32).T)
            return {"w_t": w_t, "bias": bias}
        # int8: exact float64 GEMM (see _ConvBase.plan for the bound).
        w_t = np.ascontiguousarray(weights.astype(np.float64).T)
        return {"w_t": w_t,
                **fold_requant(x_spec.quant, specs[self.inputs[1]].quant,
                               specs[self.outputs[0]].quant,
                               w_t.sum(axis=0), bias,
                               self.params.get("activation") == "relu")}

    def _kernel(self, x, specs, plan) -> np.ndarray:
        """(N, in_features) -> (N, out_features) in one GEMM.

        The int8 GEMM is exact, so grouping rows across samples cannot
        change any sum; float32 callers pass one sample at a time.
        """
        if specs[self.inputs[0]].dtype == "float32":
            acc = x.astype(np.float32) @ plan["w_t"]
            if plan["bias"] is not None:
                acc = acc + plan["bias"]
            if self.params.get("activation") == "relu":
                acc = np.maximum(acc, 0.0)
            return acc.astype(np.float32)
        acc = x.astype(np.float64) @ plan["w_t"]
        return requantize_folded(acc.astype(np.int64), plan)

    def run(self, tensors, specs, plan=None):
        """int8 runs :meth:`_kernel` once over the whole batch; float32
        runs it one sample at a time, which pins BLAS order."""
        if plan is None:
            plan = self.plan(tensors, specs)
        x = tensors[self.inputs[0]].reshape(-1, specs[self.inputs[1]].shape[1])
        if specs[self.inputs[0]].dtype == "float32":
            out = np.concatenate([self._kernel(x[n:n + 1], specs, plan)
                                  for n in range(len(x))])
        else:
            out = self._kernel(x, specs, plan)
        tensors[self.outputs[0]] = out

    def run_reference(self, tensors, specs):
        """Original implementation: weights re-cast on every call."""
        x_spec = specs[self.inputs[0]]
        w_spec = specs[self.inputs[1]]
        out_spec = specs[self.outputs[0]]
        x = tensors[self.inputs[0]].reshape(1, -1)
        weights = tensors[self.inputs[1]]
        bias = tensors[self.inputs[2]] if len(self.inputs) > 2 else None
        fused_relu = self.params.get("activation") == "relu"

        if x_spec.dtype == "float32":
            acc = x.astype(np.float32) @ weights.astype(np.float32).T
            if bias is not None:
                acc = acc + bias
            if fused_relu:
                acc = np.maximum(acc, 0.0)
            tensors[self.outputs[0]] = acc.astype(np.float32)
            return

        zp_x = x_spec.quant.zero_point
        acc = (x.astype(np.int32) - zp_x) @ weights.astype(np.int32).T
        if bias is not None:
            acc = acc + bias.astype(np.int32)
        out_q = out_spec.quant
        result = requantize_int32(acc, x_spec.quant.scale,
                                  w_spec.quant.scale, out_q)
        if fused_relu:
            result = np.maximum(result, np.int8(out_q.zero_point))
        tensors[self.outputs[0]] = result.reshape(out_spec.shape)

    def cost(self, specs):
        w_spec = specs[self.inputs[1]]
        out_features, in_features = w_spec.shape
        return OpCost(macs=out_features * in_features, elements=out_features)
