"""Max and average pooling (NHWC, VALID or SAME padding)."""

from __future__ import annotations

import numpy as np

from repro.errors import InterpreterError
from repro.tflm.ops.base import Op, OpCost, register_op
from repro.tflm.ops.conv import conv_output_size, same_padding

__all__ = ["MaxPool2D", "AveragePool2D"]


class _PoolBase(Op):
    def _geometry(self, specs):
        x_spec = specs[self.inputs[0]]
        kh, kw = self.params.get("filter", (2, 2))
        sh, sw = self.params.get("stride", (2, 2))
        padding = self.params.get("padding", "valid")
        return x_spec, kh, kw, sh, sw, padding

    def validate(self, specs):
        super().validate(specs)
        x_spec, kh, kw, sh, sw, padding = self._geometry(specs)
        out_spec = specs[self.outputs[0]]
        if len(x_spec.shape) != 4:
            raise InterpreterError(f"{self.opcode}: input must be NHWC")
        expected = (
            1,
            conv_output_size(x_spec.shape[1], kh, sh, padding),
            conv_output_size(x_spec.shape[2], kw, sw, padding),
            x_spec.shape[3],
        )
        if out_spec.shape != expected:
            raise InterpreterError(
                f"{self.opcode}: output shape differs from the computed one"
            )
        if x_spec.dtype != out_spec.dtype:
            raise InterpreterError(f"{self.opcode}: dtype mismatch")

    def _windows(self, x, kh, kw, sh, sw, padding, pad_value):
        """Yield ``(i, j, window)`` per output position, each window
        ``(batch, kh, kw, C)``."""
        n, h, w, c = x.shape
        if padding == "same":
            pt, pb = same_padding(h, kh, sh)
            pl, pr = same_padding(w, kw, sw)
            padded = np.full((n, h + pt + pb, w + pl + pr, c), pad_value,
                             dtype=x.dtype)
            padded[:, pt:pt + h, pl:pl + w, :] = x
        else:
            padded = x
        out_h = (padded.shape[1] - kh) // sh + 1
        out_w = (padded.shape[2] - kw) // sw + 1
        for i in range(out_h):
            for j in range(out_w):
                yield i, j, padded[:, i * sh:i * sh + kh,
                                   j * sw:j * sw + kw, :]

    def cost(self, specs):
        out_spec = specs[self.outputs[0]]
        kh, kw = self.params.get("filter", (2, 2))
        return OpCost(elements=out_spec.num_elements * kh * kw)


@register_op
class MaxPool2D(_PoolBase):
    opcode = "max_pool_2d"

    def run(self, tensors, specs, plan=None):
        x_spec, kh, kw, sh, sw, padding = self._geometry(specs)
        x = tensors[self.inputs[0]]
        out = np.empty((len(x),) + specs[self.outputs[0]].shape[1:],
                       dtype=x.dtype)
        if x_spec.dtype == "float32":
            pad_value = -np.inf
        else:
            pad_value = np.iinfo(x.dtype).min
        for i, j, window in self._windows(x, kh, kw, sh, sw, padding,
                                          pad_value):
            out[:, i, j, :] = window.max(axis=(1, 2))
        tensors[self.outputs[0]] = out


@register_op
class AveragePool2D(_PoolBase):
    opcode = "average_pool_2d"

    def run(self, tensors, specs, plan=None):
        x_spec, kh, kw, sh, sw, padding = self._geometry(specs)
        x = tensors[self.inputs[0]]
        out = np.empty((len(x),) + specs[self.outputs[0]].shape[1:],
                       dtype=x.dtype)
        for i, j, window in self._windows(x, kh, kw, sh, sw, padding, 0):
            mean = window.astype(np.float64).mean(axis=(1, 2))
            if x_spec.dtype == "float32":
                out[:, i, j, :] = mean.astype(np.float32)
            else:
                info = np.iinfo(out.dtype)
                out[:, i, j, :] = np.clip(np.round(mean), info.min,
                                          info.max).astype(out.dtype)
        tensors[self.outputs[0]] = out
