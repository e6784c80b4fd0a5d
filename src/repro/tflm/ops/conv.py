"""Convolution kernels (float reference and int8 quantized).

Layouts follow TFLite: activations NHWC, Conv2D filters OHWI,
DepthwiseConv2D filters (1, H, W, C_out).  The int8 reference kernels
accumulate in int32 and requantize with the gemmlowp fixed-point
multiplier, so they are bit-compatible with TFLM's reference kernels for
per-tensor quantization.  The fast int8 kernel runs an exact float64
GEMM over raw int8 codes with the input zero-point folded into the bias
(see :func:`repro.tflm.quantize.fold_requant`): every product and sum is
an integer far below 2^53, so its output is bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InterpreterError
from repro.tflm.ops.base import Op, OpCost, register_op
from repro.tflm.quantize import (
    fold_requant,
    requantize_folded,
    requantize_int32,
)
from repro.tflm.tensor import TensorSpec

__all__ = ["conv_output_size", "same_padding", "Conv2D", "DepthwiseConv2D"]


def conv_output_size(input_size: int, kernel: int, stride: int,
                     padding: str) -> int:
    if padding == "same":
        return -(-input_size // stride)
    if padding == "valid":
        return (input_size - kernel) // stride + 1
    raise InterpreterError("unknown padding")


def same_padding(input_size: int, kernel: int, stride: int) -> tuple[int, int]:
    """(before, after) zero padding for SAME semantics."""
    out = -(-input_size // stride)
    total = max((out - 1) * stride + kernel - input_size, 0)
    before = total // 2
    return before, total - before


def _im2col_reference(x: np.ndarray, kh: int, kw: int, stride_h: int,
                      stride_w: int, pad: tuple[int, int, int, int],
                      pad_value) -> np.ndarray:
    """Reference loop: one patch copy per output position."""
    _, h, w, c = x.shape
    pt, pb, pl, pr = pad
    padded = np.full((1, h + pt + pb, w + pl + pr, c), pad_value,
                     dtype=x.dtype)
    padded[:, pt:pt + h, pl:pl + w, :] = x
    out_h = (padded.shape[1] - kh) // stride_h + 1
    out_w = (padded.shape[2] - kw) // stride_w + 1
    cols = np.empty((out_h * out_w, kh * kw * c), dtype=x.dtype)
    row = 0
    for i in range(out_h):
        top = i * stride_h
        for j in range(out_w):
            left = j * stride_w
            patch = padded[0, top:top + kh, left:left + kw, :]
            cols[row] = patch.reshape(-1)
            row += 1
    return cols


def _im2col_batch(x: np.ndarray, kh: int, kw: int, stride_h: int,
                  stride_w: int, pad: tuple[int, int, int, int],
                  pad_value) -> tuple[np.ndarray, int, int]:
    """(N, H, W, C) -> ((N * out_h * out_w, kh * kw * C), out_h, out_w).

    Stride-trick fast path: one padded allocation and one read-only
    :func:`np.lib.stride_tricks.as_strided` view cover every sample, so
    the only copy is the final reshape into the GEMM layout.  The view
    is ``(n, out_h, out_w, kh, kw, C)`` over the padded array's own
    strides ``(sn, sh, sw, sc)``: ``(sn, sh * stride_h, sw * stride_w,
    sh, sw, sc)``, already in the row layout, and every window lies in
    the padded array because ``out_h`` and ``out_w`` are the valid
    output sizes.  Row ``n * out_h * out_w + s`` equals row ``s`` of
    ``_im2col_reference(x[n:n+1], ...)`` exactly (pinned by randomized
    tests).  When the reshape needs no copy (a 1x1 kernel at stride 1)
    the result is that read-only view.
    """
    n, h, w, c = x.shape
    pt, pb, pl, pr = pad
    padded = np.full((n, h + pt + pb, w + pl + pr, c), pad_value,
                     dtype=x.dtype)
    padded[:, pt:pt + h, pl:pl + w, :] = x
    out_h = (padded.shape[1] - kh) // stride_h + 1
    out_w = (padded.shape[2] - kw) // stride_w + 1
    sn, sh, sw, sc = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, shape=(n, out_h, out_w, kh, kw, c),
        strides=(sn, sh * stride_h, sw * stride_w, sh, sw, sc),
        writeable=False)
    return windows.reshape(n * out_h * out_w, kh * kw * c), out_h, out_w


class _ConvBase(Op):
    """Shared shape/padding logic and kernels for Conv2D and
    DepthwiseConv2D, which differ only in filter layout and contraction
    (:meth:`_flat_weights`, :meth:`_gemm`)."""

    @staticmethod
    def _resolve_padding(x_shape, kh, kw, sh, sw, padding
                         ) -> tuple[int, int, int, int]:
        if padding == "same":
            pt, pb = same_padding(x_shape[1], kh, sh)
            pl, pr = same_padding(x_shape[2], kw, sw)
            return pt, pb, pl, pr
        return 0, 0, 0, 0

    def _geometry(self, specs: dict[str, TensorSpec]):
        x_spec = specs[self.inputs[0]]
        w_spec = specs[self.inputs[1]]
        stride_h, stride_w = self.params.get("stride", (1, 1))
        padding = self.params.get("padding", "same")
        if len(x_spec.shape) != 4 or x_spec.shape[0] != 1:
            raise InterpreterError(
                f"{self.opcode}: input must be (1, H, W, C)"
            )
        return x_spec, w_spec, stride_h, stride_w, padding

    def validate(self, specs: dict[str, TensorSpec]) -> None:
        super().validate(specs)
        x_spec, w_spec, sh, sw, padding = self._geometry(specs)
        out_spec = specs[self.outputs[0]]
        expected = self._output_shape(x_spec, w_spec, sh, sw, padding)
        if out_spec.shape != expected:
            raise InterpreterError(
                f"{self.opcode}: output shape differs from the computed one"
            )
        if x_spec.dtype != out_spec.dtype:
            raise InterpreterError(
                f"{self.opcode}: mixed input/output dtypes"
            )

    def plan(self, tensors, specs):
        """Pre-resolve padding, pre-flatten/cast the filter, fold the
        int8 requantization epilogue."""
        if self.inputs[1] not in tensors:
            return None
        x_spec, w_spec, sh, sw, padding = self._geometry(specs)
        bias = tensors[self.inputs[2]] if len(self.inputs) > 2 else None
        _, kh, kw, _ = w_spec.shape
        pad = self._resolve_padding(x_spec.shape, kh, kw, sh, sw, padding)
        if x_spec.dtype == "float32":
            weights = self._flat_weights(tensors[self.inputs[1]], np.float32)
            return {"pad": pad, "weights": weights, "bias": bias}
        # int8: the GEMM runs in float64, which is exact (per-term
        # products are < 2^16 and sums far below 2^53) and hits BLAS
        # instead of numpy's slow integer matmul.
        weights = self._flat_weights(tensors[self.inputs[1]], np.float64)
        return {"pad": pad, "weights": weights,
                **fold_requant(x_spec.quant, w_spec.quant,
                               specs[self.outputs[0]].quant,
                               weights.sum(axis=0), bias,
                               self.params.get("activation") == "relu")}

    def _kernel(self, x, specs, plan) -> np.ndarray:
        """(N, H, W, C) -> (N, out_h, out_w, out_c): one im2col and one
        GEMM across every sample.

        The int8 GEMM is exact, so grouping rows across samples cannot
        change any sum.  float32 callers pass one sample at a time:
        BLAS may reorder accumulation across shapes.
        """
        x_spec, w_spec, sh, sw, _ = self._geometry(specs)
        _, kh, kw, _ = w_spec.shape
        is_float = x_spec.dtype == "float32"
        # Cast the input, not the kh*kw-times larger patch matrix: the
        # im2col gather then writes the GEMM operand directly.
        dtype = np.float32 if is_float else np.float64
        pad_value = 0.0 if is_float else x_spec.quant.zero_point
        cols, out_h, out_w = _im2col_batch(x.astype(dtype), kh, kw, sh, sw,
                                           plan["pad"], pad_value)
        acc = self._gemm(cols, plan["weights"])
        if is_float:
            if plan["bias"] is not None:
                acc = acc + plan["bias"]
            if self.params.get("activation") == "relu":
                acc = np.maximum(acc, 0.0)
            out = acc.astype(np.float32)
        else:
            out = requantize_folded(acc.astype(np.int64), plan)
        return out.reshape(len(x), out_h, out_w, -1)

    def run(self, tensors, specs, plan=None):
        """int8 runs :meth:`_kernel` once over the whole batch; float32
        runs it one sample at a time, which pins BLAS order."""
        if plan is None:
            plan = self.plan(tensors, specs)
        x = tensors[self.inputs[0]]
        if specs[self.inputs[0]].dtype == "float32":
            out = np.concatenate([self._kernel(x[n:n + 1], specs, plan)
                                  for n in range(len(x))])
        else:
            out = self._kernel(x, specs, plan)
        tensors[self.outputs[0]] = out


@register_op
class Conv2D(_ConvBase):
    """Standard 2-D convolution, filters OHWI, optional fused ReLU."""

    opcode = "conv_2d"

    def _output_shape(self, x_spec, w_spec, sh, sw, padding):
        out_c, kh, kw, in_c = w_spec.shape
        if in_c != x_spec.shape[3]:
            raise InterpreterError(
                "conv_2d: filter and input channels differ"
            )
        out_h = conv_output_size(x_spec.shape[1], kh, sh, padding)
        out_w = conv_output_size(x_spec.shape[2], kw, sw, padding)
        return (1, out_h, out_w, out_c)

    @staticmethod
    def _flat_weights(weights, dtype):
        """OHWI -> (kh * kw * C_in, C_out), contiguous."""
        return np.ascontiguousarray(
            weights.reshape(weights.shape[0], -1).astype(dtype).T)

    @staticmethod
    def _gemm(cols, weights):
        return cols @ weights

    def run_reference(self, tensors, specs):
        """The original per-patch loop implementation, kept verbatim."""
        x = tensors[self.inputs[0]]
        weights = tensors[self.inputs[1]]
        bias = tensors[self.inputs[2]] if len(self.inputs) > 2 else None
        x_spec, w_spec, sh, sw, padding = self._geometry(specs)
        out_spec = specs[self.outputs[0]]
        out_c, kh, kw, in_c = weights.shape
        pad = self._resolve_padding(x.shape, kh, kw, sh, sw, padding)
        fused_relu = self.params.get("activation") == "relu"

        if x_spec.dtype == "float32":
            cols = _im2col_reference(x, kh, kw, sh, sw, pad, 0.0)
            flat_w = weights.reshape(out_c, -1).astype(np.float32)
            acc = cols.astype(np.float32) @ flat_w.T
            if bias is not None:
                acc = acc + bias
            if fused_relu:
                acc = np.maximum(acc, 0.0)
            tensors[self.outputs[0]] = acc.reshape(out_spec.shape).astype(np.float32)
            return

        zp_x = x_spec.quant.zero_point
        cols = _im2col_reference(x, kh, kw, sh, sw, pad,
                                 np.int8(zp_x)).astype(np.int32) - zp_x
        flat_w = weights.reshape(out_c, -1).astype(np.int32)
        acc = cols @ flat_w.T
        if bias is not None:
            acc = acc + bias.astype(np.int32)
        out_q = out_spec.quant
        result = requantize_int32(acc, x_spec.quant.scale,
                                  specs[self.inputs[1]].quant.scale, out_q)
        if fused_relu:
            result = np.maximum(result, np.int8(out_q.zero_point))
        tensors[self.outputs[0]] = result.reshape(out_spec.shape)

    def cost(self, specs):
        w_spec = specs[self.inputs[1]]
        out_spec = specs[self.outputs[0]]
        out_c, kh, kw, in_c = w_spec.shape
        spatial = out_spec.shape[1] * out_spec.shape[2]
        return OpCost(macs=spatial * out_c * kh * kw * in_c,
                      elements=out_spec.num_elements)


@register_op
class DepthwiseConv2D(_ConvBase):
    """Depthwise convolution, filters (1, H, W, C), multiplier 1."""

    opcode = "depthwise_conv_2d"

    def _output_shape(self, x_spec, w_spec, sh, sw, padding):
        _, kh, kw, channels = w_spec.shape
        if channels != x_spec.shape[3]:
            raise InterpreterError(
                "depthwise_conv_2d: filter and input channels differ"
            )
        out_h = conv_output_size(x_spec.shape[1], kh, sh, padding)
        out_w = conv_output_size(x_spec.shape[2], kw, sw, padding)
        return (1, out_h, out_w, channels)

    @staticmethod
    def _flat_weights(weights, dtype):
        """(1, H, W, C) -> (kh * kw, C)."""
        return weights.reshape(-1, weights.shape[3]).astype(dtype)

    @staticmethod
    def _gemm(cols, weights):
        # cols: (spatial, kh*kw*C) -> (spatial, kh*kw, C)
        cols = cols.reshape(cols.shape[0], weights.shape[0], weights.shape[1])
        return np.einsum("skc,kc->sc", cols, weights)

    def run_reference(self, tensors, specs):
        """The original per-patch loop implementation, kept verbatim."""
        x = tensors[self.inputs[0]]
        weights = tensors[self.inputs[1]]
        bias = tensors[self.inputs[2]] if len(self.inputs) > 2 else None
        x_spec, w_spec, sh, sw, padding = self._geometry(specs)
        out_spec = specs[self.outputs[0]]
        _, kh, kw, channels = weights.shape
        pad = self._resolve_padding(x.shape, kh, kw, sh, sw, padding)
        fused_relu = self.params.get("activation") == "relu"

        is_float = x_spec.dtype == "float32"
        pad_value = 0.0 if is_float else np.int8(x_spec.quant.zero_point)
        cols = _im2col_reference(x, kh, kw, sh, sw, pad, pad_value)
        cols = cols.reshape(cols.shape[0], kh * kw, channels)
        flat_w = weights.reshape(kh * kw, channels)
        if is_float:
            acc = np.einsum("skc,kc->sc", cols.astype(np.float32),
                            flat_w.astype(np.float32))
            if bias is not None:
                acc = acc + bias
            if fused_relu:
                acc = np.maximum(acc, 0.0)
            tensors[self.outputs[0]] = acc.reshape(out_spec.shape).astype(np.float32)
            return
        zp_x = x_spec.quant.zero_point
        acc = np.einsum("skc,kc->sc", cols.astype(np.int32) - zp_x,
                        flat_w.astype(np.int32))
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
        out_spec = specs[self.outputs[0]]
        _, kh, kw, channels = w_spec.shape
        spatial = out_spec.shape[1] * out_spec.shape[2]
        return OpCost(macs=spatial * channels * kh * kw,
                      elements=out_spec.num_elements)
