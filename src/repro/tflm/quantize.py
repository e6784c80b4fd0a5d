"""Quantization arithmetic matching the TensorFlow Lite reference.

Implements the pieces post-training int8 quantization needs:

* choosing (scale, zero_point) from observed ranges — symmetric for
  weights, asymmetric for activations, exactly as TFLite converters do;
* the fixed-point requantization multiplier: a real multiplier is
  decomposed into an int32 mantissa and a shift, and applied with the
  same saturating-rounding-doubling semantics as ``gemmlowp``'s
  ``SaturatingRoundingDoublingHighMul`` + rounding right shift.

Matching these semantics matters: it is why the int8 graph here and a
real TFLM interpreter produce identical outputs for identical weights.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ModelFormatError
from repro.tflm.tensor import QuantParams

__all__ = [
    "choose_activation_qparams", "choose_weight_qparams",
    "quantize_multiplier", "multiply_by_quantized_multiplier",
    "multiply_by_quantized_multiplier_inplace", "requantize_int32",
    "fold_requant", "requantize_folded",
]


def choose_activation_qparams(min_val: float, max_val: float,
                              dtype: str = "int8") -> QuantParams:
    """Asymmetric quantization covering [min_val, max_val].

    The range is nudged to include 0.0 exactly (TFLite requirement, so
    zero padding is representable).
    """
    if math.isnan(min_val) or math.isnan(max_val) or min_val > max_val:
        raise ModelFormatError(f"bad activation range [{min_val}, {max_val}]")
    qmin, qmax = (-128, 127) if dtype == "int8" else (0, 255)
    min_val = min(min_val, 0.0)
    max_val = max(max_val, 0.0)
    if max_val == min_val:
        return QuantParams(scale=1.0, zero_point=0 if dtype == "int8" else qmin)
    scale = (max_val - min_val) / (qmax - qmin)
    zero_point = int(round(qmin - min_val / scale))
    zero_point = max(qmin, min(qmax, zero_point))
    return QuantParams(scale=scale, zero_point=zero_point)


def choose_weight_qparams(weights: np.ndarray) -> QuantParams:
    """Symmetric int8 quantization (zero_point = 0) for weights."""
    bound = float(np.abs(weights).max())
    if bound == 0.0:
        bound = 1e-8
    return QuantParams(scale=bound / 127.0, zero_point=0)


def quantize_multiplier(real_multiplier: float) -> tuple[int, int]:
    """Decompose ``real_multiplier`` as ``m * 2^shift`` with m in Q31.

    Returns ``(quantized_multiplier, shift)`` where the multiplier is an
    int32 in [2^30, 2^31) and ``shift`` may be negative (right shift).
    """
    if real_multiplier <= 0 or real_multiplier >= 1e8:
        raise ModelFormatError("multiplier out of supported range")
    mantissa, exponent = math.frexp(real_multiplier)
    quantized = int(round(mantissa * (1 << 31)))
    if quantized == (1 << 31):
        quantized //= 2
        exponent += 1
    return quantized, exponent


def multiply_by_quantized_multiplier(value: np.ndarray, multiplier: int,
                                     shift: int) -> np.ndarray:
    """gemmlowp-style fixed-point multiply used for requantization.

    Computes ``round(value * multiplier * 2^shift / 2^31)`` on int64 to
    avoid overflow (real kernels use 32x32->64 multiplies too).
    """
    return multiply_by_quantized_multiplier_inplace(
        value.astype(np.int64), multiplier, shift)


def multiply_by_quantized_multiplier_inplace(acc: np.ndarray, multiplier: int,
                                             shift: int) -> np.ndarray:
    """In-place variant for callers that own their int64 accumulator.

    ``acc`` must be int64 and is destroyed; the return value is ``acc``.
    """
    if shift > 0:
        acc <<= shift
    acc *= int(multiplier)
    # SaturatingRoundingDoublingHighMul: (2*a*b + nudge) / 2^31 with a
    # sign-dependent nudge (+2^30 / 1-2^30) and C++ truncating division.
    # The asymmetric nudge cancels the floor-vs-truncate difference, so
    # the whole thing collapses to floor((product + 2^30) / 2^31) — one
    # arithmetic shift, no sign branch.
    acc += np.int64(1) << 30
    acc >>= 31
    if shift < 0:
        # Rounding right shift: half-up for non-negative, but negatives
        # need remainder > half (not >=) to bump — equivalent to biasing
        # by half-1 before the floor shift.  (acc >> 63) is -1/0.
        acc += acc >> 63
        acc += np.int64(1) << (-shift - 1)
        acc >>= -shift
    return acc


def requantize_int32(acc: np.ndarray, input_scale: float, weight_scale: float,
                     output_qparams: QuantParams,
                     dtype_min: int = -128, dtype_max: int = 127) -> np.ndarray:
    """Rescale int32 accumulators to the int8 output domain."""
    real_multiplier = input_scale * weight_scale / output_qparams.scale
    multiplier, shift = quantize_multiplier(real_multiplier)
    scaled = multiply_by_quantized_multiplier(acc, multiplier, shift)
    scaled = scaled + output_qparams.zero_point
    return np.clip(scaled, dtype_min, dtype_max).astype(np.int8)


def fold_requant(x_quant: QuantParams, w_quant: QuantParams,
                 out_quant: QuantParams, weight_sums: np.ndarray,
                 bias: np.ndarray | None, relu: bool) -> dict:
    """Static epilogue state for an int8 GEMM over raw input codes.

    Folds the input zero-point into the bias: ``sum((x - zp) * w)``
    equals ``sum(x * w) - zp * sum(w)`` per output channel, and every
    term is an exact integer, so the GEMM can skip a full-array
    subtraction.  ``weight_sums`` is ``sum(w)`` per output channel.
    A fused ReLU raises the clip floor to the output zero-point.
    """
    multiplier, shift = quantize_multiplier(
        x_quant.scale * w_quant.scale / out_quant.scale)
    bias_eff = (-x_quant.zero_point * weight_sums).astype(np.int64)
    if bias is not None:
        bias_eff = bias_eff + bias.astype(np.int64)
    clip_lo = out_quant.zero_point if relu else -128
    return {"bias_eff": bias_eff,
            "requant": (multiplier, shift, out_quant.zero_point),
            "clip": (clip_lo, 127)}


def requantize_folded(acc: np.ndarray, plan: dict) -> np.ndarray:
    """int64 raw-code accumulators -> int8 under a :func:`fold_requant`
    plan: add the folded bias, requantize, add the output zero-point,
    clip.  ``acc`` is destroyed."""
    acc += plan["bias_eff"]
    multiplier, shift, zero_point = plan["requant"]
    multiply_by_quantized_multiplier_inplace(acc, multiplier, shift)
    acc += zero_point
    lo, hi = plan["clip"]
    np.maximum(acc, lo, out=acc)
    np.minimum(acc, hi, out=acc)
    return acc.astype(np.int8)
