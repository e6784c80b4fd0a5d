"""Model conversion: trained float network -> TFLM artifacts.

Mirrors the paper's pipeline (§VI): "The model is first trained using
TensorFlow and subsequently converted to a TensorFlow Lite and 'micro'
model."  Two converters are provided:

* :func:`convert_tiny_conv_int8` — post-training int8 quantization with
  activation calibration, producing the ~49 kB deployable artifact;
* :func:`convert_tiny_conv_float` — a float32 graph of the same network
  for accuracy-degradation ablations.
"""

from __future__ import annotations

import numpy as np

# The input converters live with the features they convert, so the
# inference path imports them without the training stack; they are
# re-exported here for the converters' callers.
from repro.audio.features import fingerprint_to_int8, fingerprints_to_int8
from repro.errors import ReproError
from repro.tflm.model import Model, ModelMetadata
from repro.tflm.ops.conv import Conv2D
from repro.tflm.ops.fully_connected import FullyConnected
from repro.tflm.ops.softmax import (
    SOFTMAX_OUTPUT_SCALE,
    SOFTMAX_OUTPUT_ZERO_POINT,
    Softmax,
)
from repro.tflm.quantize import choose_activation_qparams, choose_weight_qparams
from repro.tflm.tensor import QuantParams, TensorSpec
from repro.train.layers import ConvLayer, DenseLayer
from repro.train.network import TrainableNetwork

__all__ = ["convert_tiny_conv_int8", "convert_tiny_conv_float",
           "fingerprint_to_int8", "fingerprints_to_int8"]

# Input features are uint8 [0, 255]; training sees them as [0, 1].
_INPUT_QUANT = QuantParams(scale=1.0 / 255.0, zero_point=-128)


def _find_layers(network: TrainableNetwork) -> tuple[ConvLayer, DenseLayer]:
    convs = [l for l in network.layers if isinstance(l, ConvLayer)]
    denses = [l for l in network.layers if isinstance(l, DenseLayer)]
    if len(convs) != 1 or len(denses) != 1:
        raise ReproError(
            "converter expects the tiny_conv structure "
            f"(found {len(convs)} conv, {len(denses)} dense layers)"
        )
    return convs[0], denses[0]


def _calibrate(network: TrainableNetwork, conv: ConvLayer,
               calibration_x: np.ndarray) -> tuple[tuple[float, float],
                                                   tuple[float, float]]:
    """Observed (min, max) of the post-ReLU conv output and the logits."""
    if len(calibration_x) == 0:
        raise ReproError("calibration set is empty")
    conv_out = conv.forward(calibration_x, training=False)
    relu_out = np.maximum(conv_out, 0.0)
    logits = network.forward(calibration_x, training=False)
    return ((float(relu_out.min()), float(relu_out.max())),
            (float(logits.min()), float(logits.max())))


def convert_tiny_conv_int8(network: TrainableNetwork,
                           calibration_x: np.ndarray,
                           labels: tuple[str, ...] = (),
                           name: str = "tiny_conv",
                           version: int = 1) -> Model:
    """Post-training int8 quantization of a trained tiny_conv network.

    ``calibration_x`` is a batch of float inputs (N, F, B, 1) in [0, 1]
    used to observe activation ranges, as TFLite's representative
    dataset does.
    """
    conv, dense = _find_layers(network)
    (relu_range, logit_range) = _calibrate(network, conv, calibration_x)

    h, w, c = network.input_shape
    num_classes = network.num_classes
    conv_w = conv.weights
    out_c, kh, kw, in_c = conv_w.shape

    conv_w_q = choose_weight_qparams(conv_w)
    conv_out_q = choose_activation_qparams(*relu_range)
    dense_w_q = choose_weight_qparams(dense.weights)
    logits_q = choose_activation_qparams(*logit_range)

    model = Model(metadata=ModelMetadata(
        name=name, version=version, labels=tuple(labels),
        description="tiny_conv keyword spotter (int8, post-training quant)",
    ))
    model.add_tensor(TensorSpec("input", (1, h, w, c), "int8", _INPUT_QUANT))
    model.add_tensor(
        TensorSpec("conv_weights", conv_w.shape, "int8", conv_w_q),
        conv_w_q.quantize(conv_w))
    conv_bias_scale = _INPUT_QUANT.scale * conv_w_q.scale
    model.add_tensor(
        TensorSpec("conv_bias", (out_c,), "int32",
                   QuantParams(conv_bias_scale, 0)),
        np.round(conv.bias / conv_bias_scale).astype(np.int32))
    from repro.tflm.ops.conv import conv_output_size

    oh = conv_output_size(h, kh, 2, "same")
    ow = conv_output_size(w, kw, 2, "same")
    model.add_tensor(TensorSpec("conv_out", (1, oh, ow, out_c), "int8",
                                conv_out_q))
    model.add_tensor(
        TensorSpec("fc_weights", dense.weights.shape, "int8", dense_w_q),
        dense_w_q.quantize(dense.weights))
    fc_bias_scale = conv_out_q.scale * dense_w_q.scale
    model.add_tensor(
        TensorSpec("fc_bias", (num_classes,), "int32",
                   QuantParams(fc_bias_scale, 0)),
        np.round(dense.bias / fc_bias_scale).astype(np.int32))
    model.add_tensor(TensorSpec("logits", (1, num_classes), "int8", logits_q))
    model.add_tensor(TensorSpec(
        "probs", (1, num_classes), "int8",
        QuantParams(SOFTMAX_OUTPUT_SCALE, SOFTMAX_OUTPUT_ZERO_POINT)))

    model.add_operator(Conv2D(
        ["input", "conv_weights", "conv_bias"], ["conv_out"],
        {"stride": (2, 2), "padding": "same", "activation": "relu"}))
    model.add_operator(FullyConnected(
        ["conv_out", "fc_weights", "fc_bias"], ["logits"], {}))
    model.add_operator(Softmax(["logits"], ["probs"], {}))
    model.inputs = ["input"]
    model.outputs = ["probs"]
    model.validate()
    return model


def convert_tiny_conv_float(network: TrainableNetwork,
                            labels: tuple[str, ...] = (),
                            name: str = "tiny_conv_float",
                            version: int = 1) -> Model:
    """Float32 graph of the same network (ablation baseline)."""
    conv, dense = _find_layers(network)
    h, w, c = network.input_shape
    num_classes = network.num_classes
    out_c, kh, kw, in_c = conv.weights.shape
    from repro.tflm.ops.conv import conv_output_size

    oh = conv_output_size(h, kh, 2, "same")
    ow = conv_output_size(w, kw, 2, "same")
    model = Model(metadata=ModelMetadata(
        name=name, version=version, labels=tuple(labels),
        description="tiny_conv keyword spotter (float32 reference)",
    ))
    model.add_tensor(TensorSpec("input", (1, h, w, c), "float32"))
    model.add_tensor(TensorSpec("conv_weights", conv.weights.shape,
                                "float32"),
                     conv.weights.astype(np.float32))
    model.add_tensor(TensorSpec("conv_bias", (out_c,), "float32"),
                     conv.bias.astype(np.float32))
    model.add_tensor(TensorSpec("conv_out", (1, oh, ow, out_c), "float32"))
    model.add_tensor(TensorSpec("fc_weights", dense.weights.shape,
                                "float32"),
                     dense.weights.astype(np.float32))
    model.add_tensor(TensorSpec("fc_bias", (num_classes,), "float32"),
                     dense.bias.astype(np.float32))
    model.add_tensor(TensorSpec("logits", (1, num_classes), "float32"))
    model.add_tensor(TensorSpec("probs", (1, num_classes), "float32"))
    model.add_operator(Conv2D(
        ["input", "conv_weights", "conv_bias"], ["conv_out"],
        {"stride": (2, 2), "padding": "same", "activation": "relu"}))
    model.add_operator(FullyConnected(
        ["conv_out", "fc_weights", "fc_bias"], ["logits"], {}))
    model.add_operator(Softmax(["logits"], ["probs"], {}))
    model.inputs = ["input"]
    model.outputs = ["probs"]
    model.validate()
    return model
