"""Model zoo: the small-footprint KWS family of Sainath & Parada [48].

The paper evaluates ``tiny_conv`` and notes the implementation "lays the
groundwork to port larger ... architectures" (§VI).  This module adds
the classic small-footprint variants so the accuracy/latency/size
trade-off can be studied on the same substrate:

* ``tiny_conv``        — the paper's model (re-exported);
* ``conv_pool``        — cnn-trad-fpool3-style: two conv layers with a
                          max-pool between them (higher accuracy, more MACs);
* ``low_latency_conv`` — one-fstride-style: a full-time-extent filter and
                          a bottleneck FC (fewer MACs, lower latency);
* ``fc_baseline``      — a plain DNN over the flattened fingerprint.

Plus :func:`convert_network_int8`, a *generic* post-training quantizer
that walks any supported layer stack (conv / max-pool / dense with
optional fused ReLU, dropout skipped) and emits an int8 OMGM graph.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.tflm.model import Model, ModelMetadata
from repro.tflm.ops.conv import Conv2D, conv_output_size
from repro.tflm.ops.fully_connected import FullyConnected
from repro.tflm.ops.pooling import MaxPool2D
from repro.tflm.ops.softmax import (
    SOFTMAX_OUTPUT_SCALE,
    SOFTMAX_OUTPUT_ZERO_POINT,
    Softmax,
)
from repro.tflm.quantize import choose_activation_qparams, choose_weight_qparams
from repro.tflm.tensor import QuantParams, TensorSpec
from repro.train.layers import (
    ConvLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    MaxPoolLayer,
    ReluLayer,
)
from repro.train.network import TrainableNetwork, build_tiny_conv

__all__ = ["ZOO", "build_architecture", "convert_network_int8",
           "build_conv_pool", "build_low_latency_conv", "build_fc_baseline"]

_INPUT_QUANT = QuantParams(scale=1.0 / 255.0, zero_point=-128)


def build_conv_pool(input_shape=(49, 43, 1), num_classes=12,
                    dropout=0.5, seed=1234) -> TrainableNetwork:
    """cnn-trad-fpool3-style: conv -> pool -> conv -> FC."""
    rng = np.random.default_rng(seed)
    h, w, c = input_shape
    conv1 = ConvLayer(c, 16, (8, 10), stride=(1, 1), padding="same",
                      rng=rng)
    pool = MaxPoolLayer((2, 2))
    ph, pw = h // 2, w // 2
    conv2 = ConvLayer(16, 8, (4, 4), stride=(2, 2), padding="same", rng=rng)
    oh = conv_output_size(ph, 4, 2, "same")
    ow = conv_output_size(pw, 4, 2, "same")
    layers = [
        conv1, ReluLayer(), pool,
        conv2, ReluLayer(), DropoutLayer(dropout, rng=rng),
        FlattenLayer(), DenseLayer(oh * ow * 8, num_classes, rng=rng),
    ]
    return TrainableNetwork(layers, input_shape, num_classes)


def build_low_latency_conv(input_shape=(49, 43, 1), num_classes=12,
                           dropout=0.5, seed=1234) -> TrainableNetwork:
    """one-fstride-style: a full-time-extent filter, then bottleneck FCs."""
    rng = np.random.default_rng(seed)
    h, w, c = input_shape
    conv = ConvLayer(c, 16, (h, 8), stride=(1, 4), padding="valid", rng=rng)
    ow = (w - 8) // 4 + 1
    layers = [
        conv, ReluLayer(), DropoutLayer(dropout, rng=rng),
        FlattenLayer(),
        DenseLayer(ow * 16, 32, rng=rng), ReluLayer(),
        DenseLayer(32, num_classes, rng=rng),
    ]
    return TrainableNetwork(layers, input_shape, num_classes)


def build_fc_baseline(input_shape=(49, 43, 1), num_classes=12,
                      dropout=0.5, seed=1234) -> TrainableNetwork:
    """Plain DNN over the flattened fingerprint (the pre-CNN baseline)."""
    rng = np.random.default_rng(seed)
    h, w, c = input_shape
    layers = [
        FlattenLayer(),
        DenseLayer(h * w * c, 128, rng=rng), ReluLayer(),
        DropoutLayer(dropout, rng=rng),
        DenseLayer(128, 128, rng=rng), ReluLayer(),
        DenseLayer(128, num_classes, rng=rng),
    ]
    return TrainableNetwork(layers, input_shape, num_classes)


ZOO = {
    "tiny_conv": build_tiny_conv,
    "conv_pool": build_conv_pool,
    "low_latency_conv": build_low_latency_conv,
    "fc_baseline": build_fc_baseline,
}


def build_architecture(name: str, **kwargs) -> TrainableNetwork:
    if name not in ZOO:
        raise ReproError(f"unknown architecture {name!r}; "
                         f"available: {sorted(ZOO)}")
    return ZOO[name](**kwargs)


# --- generic conversion ------------------------------------------------------

def _collect_activations(network: TrainableNetwork,
                         calibration_x: np.ndarray) -> list[np.ndarray]:
    """Forward pass capturing every layer's (inference-mode) output."""
    outputs = []
    current = calibration_x
    for layer in network.layers:
        current = layer.forward(current, training=False)
        outputs.append(current)
    return outputs


def convert_network_int8(network: TrainableNetwork,
                         calibration_x: np.ndarray,
                         labels: tuple[str, ...] = (),
                         name: str = "model",
                         version: int = 1) -> Model:
    """Post-training int8 quantization for any supported layer stack.

    Supported: ConvLayer, MaxPoolLayer, DenseLayer — each with an
    optional following ReluLayer fused into the producing op — plus
    DropoutLayer and FlattenLayer (structural, skipped).  A softmax head
    is appended after the final dense layer, as in the TFLite recipe.
    The fused ReLU becomes the producer's ``activation`` parameter, so
    the graph has no standalone ``relu`` op and its clip is folded into
    the producer's requantization.
    """
    if len(calibration_x) == 0:
        raise ReproError("calibration set is empty")
    activations = _collect_activations(network, calibration_x)
    layers = network.layers

    model = Model(metadata=ModelMetadata(
        name=name, version=version, labels=tuple(labels),
        description=f"{name} (generic int8 post-training quant)"))
    h, w, c = network.input_shape
    model.add_tensor(TensorSpec("input", (1, h, w, c), "int8",
                                _INPUT_QUANT))
    current_name = "input"
    current_quant = _INPUT_QUANT
    current_shape: tuple[int, ...] = (1, h, w, c)
    tensor_index = 0

    def is_fused_relu(index: int) -> bool:
        return (index + 1 < len(layers)
                and isinstance(layers[index + 1], ReluLayer))

    skip_next_relu = False
    for index, layer in enumerate(layers):
        if isinstance(layer, (DropoutLayer, FlattenLayer)):
            continue
        if isinstance(layer, ReluLayer):
            if skip_next_relu:
                skip_next_relu = False
                continue
            raise ReproError(
                "standalone ReLU (not after conv/dense) is unsupported "
                "by the generic converter")
        tensor_index += 1
        fused = False
        if isinstance(layer, ConvLayer):
            fused = is_fused_relu(index)
            out = activations[index + 1] if fused else activations[index]
            out_quant = choose_activation_qparams(float(out.min()),
                                                  float(out.max()))
            w_q = choose_weight_qparams(layer.weights)
            weights_name = f"w{tensor_index}"
            bias_name = f"b{tensor_index}"
            out_name = f"t{tensor_index}"
            model.add_tensor(
                TensorSpec(weights_name, layer.weights.shape, "int8", w_q),
                w_q.quantize(layer.weights))
            bias_scale = current_quant.scale * w_q.scale
            model.add_tensor(
                TensorSpec(bias_name, layer.bias.shape, "int32",
                           QuantParams(bias_scale, 0)),
                np.round(layer.bias / bias_scale).astype(np.int32))
            out_shape = (1,) + out.shape[1:]
            model.add_tensor(TensorSpec(out_name, out_shape, "int8",
                                        out_quant))
            model.add_operator(Conv2D(
                [current_name, weights_name, bias_name], [out_name],
                {"stride": tuple(layer.stride), "padding": layer.padding,
                 "activation": "relu" if fused else None}))
            current_name, current_quant = out_name, out_quant
            current_shape = out_shape
        elif isinstance(layer, MaxPoolLayer):
            out = activations[index]
            out_name = f"t{tensor_index}"
            out_shape = (1,) + out.shape[1:]
            model.add_tensor(TensorSpec(out_name, out_shape, "int8",
                                        current_quant))
            model.add_operator(MaxPool2D(
                [current_name], [out_name],
                {"filter": tuple(layer.pool), "stride": tuple(layer.pool),
                 "padding": "valid"}))
            current_name = out_name
            current_shape = out_shape
        elif isinstance(layer, DenseLayer):
            fused = is_fused_relu(index)
            out = activations[index + 1] if fused else activations[index]
            out_quant = choose_activation_qparams(float(out.min()),
                                                  float(out.max()))
            w_q = choose_weight_qparams(layer.weights)
            weights_name = f"w{tensor_index}"
            bias_name = f"b{tensor_index}"
            out_name = f"t{tensor_index}"
            model.add_tensor(
                TensorSpec(weights_name, layer.weights.shape, "int8", w_q),
                w_q.quantize(layer.weights))
            bias_scale = current_quant.scale * w_q.scale
            model.add_tensor(
                TensorSpec(bias_name, layer.bias.shape, "int32",
                           QuantParams(bias_scale, 0)),
                np.round(layer.bias / bias_scale).astype(np.int32))
            out_shape = (1, layer.weights.shape[0])
            model.add_tensor(TensorSpec(out_name, out_shape, "int8",
                                        out_quant))
            model.add_operator(FullyConnected(
                [current_name, weights_name, bias_name], [out_name],
                {"activation": "relu" if fused else None}))
            current_name, current_quant = out_name, out_quant
            current_shape = out_shape
        else:
            raise ReproError(
                f"generic converter does not support "
                f"{type(layer).__name__}")
        skip_next_relu = fused

    model.add_tensor(TensorSpec(
        "probs", current_shape, "int8",
        QuantParams(SOFTMAX_OUTPUT_SCALE, SOFTMAX_OUTPUT_ZERO_POINT)))
    model.add_operator(Softmax([current_name], ["probs"], {}))
    model.inputs = ["input"]
    model.outputs = ["probs"]
    model.validate()
    return model
