"""Shared test helpers: small hand-built models and utilities."""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.core.parties import Vendor
from repro.eval.bench import KEY_BITS, serving_stack
from repro.serve import Priority, SequentialBaseline, ServeConfig
from repro.tflm.model import Model, ModelMetadata
from repro.tflm.ops.conv import Conv2D
from repro.tflm.ops.fully_connected import FullyConnected
from repro.tflm.ops.softmax import (
    SOFTMAX_OUTPUT_SCALE,
    SOFTMAX_OUTPUT_ZERO_POINT,
    Softmax,
)
from repro.tflm.quantize import choose_weight_qparams
from repro.tflm.tensor import QuantParams, TensorSpec
from repro.trustzone.worlds import make_platform

__all__ = ["build_tiny_int8_model", "build_float_mlp",
           "transcript_digests", "pinned_transcript_digests",
           "tiny_stack", "serving_testbed", "sequential_testbed"]

# SHA-256 of each chaos layer's per-seed transcripts, as produced by
# the module fixtures of tests/test_chaos_{e2e,serve,fleet}.py.
CHAOS_DIGESTS = pathlib.Path(__file__).with_name("chaos_digests.json")


def build_tiny_int8_model(seed: int = 5, num_classes: int = 4,
                          height: int = 8, width: int = 6) -> Model:
    """A miniature conv -> FC -> softmax int8 model for fast tests."""
    rng = np.random.default_rng(seed)
    conv_w = rng.normal(0, 0.4, size=(3, 3, 3, 1))
    conv_b = rng.normal(0, 0.1, size=3)
    oh, ow = -(-height // 2), -(-width // 2)
    fc_in = oh * ow * 3
    fc_w = rng.normal(0, 0.3, size=(num_classes, fc_in))
    fc_b = rng.normal(0, 0.1, size=num_classes)

    input_q = QuantParams(scale=1 / 255.0, zero_point=-128)
    conv_w_q = choose_weight_qparams(conv_w)
    conv_out_q = QuantParams(scale=0.02, zero_point=-80)
    fc_w_q = choose_weight_qparams(fc_w)
    logits_q = QuantParams(scale=0.1, zero_point=0)

    model = Model(metadata=ModelMetadata(
        name="tiny-test", version=1,
        labels=tuple(f"class{i}" for i in range(num_classes))))
    model.add_tensor(TensorSpec("input", (1, height, width, 1), "int8",
                                input_q))
    model.add_tensor(TensorSpec("conv_w", conv_w.shape, "int8", conv_w_q),
                     conv_w_q.quantize(conv_w))
    bias_scale = input_q.scale * conv_w_q.scale
    model.add_tensor(TensorSpec("conv_b", (3,), "int32",
                                QuantParams(bias_scale, 0)),
                     np.round(conv_b / bias_scale).astype(np.int32))
    model.add_tensor(TensorSpec("conv_out", (1, oh, ow, 3), "int8",
                                conv_out_q))
    model.add_tensor(TensorSpec("fc_w", fc_w.shape, "int8", fc_w_q),
                     fc_w_q.quantize(fc_w))
    fc_bias_scale = conv_out_q.scale * fc_w_q.scale
    model.add_tensor(TensorSpec("fc_b", (num_classes,), "int32",
                                QuantParams(fc_bias_scale, 0)),
                     np.round(fc_b / fc_bias_scale).astype(np.int32))
    model.add_tensor(TensorSpec("logits", (1, num_classes), "int8",
                                logits_q))
    model.add_tensor(TensorSpec(
        "probs", (1, num_classes), "int8",
        QuantParams(SOFTMAX_OUTPUT_SCALE, SOFTMAX_OUTPUT_ZERO_POINT)))
    model.add_operator(Conv2D(["input", "conv_w", "conv_b"], ["conv_out"],
                              {"stride": (2, 2), "padding": "same",
                               "activation": "relu"}))
    model.add_operator(FullyConnected(["conv_out", "fc_w", "fc_b"],
                                      ["logits"], {}))
    model.add_operator(Softmax(["logits"], ["probs"], {}))
    model.inputs = ["input"]
    model.outputs = ["probs"]
    model.validate()
    return model


def build_float_mlp(seed: int = 9, in_features: int = 10,
                    num_classes: int = 3) -> Model:
    """A minimal float32 FC -> softmax model."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(0, 0.5, size=(num_classes, in_features))
    model = Model(metadata=ModelMetadata(name="mlp-test", version=1))
    model.add_tensor(TensorSpec("input", (1, in_features), "float32"))
    model.add_tensor(TensorSpec("w", weights.shape, "float32"),
                     weights.astype(np.float32))
    model.add_tensor(TensorSpec("logits", (1, num_classes), "float32"))
    model.add_tensor(TensorSpec("probs", (1, num_classes), "float32"))
    model.add_operator(FullyConnected(["input", "w"], ["logits"], {}))
    model.add_operator(Softmax(["logits"], ["probs"], {}))
    model.inputs = ["input"]
    model.outputs = ["probs"]
    model.validate()
    return model


def transcript_digests(results: dict) -> dict[str, str]:
    """SHA-256 of each seed's chaos transcript, keyed by the seed."""
    return {str(seed): hashlib.sha256(
                result.transcript().encode()).hexdigest()
            for seed, result in sorted(results.items())}


def pinned_transcript_digests(layer: str) -> dict[str, str]:
    """The committed transcript digests of one chaos layer."""
    return json.loads(CHAOS_DIGESTS.read_text())[layer]


def tiny_stack(*priorities, seed=b"serve-test", loop_options=None,
               **config):
    """:func:`~repro.eval.bench.serving_stack` over the tiny model on a
    fresh platform, with two workers unless ``config`` (the
    :class:`~repro.serve.ServeConfig` fields) says otherwise."""
    config.setdefault("num_workers", 2)
    return serving_stack(make_platform(seed=seed, key_bits=KEY_BITS),
                         build_tiny_int8_model(), ServeConfig(**config),
                         priorities, **(loop_options or {}))


def serving_testbed(model, seed: bytes, batch: int, requests: int):
    """A fresh two-worker service with three open sessions and adaptive
    batching off, and one steady-state pass over ``requests`` seeded
    fingerprints: ``batch``-sized submit waves round-robin over the
    sessions, one loop tick per wave, then a drain.

    Returns ``(service, drive)``; each ``drive()`` runs the pass again
    on the same sessions.
    """
    fingerprints = np.random.default_rng(7).integers(
        0, 256, size=(requests, 49, 43), dtype=np.uint8)
    service, loop, handles = serving_stack(
        make_platform(seed=seed, key_bits=KEY_BITS), model,
        ServeConfig(max_batch=batch, num_workers=2),
        [Priority.INTERACTIVE] * 3, adaptive=False)

    def drive() -> None:
        for start in range(0, requests, batch):
            service.submit_many(
                [(handles[index % len(handles)], fingerprints[index])
                 for index in range(start, min(start + batch, requests))])
            loop.tick()
        loop.run_until_idle(force=True)

    return service, drive


def sequential_testbed(model, seed: bytes, requests: int):
    """The same ``requests`` fingerprints as :func:`serving_testbed`,
    one at a time through a fresh
    :class:`~repro.serve.SequentialBaseline`.

    Returns ``(baseline, drive)``.
    """
    fingerprints = np.random.default_rng(7).integers(
        0, 256, size=(requests, 49, 43), dtype=np.uint8)
    baseline = SequentialBaseline(
        make_platform(seed=seed, key_bits=KEY_BITS),
        Vendor("ml-vendor", model, key_bits=KEY_BITS))

    def drive() -> None:
        for fingerprint in fingerprints:
            baseline.request(fingerprint)

    return baseline, drive
