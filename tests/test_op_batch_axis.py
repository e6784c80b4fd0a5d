"""Every registered kernel takes a leading batch axis.

``Op.run`` on a stacked batch must write, row for row and byte for
byte, what it writes for each sample alone (a batch of one), and must
match ``run_reference`` where a kernel keeps one.  The table below
builds one single-op graph per opcode in :data:`REGISTRY`, in int8 and
float32 wherever the kernel supports both, so a new opcode without a
case fails :func:`test_every_registered_opcode_has_a_case`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InterpreterError
from repro.tflm.interpreter import Interpreter
from repro.tflm.model import Model, ModelMetadata
from repro.tflm.ops import (
    LOGISTIC_OUTPUT_QUANT,
    REGISTRY,
    SOFTMAX_OUTPUT_SCALE,
    SOFTMAX_OUTPUT_ZERO_POINT,
    TANH_OUTPUT_QUANT,
    Add,
    AveragePool2D,
    Concatenate,
    Conv2D,
    DepthwiseConv2D,
    Dequantize,
    FullyConnected,
    Logistic,
    MaxPool2D,
    Mean,
    Mul,
    Op,
    Pad,
    Quantize,
    Relu,
    Relu6,
    Reshape,
    Softmax,
    Tanh,
)
from repro.tflm.tensor import QuantParams, TensorSpec

BATCH = 3
Q_IN = QuantParams(scale=0.05, zero_point=-10)
Q_B = QuantParams(scale=0.08, zero_point=7)
Q_OUT = QuantParams(scale=0.07, zero_point=3)


def _spec(name, shape, dtype, quant=Q_IN):
    return TensorSpec(name, shape, dtype, quant if dtype != "float32"
                      else None)


def _weights(rng, shape, dtype):
    if dtype == "float32":
        return rng.normal(0, 0.5, size=shape).astype(np.float32)
    return rng.integers(-127, 128, size=shape).astype(np.int8)


def _bias(rng, size, dtype):
    if dtype == "float32":
        return rng.normal(0, 0.2, size=size).astype(np.float32)
    return rng.integers(-500, 500, size=size).astype(np.int32)


def _conv(op_cls, dtype, rng):
    w_shape = (1, 3, 3, 2) if op_cls is DepthwiseConv2D else (3, 3, 3, 2)
    out_c = 2 if op_cls is DepthwiseConv2D else 3
    w_q = QuantParams(scale=0.01, zero_point=0)
    specs = {"x": _spec("x", (1, 5, 4, 2), dtype),
             "w": _spec("w", w_shape, dtype, w_q),
             "b": TensorSpec("b", (out_c,), "int32" if dtype == "int8"
                             else "float32",
                             QuantParams(Q_IN.scale * w_q.scale, 0)
                             if dtype == "int8" else None),
             "y": _spec("y", (1, 3, 4, out_c), dtype, Q_OUT)}
    constants = {"w": _weights(rng, w_shape, dtype),
                 "b": _bias(rng, out_c, dtype)}
    op = op_cls(["x", "w", "b"], ["y"], {"stride": (2, 1),
                                         "padding": "same",
                                         "activation": "relu"})
    return op, specs, constants


def _fully_connected(dtype, rng):
    w_q = QuantParams(scale=0.01, zero_point=0)
    specs = {"x": _spec("x", (1, 2, 3, 2), dtype),
             "w": _spec("w", (4, 12), dtype, w_q),
             "b": TensorSpec("b", (4,), "int32" if dtype == "int8"
                             else "float32",
                             QuantParams(Q_IN.scale * w_q.scale, 0)
                             if dtype == "int8" else None),
             "y": _spec("y", (1, 4), dtype, Q_OUT)}
    constants = {"w": _weights(rng, (4, 12), dtype),
                 "b": _bias(rng, 4, dtype)}
    return FullyConnected(["x", "w", "b"], ["y"], {}), specs, constants


def _unary(op_cls, dtype, in_shape, out_shape, out_quant=Q_IN,
           params=None):
    specs = {"x": _spec("x", in_shape, dtype),
             "y": _spec("y", out_shape, dtype, out_quant)}
    return op_cls(["x"], ["y"], params or {}), specs, {}


def _binary(op_cls, dtype, shapes=((1, 3, 4), (1, 3, 4), (1, 3, 4)),
            params=None):
    specs = {"a": _spec("a", shapes[0], dtype),
             "b": _spec("b", shapes[1], dtype, Q_B),
             "y": _spec("y", shapes[2], dtype, Q_OUT)}
    return op_cls(["a", "b"], ["y"], params or {}), specs, {}


def _pool(op_cls, dtype):
    return _unary(op_cls, dtype, (1, 5, 4, 2), (1, 3, 2, 2),
                  params={"filter": (2, 2), "stride": (2, 2),
                          "padding": "same"})


def _softmax(dtype):
    return _unary(Softmax, dtype, (1, 6), (1, 6),
                  QuantParams(SOFTMAX_OUTPUT_SCALE,
                              SOFTMAX_OUTPUT_ZERO_POINT))


def _quantize(dtype):
    specs = {"x": _spec("x", (1, 3, 4), "float32"),
             "y": _spec("y", (1, 3, 4), "int8", Q_OUT)}
    return Quantize(["x"], ["y"], {}), specs, {}


def _dequantize(dtype):
    specs = {"x": _spec("x", (1, 3, 4), "int8"),
             "y": _spec("y", (1, 3, 4), "float32")}
    return Dequantize(["x"], ["y"], {}), specs, {}


BOTH = ("int8", "float32")
# opcode case id -> (builder(dtype, rng), dtypes it runs in).
CASES = {
    "conv_2d": (lambda d, rng: _conv(Conv2D, d, rng), BOTH),
    "depthwise_conv_2d": (lambda d, rng: _conv(DepthwiseConv2D, d, rng),
                          BOTH),
    "fully_connected": (_fully_connected, BOTH),
    "relu": (lambda d, rng: _unary(Relu, d, (1, 3, 4), (1, 3, 4)), BOTH),
    "relu6": (lambda d, rng: _unary(Relu6, d, (1, 3, 4), (1, 3, 4)), BOTH),
    "softmax": (lambda d, rng: _softmax(d), BOTH),
    "max_pool_2d": (lambda d, rng: _pool(MaxPool2D, d), BOTH),
    "average_pool_2d": (lambda d, rng: _pool(AveragePool2D, d), BOTH),
    "reshape": (lambda d, rng: _unary(Reshape, d, (1, 3, 4), (1, 12)),
                BOTH),
    "quantize": (lambda d, rng: _quantize(d), ("float32",)),
    "dequantize": (lambda d, rng: _dequantize(d), ("int8",)),
    "add": (lambda d, rng: _binary(Add, d, params={"activation": "relu"}),
            BOTH),
    "mul": (lambda d, rng: _binary(Mul, d), BOTH),
    "concatenate": (lambda d, rng: _binary(
        Concatenate, d, ((1, 3, 2), (1, 3, 4), (1, 3, 6))), BOTH),
    "tanh": (lambda d, rng: _unary(Tanh, d, (1, 3, 4), (1, 3, 4),
                                   TANH_OUTPUT_QUANT), BOTH),
    "logistic": (lambda d, rng: _unary(Logistic, d, (1, 3, 4), (1, 3, 4),
                                       LOGISTIC_OUTPUT_QUANT), BOTH),
    "pad": (lambda d, rng: _unary(
        Pad, d, (1, 3, 4), (1, 6, 5),
        params={"paddings": ((0, 0), (1, 2), (0, 1))}), BOTH),
    "mean": (lambda d, rng: _unary(Mean, d, (1, 3, 4, 2), (1, 1, 1, 2),
                                   Q_OUT, {"axes": (1, 2)}), BOTH),
    # Axis 0 is the batch axis: a unit leading dim is never reduced.
    "mean-axis-0": (lambda d, rng: _unary(
        Mean, d, (1, 3, 4, 2), (1, 1, 4, 2), Q_OUT, {"axes": (0, 1)}),
        BOTH),
}


def _sample(spec, rng):
    if spec.dtype == "float32":
        return rng.normal(0, 2.0, size=spec.shape).astype(np.float32)
    return rng.integers(-128, 128, size=spec.shape).astype(np.int8)


def test_every_registered_opcode_has_a_case():
    built = {builder(dtypes[0], np.random.default_rng(0))[0].opcode
             for builder, dtypes in CASES.values()}
    assert built == set(REGISTRY)


@pytest.mark.parametrize("case,dtype", [
    (case, dtype) for case, (_, dtypes) in CASES.items()
    for dtype in dtypes])
def test_run_on_a_stacked_batch_matches_batches_of_one(case, dtype):
    rng = np.random.default_rng(sum(f"{case}-{dtype}".encode()))
    builder, _ = CASES[case]
    op, specs, constants = builder(dtype, rng)
    op.validate(specs)
    activations = [name for name in op.inputs if name not in constants]
    samples = {name: [_sample(specs[name], rng) for _ in range(BATCH)]
               for name in activations}
    plan = op.plan(dict(constants), specs)

    stacked = dict(constants, **{name: np.concatenate(rows)
                                 for name, rows in samples.items()})
    op.run(stacked, specs, plan=plan)
    has_reference = type(op).run_reference is not Op.run_reference
    for n in range(BATCH):
        alone = dict(constants, **{name: rows[n]
                                   for name, rows in samples.items()})
        op.run(alone, specs, plan=plan)
        for name in op.outputs:
            row = stacked[name][n:n + 1]
            assert alone[name].shape == specs[name].shape
            assert row.shape == alone[name].shape, (case, dtype, n)
            assert row.dtype == alone[name].dtype, (case, dtype, n)
            assert row.tobytes() == alone[name].tobytes(), (case, dtype, n)
        if not has_reference:
            continue
        reference = dict(constants, **{name: rows[n]
                                       for name, rows in samples.items()})
        op.run_reference(reference, specs)
        for name in op.outputs:
            assert reference[name].dtype == alone[name].dtype
            if dtype == "int8":
                assert np.array_equal(reference[name], alone[name]), (
                    case, n)
            else:
                # The loop kernels keep their own float32 BLAS shapes.
                np.testing.assert_allclose(reference[name], alone[name],
                                           rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("reference", [False, True],
                         ids=["fast", "reference"])
def test_non_unit_leading_dim_invokes_but_does_not_batch(reference):
    """(1, 12) -> reshape (3, 4) -> mean over axis 0 -> (1, 4): axis 0
    of the middle tensor is data, not a batch, so the graph runs one
    sample at a time and refuses to batch."""
    model = Model(metadata=ModelMetadata(name="rows", version=1))
    model.add_tensor(TensorSpec("x", (1, 12), "float32"))
    model.add_tensor(TensorSpec("rows", (3, 4), "float32"))
    model.add_tensor(TensorSpec("avg", (1, 4), "float32"))
    model.add_operator(Reshape(["x"], ["rows"], {}))
    model.add_operator(Mean(["rows"], ["avg"], {"axes": (0,)}))
    model.inputs, model.outputs = ["x"], ["avg"]
    x = np.arange(12, dtype=np.float32).reshape(1, 12)

    interp = Interpreter(model, reference_kernels=reference)
    interp.set_input("x", x)
    interp.invoke()
    expected = x.reshape(3, 4).astype(np.float64).mean(
        axis=0, keepdims=True).astype(np.float32)
    assert np.array_equal(interp.get_output("avg"), expected)

    with pytest.raises(InterpreterError):
        interp.invoke_batch({"x": np.concatenate([x, x])})


def test_reshape_to_a_scalar_keeps_rank_zero():
    specs = {"x": TensorSpec("x", (1,), "float32"),
             "y": TensorSpec("y", (), "float32")}
    op = Reshape(["x"], ["y"], {})
    op.validate(specs)
    tensors = {"x": np.ones(1, dtype=np.float32)}
    op.run(tensors, specs)
    assert tensors["y"].shape == ()
