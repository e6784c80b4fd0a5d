"""Randomized equivalence tests: vectorized fast paths vs scalar references.

Every hot path rewritten for wall-clock speed keeps its original
implementation as a reference; these tests pin bit-for-bit equality
between the two on seeded random inputs, plus the regressions the
rewrite fixed (cost() recomputed per invoke, set_input storing a view).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.audio.features import FeatureConfig, FingerprintExtractor
from repro.audio.streaming import StreamingFeatureExtractor
from repro.crypto.aes import AES
from repro.crypto.modes import (
    CTR_SCALAR_BLOCKS,
    GCM,
    ctr_keystream_xor,
    ctr_keystream_xor_reference,
)
from repro.tflm.interpreter import Interpreter
from repro.tflm.model import Model, ModelMetadata
from repro.tflm.ops.activations import Relu, Relu6
from repro.tflm.ops.conv import (
    Conv2D,
    DepthwiseConv2D,
    _im2col_batch,
    _im2col_reference,
    conv_output_size,
)
from repro.tflm.ops.fully_connected import FullyConnected
from repro.tflm.ops.softmax import (
    SOFTMAX_OUTPUT_SCALE,
    SOFTMAX_OUTPUT_ZERO_POINT,
    Softmax,
)
from repro.tflm.quantize import choose_weight_qparams
from repro.tflm.serialize import deserialize_model, serialize_model
from repro.tflm.tensor import QuantParams, TensorSpec

from tests.helpers import build_float_mlp, build_tiny_int8_model

# --- AES block batching ------------------------------------------------


@pytest.mark.parametrize("key_size", [16, 24, 32])
def test_encrypt_blocks_matches_scalar(key_size):
    rng = np.random.default_rng(key_size)
    cipher = AES(bytes(rng.integers(0, 256, size=key_size, dtype=np.uint8)))
    for n in (1, 2, 33, 257, 4096):   # 4096 blocks: one keystream chunk
        blocks = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
        batched = cipher.encrypt_blocks(blocks)
        for i in range(n):
            assert bytes(batched[i]) == cipher.encrypt_block(bytes(blocks[i]))
        assert np.array_equal(cipher.decrypt_blocks(batched), blocks)


def test_decrypt_blocks_matches_scalar():
    rng = np.random.default_rng(7)
    for key_size in (16, 24, 32):
        cipher = AES(b"\x13" * key_size)
        blocks = rng.integers(0, 256, size=(65, 16), dtype=np.uint8)
        batched = cipher.decrypt_blocks(blocks)
        for i in range(len(blocks)):
            assert bytes(batched[i]) == cipher.decrypt_block(bytes(blocks[i]))


# --- CTR / GCM ---------------------------------------------------------


# CTR_SCALAR_BLOCKS and one more straddle ctr_keystream's scalar-run
# cutoff.
@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, CTR_SCALAR_BLOCKS * 16,
                                  (CTR_SCALAR_BLOCKS + 1) * 16, 4096, 4100])
def test_ctr_keystream_matches_reference(size):
    rng = np.random.default_rng(size)
    cipher = AES(b"\x2b" * 16)
    counter = b"\x00" * 10 + b"\xff\xff\xff\xff\xff\xfe"  # wraps the u32
    data = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
    assert (ctr_keystream_xor(cipher, counter, data)
            == ctr_keystream_xor_reference(cipher, counter, data))


_GCM_SIZES = [0, 16, 100, GCM._BATCH_MIN * 16 - 16, GCM._BATCH_MIN * 16 + 16,
              50000]


@pytest.mark.parametrize("size,nonce_size", [
    # 96-bit nonces keep their bare size ids; 8- and 60-byte nonces
    # derive J0 by GHASH, which a round trip alone cannot check.
    pytest.param(size, nonce_size, id=str(size) if nonce_size == 12
                 else f"{size}-nonce{nonce_size}")
    for nonce_size in (12, 8, 60) for size in _GCM_SIZES])
def test_gcm_fast_matches_reference(size, nonce_size):
    """Ciphertext AND tag identical across the batching threshold."""
    rng = np.random.default_rng(size + 1)
    key = bytes(rng.integers(0, 256, size=32, dtype=np.uint8))
    nonce = bytes(rng.integers(0, 256, size=nonce_size, dtype=np.uint8))
    aad = bytes(rng.integers(0, 256, size=37, dtype=np.uint8))
    plaintext = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
    ct_fast, tag_fast = GCM(key).encrypt(nonce, plaintext, aad)
    ct_ref, tag_ref = GCM(key, reference=True).encrypt(nonce, plaintext, aad)
    assert ct_fast == ct_ref
    assert tag_fast == tag_ref
    # Cross-decrypt: each implementation authenticates the other's output.
    assert GCM(key, reference=True).decrypt(nonce, ct_fast, tag_fast, aad) \
        == plaintext
    assert GCM(key).decrypt(nonce, ct_ref, tag_ref, aad) == plaintext


# --- im2col / conv kernels --------------------------------------------


@pytest.mark.parametrize("dtype,pad_value", [(np.int8, np.int8(-5)),
                                             (np.float32, 0.0)])
def test_im2col_matches_reference(dtype, pad_value):
    rng = np.random.default_rng(42)
    for h, w, c, kh, kw, sh, sw, pad in [
        (8, 6, 1, 3, 3, 1, 1, (1, 1, 1, 1)),
        (8, 6, 3, 3, 3, 2, 2, (1, 0, 1, 0)),
        (10, 10, 4, 5, 1, 2, 1, (2, 2, 0, 0)),
        (7, 9, 2, 1, 1, 1, 3, (0, 0, 0, 0)),
        (5, 5, 8, 4, 4, 3, 2, (1, 2, 2, 1)),
    ]:
        for n in (1, 3):
            if dtype == np.int8:
                x = rng.integers(-128, 128, size=(n, h, w, c)).astype(np.int8)
            else:
                x = rng.normal(size=(n, h, w, c)).astype(np.float32)
            fast, out_h, out_w = _im2col_batch(x, kh, kw, sh, sw, pad,
                                               pad_value)
            rows = out_h * out_w
            assert fast.shape[0] == n * rows
            for i in range(n):
                ref = _im2col_reference(x[i:i + 1], kh, kw, sh, sw, pad,
                                        pad_value)
                assert fast.dtype == ref.dtype
                assert np.array_equal(fast[i * rows:(i + 1) * rows], ref), (
                    n, i, h, w, c, kh, kw, sh, sw, pad)


@pytest.mark.parametrize("dtype,pad_value", [(np.int8, np.int8(-5)),
                                             (np.float64, 0.0)])
def test_im2col_matches_reference_on_strided_input_and_single_outputs(
        dtype, pad_value):
    """A non-contiguous input, and outputs one row or one column wide
    (the strided view's last window ends on the padded array's edge)."""
    rng = np.random.default_rng(43)
    for h, w, c, kh, kw, sh, sw, pad, out in [
        (3, 8, 2, 3, 3, 1, 1, (0, 0, 1, 1), (1, 8)),
        (8, 4, 3, 2, 4, 2, 1, (0, 0, 0, 0), (4, 1)),
        (5, 5, 1, 5, 5, 2, 2, (0, 0, 0, 0), (1, 1)),
        (4, 7, 2, 4, 2, 3, 3, (0, 0, 0, 0), (1, 2)),
        (9, 6, 2, 2, 2, 3, 2, (1, 0, 0, 1), (3, 3)),
    ]:
        for n in (1, 3):
            base = rng.integers(-128, 128, size=(n, 2 * h, w, c + 1))
            x = base.astype(dtype)[:, ::2, :, 1:]
            assert not x.flags.c_contiguous
            fast, out_h, out_w = _im2col_batch(x, kh, kw, sh, sw, pad,
                                               pad_value)
            assert (out_h, out_w) == out
            rows = out_h * out_w
            assert fast.shape == (n * rows, kh * kw * c)
            for i in range(n):
                ref = _im2col_reference(x[i:i + 1], kh, kw, sh, sw, pad,
                                        pad_value)
                assert np.array_equal(fast[i * rows:(i + 1) * rows], ref), (
                    n, i, h, w, c, kh, kw, sh, sw, pad)


def test_im2col_windows_are_read_only():
    """A 1x1 kernel at stride 1 returns the strided windows themselves,
    which refuse writes; every other geometry returns a fresh copy."""
    x = np.arange(2 * 5 * 4 * 3, dtype=np.float64).reshape(2, 5, 4, 3)
    windows, _, _ = _im2col_batch(x, 1, 1, 1, 1, (0, 0, 0, 0), 0.0)
    assert not windows.flags.writeable
    with pytest.raises(ValueError):
        windows[0, 0] = 1.0
    for kh, kw, sh, sw, pad in [(3, 3, 1, 1, (1, 1, 1, 1)),
                                (1, 1, 2, 2, (0, 0, 0, 0)),
                                (2, 1, 1, 1, (0, 1, 0, 0))]:
        cols, _, _ = _im2col_batch(x, kh, kw, sh, sw, pad, 0.0)
        assert cols.flags.writeable
        assert cols.base is None or cols.base.flags.owndata
        assert cols.base is None or cols.base.size == cols.size


def _conv_case(op_cls, dtype, stride, padding, seed):
    """Build specs/tensors for one randomized conv op and run both paths."""
    rng = np.random.default_rng(seed)
    h, w, in_c = 9, 7, 3
    kh, kw = 3, 3
    out_c = in_c if op_cls is DepthwiseConv2D else 5
    w_shape = ((1, kh, kw, in_c) if op_cls is DepthwiseConv2D
               else (out_c, kh, kw, in_c))
    out_h = conv_output_size(h, kh, stride[0], padding)
    out_w = conv_output_size(w, kw, stride[1], padding)

    specs = {}
    tensors = {}
    if dtype == "float32":
        specs["x"] = TensorSpec("x", (1, h, w, in_c), "float32")
        specs["w"] = TensorSpec("w", w_shape, "float32")
        specs["b"] = TensorSpec("b", (out_c,), "float32")
        specs["y"] = TensorSpec("y", (1, out_h, out_w, out_c), "float32")
        tensors["x"] = rng.normal(size=(1, h, w, in_c)).astype(np.float32)
        tensors["w"] = rng.normal(size=w_shape).astype(np.float32)
        tensors["b"] = rng.normal(size=out_c).astype(np.float32)
    else:
        x_q = QuantParams(scale=0.05, zero_point=int(rng.integers(-20, 20)))
        w_q = QuantParams(scale=0.01, zero_point=0)
        out_q = QuantParams(scale=0.07, zero_point=int(rng.integers(-30, 30)))
        specs["x"] = TensorSpec("x", (1, h, w, in_c), "int8", x_q)
        specs["w"] = TensorSpec("w", w_shape, "int8", w_q)
        specs["b"] = TensorSpec("b", (out_c,), "int32",
                                QuantParams(x_q.scale * w_q.scale, 0))
        specs["y"] = TensorSpec("y", (1, out_h, out_w, out_c), "int8", out_q)
        tensors["x"] = rng.integers(-128, 128,
                                    size=(1, h, w, in_c)).astype(np.int8)
        tensors["w"] = rng.integers(-127, 128, size=w_shape).astype(np.int8)
        tensors["b"] = rng.integers(-500, 500, size=out_c).astype(np.int32)

    op = op_cls(["x", "w", "b"], ["y"],
                {"stride": stride, "padding": padding,
                 "activation": "relu" if seed % 2 else None})
    plan = op.plan(tensors, specs)
    fast_tensors = dict(tensors)
    op.run(fast_tensors, specs, plan=plan)
    ref_tensors = dict(tensors)
    op.run_reference(ref_tensors, specs)
    assert fast_tensors["y"].dtype == ref_tensors["y"].dtype
    if dtype == "int8":
        assert np.array_equal(fast_tensors["y"], ref_tensors["y"]), (
            op_cls.__name__, stride, padding, seed)
    else:
        np.testing.assert_allclose(fast_tensors["y"], ref_tensors["y"],
                                   rtol=1e-5, atol=1e-6)

    # run over 3 stacked samples against per-sample run_reference.
    samples = [tensors["x"]] + [
        rng.integers(-128, 128, size=(1, h, w, in_c)).astype(np.int8)
        if dtype == "int8"
        else rng.normal(size=(1, h, w, in_c)).astype(np.float32)
        for _ in range(2)]
    batch_tensors = dict(tensors, x=np.concatenate(samples))
    op.run(batch_tensors, specs, plan=plan)
    assert batch_tensors["y"].shape == (3,) + specs["y"].shape[1:]
    for i, sample in enumerate(samples):
        ref_tensors = dict(tensors, x=sample)
        op.run_reference(ref_tensors, specs)
        got = batch_tensors["y"][i:i + 1]
        assert got.dtype == ref_tensors["y"].dtype
        if dtype == "int8":
            assert np.array_equal(got, ref_tensors["y"]), (
                op_cls.__name__, stride, padding, seed, i)
        else:
            np.testing.assert_allclose(got, ref_tensors["y"],
                                       rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("op_cls", [Conv2D, DepthwiseConv2D])
@pytest.mark.parametrize("dtype", ["int8", "float32"])
@pytest.mark.parametrize("stride,padding", [((1, 1), "same"),
                                            ((2, 2), "same"),
                                            ((1, 1), "valid"),
                                            ((2, 1), "valid")])
def test_conv_fast_matches_reference(op_cls, dtype, stride, padding):
    for seed in range(4):
        _conv_case(op_cls, dtype, stride, padding, seed)


# --- interpreter: plans, cost caching, input copying -------------------


@pytest.mark.parametrize("build", [build_tiny_int8_model, build_float_mlp])
def test_interpreter_fast_matches_reference(build):
    model = build()
    rng = np.random.default_rng(3)
    fast = Interpreter(model)
    ref = Interpreter(model, reference_kernels=True)
    name = model.inputs[0]
    spec = model.tensors[name]
    for _ in range(5):
        if spec.dtype == "int8":
            x = rng.integers(-128, 128, size=spec.shape).astype(np.int8)
        else:
            x = rng.normal(size=spec.shape).astype(np.float32)
        fast.set_input(name, x)
        ref.set_input(name, x)
        s_fast, s_ref = fast.invoke(), ref.invoke()
        out_fast = fast.get_output(model.outputs[0])
        out_ref = ref.get_output(model.outputs[0])
        if spec.dtype == "int8":
            # Integer arithmetic is exact, so the paths are bit-equal.
            assert np.array_equal(out_fast, out_ref)
        else:
            # float32 GEMMs sum in layout-dependent order; equality only
            # holds to rounding error.
            np.testing.assert_allclose(out_fast, out_ref, rtol=1e-5,
                                       atol=1e-6)
        # The simulated accounting must not see the kernel swap.
        assert (s_fast.macs, s_fast.elements, s_fast.ops, s_fast.cycles) \
            == (s_ref.macs, s_ref.elements, s_ref.ops, s_ref.cycles)


def test_cost_called_at_most_once_per_op():
    """Regression: invoke() used to call op.cost() twice per op, per call."""
    model = build_tiny_int8_model()
    counts = {}
    for op in model.operators:
        original = op.cost

        def counting_cost(specs, _op=op, _original=original):
            counts[_op] = counts.get(_op, 0) + 1
            return _original(specs)

        op.cost = counting_cost
    interp = Interpreter(model)
    x = np.zeros(model.tensors[model.inputs[0]].shape, dtype=np.int8)
    interp.set_input(model.inputs[0], x)
    for _ in range(5):
        interp.invoke()
    interp.estimate_cycles()
    interp.estimate_cycles()
    assert counts, "cost() never observed"
    assert all(n <= 1 for n in counts.values()), counts


def test_set_input_copies_caller_buffer():
    """Regression: set_input stored a view, so caller-side mutation
    after set_input() leaked into the next invoke."""
    model = build_tiny_int8_model()
    name = model.inputs[0]
    shape = model.tensors[name].shape
    rng = np.random.default_rng(11)
    x = rng.integers(-128, 128, size=shape).astype(np.int8)
    pristine = x.copy()

    clean = Interpreter(model)
    clean.set_input(name, pristine)
    clean.invoke()
    expected = clean.get_output(model.outputs[0]).copy()

    interp = Interpreter(model)
    interp.set_input(name, x)
    x[:] = 0  # mutate the caller's buffer after handing it over
    interp.invoke()
    assert np.array_equal(interp.get_output(model.outputs[0]), expected)


# --- fast vs reference kernels across the whole zoo ---------------------


_ZOO_MODELS: dict = {}


def _standalone_activation_model():
    """A hand-built int8 graph, conv -> ``relu`` -> FC -> ``relu6`` ->
    softmax, with each activation a standalone quant-preserving op
    rather than the producer's ``activation`` parameter.  The converter
    never emits such ops, but OMGM streams that carry them must still
    decode and run op by op, so it goes through the serializer first."""
    rng = np.random.default_rng(37)
    conv_w = rng.normal(0, 0.4, size=(3, 3, 3, 1))
    conv_b = rng.normal(0, 0.1, size=3)
    fc_w = rng.normal(0, 2.5, size=(4, 4 * 3 * 3))
    fc_b = rng.normal(0, 0.1, size=4)
    input_q = QuantParams(scale=1 / 255.0, zero_point=-128)
    conv_w_q = choose_weight_qparams(conv_w)
    conv_out_q = QuantParams(scale=0.02, zero_point=-80)
    fc_w_q = choose_weight_qparams(fc_w)
    # 6.0 lands at q = 40, inside the int8 range, so relu6's upper
    # clamp bites as well as its lower one.
    logits_q = QuantParams(scale=0.1, zero_point=-20)

    model = Model(metadata=ModelMetadata(name="standalone_relu", version=1))
    model.add_tensor(TensorSpec("input", (1, 8, 6, 1), "int8", input_q))
    model.add_tensor(TensorSpec("conv_w", conv_w.shape, "int8", conv_w_q),
                     conv_w_q.quantize(conv_w))
    bias_scale = input_q.scale * conv_w_q.scale
    model.add_tensor(TensorSpec("conv_b", (3,), "int32",
                                QuantParams(bias_scale, 0)),
                     np.round(conv_b / bias_scale).astype(np.int32))
    for name in ("conv_out", "conv_relu"):
        model.add_tensor(TensorSpec(name, (1, 4, 3, 3), "int8", conv_out_q))
    model.add_tensor(TensorSpec("fc_w", fc_w.shape, "int8", fc_w_q),
                     fc_w_q.quantize(fc_w))
    fc_bias_scale = conv_out_q.scale * fc_w_q.scale
    model.add_tensor(TensorSpec("fc_b", (4,), "int32",
                                QuantParams(fc_bias_scale, 0)),
                     np.round(fc_b / fc_bias_scale).astype(np.int32))
    for name in ("logits", "logits_relu6"):
        model.add_tensor(TensorSpec(name, (1, 4), "int8", logits_q))
    model.add_tensor(TensorSpec(
        "probs", (1, 4), "int8",
        QuantParams(SOFTMAX_OUTPUT_SCALE, SOFTMAX_OUTPUT_ZERO_POINT)))
    model.add_operator(Conv2D(["input", "conv_w", "conv_b"], ["conv_out"],
                              {"stride": (2, 2), "padding": "same"}))
    model.add_operator(Relu(["conv_out"], ["conv_relu"], {}))
    model.add_operator(FullyConnected(["conv_relu", "fc_w", "fc_b"],
                                      ["logits"], {}))
    model.add_operator(Relu6(["logits"], ["logits_relu6"], {}))
    model.add_operator(Softmax(["logits_relu6"], ["probs"], {}))
    model.inputs = ["input"]
    model.outputs = ["probs"]
    return deserialize_model(serialize_model(model))


def _zoo_model(name: str):
    """An (untrained, deterministic) zoo network through the default
    converter, or the standalone-activation graph.  Cached per name: the
    interpreters under test never mutate the model."""
    if name not in _ZOO_MODELS:
        if name == "standalone_relu":
            _ZOO_MODELS[name] = _standalone_activation_model()
        else:
            from repro.train.zoo import build_architecture, convert_network_int8
            rng = np.random.default_rng(sum(name.encode()))
            network = build_architecture(name)
            calibration = rng.random((8, 49, 43, 1)) * 0.3
            _ZOO_MODELS[name] = convert_network_int8(network, calibration,
                                                     name=name)
    return _ZOO_MODELS[name]


def _zoo_names():
    from repro.train.zoo import ZOO
    return sorted(ZOO)


@pytest.mark.parametrize("name", ["tiny_conv", "conv_pool",
                                  "low_latency_conv", "fc_baseline",
                                  "standalone_relu"])
def test_fast_matches_reference_across_zoo(name):
    """Fast and reference kernels are bit-identical (and
    cycle-identical), through both ``invoke`` and ``invoke_batch``, on
    every zoo architecture — not just the paper's ``tiny_conv`` — and
    on a graph with standalone ``relu``/``relu6`` ops.

    The saturated ±extreme inputs drive every accumulator deep into the
    negative range, exercising the negative-product requantize rounding
    (the sign-symmetric floor-shift collapse) through whole graphs, not
    just the kernel-level unit tests.
    """
    assert name in _zoo_names() + ["standalone_relu"]
    model = _zoo_model(name)
    fast = Interpreter(model)
    ref = Interpreter(model, reference_kernels=True)
    input_name = model.inputs[0]
    spec = model.tensors[input_name]
    rng = np.random.default_rng(31)
    cases = [rng.integers(-128, 128, size=spec.shape, dtype=np.int8)
             for _ in range(3)]
    cases += [np.full(spec.shape, -128, dtype=np.int8),
              np.full(spec.shape, 127, dtype=np.int8),
              np.zeros(spec.shape, dtype=np.int8)]
    expected = []
    for x in cases:
        stats = []
        outputs = []
        for interp in (fast, ref):
            interp.set_input(input_name, x)
            stats.append(interp.invoke())
            outputs.append(interp.get_output(model.outputs[0]).copy())
        assert np.array_equal(outputs[0], outputs[1]), name
        expected.append(outputs[1][0])
        # Kernel choice is invisible to cycle accounting.
        accounted = {(s.macs, s.elements, s.ops, s.cycles) for s in stats}
        assert len(accounted) == 1, (name, accounted)
    stats = []
    for interp in (fast, ref):
        stats.append(interp.invoke_batch({input_name: np.concatenate(cases)}))
        rows = interp.get_output_batch(model.outputs[0])
        assert np.array_equal(rows, np.stack(expected)), name
    accounted = {(s.macs, s.elements, s.ops, s.cycles) for s in stats}
    assert len(accounted) == 1, (name, accounted)


# --- streaming DSP -----------------------------------------------------


def test_streaming_batched_matches_reference():
    cfg = FeatureConfig()
    rng = np.random.default_rng(21)
    fast = StreamingFeatureExtractor(cfg)
    ref = StreamingFeatureExtractor(cfg, reference=True)
    for _ in range(30):
        chunk = rng.integers(-3000, 3000,
                             size=int(rng.integers(0, 3000))).astype(np.int16)
        assert fast.feed(chunk) == ref.feed(chunk)
        assert np.array_equal(fast.fingerprint(), ref.fingerprint())
    assert fast.frames_produced == ref.frames_produced
    assert fast.frames_produced > 0


def test_extract_matches_per_frame_features():
    cfg = FeatureConfig()
    rng = np.random.default_rng(22)
    ext = FingerprintExtractor(cfg)
    clip = rng.integers(-8000, 8000, size=cfg.clip_samples).astype(np.int16)
    batched = ext.extract(clip)
    shift, window = cfg.shift_samples, cfg.window_samples
    per_frame = np.stack([
        ext.frame_features(clip[i * shift:i * shift + window])
        for i in range(cfg.num_frames)
    ])
    assert np.array_equal(batched, per_frame)
