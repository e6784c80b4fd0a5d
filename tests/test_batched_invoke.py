"""Batched invoke must be bit-exact against sequential invokes.

The serving scheduler's whole correctness story rests on
``Interpreter.invoke_batch`` being indistinguishable from running the
same inputs one at a time.  Both run one executor, in which every
kernel's ``Op.run`` takes a leading batch axis and a single invoke is a
batch of one: the int8 GEMMs are exact (reassociation-free), float32
GEMMs run one sample at a time, and reference kernels run one sample
at a time by construction.  These tests pin that
equivalence across batch sizes, kernel sets, and the real pretrained
model over all twelve Speech Commands labels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterpreterError
from repro.hw.timing import VirtualClock
from repro.tflm.interpreter import Interpreter

from .helpers import build_tiny_int8_model


def _sequential_outputs(model, batch_input, reference):
    interp = Interpreter(model, reference_kernels=reference)
    outputs = []
    for sample in batch_input:
        interp.set_input(model.inputs[0],
                         sample.reshape(model.tensors[model.inputs[0]].shape))
        interp.invoke()
        outputs.append(interp.get_output(model.outputs[0]).copy())
    return np.stack([o.reshape(o.shape[1:]) for o in outputs])


@settings(max_examples=25, deadline=None)
@given(batch=st.integers(1, 9), seed=st.integers(0, 2**31 - 1),
       reference=st.booleans())
def test_batched_invoke_bit_exact_property(batch, seed, reference):
    model = build_tiny_int8_model()
    spec = model.tensors[model.inputs[0]]
    rng = np.random.default_rng(seed)
    batch_input = rng.integers(-128, 128,
                               size=(batch,) + spec.shape[1:],
                               dtype=np.int8)

    expected = _sequential_outputs(model, batch_input, reference)

    interp = Interpreter(model, reference_kernels=reference)
    interp.invoke_batch({model.inputs[0]: batch_input})
    got = interp.get_output_batch(model.outputs[0])

    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("batch,reference,clocked", [
    # The fast-kernel, clockless cases keep their bare batch-size ids.
    pytest.param(batch, reference, clocked, id="-".join(
        [str(batch)] + ["reference"] * reference + ["clocked"] * clocked))
    for reference in (False, True) for clocked in (False, True)
    for batch in (1, 3, 8)])
def test_batched_cycle_accounting_amortizes_dispatch(batch, reference,
                                                     clocked):
    model = build_tiny_int8_model()
    spec = model.tensors[model.inputs[0]]
    rng = np.random.default_rng(0)
    batch_input = rng.integers(-128, 128, size=(batch,) + spec.shape[1:],
                               dtype=np.int8)

    def interpreter():
        interp = Interpreter(model, reference_kernels=reference)
        if clocked:
            interp.attach_timing(VirtualClock(), 48e6)
        return interp

    single = interpreter()
    single.set_input(model.inputs[0],
                     batch_input[0].reshape(spec.shape))
    one = single.invoke()

    batched = interpreter()
    stats = batched.invoke_batch({model.inputs[0]: batch_input})
    assert batched.total_invokes == batch
    # MAC/element work scales with the batch; dispatch is charged once
    # per op, so total cycles are strictly less than batch * single.
    assert stats.macs == one.macs * batch
    assert stats.elements == one.elements * batch
    assert stats.ops == one.ops
    if batch > 1:
        assert stats.cycles < one.cycles * batch
    else:
        assert stats == one
        assert batched.total_invokes == single.total_invokes
    assert (stats.simulated_ms > 0) == clocked


def test_batched_invoke_validates_shapes():
    model = build_tiny_int8_model()
    spec = model.tensors[model.inputs[0]]
    interp = Interpreter(model)
    good = np.zeros((2,) + spec.shape[1:], dtype=np.int8)
    with pytest.raises(InterpreterError):
        interp.invoke_batch({})
    with pytest.raises(InterpreterError, match="not a model input"):
        interp.invoke_batch({model.inputs[0]: good, "bogus": good})
    with pytest.raises(InterpreterError):
        interp.invoke_batch({model.inputs[0]: good.astype(np.int16)})
    with pytest.raises(InterpreterError):
        interp.invoke_batch({model.inputs[0]: good[:, :-1]})
    with pytest.raises(InterpreterError):
        interp.invoke_batch(
            {model.inputs[0]: np.zeros((0,) + spec.shape[1:], np.int8)})


def test_classify_batch_matches_classify_all_speech_commands_labels():
    """One fingerprint per Speech Commands label through the real model."""
    from repro.audio.features import FingerprintExtractor
    from repro.audio.speech_commands import LABELS, SyntheticSpeechCommands
    from repro.eval.pretrained import standard_model
    from repro.train.convert import fingerprint_to_int8, fingerprints_to_int8

    model, _ = standard_model()
    dataset = SyntheticSpeechCommands()
    extractor = FingerprintExtractor()
    fingerprints = np.stack([
        extractor.extract(dataset.render(label, 0).samples)
        for label in LABELS
    ])
    assert len(fingerprints) == 12

    sequential = Interpreter(model)
    expected = [sequential.classify(fingerprint_to_int8(fp))
                for fp in fingerprints]

    batched = Interpreter(model)
    labels, scores = batched.classify_batch(
        fingerprints_to_int8(fingerprints))

    for row, (exp_label, exp_scores) in enumerate(expected):
        assert labels[row] == exp_label
        assert np.array_equal(scores[row], exp_scores)
