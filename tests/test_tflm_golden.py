"""Golden output bytes of the int8 inference engine.

Each case hashes the int8 score rows a model produces, run one sample
at a time through :meth:`Interpreter.classify` and all at once through
:meth:`Interpreter.classify_batch`, with the fast kernels and with
``reference_kernels=True``.  Every path must give the same bytes, and
those bytes must match the recorded digest.

perfbench's correct flag compares served responses against
``Interpreter(reference_kernels=True)``, whose softmax, ReLU and
reshape are the fast path's own kernels, so a drift in one of those
kernels moves both sides alike; these pins can see it.

To re-record after a deliberate change, print ``_case_scores()``'s
digests.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.tflm.interpreter import Interpreter

from .helpers import build_tiny_int8_model

GOLDEN = {
    "standard-speech-commands": (
        "69201d470f450cba5fcf254478020e8bb63fa32f5967d3e72816020c68c8f39d"),
    "tiny-seeded": (
        "6b34d52ec1c8b3a49b498e548131a456242b1ac6a5db78271da5c6fd9c3ea264"),
}
TINY_SAMPLES = 10


def _standard_case():
    """The standard model on one fingerprint per Speech Commands label."""
    from repro.audio.features import FingerprintExtractor
    from repro.audio.speech_commands import LABELS, SyntheticSpeechCommands
    from repro.eval.pretrained import standard_model
    from repro.train.convert import fingerprints_to_int8

    model, _ = standard_model()
    dataset = SyntheticSpeechCommands()
    extractor = FingerprintExtractor()
    fingerprints = np.stack([
        extractor.extract(dataset.render(label, 0).samples)
        for label in LABELS])
    assert len(fingerprints) == 12
    return model, fingerprints_to_int8(fingerprints)


def _tiny_case():
    model = build_tiny_int8_model()
    spec = model.tensors[model.inputs[0]]
    rng = np.random.default_rng(40)
    return model, rng.integers(-128, 128,
                               size=(TINY_SAMPLES,) + spec.shape[1:],
                               dtype=np.int8)


CASES = {"standard-speech-commands": _standard_case,
         "tiny-seeded": _tiny_case}


def _digest(scores: np.ndarray) -> str:
    assert scores.dtype == np.int8
    return hashlib.sha256(np.ascontiguousarray(scores).tobytes()).hexdigest()


def _case_scores(case: str, reference: bool) -> dict[str, np.ndarray]:
    """The case's score rows through each path, keyed by path."""
    model, inputs = CASES[case]()
    spec = model.tensors[model.inputs[0]]
    single = Interpreter(model, reference_kernels=reference)
    rows = []
    for sample in inputs:
        label, scores = single.classify(sample.reshape(spec.shape))
        assert label == int(np.argmax(scores))
        rows.append(scores.copy())
    labels, batch_scores = Interpreter(
        model, reference_kernels=reference).classify_batch(inputs)
    assert np.array_equal(labels, np.argmax(batch_scores, axis=1))
    return {"classify": np.stack(rows), "classify_batch": batch_scores}


@pytest.mark.parametrize("reference", [False, True],
                         ids=["fast", "reference"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_tflm_output_bytes_match_golden(case, reference):
    for path, scores in _case_scores(case, reference).items():
        assert _digest(scores) == GOLDEN[case], (case, path)
