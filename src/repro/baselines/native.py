"""Native (unprotected) on-device inference — Table I's first row.

Runs the identical int8 model with the identical interpreter on the
same simulated core, but with no enclave: no TZASC binding, no L2
exclusion, plaintext model in normal-world memory and flash.  This is
what the paper measures as "TensorFlow Lite 'micro'" without OMG.
"""

from __future__ import annotations

import numpy as np

from repro.audio.features import (FeatureConfig, FingerprintExtractor,
                                  fingerprint_to_int8)
from repro.core.omg import RecognitionResult
from repro.hw.memory import World
from repro.tflm.interpreter import Interpreter
from repro.tflm.model import Model
from repro.tflm.serialize import serialize_model
from repro.trustzone.worlds import Platform

__all__ = ["NativeKeywordSpotter"]


class NativeKeywordSpotter:
    """The insecure baseline: same model, no protection."""

    def __init__(self, platform: Platform, model: Model,
                 feature_config: FeatureConfig | None = None) -> None:
        self.platform = platform
        self.model = model
        self._extractor = FingerprintExtractor(feature_config)
        soc = platform.soc
        # The plaintext model sits in ordinary flash — any normal-world
        # process (or a thief) can read it.  The attack tests use this
        # to contrast with the OMG deployment.
        self.flash_path = f"native/{model.metadata.name}.omgm"
        soc.flash.store(self.flash_path, serialize_model(model),
                        World.NORMAL)
        self.interpreter = Interpreter(model)
        self.interpreter.attach_timing(
            soc.clock, soc.fastest_core_hz(), soc.profile,
            l2_excluded=False)
        self.labels = model.metadata.labels

    def recognize_fingerprint(self, fingerprint: np.ndarray
                              ) -> RecognitionResult:
        """Inference only (the paper's runtime measurement)."""
        start = self.platform.soc.clock.now_ms
        index, scores = self.interpreter.classify(
            fingerprint_to_int8(fingerprint))
        label = (self.labels[index] if index < len(self.labels)
                 else str(index))
        return RecognitionResult(
            label=label, label_index=index, scores=scores,
            inference_ms=self.interpreter.last_stats.simulated_ms,
            total_ms=self.platform.soc.clock.now_ms - start,
        )

    def recognize_clip(self, samples: np.ndarray) -> RecognitionResult:
        soc = self.platform.soc
        start = soc.clock.now_ms
        fingerprint = self._extractor.extract(samples)
        soc.clock.advance_ms(soc.profile.feature_ms_per_clip)
        result = self.recognize_fingerprint(fingerprint)
        return RecognitionResult(
            label=result.label, label_index=result.label_index,
            scores=result.scores, inference_ms=result.inference_ms,
            total_ms=soc.clock.now_ms - start,
        )
