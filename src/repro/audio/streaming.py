"""Continuous keyword recognition over a live audio stream.

The paper's prototype classifies one-second clips; the TFLM
micro_speech application it builds on runs *continuously*: features are
computed over a sliding window and the per-class scores are smoothed
over time before a command is declared (the ``RecognizeCommands``
stage).  This module ports both pieces so the enclave can process an
open microphone instead of discrete clips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audio.features import (
    FeatureConfig,
    FingerprintExtractor,
    frame_view,
)
from repro.errors import AudioError

__all__ = ["StreamingFeatureExtractor", "RecognizerConfig",
           "Detection", "CommandRecognizer"]


class StreamingFeatureExtractor:
    """Maintains a rolling fingerprint over an unbounded sample stream.

    Feed arbitrary-length int16 chunks; every ``shift`` samples a new
    frame of features is produced and the oldest frame is dropped, so
    :meth:`fingerprint` is always the most recent
    ``num_frames x features_per_frame`` window (zero history at start).

    All frames that become ready within one :meth:`feed` call are
    computed in a single batched FFT pass, and the samples shared
    between overlapping 30 ms windows are kept in the pending buffer
    rather than re-copied per frame.  ``reference=True`` restores the
    original one-frame-at-a-time loop (bit-identical output; used by the
    equivalence tests and the wall-clock benchmark baseline).
    """

    def __init__(self, config: FeatureConfig | None = None,
                 reference: bool = False) -> None:
        self.config = config or FeatureConfig()
        self._extractor = FingerprintExtractor(self.config)
        self._reference = reference
        self._frames = np.zeros(
            (self.config.num_frames, self.config.features_per_frame),
            dtype=np.uint8)
        self._pending = np.zeros(0, dtype=np.int16)
        self.total_samples = 0
        self.frames_produced = 0

    def feed(self, samples: np.ndarray) -> int:
        """Absorb samples; returns how many new frames were produced."""
        samples = np.asarray(samples)
        if samples.dtype != np.int16:
            raise AudioError(f"expected int16 samples, got {samples.dtype}")
        self.total_samples += len(samples)
        self._pending = np.concatenate([self._pending, samples])
        window = self.config.window_samples
        shift = self.config.shift_samples
        if self._reference:
            produced = 0
            while len(self._pending) >= window:
                frame_features = self._extractor.frame_features(
                    self._pending[:window])
                self._frames = np.vstack([self._frames[1:],
                                          frame_features[np.newaxis, :]])
                self._pending = self._pending[shift:]
                produced += 1
            self.frames_produced += produced
            return produced
        if len(self._pending) < window:
            return 0
        produced = (len(self._pending) - window) // shift + 1
        frames = frame_view(self._pending, self.config, produced)
        features = self._extractor.frame_features_batch(frames)
        keep = self.config.num_frames
        if produced >= keep:
            self._frames = features[-keep:].copy()
        else:
            self._frames = np.concatenate(
                [self._frames[produced:], features])
        self._pending = self._pending[produced * shift:]
        self.frames_produced += produced
        return produced

    def fingerprint(self) -> np.ndarray:
        """The current rolling window (oldest frame first)."""
        return self._frames.copy()

    @property
    def stream_time_ms(self) -> float:
        return 1000.0 * self.total_samples / self.config.sample_rate


@dataclass(frozen=True)
class RecognizerConfig:
    """Smoothing/trigger parameters (micro_speech defaults)."""

    average_window_ms: int = 1000
    detection_threshold: float = 0.65
    suppression_ms: int = 1500
    minimum_count: int = 3


@dataclass(frozen=True)
class Detection:
    """One declared command."""

    label: str
    label_index: int
    score: float
    time_ms: float


@dataclass
class _ScoredResult:
    time_ms: float
    scores: np.ndarray


class CommandRecognizer:
    """Temporal smoothing + trigger logic over raw per-window scores.

    Feed every classifier output (probability vector, e.g. the int8
    softmax dequantized to [0, 1]) with its stream timestamp; a
    :class:`Detection` is returned when the windowed average of a
    non-rejection class crosses the threshold, with re-triggering
    suppressed for ``suppression_ms``.
    """

    def __init__(self, labels: list[str],
                 config: RecognizerConfig | None = None,
                 rejection_labels: tuple[str, ...] = ("silence", "unknown"),
                 ) -> None:
        if not labels:
            raise AudioError("recognizer needs a label list")
        self.labels = list(labels)
        self.config = config or RecognizerConfig()
        self.rejection = set(rejection_labels)
        self._history: list[_ScoredResult] = []
        self._last_detection_ms = -1e12
        self.detections: list[Detection] = []

    def feed(self, scores: np.ndarray, time_ms: float) -> Detection | None:
        """Add one classifier result; maybe return a new detection."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(self.labels),):
            raise AudioError(
                f"scores shape {scores.shape} != ({len(self.labels)},)"
            )
        self._history.append(_ScoredResult(time_ms, scores))
        horizon = time_ms - self.config.average_window_ms
        self._history = [r for r in self._history if r.time_ms >= horizon]
        if len(self._history) < self.config.minimum_count:
            return None
        mean_scores = np.mean([r.scores for r in self._history], axis=0)
        best = int(np.argmax(mean_scores))
        label = self.labels[best]
        if label in self.rejection:
            return None
        if mean_scores[best] < self.config.detection_threshold:
            return None
        if time_ms - self._last_detection_ms < self.config.suppression_ms:
            return None
        self._last_detection_ms = time_ms
        detection = Detection(label=label, label_index=best,
                              score=float(mean_scores[best]),
                              time_ms=time_ms)
        self.detections.append(detection)
        return detection

    def reset(self) -> None:
        self._history.clear()
        self._last_detection_ms = -1e12
