"""Spectrogram fingerprint extraction (the TFLM micro_speech recipe).

Paper §VI: 30 ms windows with 20 ms shift over a 1 s clip, 256-bin
fixed-point FFT, "averaging 6 neighboring bins, resulting in 43 values
per frame.  The 49 frames for each recording are concatenated, forming a
fixed 49 x 43 compressed spectrogram ('fingerprint') per utterance."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audio.dsp import (
    FFT_SIZE,
    NUM_BINS,
    hann_window_q15,
    power_spectrum_fixed,
    power_spectrum_fixed_batch,
    power_spectrum_float,
)
from repro.errors import AudioError

__all__ = ["FeatureConfig", "FingerprintExtractor", "fingerprint_to_int8",
           "fingerprints_to_int8", "frame_view"]


@dataclass(frozen=True)
class FeatureConfig:
    """Parameters of the fingerprint front end (defaults = the paper)."""

    sample_rate: int = 16000
    clip_duration_ms: int = 1000
    window_ms: int = 30
    shift_ms: int = 20
    average_bins: int = 6

    def __post_init__(self) -> None:
        """Refuse geometries the front end cannot run, here rather than
        at the first :meth:`FingerprintExtractor.extract`."""
        if not 2 <= self.window_samples <= FFT_SIZE:
            raise AudioError(f"window of {self.window_samples} samples, "
                             f"need 2..{FFT_SIZE}")
        if self.shift_samples < 1:
            raise AudioError(f"shift of {self.shift_samples} samples, need >= 1")
        if self.clip_samples < self.window_samples:
            raise AudioError(f"clip of {self.clip_samples} samples is shorter "
                             f"than its {self.window_samples}-sample window")
        if self.average_bins < 1:
            raise AudioError(f"average_bins {self.average_bins}, need >= 1")

    @property
    def window_samples(self) -> int:
        return self.sample_rate * self.window_ms // 1000

    @property
    def shift_samples(self) -> int:
        return self.sample_rate * self.shift_ms // 1000

    @property
    def clip_samples(self) -> int:
        return self.sample_rate * self.clip_duration_ms // 1000

    @property
    def num_frames(self) -> int:
        return 1 + (self.clip_samples - self.window_samples) // self.shift_samples

    @property
    def features_per_frame(self) -> int:
        return -(-NUM_BINS // self.average_bins)  # ceil division


class FingerprintExtractor:
    """Turns a 1 s int16 clip into the 49x43 uint8 fingerprint.

    The per-frame pipeline is window -> fixed-point FFT -> power ->
    6-bin averaging -> log compression -> scale to [0, 255].  The uint8
    output feeds the int8 quantized model directly (one zero-point
    shift), matching how the TFLM example wires features to tensors.
    """

    # Log-compression gain chosen so conversational-level speech spans
    # most of the uint8 range without clipping.
    _LOG_GAIN = 10.2

    def __init__(self, config: FeatureConfig | None = None,
                 use_fixed_point: bool = True) -> None:
        self.config = config or FeatureConfig()
        self.use_fixed_point = use_fixed_point
        # int16 so the per-call range check in the DSP skips its scan.
        self._window = hann_window_q15(
            self.config.window_samples).astype(np.int16)

    @property
    def output_shape(self) -> tuple[int, int]:
        return (self.config.num_frames, self.config.features_per_frame)

    def frame_features(self, frame: np.ndarray) -> np.ndarray:
        """One frame of int16 samples -> ``features_per_frame`` uint8."""
        if len(frame) != self.config.window_samples:
            raise AudioError(
                f"frame must have {self.config.window_samples} samples, "
                f"got {len(frame)}"
            )
        if self.use_fixed_point:
            power = power_spectrum_fixed(frame, self._window).astype(np.float64)
        else:
            power = power_spectrum_float(frame, self._window)
        return self._compress(power[np.newaxis, :])[0]

    def frame_features_batch(self, frames: np.ndarray) -> np.ndarray:
        """(N, window_samples) int16 -> (N, features_per_frame) uint8.

        One vectorized FFT pass over all N frames; bit-identical to N
        :meth:`frame_features` calls.
        """
        if frames.ndim != 2 or frames.shape[1] != self.config.window_samples:
            raise AudioError(
                f"frames must be (N, {self.config.window_samples}), "
                f"got {frames.shape}"
            )
        if self.use_fixed_point:
            power = power_spectrum_fixed_batch(
                frames, self._window).astype(np.float64)
        else:
            power = np.stack([
                power_spectrum_float(frame, self._window) for frame in frames
            ])
        return self._compress(power)

    def _compress(self, power: np.ndarray) -> np.ndarray:
        """(N, NUM_BINS) float64 power -> (N, features_per_frame) uint8."""
        compressed = self._LOG_GAIN * np.log1p(self._average(power) / 64.0)
        return np.clip(compressed, 0, 255).astype(np.uint8)

    def _average(self, power: np.ndarray) -> np.ndarray:
        """(N, NUM_BINS) float64 power -> (N, features_per_frame) means.

        Each group of ``k = average_bins`` bins is summed left to right
        and divided by ``k``; the last, shorter group too, as if padded
        with zeros.  Column ``j`` of every group is the strided view
        ``power[:, j::k]``, so the sums take one copy and ``k - 1`` adds,
        with no padded array.  On the fixed-point path every power is an
        integer below 2^41, so every partial sum is exact in float64.
        """
        k = self.config.average_bins
        averaged = power[:, ::k].copy()
        for j in range(1, k):
            column = power[:, j::k]
            averaged[:, :column.shape[1]] += column
        averaged /= k
        return averaged

    def extract(self, clip: np.ndarray) -> np.ndarray:
        """Full 1 s clip -> (num_frames, features_per_frame) uint8.

        All frames go through the fixed-point FFT as one batch, so a
        clip costs one vectorized pass instead of 49 scalar FFTs.
        """
        clip = np.asarray(clip)
        if clip.dtype != np.int16:
            raise AudioError(f"expected int16 clip, got {clip.dtype}")
        expected = self.config.clip_samples
        if len(clip) < expected:
            clip = np.concatenate(
                [clip, np.zeros(expected - len(clip), dtype=np.int16)])
        elif len(clip) > expected:
            clip = clip[:expected]
        frames = frame_view(clip, self.config, self.config.num_frames)
        return self.frame_features_batch(frames)


def frame_view(samples: np.ndarray, config: FeatureConfig,
               count: int) -> np.ndarray:
    """The first ``count`` frames of the 1-D ``samples``, one every
    ``shift_samples``, as one read-only ``(count, window_samples)``
    strided view: no copy.  Raises :class:`AudioError` unless all
    ``count`` frames lie inside ``samples``."""
    window, shift = config.window_samples, config.shift_samples
    if count < 1 or (count - 1) * shift + window > len(samples):
        raise AudioError(f"{count} frames do not fit {len(samples)} samples")
    step = samples.strides[0]
    return np.lib.stride_tricks.as_strided(
        samples, shape=(count, window), strides=(shift * step, step),
        writeable=False)


def fingerprint_to_int8(fingerprint: np.ndarray) -> np.ndarray:
    """uint8 fingerprint -> the int8 input tensor (1, F, B, 1)."""
    shifted = fingerprint.astype(np.int32) - 128
    return shifted.astype(np.int8).reshape(1, *fingerprint.shape, 1)


def fingerprints_to_int8(fingerprints: np.ndarray) -> np.ndarray:
    """uint8 fingerprints (N, F, B) -> batched int8 tensor (N, F, B, 1)."""
    shifted = fingerprints.astype(np.int32) - 128
    return shifted.astype(np.int8).reshape(*fingerprints.shape, 1)
