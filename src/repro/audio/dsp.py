"""Fixed-point DSP: the 256-bin FFT front end of the TFLM recipe.

Paper §VI: "Features are computed using a 256 bin fixed point FFT across
30 ms windows (20 ms shift)".  A 512-point real FFT yields 256 usable
frequency bins.  The FFT here is an integer radix-2 implementation with
per-stage scaling — the same structure as the KissFFT-based fixed-point
FFT TFLM uses on microcontrollers — plus a float reference used by the
tests to bound the fixed-point error.

Layout: one kernel, :func:`_fft_frames_last`, runs all nine butterfly
stages in place on ``(FFT_SIZE, N)`` int32 ``re`` and ``im`` planes
whose last axis is the batch of frames, so every numpy call spans all N
frames however short the butterfly blocks are.  Samples must lie in
[-32768, 32767] (:class:`AudioError` otherwise); the window product,
the twiddle products and the butterflies then stay within int32 (the
kernel's docstring gives the bound).  Only the power stage,
``re^2 + im^2`` and its ``<< 9`` rescale, runs in int64.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AudioError

__all__ = [
    "FFT_SIZE", "NUM_BINS", "hann_window_q15", "apply_window_q15",
    "fixed_point_fft", "fixed_point_fft_batch",
    "power_spectrum_fixed", "power_spectrum_fixed_batch",
    "power_spectrum_float",
]

FFT_SIZE = 512
NUM_BINS = 256
_STAGES = FFT_SIZE.bit_length() - 1
_SAMPLE_MIN, _SAMPLE_MAX = -32768, 32767


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


_REV = _bit_reverse_indices(FFT_SIZE)


def _stage_twiddles() -> list[tuple[np.ndarray, np.ndarray]]:
    """Per stage, the Q15 twiddles of its ``half`` butterflies as two
    ``(2, 1, half, 1)`` int32 stacks, ``(wr, wi)`` and ``(-wi, wr)``, so
    ``bot_re * first + bot_im * second`` is the complex product."""
    angles = -2.0 * np.pi * np.arange(FFT_SIZE // 2) / FFT_SIZE
    tw_re = np.round(np.cos(angles) * 32767).astype(np.int32)
    tw_im = np.round(np.sin(angles) * 32767).astype(np.int32)
    stages = []
    for stage in range(_STAGES):
        index = np.arange(1 << stage) << (_STAGES - 1 - stage)
        wr = tw_re[index, np.newaxis]
        wi = tw_im[index, np.newaxis]
        stages.append((np.stack([wr, wi])[:, np.newaxis],
                       np.stack([-wi, wr])[:, np.newaxis]))
    return stages


_TWIDDLES = _stage_twiddles()


def _check_samples(samples: np.ndarray, what: str) -> None:
    """Raise unless ``samples`` is an integer array within int16 range."""
    if not np.issubdtype(samples.dtype, np.integer):
        raise AudioError(f"{what} must be integers, got {samples.dtype}")
    if np.can_cast(samples.dtype, np.int16) or samples.size == 0:
        return
    # The message names the range only: samples are user audio.
    if samples.min() < _SAMPLE_MIN or samples.max() > _SAMPLE_MAX:
        raise AudioError(f"{what} outside [{_SAMPLE_MIN}, {_SAMPLE_MAX}]")


def _check_frames(frames: np.ndarray, caller: str) -> np.ndarray:
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[1] > FFT_SIZE:
        raise AudioError(
            f"{caller} expects (N, <= {FFT_SIZE}), got {frames.shape}"
        )
    _check_samples(frames, "samples")
    return frames


def hann_window_q15(length: int) -> np.ndarray:
    """Hann window coefficients in Q15 fixed point."""
    n = np.arange(length)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (length - 1))
    return np.round(window * 32767).astype(np.int64)


def apply_window_q15(samples: np.ndarray, window_q15: np.ndarray) -> np.ndarray:
    """Apply a Q15 window to int16-range samples, in int32.

    ``samples`` is one frame ``(L,)`` or a batch ``(N, L)``;
    ``window_q15`` is ``(L,)``.  Both must be int16-range integers, so
    each product fits int32 and the result stays int16-range.
    """
    samples = np.asarray(samples)
    window_q15 = np.asarray(window_q15)
    if window_q15.ndim != 1 or samples.shape[-1:] != window_q15.shape:
        raise AudioError(
            f"window length {window_q15.shape} != frame length {samples.shape}"
        )
    _check_samples(samples, "samples")
    _check_samples(window_q15, "window")
    windowed = samples.astype(np.int32)
    windowed *= window_q15.astype(np.int32)
    windowed >>= 15
    return windowed


def _fft_frames_last(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The FFT kernel: (N, L) int16-range frames -> ``(re, im)``.

    Both outputs are ``(FFT_SIZE, N)`` int32, frames on the last axis,
    scaled by ``2^-9``.  The frames are gathered zero padded and in
    bit-reversed order into the ``re`` plane of one ``(2, FFT_SIZE, N)``
    array, and the nine radix-2 DIT stages run in place on it.  Stage
    ``s`` views each plane as ``(blocks, 2, half, N)``, the top and
    bottom halves of every butterfly block; the ``(2, 1, half, 1)``
    twiddle stacks broadcast over blocks and frames, so each stage is
    seven numpy calls over the whole batch whatever ``half`` is.

    int32 is exact here.  The inputs are int16-range, so ``|z| <= 2^15``
    before the first stage.  With ``|w| < 2^15`` the exact halved
    butterfly ``(top +- w*bot/2^15) / 2`` never exceeds the larger of its
    two inputs' magnitudes; the two floor shifts move each component by
    less than 1, so ``|z|`` grows by less than sqrt(2) per stage and
    stays below ``2^15 + 13`` after nine.  Each twiddle product is then
    below ``(2^15 + 13) * 2^15 < 2^31``.  ``tests/test_audio_golden.py``
    pins full-scale frames, raw and windowed, to the bytes of the int64
    kernel this one replaced, and ``tests/test_audio_wave_dsp.py``
    checks full-scale frames against a butterfly loop in Python ints,
    which cannot wrap.
    """
    n, length = frames.shape
    data = np.zeros((2, FFT_SIZE, n), dtype=np.int32)
    rows = np.flatnonzero(_REV < length)
    data[0, rows] = frames.T[_REV[rows]]
    scratch = np.empty((2, 2, FFT_SIZE // 2 * n), dtype=np.int32)
    for stage, (w_re, w_im) in enumerate(_TWIDDLES):
        half = 1 << stage
        blocks = FFT_SIZE // (2 * half)
        view = data.reshape(2, blocks, 2, half, n)
        top, bot = view[:, :, 0], view[:, :, 1]
        product, tmp = (part.reshape(2, blocks, half, n) for part in scratch)
        # Q15 complex multiply of the bottom half by the twiddles:
        # product = (bot_re*wr - bot_im*wi, bot_re*wi + bot_im*wr) >> 15.
        np.multiply(bot[0], w_re, out=product)
        np.multiply(bot[1], w_im, out=tmp)
        product += tmp
        product >>= 15
        # Butterfly with a /2 scale per stage (overflow protection).
        np.subtract(top, product, out=bot)
        top += product
        data >>= 1
    return data[0], data[1]


def fixed_point_fft_batch(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer radix-2 DIT FFT with per-stage scaling, batched.

    ``frames`` is an integer array of shape (N, L) with L <= FFT_SIZE
    (zero padded) and samples in [-32768, 32767]; anything else raises
    :class:`AudioError`.  Every butterfly stage halves the data to
    prevent overflow, so the result is scaled down by 2^stages; the
    returned ``shift`` (=9 for a 512-point FFT) lets callers undo the
    scaling.

    Returns ``(real, imag, shift)`` as int64 arrays of shape
    (N, FFT_SIZE): the transpose of the frames-last int32 kernel's
    result, with the per-element integer semantics of the scalar
    microcontroller implementation.
    """
    frames = _check_frames(frames, "fixed_point_fft_batch")
    re, im = _fft_frames_last(frames)
    return (np.ascontiguousarray(re.T, dtype=np.int64),
            np.ascontiguousarray(im.T, dtype=np.int64), _STAGES)


def fixed_point_fft(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Single-frame convenience wrapper over the batched FFT."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise AudioError(
            f"fixed_point_fft expects a 1-D frame, got {samples.shape}"
        )
    re, im, shift = fixed_point_fft_batch(samples[np.newaxis, :])
    return re[0], im[0], shift


def power_spectrum_fixed_batch(frames: np.ndarray,
                               window_q15: np.ndarray | None = None
                               ) -> np.ndarray:
    """Batched fixed-point power spectrum: (N, L) -> (N, NUM_BINS) int64.

    The window (:func:`apply_window_q15`) and the FFT run in int32.
    ``re^2 + im^2`` reaches 2^30 (a full-scale DC frame) and the
    rescale shifts it 9 bits further, so the power stage runs in int64.
    """
    frames = _check_frames(frames, "power_spectrum_fixed_batch")
    if window_q15 is not None:
        frames = apply_window_q15(frames, window_q15)
    re, im = _fft_frames_last(frames)
    power = re[:NUM_BINS].T.astype(np.int64, order="C")
    power *= power
    imag = im[:NUM_BINS].T.astype(np.int64, order="C")
    imag *= imag
    power += imag
    # Undo the 2^-9 amplitude scaling (power scales with its square),
    # keeping headroom: net scale 2^-9.
    power <<= 2 * _STAGES - 9
    return power


def power_spectrum_fixed(frame: np.ndarray,
                         window_q15: np.ndarray | None = None) -> np.ndarray:
    """Fixed-point power spectrum: window -> FFT -> |X|^2 per bin.

    Returns ``NUM_BINS`` int64 power values (bins 0..255), rescaled to
    undo the FFT's internal 2^-9 scaling so magnitudes are comparable
    across implementations.
    """
    return power_spectrum_fixed_batch(frame[np.newaxis, :], window_q15)[0]


def power_spectrum_float(frame: np.ndarray,
                         window_q15: np.ndarray | None = None) -> np.ndarray:
    """Float reference implementation of :func:`power_spectrum_fixed`."""
    samples = frame.astype(np.float64)
    if window_q15 is not None:
        samples = samples * (window_q15.astype(np.float64) / 32767.0)
    padded = np.zeros(FFT_SIZE)
    padded[:len(samples)] = samples
    spectrum = np.fft.rfft(padded)[:NUM_BINS]
    return (np.abs(spectrum) ** 2) / 512.0  # match the 2^-9 net scale
