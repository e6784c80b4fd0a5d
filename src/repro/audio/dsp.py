"""Fixed-point DSP: the 256-bin FFT front end of the TFLM recipe.

Paper §VI: "Features are computed using a 256 bin fixed point FFT across
30 ms windows (20 ms shift)".  A 512-point real FFT yields 256 usable
frequency bins.  The FFT here is an integer radix-2 implementation with
per-stage scaling — the same structure as the KissFFT-based fixed-point
FFT TFLM uses on microcontrollers — plus a float reference used by the
tests to bound the fixed-point error.

Layout: one kernel, :func:`_fft_frames_last`, a Stockham autosort
FFT over ``(FFT_SIZE, N)`` int32 ``re`` and ``im`` planes whose last
axis is the batch of frames.  It takes the frames in natural order and
ping-pongs between two buffers, so at every stage the top and bottom
inputs of each twiddle are two contiguous runs and every numpy call
spans all N frames.  The input is real: the first stage runs on the
``re`` plane alone and the second skips the product's ``im`` term.
Each stage writes its top outputs ``(top + product) >> 1`` and derives
the bottom ones from them: for integers ``floor((t - p) / 2) ==
floor((t + p) / 2) - p``, so ``bottom = top_out - product`` needs no
shift of its own.  The power path loads the frames through the Q15
window, with no windowed copy, and its last stage writes only the top
half, bins 0..255, which is all the power stage reads.
Samples must lie in [-32768, 32767] (:class:`AudioError` otherwise);
the window product, the twiddle products and the butterflies then stay
within int32 (the kernel's docstring gives the bound).  Only the power
stage, ``re^2 + im^2`` and its ``<< 9`` rescale, runs in int64.
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


def _stage_twiddles() -> list[tuple[np.ndarray, np.ndarray]]:
    """Per stage, the Q15 twiddles of its ``half`` butterflies as two
    ``(2, half, 1, 1)`` int32 stacks, ``(wr, wi)`` and ``(-wi, wr)``, so
    ``bot_re * first + bot_im * second`` is the complex product."""
    angles = -2.0 * np.pi * np.arange(FFT_SIZE // 2) / FFT_SIZE
    tw_re = np.round(np.cos(angles) * 32767).astype(np.int32)
    tw_im = np.round(np.sin(angles) * 32767).astype(np.int32)
    stages = []
    for stage in range(_STAGES):
        index = np.arange(1 << stage) << (_STAGES - 1 - stage)
        wr = tw_re[index, np.newaxis, np.newaxis]
        wi = tw_im[index, np.newaxis, np.newaxis]
        stages.append((np.stack([wr, wi]), np.stack([-wi, wr])))
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


def _one_frame(frame: np.ndarray, caller: str) -> np.ndarray:
    """A 1-D frame as a batch of one; :class:`AudioError` otherwise."""
    frame = np.asarray(frame)
    if frame.ndim != 1:
        raise AudioError(f"{caller} expects a 1-D frame, got {frame.shape}")
    return frame[np.newaxis, :]


def hann_window_q15(length: int) -> np.ndarray:
    """Hann window coefficients in Q15 fixed point; ``length >= 2``."""
    if length < 2:
        raise AudioError(f"Hann window needs at least 2 samples, got {length}")
    n = np.arange(length)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (length - 1))
    return np.round(window * 32767).astype(np.int64)


def apply_window_q15(samples: np.ndarray, window_q15: np.ndarray) -> np.ndarray:
    """Apply a Q15 window to int16-range samples, in int32.

    ``samples`` is one frame ``(L,)`` or a batch ``(N, L)``;
    ``window_q15`` is ``(L,)``.  Both must be int16-range integers, so
    each product fits int32 and the result stays int16-range.
    """
    samples, window_q15 = _check_window(samples, window_q15)
    windowed = samples.astype(np.int32)
    windowed *= window_q15
    windowed >>= 15
    return windowed


def _check_window(samples: np.ndarray, window_q15: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Validate :func:`apply_window_q15`'s operands; returns the samples
    as an array and the window as int32."""
    samples = np.asarray(samples)
    window_q15 = np.asarray(window_q15)
    if window_q15.ndim != 1 or samples.shape[-1:] != window_q15.shape:
        raise AudioError(
            f"window length {window_q15.shape} != frame length {samples.shape}"
        )
    _check_samples(samples, "samples")
    _check_samples(window_q15, "window")
    return samples, window_q15.astype(np.int32)


def _fft_frames_last(frames: np.ndarray, window_q15: np.ndarray | None = None,
                     *, top_half: bool = False
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The FFT kernel: (N, L) int16-range frames -> ``(re, im)``.

    Both outputs are ``(FFT_SIZE, N)`` int32, frames on the last axis,
    in natural order and scaled by ``2^-9``.  With ``window_q15`` (an
    int32 ``(L,)`` checked by :func:`_check_window`) the frames are
    windowed as they are loaded, ``(sample * w) >> 15`` as in
    :func:`apply_window_q15`.  With ``top_half`` the last stage writes
    only rows ``0..FFT_SIZE/2 - 1``; the rest of both outputs is then
    scratch.  The kernel is a Stockham
    autosort radix-2 DIT FFT: the butterflies, twiddles, stage order and
    floor shifts of the in-place bit-reversed loop, but each stage reads
    one ``(2, FFT_SIZE, N)`` re/im buffer and writes the other, so the
    input goes in zero padded and in natural order and no gather is
    needed.  Stage ``s`` (``half = 2^s``, ``r = FFT_SIZE / (2 half)``)
    reads its source as ``(2, half, 2, r, N)``: for each of the ``half``
    twiddles, the top and bottom inputs are two contiguous runs of
    ``r * N`` elements, and the ``(2, half, 1, 1)`` twiddle stacks
    broadcast over them into a ``(2, FFT_SIZE/2, N)`` product buffer.
    It writes ``(top + product) >> 1`` to the top half of the
    destination, rows ``0..FFT_SIZE/2 - 1`` of both planes viewed as
    ``(2, half, r, N)``, then ``top_out - product`` to the bottom half:
    ``floor((t + p) / 2) - p == floor((t - p) / 2)`` for integers, so
    these are the halved differences of the butterfly, bit for bit,
    with one shift pass over half the buffer instead of over all of it.

    The frames are real.  Stage 0 pairs sample ``k`` with sample
    ``k + 256`` under the twiddle ``(32767, 0)``, so it runs on the re
    plane alone and leaves im at zero; stage 1 then skips the product's
    im term.  The samples are copied into the int32 buffer before any
    multiply: an int16 frame times 32767 would wrap in int16 (the
    window multiply writes int32 for the same reason).

    int32 is exact here.  The inputs are int16-range, so ``|z| <= 2^15``
    before the first stage.  With ``|w| < 2^15`` the exact halved
    butterfly ``(top +- w*bot/2^15) / 2`` never exceeds the larger of its
    two inputs' magnitudes; the two floor shifts move each component by
    less than 1, so ``|z|`` grows by less than sqrt(2) per stage and
    stays below ``2^15 + 13`` after nine.  Each twiddle product is then
    below ``(2^15 + 13) * 2^15 < 2^31``.  The bound is on the values the
    butterflies see, not on where they are stored, so it holds for any
    butterfly order, and ``top_out - product`` is the same integer as
    the halved difference.  ``tests/test_audio_golden.py`` pins full-scale
    frames, raw and windowed, to the bytes of the int64 kernel this one
    replaced, and ``tests/test_audio_wave_dsp.py`` checks full-scale
    frames of every length against a butterfly loop in Python ints,
    which cannot wrap.
    """
    n, length = frames.shape
    head = FFT_SIZE // 2
    src = np.zeros((2, FFT_SIZE, n), dtype=np.int32)
    dst = np.zeros_like(src)
    product = np.empty((2, head, n), dtype=np.int32)
    tmp = np.empty_like(product)
    if window_q15 is None:
        src[0, :length] = frames.T
    else:
        # Each product fits int32; uint64 frames multiply in float64,
        # still exactly, hence the unsafe cast back.
        loaded = src[0, :length]
        np.multiply(frames.T, window_q15[:, np.newaxis], out=loaded,
                    casting="unsafe")
        loaded >>= 15
    # Stage 0, real input: product = (bot * 32767) >> 15, im stays zero.
    first = product[0]
    np.multiply(src[0, head:], 32767, out=first)
    first >>= 15
    top_out = dst[0, :head]
    np.add(src[0, :head], first, out=top_out)
    top_out >>= 1
    np.subtract(top_out, first, out=dst[0, head:])
    src, dst = dst, src
    for stage in range(1, _STAGES):
        w_re, w_im = _TWIDDLES[stage]
        half = 1 << stage
        shape = (2, half, head // half, n)
        view = src.reshape(2, half, 2, head // half, n)
        # Q15 complex multiply of the bottom inputs by the twiddles:
        # product = (bot_re*wr - bot_im*wi, bot_re*wi + bot_im*wr) >> 15.
        np.multiply(view[0, :, 1], w_re, out=product.reshape(shape))
        if stage > 1:  # stage 1's bot_im is zero
            np.multiply(view[1, :, 1], w_im, out=tmp.reshape(shape))
            product += tmp
        product >>= 15
        # Butterfly with a /2 scale per stage (overflow protection):
        # top_out = (top + product) >> 1, bottom = top_out - product.
        top_out = dst[:, :head]
        np.add(view[:, :, 0], product.reshape(shape),
               out=top_out.reshape(shape))
        top_out >>= 1
        if not (top_half and stage == _STAGES - 1):
            np.subtract(top_out, product, out=dst[:, head:])
        src, dst = dst, src
    return src[0], src[1]


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
    frames = _one_frame(samples, "fixed_point_fft")
    re, im, shift = fixed_point_fft_batch(frames)
    return re[0], im[0], shift


def power_spectrum_fixed_batch(frames: np.ndarray,
                               window_q15: np.ndarray | None = None
                               ) -> np.ndarray:
    """Batched fixed-point power spectrum: (N, L) -> (N, NUM_BINS) int64.

    The window (:func:`apply_window_q15`'s arithmetic and checks,
    applied as the kernel loads the frames) and the FFT run in int32,
    and the FFT's last stage computes bins 0..255 only.  ``re^2 + im^2``
    reaches 2^30 (a full-scale DC frame) and the rescale shifts it 9
    bits further, so the power stage runs in int64.
    """
    frames = _check_frames(frames, "power_spectrum_fixed_batch")
    if window_q15 is not None:
        frames, window_q15 = _check_window(frames, window_q15)
    re, im = _fft_frames_last(frames, window_q15, top_half=True)
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
    frames = _one_frame(frame, "power_spectrum_fixed")
    return power_spectrum_fixed_batch(frames, window_q15)[0]


def power_spectrum_float(frame: np.ndarray,
                         window_q15: np.ndarray | None = None) -> np.ndarray:
    """Float reference implementation of :func:`power_spectrum_fixed`."""
    samples = _one_frame(frame, "power_spectrum_float")[0]
    if len(samples) > FFT_SIZE:
        raise AudioError(f"power_spectrum_float expects at most {FFT_SIZE} "
                         f"samples, got {len(samples)}")
    samples = samples.astype(np.float64)
    if window_q15 is not None:
        samples = samples * (window_q15.astype(np.float64) / 32767.0)
    padded = np.zeros(FFT_SIZE)
    padded[:len(samples)] = samples
    spectrum = np.fft.rfft(padded)[:NUM_BINS]
    return (np.abs(spectrum) ** 2) / 512.0  # match the 2^-9 net scale
