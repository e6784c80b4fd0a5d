"""WAVE codec and the fixed-point DSP front end."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio.dsp import (
    FFT_SIZE,
    NUM_BINS,
    apply_window_q15,
    fixed_point_fft,
    fixed_point_fft_batch,
    hann_window_q15,
    power_spectrum_fixed,
    power_spectrum_fixed_batch,
    power_spectrum_float,
)
from repro.audio.wave_io import decode_wave, encode_wave, read_wave, write_wave
from repro.errors import AudioError

RNG = np.random.default_rng(0)


# --- WAVE --------------------------------------------------------------------

def test_wave_roundtrip():
    samples = (RNG.standard_normal(1000) * 8000).astype(np.int16)
    blob = encode_wave(samples, 16000)
    decoded, rate = decode_wave(blob)
    assert rate == 16000
    assert np.array_equal(decoded, samples)


def test_wave_file_roundtrip(tmp_path):
    samples = (np.sin(np.arange(480)) * 1000).astype(np.int16)
    path = str(tmp_path / "clip.wav")
    write_wave(path, samples, 8000)
    decoded, rate = read_wave(path)
    assert rate == 8000
    assert np.array_equal(decoded, samples)


def test_wave_rejects_wrong_dtype_and_shape():
    with pytest.raises(AudioError):
        encode_wave(np.zeros(10, dtype=np.float32))
    with pytest.raises(AudioError):
        encode_wave(np.zeros((10, 2), dtype=np.int16))


def test_wave_decode_rejects_garbage():
    with pytest.raises(AudioError):
        decode_wave(b"not a wave file at all")
    with pytest.raises(AudioError):
        decode_wave(b"RIFF\x00\x00\x00\x00WAVE")  # missing chunks


def test_wave_decode_skips_extra_chunks():
    samples = np.ones(8, dtype=np.int16)
    blob = bytearray(encode_wave(samples))
    # Inject a LIST chunk between fmt and data.
    insert_at = blob.find(b"data")
    extra = b"LIST" + (4).to_bytes(4, "little") + b"info"
    patched = bytes(blob[:insert_at]) + extra + bytes(blob[insert_at:])
    # Fix RIFF size field.
    size = len(patched) - 8
    patched = patched[:4] + size.to_bytes(4, "little") + patched[8:]
    decoded, _ = decode_wave(patched)
    assert np.array_equal(decoded, samples)


def test_wave_rejects_stereo():
    import struct

    samples = np.ones(4, dtype=np.int16)
    blob = bytearray(encode_wave(samples))
    fmt_at = blob.find(b"fmt ") + 8
    blob[fmt_at + 2:fmt_at + 4] = struct.pack("<H", 2)  # channels = 2
    with pytest.raises(AudioError):
        decode_wave(bytes(blob))


def _riff(*chunks: tuple[bytes, int, bytes]) -> bytes:
    """A RIFF/WAVE stream of (id, declared length, payload) chunks."""
    body = b"WAVE" + b"".join(chunk_id + struct.pack("<I", declared) + payload
                              for chunk_id, declared, payload in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


_FMT = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)


@pytest.mark.parametrize("blob, error", [
    (_riff((b"fmt ", 16, _FMT[:4])),
     "WAVE chunk runs past the end of the stream"),
    (_riff((b"fmt ", 16, _FMT), (b"data", 3, b"\x01\x02\x03")),
     "WAVE data chunk has an odd byte count"),
    (_riff((b"fmt ", 16, _FMT), (b"data", 20, bytes(16))),
     "WAVE chunk runs past the end of the stream"),
    (encode_wave(np.arange(-4, 4, dtype=np.int16)), None),
], ids=["short-fmt", "odd-data", "data-past-end", "valid"])
def test_wave_decode_fails_closed(blob, error):
    if error is None:
        samples, rate = decode_wave(blob)
        assert rate == 16000
        assert np.array_equal(samples, np.arange(-4, 4))
        return
    with pytest.raises(AudioError) as raised:
        decode_wave(blob)
    assert str(raised.value) == error


@given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=500))
@settings(max_examples=30, deadline=None)
def test_wave_roundtrip_property(values):
    samples = np.array(values, dtype=np.int16)
    decoded, _ = decode_wave(encode_wave(samples))
    assert np.array_equal(decoded, samples)


# --- window ------------------------------------------------------------------

def test_hann_window_shape_and_range():
    window = hann_window_q15(480)
    assert window[0] == 0 and window[-1] == 0
    assert window.max() == 32767
    assert np.all(window >= 0)


@pytest.mark.parametrize("length", [1, 0, -3])
def test_hann_window_refuses_fewer_than_two_samples(length):
    with pytest.raises(AudioError, match="at least 2 samples"):
        hann_window_q15(length)


def test_apply_window_q15():
    frame = np.full(480, 1000, dtype=np.int64)
    window = hann_window_q15(480)
    result = apply_window_q15(frame, window)
    assert result[0] == 0
    assert abs(int(result[240]) - 1000) <= 1


def test_apply_window_length_mismatch():
    with pytest.raises(AudioError):
        apply_window_q15(np.zeros(100, dtype=np.int64),
                         hann_window_q15(480))
    with pytest.raises(AudioError):
        apply_window_q15(np.zeros((2, 480), dtype=np.int64),
                         hann_window_q15(480)[np.newaxis, :])


def test_apply_window_batch_is_int32_and_matches_int64():
    frames = RNG.integers(-32768, 32768, size=(4, 480))
    window = hann_window_q15(480)
    result = apply_window_q15(frames, window)
    assert result.dtype == np.int32
    assert np.array_equal(result, (frames * window) >> 15)
    assert np.array_equal(result[2], apply_window_q15(frames[2], window))


def test_power_spectrum_window_length_mismatch():
    with pytest.raises(AudioError):
        power_spectrum_fixed_batch(np.zeros((2, 400), dtype=np.int16),
                                   hann_window_q15(480))


# --- fixed-point FFT -----------------------------------------------------------

def test_fft_pure_tone_peak_bin():
    t = np.arange(480) / 16000
    for freq in (500, 1000, 3000, 6000):
        tone = (np.sin(2 * np.pi * freq * t) * 10000).astype(np.int16)
        power = power_spectrum_fixed(tone, hann_window_q15(480))
        expected_bin = round(freq * FFT_SIZE / 16000)
        assert abs(int(np.argmax(power)) - expected_bin) <= 1


def test_fft_matches_float_reference_on_dominant_bins():
    frame = (RNG.standard_normal(480) * 3000).astype(np.int16)
    window = hann_window_q15(480)
    fixed = power_spectrum_fixed(frame, window).astype(np.float64)
    reference = power_spectrum_float(frame, window)
    mask = reference > reference.max() * 1e-2
    relative = np.abs(fixed[mask] - reference[mask]) / reference[mask]
    assert np.median(relative) < 0.1


def test_power_spectrum_float_checks_its_frame():
    frame = (RNG.standard_normal(480) * 3000).astype(np.int16)
    window = hann_window_q15(480)
    assert np.array_equal(power_spectrum_float(frame.tolist(), window),
                          power_spectrum_float(frame, window))
    for bad in (np.zeros((2, 480), dtype=np.int16),
                np.zeros(FFT_SIZE + 1, dtype=np.int16)):
        with pytest.raises(AudioError):
            power_spectrum_float(bad)
        with pytest.raises(AudioError):
            power_spectrum_fixed(bad)


def test_fft_zero_input_zero_output():
    re, im, shift = fixed_point_fft(np.zeros(480, dtype=np.int64))
    assert shift == 9
    assert not re.any() and not im.any()


def test_fft_dc_input():
    re, im, _ = fixed_point_fft(np.full(FFT_SIZE, 512, dtype=np.int64))
    # Scaled by 2^-9 * N = 512; truncating shifts lose ~1 LSB per stage.
    assert int(re[0]) == pytest.approx(512, rel=0.05)
    assert abs(int(re[1])) < int(re[0]) / 100


def _scalar_fft_reference(frame) -> tuple[list[int], list[int]]:
    """The microcontroller loop: bit-reversed input, one butterfly at a
    time, /2 per stage, in Python ints, which never wrap."""
    angles = -2.0 * np.pi * np.arange(FFT_SIZE // 2) / FFT_SIZE
    tw_re = [int(v) for v in np.round(np.cos(angles) * 32767)]
    tw_im = [int(v) for v in np.round(np.sin(angles) * 32767)]
    padded = [int(v) for v in frame] + [0] * (FFT_SIZE - len(frame))
    bits = FFT_SIZE.bit_length() - 1
    re = [padded[int(f"{i:0{bits}b}"[::-1], 2)] for i in range(FFT_SIZE)]
    im = [0] * FFT_SIZE
    half = 1
    while half < FFT_SIZE:
        step = FFT_SIZE // (2 * half)
        for k in range(half):
            wr, wi = tw_re[k * step], tw_im[k * step]
            for top in range(k, FFT_SIZE, 2 * half):
                bot = top + half
                br = (re[bot] * wr - im[bot] * wi) >> 15
                bi = (re[bot] * wi + im[bot] * wr) >> 15
                re[top], re[bot] = (re[top] + br) >> 1, (re[top] - br) >> 1
                im[top], im[bot] = (im[top] + bi) >> 1, (im[top] - bi) >> 1
        half *= 2
    return re, im


def _reference_cases() -> np.ndarray:
    n = np.arange(FFT_SIZE)
    rng = np.random.default_rng(7)
    cases = [np.full(FFT_SIZE, -32768), np.full(FFT_SIZE, 32767),
             np.where(n % 2, 32767, -32768)]
    for k in (1, 3, 85, 128, 255):
        cases.append(np.where(np.cos(2 * np.pi * k * n / FFT_SIZE) >= 0,
                              32767, -32768))
    cases.extend(rng.integers(-32768, 32768, size=(4, FFT_SIZE)))
    return np.array(cases, dtype=np.int64)


def test_fft_matches_scalar_butterfly_reference():
    """Full-scale inputs through the int32 kernel equal the loop in
    unbounded ints, so no stage wrapped."""
    frames = _reference_cases()
    re, im, _ = fixed_point_fft_batch(frames)
    for index, frame in enumerate(frames):
        want_re, want_im = _scalar_fft_reference(frame)
        assert re[index].tolist() == want_re
        assert im[index].tolist() == want_im


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("length", [1, 100, 255, 256, 257, 400, 480, 511, 512])
def test_fft_matches_scalar_butterfly_reference_at_every_length(length, batch):
    """Frames shorter than, equal to and longer than half the FFT size
    (the zero padding meets the first stage's pairs differently)."""
    rng = np.random.default_rng(length * 10 + batch)
    full_scale = rng.choice(np.array([-32768, 32767]), size=(batch, length))
    full_scale[0] = -32768
    random = rng.integers(-32768, 32768, size=(batch, length))
    for frames in (full_scale, random):
        re, im, _ = fixed_point_fft_batch(frames)
        assert re.shape == im.shape == (batch, FFT_SIZE)
        for index, frame in enumerate(frames):
            want_re, want_im = _scalar_fft_reference(frame)
            assert re[index].tolist() == want_re
            assert im[index].tolist() == want_im


def _scalar_power_reference(frame, window=None) -> list[int]:
    """Bins 0..255 of ``(re^2 + im^2) << 9`` from the scalar loop, the
    window applied first as ``(sample * w) >> 15``, all in Python ints."""
    samples = [int(v) for v in frame]
    if window is not None:
        samples = [(s * int(w)) >> 15 for s, w in zip(samples, window)]
    re, im = _scalar_fft_reference(samples)
    return [(re[k] ** 2 + im[k] ** 2) << 9 for k in range(NUM_BINS)]


@pytest.mark.parametrize("length", [1, 100, 255, 256, 257, 400, 480, 511, 512])
def test_power_spectrum_matches_scalar_butterfly_reference_at_every_length(
        length):
    """The power path's own kernel work, the window applied as the
    frames load and the last stage computing bins 0..255 only, on
    full-scale and random frames, raw and windowed."""
    rng = np.random.default_rng(length * 10 + 5)
    full_scale = rng.choice(np.array([-32768, 32767]), size=(3, length))
    full_scale[0] = -32768
    random = rng.integers(-32768, 32768, size=(3, length))
    windows = [None, rng.integers(-32768, 32768, size=length),
               np.full(length, -32768)]
    if length >= 2:
        windows.append(hann_window_q15(length))
    for frames in (full_scale, random):
        for window in windows:
            power = power_spectrum_fixed_batch(frames, window)
            assert power.dtype == np.int64
            assert power.shape == (3, NUM_BINS)
            for index, frame in enumerate(frames):
                assert power[index].tolist() == _scalar_power_reference(
                    frame, window)


def test_power_spectrum_windowed_accepts_any_integer_dtype():
    frames = RNG.integers(0, 32768, size=(2, 480))
    window = hann_window_q15(480)
    expected = power_spectrum_fixed_batch(frames.astype(np.int16), window)
    for dtype in (np.int32, np.int64, np.uint16, np.uint32, np.uint64):
        for window_dtype in (np.int16, np.int64, np.uint16):
            assert np.array_equal(power_spectrum_fixed_batch(
                frames.astype(dtype), window.astype(window_dtype)), expected)


@pytest.mark.parametrize("window", [
    np.zeros(400, dtype=np.int64),
    np.zeros((1, 480), dtype=np.int64),
    np.zeros(480, dtype=np.float64),
    np.full(480, 40000),
])
def test_power_spectrum_window_checks_are_apply_window_q15s(window):
    frames = np.zeros((2, 480), dtype=np.int16)
    with pytest.raises(AudioError) as applied:
        apply_window_q15(frames, window)
    with pytest.raises(AudioError) as powered:
        power_spectrum_fixed_batch(frames, window)
    assert str(powered.value) == str(applied.value)


def test_fft_batch_matches_single():
    frames = (RNG.standard_normal((5, 480)) * 2000).astype(np.int64)
    batch_re, batch_im, _ = fixed_point_fft_batch(frames)
    for i in range(5):
        single_re, single_im, _ = fixed_point_fft(frames[i])
        assert np.array_equal(batch_re[i], single_re)
        assert np.array_equal(batch_im[i], single_im)


def test_fft_rejects_oversized_input():
    with pytest.raises(AudioError):
        fixed_point_fft(np.zeros(FFT_SIZE + 1, dtype=np.int64))
    with pytest.raises(AudioError):
        fixed_point_fft_batch(np.zeros((2, FFT_SIZE + 1), dtype=np.int64))


@pytest.mark.parametrize("value", [-32769, 32768, 2 ** 20, -(2 ** 31)])
def test_fft_rejects_samples_outside_int16(value):
    frame = np.zeros((2, 480), dtype=np.int64)
    frame[1, 7] = value
    with pytest.raises(AudioError):
        fixed_point_fft_batch(frame)
    with pytest.raises(AudioError):
        fixed_point_fft(frame[1])
    with pytest.raises(AudioError):
        power_spectrum_fixed_batch(frame)
    with pytest.raises(AudioError):
        power_spectrum_fixed_batch(frame, hann_window_q15(480))
    with pytest.raises(AudioError):
        apply_window_q15(frame, hann_window_q15(480))


def test_fft_rejects_non_integer_samples():
    with pytest.raises(AudioError):
        fixed_point_fft_batch(np.zeros((1, 480)))
    with pytest.raises(AudioError):
        apply_window_q15(np.zeros(480, dtype=np.int16),
                         hann_window_q15(480).astype(np.float64))


def test_fft_accepts_the_int16_extremes_in_any_integer_dtype():
    frame = np.tile(np.array([-32768, 32767]), 240)
    expected = fixed_point_fft(frame.astype(np.int16))
    for dtype in (np.int32, np.int64):
        re, im, shift = fixed_point_fft(frame.astype(dtype))
        assert np.array_equal(re, expected[0])
        assert np.array_equal(im, expected[1])
    assert re.dtype == np.int64 and shift == 9


def test_power_spectrum_has_256_bins():
    assert len(power_spectrum_fixed(np.zeros(480, dtype=np.int16))) == NUM_BINS
    assert power_spectrum_fixed_batch(
        np.zeros((3, 480), dtype=np.int16)).shape == (3, NUM_BINS)


def test_power_spectrum_accepts_a_list_frame():
    frame = RNG.integers(-32768, 32768, size=480)
    window = hann_window_q15(480)
    assert np.array_equal(power_spectrum_fixed(frame.tolist()),
                          power_spectrum_fixed(frame))
    assert np.array_equal(power_spectrum_fixed([0] * 480, window),
                          np.zeros(NUM_BINS, dtype=np.int64))


def test_power_spectrum_rejects_a_2d_frame_under_its_own_name():
    with pytest.raises(AudioError, match=r"power_spectrum_fixed expects a "
                                         r"1-D frame, got \(2, 480\)"):
        power_spectrum_fixed(np.zeros((2, 480), dtype=np.int16))
    with pytest.raises(AudioError, match=r"fixed_point_fft expects a 1-D"):
        fixed_point_fft(np.zeros((2, 480), dtype=np.int16))


def test_parseval_energy_scaling():
    """Fixed and float spectra have comparable total energy."""
    frame = (RNG.standard_normal(480) * 5000).astype(np.int16)
    window = hann_window_q15(480)
    fixed_total = float(power_spectrum_fixed(frame, window).sum())
    float_total = float(power_spectrum_float(frame, window).sum())
    assert fixed_total == pytest.approx(float_total, rel=0.1)
