"""Golden bytes of the fixed-point front end.

Each case hashes what the DSP produces on seeded inputs: the FFT's
``re``/``im``, the windowed power spectrum and the 49x43 fingerprint.
The digests were recorded from the int64 butterfly kernel; any change
to the FFT (layout, dtype, rounding) must reproduce them bit for bit.
The ``render-*`` cases hash the raw int16 samples of synthesized clips
(every label, plus one speaker clip), so a change to the synthesizer
or its noise filter must keep every clip byte for byte.
perfbench's ``kws_clip`` check recomputes features with the same
extractor it serves with, so it cannot see a drift; these pins can.

To re-record after a deliberate change, print ``_case_digests()``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.audio.dsp import (
    apply_window_q15,
    fixed_point_fft_batch,
    hann_window_q15,
    power_spectrum_fixed_batch,
)
from repro.audio.features import FingerprintExtractor
from repro.audio.speech_commands import LABELS, SyntheticSpeechCommands

BATCH_SIZES = (1, 3, 8, 49, 200)
CLIPS = (("yes", 0), ("no", 3), ("left", 7), ("stop", 11), ("silence", 2))
RENDER_INDICES = (0, 6)
SPEAKER_CLIP = ("go", 2, "speaker-07")


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(repr(array.shape).encode())
        h.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
    return h.hexdigest()


def _render_digest(samples: np.ndarray) -> str:
    assert samples.dtype == np.int16 and samples.shape == (16000,)
    return hashlib.sha256(samples.astype("<i2").tobytes()).hexdigest()


def _random_frames(n: int) -> np.ndarray:
    rng = np.random.default_rng(1000 + n)
    return rng.integers(-32768, 32768, size=(n, 480), dtype=np.int64)


def _fft_digest(frames: np.ndarray) -> str:
    re, im, shift = fixed_point_fft_batch(frames)
    assert shift == 9
    assert re.dtype == im.dtype == np.int64
    assert re.shape == im.shape == (frames.shape[0], 512)
    return _digest(re, im)


def _full_scale_frame(length: int) -> np.ndarray:
    return np.full((1, length), -32768, dtype=np.int64)


def _square_waves() -> np.ndarray:
    """Full-scale square waves, one per bin 0..256: the largest |X_k|
    a frame can reach outside DC, so every stage runs near the bound."""
    n = np.arange(512)
    bins = np.arange(257)[:, np.newaxis]
    phase = np.cos(2 * np.pi * bins * n / 512)
    return np.where(phase >= 0, 32767, -32768).astype(np.int64)


def _case_digests() -> dict[str, str]:
    """Every pinned case, keyed by id (recomputed from the code)."""
    window = hann_window_q15(480)
    cases = {}
    for n in BATCH_SIZES:
        frames = _random_frames(n)
        cases[f"fft-random-{n}"] = _fft_digest(frames)
        cases[f"power-random-{n}"] = _digest(
            power_spectrum_fixed_batch(frames, window))
    cases["fft-full-scale-raw-512"] = _fft_digest(_full_scale_frame(512))
    cases["fft-full-scale-square-waves"] = _fft_digest(_square_waves())
    cases["fft-full-scale-raw-480"] = _fft_digest(_full_scale_frame(480))
    cases["fft-full-scale-hann-480"] = _fft_digest(
        apply_window_q15(_full_scale_frame(480)[0], window)[np.newaxis, :])
    cases["power-full-scale-hann-480"] = _digest(
        power_spectrum_fixed_batch(_full_scale_frame(480), window))
    extractor = FingerprintExtractor()
    cases["extract-full-scale"] = _digest(extractor.extract(
        np.full(16000, -32768, dtype=np.int16)))
    dataset = SyntheticSpeechCommands()
    for word, index in CLIPS:
        samples = dataset.render(word, index).samples
        cases[f"extract-{word}-{index}"] = _digest(extractor.extract(samples))
    for label in LABELS:
        for index in RENDER_INDICES:
            cases[f"render-{label}-{index}"] = _render_digest(
                dataset.render(label, index).samples)
    word, index, speaker = SPEAKER_CLIP
    cases[f"render-{speaker}-{word}-{index}"] = _render_digest(
        dataset.render(word, index, speaker=speaker).samples)
    return cases


GOLDEN = {
    "extract-full-scale":
        "f27b55cd390711800537b1f1516aaeac7b76a97cecf9d6076b89fe93521e2843",
    "extract-left-7":
        "bedebd8ee0925283ee31176c74a30287c819d7bf5a1772a99cbabf51a52f8634",
    "extract-no-3":
        "ba4e7b11370b102372e6af258bbf55a792841dae4fcd9df58217c9f6cdd56407",
    "extract-silence-2":
        "1bb9281d0690d2f6982c2fe6e773cea0d8260308b4186ccdf3a34d22beb34601",
    "extract-stop-11":
        "92e4539417fe3051d4a91076bbef219ea6349b9aa1e7a69bb82d7a13610e2c34",
    "extract-yes-0":
        "9538e6b837512b8a6881f4e81881f83644ff5292f39878d6258ffe86e534ec41",
    "fft-full-scale-square-waves":
        "8c2a384680fb7c0c9e1a53a5db70e0d51fa450f7239690c4f88aec5c8d3eae7c",
    "fft-full-scale-hann-480":
        "11386ed294e1f9ce82fa56552aa0ebbbab164f6cad6935b0c782d3daa9e70e44",
    "fft-full-scale-raw-480":
        "73048a1bf98e3c8fc003d5e45557e517330cc29711c1586dbfd36329554e6402",
    "fft-full-scale-raw-512":
        "ec2561f62e8573a7046259548913210d22e68856f70f393214970e134214a6ba",
    "fft-random-1":
        "e73884761f327568eaffa3ccc4e2494a1dfb2b5fff6577ec9ea7d0d150ab2f09",
    "fft-random-200":
        "f43d01bdcc51c94ff5d5a0e20203625b7c02a0c07dbc776c6e31e182588c2c36",
    "fft-random-3":
        "5e853e9d1e25b5260636c7c8cca9569aa56c11f464bd3429f798636e183d11b0",
    "fft-random-49":
        "671a4021b120e07c0447a79d361d606a1f11b4034c0a193e44dc5e800db3a067",
    "fft-random-8":
        "c3349ba3d7d710cc59b6d183f6c6c93ac1c0a60a0f88ef07808538a56ec8b785",
    "power-full-scale-hann-480":
        "8b889189518d701ea2a992d22eb5ab16a3464761a162b441b20ae90aebf28d3e",
    "power-random-1":
        "57dc48825b7d44114cedb999242b9ff8f89f3b919ff77f12e37d73ea87f59323",
    "power-random-200":
        "0f49669eba19db605e0383332d471020705a7a40bed5973a5b2a8a7b5f9cce16",
    "power-random-3":
        "bc07146e1f1a3855e151d8810c8566e72e982552aee5fa7c47d624fac4442cc6",
    "power-random-49":
        "272d59bcf7658dae852108e8588c01aeaa716dc028384f76abe1444f2c5b477e",
    "power-random-8":
        "7fa986a5e5da58390efce57495396b1a58af50aaca53611e0428b8d92a4cf6b6",
    "render-down-0":
        "ae1c26796e2289f535d1e40348e4b0c71e0ffe6c1f3be7514e494efcba969cf8",
    "render-down-6":
        "2bad5c12cb687994ae10a25cb601cce0249b0d2a4370204ca0a28711e96a8822",
    "render-go-0":
        "e6367137bbc69cc6b742de83aa67384543226376d5852579a695b4d11d8f5efc",
    "render-go-6":
        "266113cc9f65b7fa0a8fbbb4e6bc200ae1dc6a375fecd70be38f53cf2f4247b1",
    "render-left-0":
        "96d68ccb3ea8b3bb6891a018bb20fbb0dc7862efdbd06a106f597be5ad243000",
    "render-left-6":
        "aaf0e67a98d106780c1b4c63bb3e658b492d8ec69e0232ff094c6ce5719b68ad",
    "render-no-0":
        "7c50fd2b96bd9538cabafd33a13a3229fd876bc1649feb9be4c802f1b2b75a78",
    "render-no-6":
        "005999d47a64352fc336c490b55e9ebb7486a21cee5f8e95ad7e9a83b46e45a8",
    "render-off-0":
        "5868d4b9f8152cde7b911d6e73e4a92fe64495d0bad81eb24c9b450f96adec56",
    "render-off-6":
        "1b5ad1b3526d71a3048c629356a7462e2a1fe075ee0a8702347ee07f3400832a",
    "render-on-0":
        "23d9d98c2884c46dba53c35a1f354a99821923dca3422b8a9f7418e69f4ea1df",
    "render-on-6":
        "27066bb8eed40cb15b5f61379f972281a22b018f34da8d6900cda51dc162f02f",
    "render-right-0":
        "d5999a2fe737805af4196470246ff6e80e460051cc38f8a5a58b04e624c4fcb7",
    "render-right-6":
        "2bb74f208783add9e0f7d4c2b37df01925d63f7d0d69b7e729ea2766fce79dd1",
    "render-silence-0":
        "b4dbf2e9a64ad50315e1217818aeccc727e8875b80d479a967e0737f28becdd6",
    "render-silence-6":
        "9b65d4c55b24428c5d0ad1bbd42b7b6f30e501800ed04e4cb26e468c2fdc1f19",
    "render-speaker-07-go-2":
        "e7656db3f2109d18869600031fc270aca864aae168fedbcf4930bab55aab323f",
    "render-stop-0":
        "fa3affed96927565463c970ca3c52b26873e4a6155d255f2a9c075e7eb631e31",
    "render-stop-6":
        "2e51693108293b661bb2c7e9b4c1cc6eaee7ee21604259feb567002a49d214e5",
    "render-unknown-0":
        "f81b013d578138b9fecf9731bd14d106914a3a70225d8ad29d4704e1dc5a51a4",
    "render-unknown-6":
        "95bb3973d9743b3573fc85cb0899335830652144f211371f5fcd03ee07c6352f",
    "render-up-0":
        "d1faa8e60b3587bfa82876aeb2260a346650516c2e31dd3449c2c76635aecd4a",
    "render-up-6":
        "d110c3efd6093c590095eb0d1a5a9dc6fbef761904956f040195a50e924e815d",
    "render-yes-0":
        "6915e55b5e075efff446a2cb14733959f7110e8ca98831a90b1fde781700201e",
    "render-yes-6":
        "55cc11b23375e1343b67d01f7fae92d3f7edfff6022f37726a07e7012f3b5d2d",
}


@pytest.fixture(scope="module")
def computed() -> dict[str, str]:
    return _case_digests()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_front_end_bytes_match_golden(case, computed):
    assert computed[case] == GOLDEN[case]


def test_every_case_is_pinned(computed):
    assert sorted(computed) == sorted(GOLDEN)
