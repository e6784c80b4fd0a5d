"""Minimal RIFF/WAVE codec for 16-bit mono PCM.

The Speech Commands dataset ships as one-second 16 kHz WAVE files
(paper §VI); the synthetic replacement uses the same container so the
pipeline's I/O path matches the original recipe.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import AudioError

__all__ = ["encode_wave", "decode_wave", "write_wave", "read_wave"]


def encode_wave(samples: np.ndarray, sample_rate: int = 16000) -> bytes:
    """Encode int16 mono samples as a WAVE byte string."""
    samples = np.asarray(samples)
    if samples.dtype != np.int16:
        raise AudioError(f"expected int16 samples, got {samples.dtype}")
    if samples.ndim != 1:
        raise AudioError("expected mono (1-D) samples")
    data = samples.astype("<i2").tobytes()
    byte_rate = sample_rate * 2
    fmt_chunk = struct.pack("<HHIIHH", 1, 1, sample_rate, byte_rate, 2, 16)
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
        + b"data" + struct.pack("<I", len(data)) + data
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def decode_wave(blob: bytes) -> tuple[np.ndarray, int]:
    """Decode a WAVE byte string; return (int16 samples, sample_rate)."""
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise AudioError("not a RIFF/WAVE stream")
    offset = 12
    sample_rate = None
    bits = None
    channels = None
    data = None
    while offset + 8 <= len(blob):
        chunk_id = blob[offset:offset + 4]
        chunk_len = struct.unpack("<I", blob[offset + 4:offset + 8])[0]
        if offset + 8 + chunk_len > len(blob):
            raise AudioError("WAVE chunk runs past the end of the stream")
        payload = blob[offset + 8:offset + 8 + chunk_len]
        if chunk_id == b"fmt ":
            if chunk_len < 16:
                raise AudioError("truncated fmt chunk")
            audio_format, channels, sample_rate, _, _, bits = struct.unpack(
                "<HHIIHH", payload[:16])
            if audio_format != 1:
                raise AudioError(f"unsupported WAVE format code {audio_format}")
        elif chunk_id == b"data":
            if chunk_len & 1:
                raise AudioError("WAVE data chunk has an odd byte count")
            data = payload
        offset += 8 + chunk_len + (chunk_len & 1)
    if sample_rate is None or data is None:
        raise AudioError("WAVE stream missing fmt or data chunk")
    if bits != 16 or channels != 1:
        raise AudioError(
            f"only 16-bit mono supported (got {bits}-bit, {channels} ch)"
        )
    samples = np.frombuffer(data, dtype="<i2").astype(np.int16)
    return samples, sample_rate


def write_wave(path: str, samples: np.ndarray, sample_rate: int = 16000) -> None:
    """Write int16 mono samples to a .wav file."""
    with open(path, "wb") as handle:
        handle.write(encode_wave(samples, sample_rate))


def read_wave(path: str) -> tuple[np.ndarray, int]:
    """Read a .wav file; return (int16 samples, sample_rate)."""
    with open(path, "rb") as handle:
        return decode_wave(handle.read())
