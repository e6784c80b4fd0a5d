"""Every byte decoder fails closed.

Flash, the OS-relayed rings and the vendor channel are controlled by
the normal world (paper §IV), so every decoder that parses their bytes
must either return a value or raise a :class:`ReproError` subclass —
never an untyped ``ValueError``/``KeyError``/``UnicodeDecodeError``.
Each decoder is fed arbitrary bytes and mutations of one valid
encoding.  CRC-guarded formats are also mutated with the checksum
recomputed, so the mutations reach the parser behind it.

For length-prefixed formats a length field far beyond the input must
raise: no silent truncation, and no allocation in proportion to the
field.
"""

from __future__ import annotations

import functools
import struct
import tracemalloc
import zlib
from dataclasses import dataclass
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.audio.wave_io import decode_wave, encode_wave
from repro.core.channels import (ChannelEndpoint, ReliableResponder,
                                 SecureChannel)
from repro.core.parties import Vendor, WrappedKey
from repro.core.provisioning import (EncryptedModel, VendorServer,
                                     _pack_wrapped, _unpack_wrapped)
from repro.crypto.cert import Certificate, CertificateAuthority
from repro.crypto.keycache import deterministic_keypair
from repro.crypto.rng import HmacDrbg
from repro.crypto.rsa import RsaPublicKey
from repro.errors import ReproError
from repro.fleet.journal import LicenseJournal
from repro.hw.timing import VirtualClock
from repro.obs.trace import SpanContext
from repro.sanctuary.attestation import AttestationReport, measure
from repro.serve.frames import TAG_BYTES, emit_sealed, open_in_place
from repro.tflm import serialize as omgm
from repro.tflm.serialize import deserialize_model, serialize_model
from repro.tflm.tensor import TensorSpec
from tests.helpers import build_tiny_int8_model

KEY_BITS = 768
EXAMPLES = 120


@functools.cache
def _keys():
    root = CertificateAuthority(
        "root", deterministic_keypair(b"party-root", KEY_BITS))
    enclave = deterministic_keypair(b"party-enclave", KEY_BITS)
    return root, enclave


def _report() -> bytes:
    root, enclave = _keys()
    leaf = root.issue("sa#1", enclave.public_key)
    return AttestationReport.create(
        "sa#1", measure(b"enclave code"), enclave, b"challenge-16byte",
        (leaf, root.certificate)).to_bytes()


def _key_exchange() -> bytes:
    return SecureChannel.connect(_keys()[1].public_key,
                                 HmacDrbg(b"decoder-channel"))[1]


def _accept(blob: bytes):
    return SecureChannel.accept(_keys()[1], blob)


_CLIENT_KEY, _SERVER_KEY = b"c" * 16, b"s" * 16


def _request_frame() -> bytes:
    client = ChannelEndpoint(send_key=_CLIENT_KEY, recv_key=_SERVER_KEY)
    return struct.pack(">Q", 0) + client.seal_at(0, b"classify")


def _handle_frame(blob: bytes):
    server = ChannelEndpoint(send_key=_SERVER_KEY, recv_key=_CLIENT_KEY)
    return ReliableResponder(server, handler=bytes).handle_frame(blob)


def _serving_frame() -> bytes:
    slot = np.zeros(64, dtype=np.uint8)
    n = emit_sealed(slot, 7, 3, np.arange(20, dtype=np.uint8),
                    b"t" * TAG_BYTES)
    return bytes(slot[:n])


def _open_frame(blob: bytes):
    return open_in_place(np.frombuffer(blob, dtype=np.uint8))


def _journal_media() -> bytes:
    journal = LicenseJournal("shard-0")
    journal.grant("device-1", "tenant-a", "ab" * 8, "cd" * 16)
    return journal.media_bytes()


def _recover(blob: bytes):
    journal = LicenseJournal("shard-0")
    journal._media = bytearray(blob)
    return journal.recover()


@functools.cache
def _vendor_server() -> VendorServer:
    """A vendor that has admitted enclave ``sa#1``, so step 3 and 5
    requests for it reach the model and key paths."""
    root, _ = _keys()
    server = VendorServer(
        Vendor("ml-vendor", build_tiny_int8_model(), key_bits=KEY_BITS),
        measure(b"enclave code"), root.public_key, VirtualClock())
    server.handle(b"A" + _report())
    return server


def _vendor_request(blob: bytes):
    return _vendor_server().handle(blob)


def _tiny_omgm() -> bytes:
    return serialize_model(build_tiny_int8_model())


def _crc_last4_le(blob: bytes) -> bytes:
    """Re-close an OMGM stream: little-endian CRC32 over the body."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def _crc_last4_be(blob: bytes) -> bytes:
    """Re-close one journal record: big-endian CRC32 over the frame."""
    return blob[:-4] + struct.pack(">I", zlib.crc32(blob[:-4]))


@dataclass(frozen=True)
class Decoder:
    name: str
    decode: Callable[[bytes], object]
    valid: Callable[[], bytes]
    fixup: Callable[[bytes], bytes] | None = None
    # (offset, width) of a length field, for length-prefixed formats.
    length_field: tuple[int, int] | None = None
    # Offset of the first byte of a UTF-8 text field.
    text_field: int | None = None


DECODERS = [
    Decoder("decode_wave", decode_wave,
            lambda: encode_wave(np.arange(-40, 40, dtype=np.int16)),
            length_field=(16, 4)),
    Decoder("EncryptedModel.from_bytes", EncryptedModel.from_bytes,
            lambda: EncryptedModel("sa#1", "kws", 2, b"n" * 16,
                                   b"b" * 48).to_bytes(),
            length_field=(0, 4), text_field=4),
    Decoder("deserialize_model", deserialize_model, _tiny_omgm,
            fixup=_crc_last4_le, length_field=(8, 2), text_field=10),
    Decoder("AttestationReport.from_bytes", AttestationReport.from_bytes,
            _report, length_field=(0, 4), text_field=4),
    Decoder("SpanContext.from_bytes", SpanContext.from_bytes,
            lambda: SpanContext(trace_id=5, span_id=9).to_bytes()),
    Decoder("Certificate.from_bytes", Certificate.from_bytes,
            lambda: _keys()[0].certificate.to_bytes(), length_field=(0, 4),
            text_field=4),
    # e's length field follows the 4-byte length and 96 bytes of n.
    Decoder("RsaPublicKey.from_bytes", RsaPublicKey.from_bytes,
            lambda: _keys()[1].public_key.to_bytes(), length_field=(100, 4)),
    Decoder("SecureChannel.accept", _accept, _key_exchange),
    Decoder("ReliableResponder.handle_frame", _handle_frame,
            _request_frame),
    Decoder("open_in_place", _open_frame, _serving_frame),
    Decoder("_unpack_wrapped", _unpack_wrapped,
            lambda: _pack_wrapped(WrappedKey("sa#1", 2, b"w" * 96)),
            length_field=(0, 4), text_field=4),
    # A step 3 request: opcode, 8-byte request nonce, enclave id.
    Decoder("VendorServer.handle", _vendor_request,
            lambda: b"M" + b"n" * 8 + b"sa#1", text_field=9),
    Decoder("LicenseJournal.recover", _recover, _journal_media,
            fixup=_crc_last4_be, length_field=(8, 2),  # first field
            text_field=10),
]
IDS = [decoder.name for decoder in DECODERS]

_valid = functools.cache(lambda decoder: decoder.valid())


def _mutation(valid: bytes, fixup) -> st.SearchStrategy[bytes]:
    """Overwrite a few bytes, cut the tail, append junk; optionally
    re-close the checksum so the parser behind it sees the damage."""
    def apply(args) -> bytes:
        writes, cut, extra, refix = args
        blob = bytearray(valid)
        for position, value in writes:
            blob[position % len(blob)] = value
        blob = bytes(blob[:cut]) + extra
        return fixup(blob) if refix and fixup and len(blob) >= 4 else blob

    return st.tuples(
        st.lists(st.tuples(st.integers(0, len(valid) - 1),
                           st.integers(0, 255)), max_size=4),
        st.integers(0, len(valid)),
        st.binary(max_size=8),
        st.booleans(),
    ).map(apply)


@pytest.mark.parametrize("decoder", DECODERS, ids=IDS)
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(data=st.data())
def test_decoder_returns_or_raises_typed(decoder, data):
    valid = _valid(decoder)
    blob = data.draw(st.one_of(
        st.binary(max_size=2 * len(valid)),
        _mutation(valid, decoder.fixup)))
    try:
        decoder.decode(blob)
    except ReproError:
        pass


@pytest.mark.parametrize("decoder", DECODERS, ids=IDS)
def test_valid_encoding_decodes(decoder):
    assert decoder.decode(_valid(decoder)) is not None


LENGTH_PREFIXED = [d for d in DECODERS if d.length_field is not None]


@pytest.mark.parametrize("decoder", LENGTH_PREFIXED,
                         ids=[d.name for d in LENGTH_PREFIXED])
def test_oversized_length_field_raises_without_allocating(decoder):
    valid = _valid(decoder)
    offset, width = decoder.length_field
    blob = (valid[:offset] + b"\xff" * width + valid[offset + width:])
    if decoder.fixup is not None:
        blob = decoder.fixup(blob)
    tracemalloc.start()
    try:
        with pytest.raises(ReproError):
            decoder.decode(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000 + 8 * len(blob)


TEXT_FIELDS = [d for d in DECODERS if d.text_field is not None]


@pytest.mark.parametrize("decoder", TEXT_FIELDS,
                         ids=[d.name for d in TEXT_FIELDS])
def test_non_utf8_text_field_raises_typed(decoder):
    valid = _valid(decoder)
    offset = decoder.text_field
    blob = valid[:offset] + b"\xff" + valid[offset + 1:]
    if decoder.fixup is not None:
        blob = decoder.fixup(blob)
    with pytest.raises(ReproError):
        decoder.decode(blob)


# --- model decode errors carry no model bytes --------------------------------
#
# On the enclave path the OMGM stream is the decrypted model, so its
# tensor names and shapes must not reach exception text.


def _model_error_leaks(blob: bytes) -> list[str]:
    """Decode ``blob``; return each tensor name (quoted) or shape read
    from it that the decode error's text repeats."""
    strings, shapes = [], []
    read_string = omgm._Reader.string

    def spy_string(reader):
        strings.append(read_string(reader))
        return strings[-1]

    def spy_spec(name, shape, *rest):
        shapes.append(shape)
        return TensorSpec(name, shape, *rest)

    with mock.patch.object(omgm._Reader, "string", spy_string), \
            mock.patch.object(omgm, "TensorSpec", spy_spec):
        try:
            deserialize_model(blob)
        except ReproError as exc:
            message = str(exc)
        else:
            return []
    return ([repr(text) for text in strings if repr(text) in message]
            + [str(shape) for shape in shapes if str(shape) in message])


def _renamed_op_input() -> bytes:
    # The second "conv_b" is conv_2d's input list (tensor specs come
    # first), so the op names a tensor the model never declares.
    blob = _tiny_omgm()
    at = blob.index(b"conv_b", blob.index(b"conv_b") + 1)
    return _crc_last4_le(blob[:at] + b"cxnv_b" + blob[at + 6:])


def _resized_dim(value: int) -> bytes:
    # "conv_out" spec: the name, a rank byte, then four u32 dims.
    blob = _tiny_omgm()
    at = blob.index(b"conv_out") + len(b"conv_out") + 1 + 4
    return _crc_last4_le(blob[:at] + struct.pack("<I", value)
                         + blob[at + 4:])


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(blob=_mutation(_tiny_omgm(), _crc_last4_le))
@example(blob=_renamed_op_input())
@example(blob=_resized_dim(0))
@example(blob=_resized_dim(343605506))
def test_model_error_text_omits_stream_names_and_shapes(blob):
    assert _model_error_leaks(blob) == []
