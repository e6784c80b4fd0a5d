"""Wire format for serving traffic over the zero-copy rings.

A frame is a plaintext routing header, a sealed payload, and a tag::

    [session_id u32][request_seq u32][payload ^ keystream][tag 16B]

The header is routing metadata the untrusted OS needs to demultiplex;
the payload (a fingerprint on the request ring, a classification result
on the response ring) is XOR-sealed under a per-session, per-direction
AES-CTR keystream served by :class:`~repro.crypto.keycache
.KeystreamCache`.  Each direction uses its own derived key and a
position of ``request_seq * payload_len``, so every keystream byte
covers exactly one message byte — the CTR discipline that makes XOR
sealing sound.

The tag is AES-GCM's tag arm over the detached ciphertext
(:class:`~repro.crypto.modes.FrameTagKey`), with the routing header as
AAD, under a *third and fourth* per-session derived key (one per
direction).  The tag key must differ from the sealing key: a sealing
lane's first 16 keystream bytes are ``E_k(0^16)`` — exactly the GHASH
key of that lane's AES key — so tagging under the sealing key would
publish the MAC key inside the keystream.  ``J0`` is a nonzero constant
prefix plus the sequence number, unique per (key, frame) and never
colliding with the all-zero block that defines H.

Seal and open are *in place* on ring-slot views: no intermediate
buffers, no per-message allocation.  Producers that batch (the
service's egress path) compute ciphertexts and tags for a whole
dispatch batch first — :func:`~repro.crypto.modes.frame_tags_batched`
amortizes the GHASH sweep — then lay frames out with
:func:`emit_sealed`.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.crypto.hmac import hkdf
from repro.errors import ServeError

__all__ = ["HEADER", "TAG_BYTES", "derive_lane_keys",
           "derive_lane_tag_keys", "frame_j0", "frame_aad", "seal_into",
           "emit_sealed", "open_in_place"]

HEADER = struct.Struct("<II")  # session_id, request_seq
TAG_BYTES = 16

_LANE_SALT = b"omg-serve-v1"
_J0_PREFIX = (1).to_bytes(8, "big")


def derive_lane_keys(master: bytes) -> tuple[bytes, bytes]:
    """Per-direction AES sealing keys for one session:
    (request, response)."""
    return (hkdf(master, _LANE_SALT, b"lane-request", 16),
            hkdf(master, _LANE_SALT, b"lane-response", 16))


def derive_lane_tag_keys(master: bytes) -> tuple[bytes, bytes]:
    """Per-direction frame-tag keys, independent of the sealing keys
    (see the module docstring for why they must be)."""
    return (hkdf(master, _LANE_SALT, b"lane-request-tag", 16),
            hkdf(master, _LANE_SALT, b"lane-response-tag", 16))


def frame_j0(request_seq: int) -> bytes:
    """The tag pre-counter for one frame: nonzero prefix || sequence."""
    return _J0_PREFIX + request_seq.to_bytes(8, "big")


def frame_aad(session_id: int, request_seq: int) -> bytes:
    """What the tag authenticates beyond the ciphertext: the routing
    header exactly as it travels."""
    return HEADER.pack(session_id, request_seq)


def seal_into(slot: np.ndarray, session_id: int, request_seq: int,
              payload: np.ndarray, keystream: np.ndarray, tagger) -> int:
    """Write header + sealed payload + tag into a reserved ring slot.

    Single-frame producer path (the client side): the tag comes from
    ``tagger``'s scalar sweep.  Returns the frame length to pass to
    ``SlotRing.commit``.
    """
    body_end = HEADER.size + payload.size
    total = body_end + TAG_BYTES
    if total > slot.size:
        raise ServeError(
            f"frame of {total} bytes exceeds slot of {slot.size}")
    header = HEADER.pack(session_id, request_seq)
    slot[:HEADER.size] = np.frombuffer(header, dtype=np.uint8)
    body = slot[HEADER.size:body_end]
    np.bitwise_xor(payload, keystream, out=body)
    tag = tagger.tag(frame_j0(request_seq), header, body.tobytes())
    slot[body_end:total] = np.frombuffer(tag, dtype=np.uint8)
    return total


def emit_sealed(slot: np.ndarray, session_id: int, request_seq: int,
                ciphertext: np.ndarray, tag: bytes) -> int:
    """Batched producer path: ciphertext and tag precomputed (one
    vectorized XOR and one :func:`~repro.crypto.modes
    .frame_tags_batched` sweep for the whole batch); just lay out the
    frame.  Returns the frame length."""
    body_end = HEADER.size + ciphertext.size
    total = body_end + TAG_BYTES
    if total > slot.size:
        raise ServeError(
            f"frame of {total} bytes exceeds slot of {slot.size}")
    slot[:HEADER.size] = np.frombuffer(
        HEADER.pack(session_id, request_seq), dtype=np.uint8)
    slot[HEADER.size:body_end] = ciphertext
    slot[body_end:total] = np.frombuffer(tag, dtype=np.uint8)
    return total


def open_in_place(frame: np.ndarray) -> tuple[int, int, np.ndarray, bytes]:
    """Parse a peeked frame: (session_id, request_seq, sealed payload,
    tag).

    The returned payload still aliases ring memory; the caller verifies
    the tag over a copy of the ciphertext *before* XOR-opening in place,
    and must copy anything it keeps before releasing the slot.
    """
    if frame.size < HEADER.size + TAG_BYTES:
        raise ServeError("runt serving frame")
    session_id, request_seq = HEADER.unpack(bytes(frame[:HEADER.size]))
    return (session_id, request_seq,
            frame[HEADER.size:frame.size - TAG_BYTES],
            bytes(frame[frame.size - TAG_BYTES:]))
