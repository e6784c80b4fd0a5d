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
colliding with the all-zero block that defines H.  The sequence number
fills J0's low 32 bits, the only bits GCM's inc32 steps, so a lane's
tag masks E_k(J0) are consecutive AES-CTR keystream blocks under its
tag key: a serving tagger reads them from its side's mask
:class:`~repro.crypto.keycache.KeystreamCache` at position J0
(:meth:`~repro.crypto.keycache.KeystreamCache.block`), in chunks, as
the sealing pads are read.

Every producer seals the same way, a single request as much as a
whole batch: ciphertexts and tags for the group first — one vectorized
XOR, then one :func:`frame_tags` sweep, which amortizes GHASH — then
each frame laid out in its reserved slot with :func:`emit_sealed`.
Every consumer copies a drained group out of the ring with
:func:`open_in_place`, verifies it against the same :func:`frame_tags`
and only then XOR-opens the frames that pass.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.crypto.hmac import hkdf
from repro.crypto.modes import frame_tags_batched
from repro.errors import KeyError_, ServeError

__all__ = ["HEADER", "TAG_BYTES", "TAG_BATCH_MIN", "TAG_BATCH_MIN_SHORT",
           "TAG_LONG_FRAME", "derive_lane_keys", "derive_lane_tag_keys",
           "frame_j0", "frame_aad", "frame_tags", "emit_sealed",
           "open_in_place"]

HEADER = struct.Struct("<II")  # session_id, request_seq
TAG_BYTES = 16

# Groups of at least TAG_BATCH_MIN frames take one batched GHASH
# sweep, smaller ones each key's scalar sweep; a group of short frames
# (every ciphertext under TAG_LONG_FRAME bytes, too short for the sweep
# to fold over lanes) needs TAG_BATCH_MIN_SHORT.  Measured crossover as
# scalar time / batched time for one group under warm keys, median of
# 150 interleaved pairs (2-vCPU Xeon VM, CPython 3.11, numpy 2.4; the
# shared host's speed drifts, the paired ratio does not), with the
# scalar kernel's one product table and single reduction per block:
#
#   frames   2107-byte ciphertext (request)      frames   13 bytes
#            1 key   2 keys  4 keys  distinct             1 key  4 keys
#     1      1.42    1.41    1.39    1.35           4     0.84   0.82
#     2      2.15    1.89    1.86    1.69           8     0.93   0.92
#     3      2.45    2.37    2.55    2.47          12     0.99   1.02
#     4      3.24    3.04    1.81    1.81          16     1.01   1.05
#     6      3.95    3.85    2.23    1.89          24     1.09   1.11
#
# 200-byte frames (unfolded) cross at 6, 400-byte (folded) at 3.  A
# single warm 2107-byte frame is faster batched, but fresh keys pay
# their own table build on either path, and the batched path's planes
# cost more to build than the scalar table: under four cold keys,
# 2107-byte groups of 1-6 frames measured 0.59-0.80 and 13-byte groups
# 0.54-0.76.  Serving's sessions start cold, so a lone frame stays
# scalar.  What that leaves on warm keys is small: serve_steady at seed
# 1, --seconds 6, forms 198 lone long-frame groups out of 2454 long
# groups; 1.35-1.42x on each of those frames (about 0.12 ms) is about
# 0.5 % of its drive phase.
TAG_LONG_FRAME = 256
TAG_BATCH_MIN = 2
TAG_BATCH_MIN_SHORT = 16

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


def frame_tags(taggers, session_ids, seqs, ciphertexts) -> list[bytes]:
    """Tags for a group of frames, one per (tagger, session, seq,
    ciphertext bytes): one batched GHASH sweep from
    :data:`TAG_BATCH_MIN` frames up (:data:`TAG_BATCH_MIN_SHORT` when
    every ciphertext is shorter than :data:`TAG_LONG_FRAME` bytes),
    each tagger's scalar sweep below.  Bit-identical either way;
    verifiers compare the result with ``constant_time_eq``, exactly as
    ``FrameTagKey.verify`` does.

    Mismatched argument lengths raise on both sides of the cutoff, so
    a short list can never drop frames from a verify pass unnoticed.
    """
    n = len(taggers)
    if not (n == len(session_ids) == len(seqs) == len(ciphertexts)):
        raise KeyError_("frame_tags: argument length mismatch")
    # TAG_BATCH_MIN <= TAG_BATCH_MIN_SHORT, so a group below it is
    # scalar whatever its frame lengths.
    if n >= TAG_BATCH_MIN and n >= (
            TAG_BATCH_MIN if max(map(len, ciphertexts)) >= TAG_LONG_FRAME
            else TAG_BATCH_MIN_SHORT):
        return frame_tags_batched(
            taggers, [frame_j0(seq) for seq in seqs],
            [frame_aad(sid, seq) for sid, seq in zip(session_ids, seqs)],
            ciphertexts)
    return [tagger.tag(frame_j0(seq), frame_aad(sid, seq), ciphertext)
            for tagger, sid, seq, ciphertext
            in zip(taggers, session_ids, seqs, ciphertexts)]


def emit_sealed(slot: np.ndarray, session_id: int, request_seq: int,
                ciphertext: np.ndarray, tag: bytes) -> int:
    """Lay out one frame whose ciphertext and tag are already computed
    (see the module docstring) in a reserved ring slot.  Returns the
    frame length to pass to ``SlotRing.commit``."""
    body_end = HEADER.size + ciphertext.size
    total = body_end + TAG_BYTES
    if total > slot.size:
        raise ServeError(
            f"frame of {total} bytes exceeds slot of {slot.size}")
    HEADER.pack_into(slot, 0, session_id, request_seq)
    slot[HEADER.size:body_end] = ciphertext
    slot.data[body_end:total] = tag
    return total


def open_in_place(
        frame: np.ndarray) -> tuple[int, int, np.ndarray, bytes] | None:
    """Parse a peeked frame: (session_id, request_seq, sealed payload,
    tag), or ``None`` for a runt frame shorter than header + tag.

    The returned payload still aliases ring memory: the caller copies
    the ciphertext out before releasing the slot, verifies the tag over
    the copy, and XOR-opens the copy only once it verifies.
    """
    if frame.size < HEADER.size + TAG_BYTES:
        return None
    session_id, request_seq = HEADER.unpack(bytes(frame[:HEADER.size]))
    return (session_id, request_seq,
            frame[HEADER.size:frame.size - TAG_BYTES],
            bytes(frame[frame.size - TAG_BYTES:]))
