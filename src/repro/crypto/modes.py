"""AES modes of operation: CTR keystream and GCM authenticated encryption.

OMG provisions the vendor's model as AES-GCM ciphertext: confidentiality
protects the IP, the tag binds the ciphertext to the per-enclave key and
nonce so a tampered or rolled-back model fails authentication inside the
enclave (paper §V, steps 3-6).

Both primitives have two implementations.  The fast path encrypts a
CTR run of up to ``CTR_SCALAR_BLOCKS`` blocks one counter at a time and
generates a longer run's counter blocks in one pass for the batched
T-table AES (:meth:`repro.crypto.aes.AES.encrypt_blocks`), and runs GHASH on
one engine (:class:`_TableGhash`, shared by :class:`GCM` and
:class:`FrameTagKey`) over precomputed byte-multiplication tables: a
scalar kernel over one 256-entry product table for short inputs, and
one numpy gather sweep (:func:`_frame_ghash`) for long messages and for
groups of frame tags (:func:`frame_tags_batched`), folded lane-parallel
so the sequential Horner chain shrinks by the lane width.  A frame
tag's mask E_k(J0) is one AES block, which a serving tagger reads from
its side's :class:`~repro.crypto.keycache.KeystreamCache`
(:class:`FrameTagKey`).
The scalar reference path (the original per-block code) is retained for
the randomized equivalence tests; construct ``GCM(key, reference=True)``
or call the ``*_reference`` helpers to use it.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from repro.crypto.aes import AES
from repro.crypto.hmac import constant_time_eq
from repro.errors import AuthenticationError, KeyError_

__all__ = ["CTR_SCALAR_BLOCKS", "ctr_keystream", "ctr_keystream_xor",
           "ctr_keystream_xor_reference", "GCM", "gcm_encrypt",
           "gcm_decrypt", "FrameTagKey", "frame_tags_batched"]

_MASK64 = (1 << 64) - 1
_MASK120 = (1 << 120) - 1

def _inc32(counter: bytes) -> bytes:
    prefix, value = counter[:12], struct.unpack(">I", counter[12:])[0]
    return prefix + struct.pack(">I", (value + 1) & 0xFFFFFFFF)


def ctr_keystream_xor_reference(cipher: AES, initial_counter: bytes,
                                data: bytes) -> bytes:
    """Scalar reference: one :meth:`AES.encrypt_block` per 16-byte block."""
    if len(initial_counter) != 16:
        raise KeyError_("CTR counter block must be 16 bytes")
    out = bytearray(len(data))
    counter = initial_counter
    for offset in range(0, len(data), 16):
        keystream = cipher.encrypt_block(counter)
        chunk = data[offset:offset + 16]
        for i, byte in enumerate(chunk):
            out[offset + i] = byte ^ keystream[i]
        counter = _inc32(counter)
    return bytes(out)


# Runs of at most CTR_SCALAR_BLOCKS blocks go through AES.encrypt_block
# one counter at a time: a batched run's fixed cost is about nine scalar
# blocks.  Medians of 41 interleaved runs, 2-vCPU VM, one BLAS thread:
#
#   blocks            1     4     8     9    10    12    16   256
#   scalar (us)      16    62   123   138   151   178   240  4160
#   one batch (us)  151   144   145   145   145   141   143   239
#
# Through ctr_keystream on a loaded host, 8 scalar blocks read 194-226
# us against 253-324 us for one batched run of 9.
CTR_SCALAR_BLOCKS = 8


def ctr_keystream(cipher: AES, initial_counter: bytes,
                  n_blocks: int) -> np.ndarray:
    """``n_blocks`` of AES-CTR keystream from ``initial_counter`` as a
    fresh, writable (n_blocks, 16) uint8 array.

    A run of up to ``CTR_SCALAR_BLOCKS`` blocks encrypts each counter
    with :meth:`AES.encrypt_block`; a longer one generates every
    counter block in one pass and encrypts them as a single batch, so
    the cost per block is a few numpy operations instead of a full
    Python round function.  Both give the same bytes.
    """
    if len(initial_counter) != 16:
        raise KeyError_("CTR counter block must be 16 bytes")
    if not n_blocks:
        return np.empty((0, 16), dtype=np.uint8)
    start = struct.unpack(">I", initial_counter[12:])[0]
    if n_blocks <= CTR_SCALAR_BLOCKS:
        prefix, stream = initial_counter[:12], bytearray()
        for value in range(start, start + n_blocks):
            stream += cipher.encrypt_block(
                prefix + struct.pack(">I", value & 0xFFFFFFFF))
        # An owning copy: a cached short run is then one array, not a
        # chain of views over a bytearray.
        return np.frombuffer(stream, np.uint8).reshape(n_blocks, 16).copy()
    counters = np.empty((n_blocks, 16), dtype=np.uint8)
    counters[:, :12] = np.frombuffer(initial_counter[:12], dtype=np.uint8)
    values = ((start + np.arange(n_blocks, dtype=np.uint64))
              & 0xFFFFFFFF).astype(np.uint32)
    counters[:, 12:] = values.astype(">u4").view(np.uint8).reshape(-1, 4)
    return cipher.encrypt_blocks(counters)


def ctr_keystream_xor(cipher: AES, initial_counter: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the AES-CTR keystream starting at
    ``initial_counter`` (one :func:`ctr_keystream` run)."""
    keystream = ctr_keystream(
        cipher, initial_counter, (len(data) + 15) // 16).reshape(-1)
    return (np.frombuffer(data, dtype=np.uint8)
            ^ keystream[:len(data)]).tobytes()


class _TableGhash:
    """The one GHASH engine, shared by :class:`GCM` and
    :class:`FrameTagKey`.

    The scalar kernel multiplies by H through one 256-entry product
    table ``_table``, ``M[b] == (b << 120) * H`` (256 ints, about 14 KB
    per key), which the reference ``GCM._ghash_block`` reads too.  One
    block is a 16-term XOR of lookups indexed by the bytes of ``state ^
    block``, each shifted into place within its 32-bit group and placed
    unreduced, then one reduction.  The batched sweep
    (:func:`_ghash_many`) gathers from numpy planes of the same
    products, ``_planes`` for H and ``_fold_planes`` for
    H^_FOLD_LANES.  Every table is built on first use from the
    subclass's ``_h``, so a key that never hashes pays nothing and a
    short-message key never builds the planes.
    """

    _h: int

    @functools.cached_property
    def _table(self) -> list[int]:
        # Built by linearity from the single-bit products, not by
        # GCM._gf_mul.
        return _byte_row(_bit_basis(self._h))

    @functools.cached_property
    def _planes(self) -> np.ndarray:
        return _gather_plane(self._h)

    @functools.cached_property
    def _fold_planes(self) -> np.ndarray:
        # H^_FOLD_LANES is the GHASH of H followed by _FOLD_LANES - 2
        # zero blocks (one multiply-by-H per block), swept on the H
        # plane so the batched path never builds the scalar table.
        h = self._h
        words = np.zeros((1, 2 * (_FOLD_LANES - 1)), dtype=np.uint64)
        words[0, :2] = (h >> 64, h & _MASK64)
        hi, lo = _frame_ghash([self], np.zeros(1, dtype=np.intp), words, 1)[0]
        return _gather_plane((int(hi) << 64) | int(lo))

    def _ghash_scalar(self, state: int, data: bytes) -> int:
        """Horner sweep ``state = (state ^ block) * H`` over the whole
        16-byte blocks of ``data``."""
        # Byte j of a big-endian block multiplies H by x^(8j): its
        # product M[b] lands at bit offset 120 - 8j of an unreduced
        # value V of up to 248 bits, four lookups per 32-bit group.
        t = self._table
        from_bytes = int.from_bytes
        for offset in range(0, len(data), 16):
            b = (state ^ from_bytes(data[offset:offset + 16], "big")
                 ).to_bytes(16, "big")
            v = ((((t[b[0]] << 24 ^ t[b[1]] << 16 ^ t[b[2]] << 8
                    ^ t[b[3]]) << 32
                   ^ t[b[4]] << 24 ^ t[b[5]] << 16 ^ t[b[6]] << 8
                   ^ t[b[7]]) << 32
                  ^ t[b[8]] << 24 ^ t[b[9]] << 16 ^ t[b[10]] << 8
                  ^ t[b[11]]) << 32
                 ^ t[b[12]] << 24 ^ t[b[13]] << 16 ^ t[b[14]] << 8
                 ^ t[b[15]])
            # The low 120 bits of V hold degrees 128..247; fold them
            # back with x^128 = x^7 + x^2 + x + 1 (reflected order).
            # The fold stays below degree 127, so once is enough.
            w = (v & _MASK120) << 8
            state = (v >> 120) ^ w ^ (w >> 1) ^ (w >> 2) ^ (w >> 7)
        return state


class GCM(_TableGhash):
    """AES-GCM (NIST SP 800-38D): CTR plus the shared GHASH engine.

    Short inputs run the scalar kernel (16 product-table lookups and
    one reduction per block, :class:`_TableGhash`).  From
    ``_BATCH_MIN`` blocks up a message takes the frame tags' batched
    sweep as a group of one, folded over ``_FOLD_LANES`` lanes — which
    is what keeps provisioning of multi-kB models off the per-block
    Python path.
    """

    tag_size = 16
    _BATCH_MIN = 256     # below this many blocks the scalar tables win

    def __init__(self, key: bytes, reference: bool = False) -> None:
        self._aes = AES(key)
        self._reference = reference
        self._h = int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")

    # --- reference field arithmetic (retained for equivalence tests) ---

    @staticmethod
    def _gf_mul(x: int, y: int) -> int:
        # Right-shift based multiplication in GF(2^128), reflected bits.
        result = 0
        for i in range(127, -1, -1):
            if (y >> i) & 1:
                result ^= x
            if x & 1:
                x = (x >> 1) ^ (0xE1 << 120)
            else:
                x >>= 1
        return result

    def _ghash_block(self, state: int, block: bytes) -> int:
        state ^= int.from_bytes(block, "big")
        table = self._table
        result = 0
        for _ in range(16):
            byte = state & 0xFF
            state >>= 8
            # Multiplying by x^8 in this reflected field == shifting the
            # accumulated product right by 8 bits with reduction.
            result = self._shift_right_8(result) ^ table[byte]
        return result

    @staticmethod
    def _shift_right_8(x: int) -> int:
        low = x & 0xFF
        x >>= 8
        # Reduce the 8 bits that fell off the low end: each corresponds
        # to multiplying by x^(128+k); precompute via R = 0xE1 << 120.
        for i in range(8):
            if (low >> i) & 1:
                x ^= _REDUCE[i]
        return x

    # --- GHASH ------------------------------------------------------------

    def _ghash(self, aad: bytes, ciphertext: bytes) -> bytes:
        """GHASH of one :func:`_tag_padded` message, as 16 bytes."""
        padded = _tag_padded(aad, ciphertext)
        if self._reference:
            state = 0
            for offset in range(0, len(padded), 16):
                state = self._ghash_block(state, padded[offset:offset + 16])
        elif len(padded) < 16 * self._BATCH_MIN:
            state = self._ghash_scalar(0, padded)
        else:
            return _ghash_many([self], [padded])[0].tobytes()
        return state.to_bytes(16, "big")

    def _j0(self, nonce: bytes) -> bytes:
        if not nonce:
            # An empty nonce would GHASH to J0 = 0^128, and the tag
            # mask E_k(J0) would be the GHASH key H itself.
            raise KeyError_("GCM nonce must be non-empty")
        if len(nonce) == 12:
            return nonce + b"\x00\x00\x00\x01"
        return self._ghash(b"", nonce)

    def _ctr(self, counter: bytes, data: bytes) -> bytes:
        if self._reference:
            return ctr_keystream_xor_reference(self._aes, counter, data)
        return ctr_keystream_xor(self._aes, counter, data)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)`` for ``plaintext`` under ``nonce``."""
        j0 = self._j0(nonce)
        ciphertext = self._ctr(_inc32(j0), plaintext)
        s = self._ghash(aad, ciphertext)
        tag = bytes(a ^ b for a, b in zip(self._aes.encrypt_block(j0), s))
        return ciphertext, tag

    def decrypt(self, nonce: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify ``tag`` and return the plaintext; raise on mismatch."""
        j0 = self._j0(nonce)
        s = self._ghash(aad, ciphertext)
        expected = bytes(a ^ b for a, b in zip(self._aes.encrypt_block(j0), s))
        if not constant_time_eq(expected, tag):
            raise AuthenticationError("GCM tag verification failed")
        return self._ctr(_inc32(j0), ciphertext)


# Reduction constants for the 8 low bits falling off during a >>8 shift.
def _build_reduce() -> list[int]:
    consts = []
    r = 0xE1 << 120
    for i in range(8):
        # bit i (value x^(127-i) conceptually) reduces to R shifted.
        value = r
        for _ in range(7 - i):
            if value & 1:
                value = (value >> 1) ^ (0xE1 << 120)
            else:
                value >>= 1
        consts.append(value)
    return consts


_REDUCE = _build_reduce()

# _RED8[b]: reduction for a whole dropped byte b == XOR of _REDUCE bits.
_RED8 = [0] * 256
for _b in range(256):
    for _i in range(8):
        if (_b >> _i) & 1:
            _RED8[_b] ^= _REDUCE[_i]


def _bit_basis(h: int) -> list[int]:
    """``basis[i] == ((1 << i) << 120) * H``: the single-bit products of
    the most significant byte position, by repeated multiply-by-x."""
    basis = [0] * 8
    value = h  # (0x80 << 120) is the field identity, so bit 7 maps to H
    for bit in range(7, -1, -1):
        basis[bit] = value
        value = (value >> 1) ^ ((0xE1 << 120) & -(value & 1))
    return basis


def _byte_row(basis: list[int]) -> list[int]:
    """``row[b]`` = XOR of ``basis[i]`` over the set bits ``i`` of ``b``
    (GF(2)-linearity), doubling the row once per basis value."""
    row = [0]
    for value in basis:
        row += [x ^ value for x in row]
    return row


def _row_bases(h: int) -> list[list[int]]:
    """``bases[k][i] == ((1 << i) << 8k) * H``: the eight single-bit
    products of every byte significance ``k``.

    The top row is :func:`_bit_basis`; each lower row's basis is the
    row above shifted right one byte with reduction (multiplication by
    x^8 in the reflected field).
    """
    bases = []
    basis = _bit_basis(h)
    for _ in range(16):   # k = 15 down to 0
        bases.append(basis)
        basis = [(v >> 8) ^ _RED8[v & 0xFF] for v in basis]
    bases.reverse()
    return bases


# --- detached frame tags (serving rings) -----------------------------------

def _check_j0(j0: bytes) -> bytes:
    j0 = bytes(j0)
    if len(j0) != 16:
        raise KeyError_("frame tag J0 must be 16 bytes")
    if j0 == b"\x00" * 16:
        # E_k(0^16) is the GHASH key H itself; masking a tag with it
        # would hand the MAC key to anyone holding one tagged frame.
        raise KeyError_("frame tag J0 must be nonzero")
    return j0


def _tag_padded(aad: bytes, ciphertext: bytes) -> bytes:
    """The GHASH input for one detached-tag message: zero-padded AAD,
    zero-padded ciphertext, then the bit-length block."""
    return (aad + b"\x00" * ((-len(aad)) % 16)
            + ciphertext + b"\x00" * ((-len(ciphertext)) % 16)
            + struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8))


class FrameTagKey(_TableGhash):
    """One lane's frame-MAC key: AES-GCM's tag arm over a detached
    ciphertext.

    ``tag = E_k(J0) ^ GHASH_H(aad, ciphertext)`` with ``H =
    E_k(0^128)`` — exactly the tag AES-GCM would emit for that
    ciphertext.  The serving rings encrypt under a *different* per-lane
    CTR key (encrypt-then-MAC): the tag key must be separate because a
    sealing lane's first 16 keystream bytes *are* ``E_k(0^16)``, i.e.
    the GHASH key of that lane's AES key.

    :meth:`tag` runs the engine's scalar kernel; :func:`frame_tags_batched`
    sweeps a group of frames at once through its gather planes.  Both
    take their masks from :meth:`_mask`.  Given ``masks``, a mask is
    ``masks(cipher, j0)``: serving passes its side's mask
    :meth:`KeystreamCache.block <repro.crypto.keycache.KeystreamCache.block>`
    for the session, since a lane's J0s are consecutive CTR counters,
    so that cache holds a lane's masks as keystream and scrubs them
    with the session.  Without it a mask is one
    :meth:`AES.encrypt_block` of J0, GCM's own definition.
    """

    def __init__(self, key: bytes, masks=None) -> None:
        self._aes = AES(bytes(key))
        self._masks = masks

    @property
    def _h(self) -> int:
        return int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")

    def _mask(self, j0: bytes) -> bytes:
        """``E_k(J0)`` for one frame; raises on a malformed ``J0``, so
        no mask is ``E_k(0^128) = H``."""
        j0 = _check_j0(j0)
        if self._masks is None:
            return self._aes.encrypt_block(j0)
        return self._masks(self._aes, j0)

    def scrub(self) -> None:
        """Drop the H-derived tables (a later tag rebuilds them)."""
        for name in ("_table", "_planes", "_fold_planes"):
            vars(self).pop(name, None)

    def tag(self, j0: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        """Scalar single-frame tag (one 16-lookup step per block)."""
        mask = int.from_bytes(self._mask(j0), "big")
        state = self._ghash_scalar(0, _tag_padded(aad, ciphertext))
        return (state ^ mask).to_bytes(16, "big")

    def verify(self, j0: bytes, aad: bytes, ciphertext: bytes,
               tag: bytes) -> bool:
        return constant_time_eq(self.tag(j0, aad, ciphertext), tag)


# The gather planes index a native-order (hi, lo) uint64 state pair
# through its uint8 view: view byte v holds bit significance
# _VIEW_SIGNIFICANCE[v] of the 128-bit state (LSB byte is 0).
_VIEW_SIGNIFICANCE = 15 - np.frombuffer(
    bytes(range(16)), dtype=">u8").astype(np.uint64).view(np.uint8)
_PLANE_ROWS = 16 * 256
_PLANE_OFFSETS = (np.arange(16, dtype=np.intp) * 256)[:, None]


def _gather_plane(multiplier: int) -> np.ndarray:
    """Multiply-by-``multiplier`` as one flat (16 * 256,) plane of
    16-byte (hi, lo) entries: entry ``v * 256 + b`` is ``b`` placed at
    view byte ``v`` of the state, times the multiplier.

    Each of the sixteen byte tables is doubled out of its
    :func:`_row_bases` basis in numpy, as :func:`_byte_row` does in
    Python, then the tables are reordered from significance to view
    byte.
    """
    bases = np.frombuffer(b"".join(
        value.to_bytes(16, "big") for basis in _row_bases(multiplier)
        for value in basis), dtype=">u8").astype(np.uint64).reshape(16, 8, 2)
    rows = np.zeros((16, 1, 2), dtype=np.uint64)
    for bit in range(8):
        rows = np.concatenate([rows, rows ^ bases[:, bit:bit + 1]], axis=1)
    return rows[_VIEW_SIGNIFICANCE].reshape(-1).view(np.dtype("V16"))


# Lane width of the two-level fold for long messages: a message's
# blocks are interleaved over this many Horner lanes (multiplier
# H^_FOLD_LANES), cutting the sequential sweep length by the width at
# the price of _FOLD_LANES combine steps at the end.
_FOLD_LANES = 8

def _frame_ghash(owners, key_map: np.ndarray, words: np.ndarray,
                 lanes: int) -> np.ndarray:
    """GHASH of N messages at once, message i under ``owners[key_map[i]]``.

    ``words`` is (N, blocks * 2) native uint64, each message
    front-padded with zero blocks to a common whole number of
    ``lanes``-block rows.  Returns the (N, 2) (hi, lo) states.

    Each Horner step is one gather: the uint8 view of every state row,
    offset into its key's slice of the concatenated planes, indexes
    sixteen 16-byte products, which XOR-reduce to the new state.
    """
    n = len(key_map)
    offsets = key_map * _PLANE_ROWS + _PLANE_OFFSETS              # (16, N)
    planes = np.concatenate([key._planes for key in owners])
    if lanes == 1:
        fold, fold_offsets = planes, offsets
    else:
        fold = np.concatenate([key._fold_planes for key in owners])
        fold_offsets = np.repeat(offsets, lanes, axis=1)
    # Two-level fold: lane l of message i accumulates blocks
    # l, l+lanes, l+2*lanes, ... under multiplier H^lanes
    # (multiply-then-xor, so lane sums carry H^(rows-1-r)), then the
    # lane sums Horner-combine under H, restoring the per-position
    # exponents of the flat sweep.  One lane is the flat sweep itself.
    # rows[r] holds block row r of every message, lanes adjacent.
    rows = words.reshape(n, -1, lanes * 2).transpose(1, 0, 2).reshape(
        -1, n * lanes, 2)
    state = rows[0].copy()
    for row in rows[1:]:
        products = fold[state.view(np.uint8).T + fold_offsets]
        state = np.bitwise_xor.reduce(
            products.view(np.uint64).reshape(16, -1, 2), axis=0)
        state ^= row
    lane_sums = state.reshape(n, lanes, 2)
    state = np.zeros((n, 2), dtype=np.uint64)
    for lane in range(lanes):
        state ^= lane_sums[:, lane]
        products = planes[state.view(np.uint8).T + offsets]
        state = np.bitwise_xor.reduce(
            products.view(np.uint64).reshape(16, -1, 2), axis=0)
    return state


def _ghash_many(keys, messages: list[bytes]) -> np.ndarray:
    """GHASH of N whole-block messages in one :func:`_frame_ghash`
    sweep, message i under ``keys[i]``; returns the (N, 16) uint8
    big-endian states.

    Shorter messages are front-padded with zero blocks, which leave a
    Horner state of zero unchanged; from ``2 * _FOLD_LANES`` blocks up
    the sweep folds over ``_FOLD_LANES`` lanes.  Keys repeated across
    messages share one slice of the concatenated planes.
    """
    n = len(keys)
    n_blocks = max(len(message) for message in messages) // 16
    lanes = _FOLD_LANES if n_blocks >= 2 * _FOLD_LANES else 1
    n_blocks = (n_blocks + lanes - 1) // lanes * lanes
    blocks = np.zeros((n, n_blocks * 16), dtype=np.uint8)
    for i, message in enumerate(messages):
        blocks[i, blocks.shape[1] - len(message):] = np.frombuffer(
            message, dtype=np.uint8)

    owners: list[_TableGhash] = []
    slots: dict[int, int] = {}
    key_map = np.empty(n, dtype=np.intp)
    for i, key in enumerate(keys):
        slot = slots.get(id(key))
        if slot is None:
            slot = slots[id(key)] = len(owners)
            owners.append(key)
        key_map[i] = slot
    state = _frame_ghash(owners, key_map,
                         blocks.view(">u8").astype(np.uint64), lanes)
    return state.astype(">u8").view(np.uint8).reshape(n, 16)


def frame_tags_batched(keys, j0s, aads, ciphertexts) -> list[bytes]:
    """Detached GCM tags for N frames in one table-driven GHASH sweep.

    One Horner step per *block position*, vectorized across every frame
    (and across the 16 state bytes via the gather planes), instead of N
    independent per-block chains; long messages additionally fold their
    own blocks over ``_FOLD_LANES`` parallel lanes, so a kB-scale frame
    costs ``blocks / lanes + lanes`` steps rather than ``blocks``.
    Frames may carry different :class:`FrameTagKey`\\ s — each message
    gathers from its own key's slice of the concatenated planes — and
    different lengths — shorter messages are front-padded with zero
    blocks, which leave a Horner state of zero unchanged.  Bit-identical
    to :meth:`FrameTagKey.tag` per frame, whose masks it shares.
    """
    n = len(keys)
    if not (n == len(j0s) == len(aads) == len(ciphertexts)):
        raise KeyError_("frame_tags_batched: argument length mismatch")
    if n == 0:
        return []
    masks = np.frombuffer(b"".join(key._mask(j0)
                                    for key, j0 in zip(keys, j0s)),
                          dtype=np.uint8).reshape(n, 16)
    state = _ghash_many(keys, [_tag_padded(aad, ct)
                               for aad, ct in zip(aads, ciphertexts)])
    return [tag.tobytes() for tag in state ^ masks]


def gcm_encrypt(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """One-shot GCM encryption returning ``nonce || ciphertext || tag``."""
    ciphertext, tag = GCM(key).encrypt(nonce, plaintext, aad)
    return nonce + ciphertext + tag


def gcm_decrypt(key: bytes, blob: bytes, aad: bytes = b"", nonce_size: int = 12) -> bytes:
    """One-shot GCM decryption of a ``nonce || ciphertext || tag`` blob."""
    if len(blob) < nonce_size + GCM.tag_size:
        raise AuthenticationError("GCM blob too short")
    nonce = blob[:nonce_size]
    ciphertext = blob[nonce_size:-GCM.tag_size]
    tag = blob[-GCM.tag_size:]
    return GCM(key).decrypt(nonce, ciphertext, tag, aad)
