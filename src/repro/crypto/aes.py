"""Pure-Python AES-128/192/256 block cipher (FIPS 197).

Uses the classic 32-bit T-table formulation for speed: each round is four
table lookups and three XORs per output word.  Only the raw block
transform lives here; modes of operation (CTR, GCM) are in
:mod:`repro.crypto.modes`.

Two implementations share the key schedule: the scalar
:meth:`AES.encrypt_block` / :meth:`AES.decrypt_block` reference (one
16-byte block, pure-Python ints) and the batched
:meth:`AES.encrypt_blocks` / :meth:`AES.decrypt_blocks` fast path, which
runs the same T-table rounds over N blocks at once on a contiguous
(4, N) uint32 column-word state, one table gather per byte position
and round.  The batched path is what makes CTR/GCM provisioning and
the serving path's keystream (sealing pads and frame-tag masks) fast on
the host; the scalar path stays as the bit-exact reference the
equivalence tests check against, and masks the frame tags of a lane's
first few frames.
"""

from __future__ import annotations

import functools
import struct
import sys

import numpy as np

from repro.errors import KeyError_

__all__ = ["AES"]

# --- S-box generation (computed once at import from the AES polynomial) ---


def _build_sbox() -> tuple[list[int], list[int]]:
    p, q = 1, 1
    sbox = [0] * 256
    # Generate multiplicative inverses by walking generator 3 in GF(2^8).
    while True:
        # p := p * 3
        p = p ^ ((p << 1) & 0xFF) ^ (0x1B if p & 0x80 else 0)
        # q := q / 3
        q ^= q << 1
        q ^= q << 2
        q ^= q << 4
        q &= 0xFF
        if q & 0x80:
            q ^= 0x09
        xformed = (
            q ^ ((q << 1) | (q >> 7)) ^ ((q << 2) | (q >> 6))
            ^ ((q << 3) | (q >> 5)) ^ ((q << 4) | (q >> 4))
        ) & 0xFF
        sbox[p] = xformed ^ 0x63
        if p == 1:
            break
    sbox[0] = 0x63
    inv = [0] * 256
    for i, s in enumerate(sbox):
        inv[s] = i
    return sbox, inv


_SBOX, _INV_SBOX = _build_sbox()


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_tables() -> tuple[list[list[int]], list[list[int]]]:
    enc = [[0] * 256 for _ in range(4)]
    dec = [[0] * 256 for _ in range(4)]
    for x in range(256):
        s = _SBOX[x]
        word = (
            (_gmul(s, 2) << 24) | (s << 16) | (s << 8) | _gmul(s, 3)
        )
        for t in range(4):
            enc[t][x] = word
            word = ((word >> 8) | (word << 24)) & 0xFFFFFFFF
        si = _INV_SBOX[x]
        word = (
            (_gmul(si, 14) << 24) | (_gmul(si, 9) << 16)
            | (_gmul(si, 13) << 8) | _gmul(si, 11)
        )
        for t in range(4):
            dec[t][x] = word
            word = ((word >> 8) | (word << 24)) & 0xFFFFFFFF
    return enc, dec


_TE, _TD = _build_tables()
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

# numpy mirrors of the lookup tables for the batched block path.
_TE_NP = np.array(_TE, dtype=np.uint32)          # (4, 256)
_TD_NP = np.array(_TD, dtype=np.uint32)          # (4, 256)
_SBOX_NP = np.array(_SBOX, dtype=np.uint32)      # (256,)
_INV_SBOX_NP = np.array(_INV_SBOX, dtype=np.uint32)
# Shifts placing an S-box byte at byte position p (most significant
# first) of the final round's output word.
_BYTE_SHIFTS = np.array([24, 16, 8, 0], dtype=np.uint32)[:, None]


def _msb_first_bytes(words: np.ndarray) -> np.ndarray:
    """(4, N) uint32 words -> (4 byte positions, 4, N) uint8 view, byte
    position 0 the most significant."""
    view = words.view(np.uint8).reshape(*words.shape, 4).transpose(2, 0, 1)
    return view[::-1] if sys.byteorder == "little" else view


class AES:
    """AES block cipher over 16-byte blocks for a fixed key."""

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise KeyError_(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._ek = self._expand_key(key)
        # Batched-path schedule as a (words, 1) column, broadcast over
        # the (4, N) state.
        self._ek_np = np.array(self._ek, dtype=np.uint32)[:, None]

    # CTR, GCM and frame tags only encrypt, so the decryption schedule
    # is built on the first decrypt.
    @functools.cached_property
    def _dk(self) -> list[int]:
        return self._invert_key_schedule(self._ek)

    @functools.cached_property
    def _dk_np(self) -> np.ndarray:
        return np.array(self._dk, dtype=np.uint32)[:, None]

    @staticmethod
    def _expand_key(key: bytes) -> list[int]:
        nk = len(key) // 4
        rounds = {4: 10, 6: 12, 8: 14}[nk]
        words = list(struct.unpack(f">{nk}I", key))
        for i in range(nk, 4 * (rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    def _invert_key_schedule(self, ek: list[int]) -> list[int]:
        rounds = self.rounds
        dk = [0] * len(ek)
        for i in range(0, len(ek), 4):
            dk[i:i + 4] = ek[len(ek) - 4 - i:len(ek) - i]
        # Apply InvMixColumns to all round keys except first and last.
        td0, td1, td2, td3 = _TD
        sbox = _SBOX
        for i in range(4, 4 * rounds):
            w = dk[i]
            dk[i] = (
                td0[sbox[(w >> 24) & 0xFF]]
                ^ td1[sbox[(w >> 16) & 0xFF]]
                ^ td2[sbox[(w >> 8) & 0xFF]]
                ^ td3[sbox[w & 0xFF]]
            )
        return dk

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise KeyError_("AES block must be exactly 16 bytes")
        ek = self._ek
        te0, te1, te2, te3 = _TE
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= ek[0]
        s1 ^= ek[1]
        s2 ^= ek[2]
        s3 ^= ek[3]
        k = 4
        for _ in range(self.rounds - 1):
            t0 = (
                te0[(s0 >> 24) & 0xFF] ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ ek[k]
            )
            t1 = (
                te0[(s1 >> 24) & 0xFF] ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ ek[k + 1]
            )
            t2 = (
                te0[(s2 >> 24) & 0xFF] ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ ek[k + 2]
            )
            t3 = (
                te0[(s3 >> 24) & 0xFF] ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ ek[k + 3]
            )
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4
        sbox = _SBOX
        out0 = (
            (sbox[(s0 >> 24) & 0xFF] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]
        ) ^ ek[k]
        out1 = (
            (sbox[(s1 >> 24) & 0xFF] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]
        ) ^ ek[k + 1]
        out2 = (
            (sbox[(s2 >> 24) & 0xFF] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]
        ) ^ ek[k + 2]
        out3 = (
            (sbox[(s3 >> 24) & 0xFF] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]
        ) ^ ek[k + 3]
        return struct.pack(">4I", out0 & 0xFFFFFFFF, out1 & 0xFFFFFFFF,
                           out2 & 0xFFFFFFFF, out3 & 0xFFFFFFFF)

    # --- batched fast path ---------------------------------------------

    @staticmethod
    def _blocks_to_words(blocks: np.ndarray) -> np.ndarray:
        """(N, 16) uint8 -> (4, N) native uint32 big-endian column words."""
        blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
        if blocks.ndim != 2 or blocks.shape[1] != 16:
            raise KeyError_(
                f"AES batch must have shape (N, 16), got {blocks.shape}"
            )
        return blocks.view(">u4").T.astype(np.uint32, order="C")

    @staticmethod
    def _words_to_blocks(words: np.ndarray, spare: np.ndarray) -> np.ndarray:
        """(4, N) uint32 column words -> (N, 16) uint8 big-endian bytes,
        written into ``spare``, a free (4, N) uint32 buffer."""
        out = spare.view(">u4").reshape(words.shape[1], 4)
        out[...] = words.T
        return out.view(np.uint8)

    def _transform_blocks(self, blocks: np.ndarray, schedule: np.ndarray,
                          tables: np.ndarray, final_box: np.ndarray,
                          row_order: tuple[int, int, int, int]) -> np.ndarray:
        # ``schedule`` is the (words, 1) key schedule column.
        # State: (4, N) contiguous column words, double-buffered.  Per
        # round and byte position p, the p-th byte of every word is
        # copied into one preallocated index array, gathered from table
        # p with the table row's own ``.take(..., out=)`` (the module
        # wrapper ``np.take`` costs about 40 us more per run), and XORed
        # into the next state with ShiftRows' word rotation (word j
        # reads word j + row_order[p-1]).
        # One (4, N) index per position rather than all sixteen state
        # bytes at once: at 4096 blocks it measured faster and keeps the
        # transient index at a quarter of the size.
        s = self._blocks_to_words(blocks)
        s ^= schedule[:4]
        n = s.shape[1]
        nxt = np.empty_like(s)
        index = np.empty((4, n), dtype=np.intp)
        looked = np.empty((4, n), dtype=np.uint32)
        final_tables = final_box[None, :] << _BYTE_SHIFTS
        k = 4
        for round_index in range(self.rounds):
            rows = final_tables if round_index == self.rounds - 1 else tables
            state_bytes = _msb_first_bytes(s)
            np.copyto(index, state_bytes[0])
            rows[0].take(index, out=nxt, mode="clip")
            for position, rotation in enumerate(row_order[:3], start=1):
                np.copyto(index, state_bytes[position])
                rows[position].take(index, out=looked, mode="clip")
                nxt[:4 - rotation] ^= looked[rotation:]
                if rotation:
                    nxt[4 - rotation:] ^= looked[:rotation]
            nxt ^= schedule[k:k + 4]
            s, nxt = nxt, s
            k += 4
        return self._words_to_blocks(s, nxt)

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt N blocks at once: (N, 16) uint8 -> (N, 16) uint8.

        Bit-identical to running :meth:`encrypt_block` over each row;
        the equivalence is pinned by randomized tests.
        """
        return self._transform_blocks(
            blocks, self._ek_np, _TE_NP, _SBOX_NP, (1, 2, 3, 0))

    def decrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Decrypt N blocks at once: (N, 16) uint8 -> (N, 16) uint8."""
        return self._transform_blocks(
            blocks, self._dk_np, _TD_NP, _INV_SBOX_NP, (3, 2, 1, 0))

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != 16:
            raise KeyError_("AES block must be exactly 16 bytes")
        dk = self._dk
        td0, td1, td2, td3 = _TD
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= dk[0]
        s1 ^= dk[1]
        s2 ^= dk[2]
        s3 ^= dk[3]
        k = 4
        for _ in range(self.rounds - 1):
            t0 = (
                td0[(s0 >> 24) & 0xFF] ^ td1[(s3 >> 16) & 0xFF]
                ^ td2[(s2 >> 8) & 0xFF] ^ td3[s1 & 0xFF] ^ dk[k]
            )
            t1 = (
                td0[(s1 >> 24) & 0xFF] ^ td1[(s0 >> 16) & 0xFF]
                ^ td2[(s3 >> 8) & 0xFF] ^ td3[s2 & 0xFF] ^ dk[k + 1]
            )
            t2 = (
                td0[(s2 >> 24) & 0xFF] ^ td1[(s1 >> 16) & 0xFF]
                ^ td2[(s0 >> 8) & 0xFF] ^ td3[s3 & 0xFF] ^ dk[k + 2]
            )
            t3 = (
                td0[(s3 >> 24) & 0xFF] ^ td1[(s2 >> 16) & 0xFF]
                ^ td2[(s1 >> 8) & 0xFF] ^ td3[s0 & 0xFF] ^ dk[k + 3]
            )
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4
        inv = _INV_SBOX
        out0 = (
            (inv[(s0 >> 24) & 0xFF] << 24) | (inv[(s3 >> 16) & 0xFF] << 16)
            | (inv[(s2 >> 8) & 0xFF] << 8) | inv[s1 & 0xFF]
        ) ^ dk[k]
        out1 = (
            (inv[(s1 >> 24) & 0xFF] << 24) | (inv[(s0 >> 16) & 0xFF] << 16)
            | (inv[(s3 >> 8) & 0xFF] << 8) | inv[s2 & 0xFF]
        ) ^ dk[k + 1]
        out2 = (
            (inv[(s2 >> 24) & 0xFF] << 24) | (inv[(s1 >> 16) & 0xFF] << 16)
            | (inv[(s0 >> 8) & 0xFF] << 8) | inv[s3 & 0xFF]
        ) ^ dk[k + 2]
        out3 = (
            (inv[(s3 >> 24) & 0xFF] << 24) | (inv[(s2 >> 16) & 0xFF] << 16)
            | (inv[(s1 >> 8) & 0xFF] << 8) | inv[s0 & 0xFF]
        ) ^ dk[k + 3]
        return struct.pack(">4I", out0 & 0xFFFFFFFF, out1 & 0xFFFFFFFF,
                           out2 & 0xFFFFFFFF, out3 & 0xFFFFFFFF)
