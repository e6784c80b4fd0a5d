"""Secure channel between the enclave and the vendor (TLS-like).

Paper §V: the attestation report is "sent to V using a secure connection
(e.g., via TLS) directly from the enclave".  The simulation implements
the essential structure: an RSA-OAEP key exchange bootstraps a pair of
AES-GCM directions with sequence-number nonces, so confidentiality,
integrity, and replay protection hold against the normal world relaying
the bytes.  Traffic counters feed the protocol benchmarks.
"""

from __future__ import annotations

import struct
from collections import OrderedDict

from repro.core.retry import DEFAULT_RETRYABLE, BackoffPolicy, retry_call
from repro.crypto.hmac import hkdf
from repro.crypto.modes import GCM
from repro.crypto.rng import HmacDrbg
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import ChannelTimeout, ProtocolError
from repro.faults import hooks as _faults

__all__ = ["SecureChannel", "ChannelEndpoint", "ReliableRequester",
           "ReliableResponder", "reliable_link"]


class ChannelEndpoint:
    """One direction-aware end of an established channel."""

    def __init__(self, send_key: bytes, recv_key: bytes) -> None:
        self._send_gcm = GCM(send_key)
        self._recv_gcm = GCM(recv_key)
        self._send_seq = 0
        self._recv_seq = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.key_exchange_bytes = 0  # set on the initiator's end

    @staticmethod
    def _nonce(sequence: int) -> bytes:
        return b"\x00" * 4 + struct.pack(">Q", sequence)

    def seal(self, plaintext: bytes) -> bytes:
        """Encrypt one record for the peer."""
        record = self.seal_at(self._send_seq, plaintext)
        self._send_seq += 1
        return record

    def open(self, record: bytes) -> bytes:
        """Decrypt and verify one record from the peer."""
        plaintext = self.open_at(self._recv_seq, record)
        self._recv_seq += 1
        return plaintext

    def seal_at(self, sequence: int, plaintext: bytes) -> bytes:
        """Encrypt one record at an explicit sequence number.

        Retransmissions use the *same* sequence, so the reliable layer
        below re-seals deterministically (same key, same nonce, same
        plaintext — identical ciphertext, nothing new leaks) and the
        peer can deduplicate by sequence.  Does not advance the
        implicit-sequence counters used by :meth:`seal`/:meth:`open`.
        """
        nonce = self._nonce(sequence)
        ciphertext, tag = self._send_gcm.encrypt(nonce, plaintext)
        record = ciphertext + tag
        if _faults.PLAN is not None:
            record = _faults.PLAN.channel_frame("channel.seal", record)
        self.bytes_sent += len(record)
        return record

    def open_at(self, sequence: int, record: bytes) -> bytes:
        """Decrypt one record at an explicit sequence number."""
        if _faults.PLAN is not None:
            record = _faults.PLAN.channel_frame("channel.open", record)
        if len(record) < GCM.tag_size:
            raise ProtocolError("channel record too short")
        nonce = self._nonce(sequence)
        ciphertext, tag = record[:-GCM.tag_size], record[-GCM.tag_size:]
        plaintext = self._recv_gcm.decrypt(nonce, ciphertext, tag)
        self.bytes_received += len(record)
        return plaintext


class SecureChannel:
    """Establishes a paired set of endpoints via RSA key transport.

    The *initiator* (enclave) knows the responder's (vendor's) public
    key — in OMG's setting the vendor key is baked into the open-source
    enclave code — generates a fresh master secret, and sends it under
    RSA-OAEP.  Both sides derive direction keys with HKDF.
    """

    # 24 bytes keeps the key exchange inside OAEP's capacity for the
    # smallest key size the test suite uses (768-bit RSA).
    MASTER_SIZE = 24

    @staticmethod
    def connect(responder_pk: RsaPublicKey, rng: HmacDrbg
                ) -> tuple[ChannelEndpoint, bytes]:
        """Initiator side: returns (endpoint, key_exchange_message)."""
        master = rng.generate(SecureChannel.MASTER_SIZE)
        client_key = hkdf(master, b"omg-channel", b"client->server", 16)
        server_key = hkdf(master, b"omg-channel", b"server->client", 16)
        endpoint = ChannelEndpoint(send_key=client_key, recv_key=server_key)
        message = responder_pk.encrypt_oaep(master, rng)
        endpoint.key_exchange_bytes = len(message)
        return endpoint, message

    @staticmethod
    def accept(responder_sk: RsaPrivateKey,
               key_exchange_message: bytes) -> ChannelEndpoint:
        """Responder side: recover the master secret, derive keys."""
        master = responder_sk.decrypt_oaep(key_exchange_message)
        if len(master) != SecureChannel.MASTER_SIZE:
            raise ProtocolError("malformed channel key exchange")
        client_key = hkdf(master, b"omg-channel", b"client->server", 16)
        server_key = hkdf(master, b"omg-channel", b"server->client", 16)
        return ChannelEndpoint(send_key=server_key, recv_key=client_key)


# --- reliable request/response on top of a lossy relay ---------------------

_FRAME_SEQ = struct.Struct(">Q")


class ReliableRequester:
    """At-most-once RPC over an untrusted, lossy relay.

    Each request carries an explicit sequence number (the GCM nonce is
    derived from it), so a retransmission is byte-identical and the
    responder can deduplicate.  Failed deliveries — dropped frames,
    corrupted frames (GCM tag failure), injected faults — are retried
    with exponential backoff on the *virtual* clock, bounded by the
    policy and an optional per-request deadline.
    """

    def __init__(self, endpoint: ChannelEndpoint, clock,
                 policy: BackoffPolicy | None = None,
                 backoff_rng: HmacDrbg | None = None) -> None:
        self.endpoint = endpoint
        self.clock = clock
        self.policy = policy or BackoffPolicy()
        self._rng = backoff_rng or HmacDrbg(b"reliable-requester")
        self._seq = 0
        self.attempts = 0

    def request(self, payload: bytes, deliver,
                fatal: tuple[type[BaseException], ...] = (),
                timeout_ms: float | None = None,
                description: str = "request") -> bytes:
        """Send ``payload``; return the peer's response plaintext.

        ``deliver`` is the untrusted relay: it takes the request frame
        and returns the response frame (or ``None`` for a lost
        response).  Raises :class:`~repro.errors.RetryExhausted` or
        :class:`~repro.errors.ChannelTimeout` when resilience runs out.
        """
        sequence = self._seq
        self._seq += 1
        deadline = (None if timeout_ms is None
                    else self.clock.now_ms + timeout_ms)

        def attempt() -> bytes:
            self.attempts += 1
            # Re-seal every attempt: a corrupt-on-seal fault mangles
            # only that attempt's copy of the frame.
            frame = (_FRAME_SEQ.pack(sequence)
                     + self.endpoint.seal_at(sequence, payload))
            response = deliver(frame)
            if response is None:
                raise ChannelTimeout(f"{description}: no response "
                                     f"for sequence {sequence}")
            if len(response) < _FRAME_SEQ.size:
                raise ProtocolError(f"{description}: runt response frame")
            (response_seq,) = _FRAME_SEQ.unpack(
                response[:_FRAME_SEQ.size])
            if response_seq != sequence:
                raise ProtocolError(
                    f"{description}: response for sequence "
                    f"{response_seq}, expected {sequence}")
            return self.endpoint.open_at(response_seq,
                                         response[_FRAME_SEQ.size:])

        return retry_call(
            attempt, clock=self.clock, policy=self.policy, rng=self._rng,
            retryable=DEFAULT_RETRYABLE, fatal=fatal,
            deadline_ms=deadline, description=description)


class ReliableResponder:
    """Peer of :class:`ReliableRequester`: dedupes by sequence number.

    The handler runs exactly once per sequence; a replayed frame (the
    response was lost, the requester retried) returns the cached
    response without re-executing — this is what makes retried
    provisioning steps idempotent end to end.

    The replay cache is an LRU bounded by ``max_cached``, so a
    long-lived responder (the serving path keeps one per session) holds
    a constant amount of memory regardless of traffic volume.  Retries
    arrive within a handful of sequence numbers of the head, so any
    reasonable bound keeps idempotency; a replay of a sequence old
    enough to have been evicted is refused rather than re-executed
    (at-most-once beats availability here).
    """

    def __init__(self, endpoint: ChannelEndpoint, handler,
                 max_cached: int = 1024) -> None:
        if max_cached <= 0:
            raise ProtocolError("responder cache bound must be positive")
        self.endpoint = endpoint
        self.handler = handler
        self.max_cached = max_cached
        self._responses: OrderedDict[int, bytes] = OrderedDict()
        self._evicted_horizon = -1
        self.handled = 0
        self.replays = 0
        self.evictions = 0

    def handle_frame(self, frame: bytes) -> bytes:
        if len(frame) < _FRAME_SEQ.size:
            raise ProtocolError("runt request frame")
        (sequence,) = _FRAME_SEQ.unpack(frame[:_FRAME_SEQ.size])
        response = self._responses.get(sequence)
        if response is not None:
            self.replays += 1
            self._responses.move_to_end(sequence)
        else:
            if sequence <= self._evicted_horizon:
                raise ProtocolError(
                    f"replay of evicted sequence {sequence}; cannot "
                    "guarantee at-most-once execution")
            payload = self.endpoint.open_at(sequence,
                                            frame[_FRAME_SEQ.size:])
            response = self.handler(payload)
            self._responses[sequence] = response
            self.handled += 1
            while len(self._responses) > self.max_cached:
                evicted_seq, _ = self._responses.popitem(last=False)
                self._evicted_horizon = max(self._evicted_horizon,
                                            evicted_seq)
                self.evictions += 1
        # Re-seal per transmission: sealing at a fixed sequence is
        # deterministic, so a replay is byte-identical on a clean wire
        # while a corruption fault mangles only this copy.
        return (_FRAME_SEQ.pack(sequence)
                + self.endpoint.seal_at(sequence, response))


def reliable_link(responder_key: RsaPrivateKey, handler, clock,
                  channel_rng: HmacDrbg,
                  backoff_rng: HmacDrbg | None = None
                  ) -> tuple[ReliableRequester, ReliableResponder]:
    """A secure channel to the holder of ``responder_key``, framed for
    at-most-once RPC: ``(requester, responder)``.

    ``channel_rng`` draws the key exchange and ``backoff_rng`` the
    requester's retry jitter; the responder runs ``handler`` once per
    request, and ``responder.handle_frame`` is the relay to pass to
    :meth:`ReliableRequester.request`.
    """
    initiator_end, key_exchange = SecureChannel.connect(
        responder_key.public_key, channel_rng)
    responder = ReliableResponder(
        SecureChannel.accept(responder_key, key_exchange), handler)
    return (ReliableRequester(initiator_end, clock,
                              backoff_rng=backoff_rng), responder)
