"""Secure channel and model provisioning/encryption."""

import pytest

from repro.core.channels import ChannelEndpoint, SecureChannel
from repro.core.provisioning import (
    EncryptedModel,
    decrypt_model,
    encrypt_model,
    flash_path_for,
)
from repro.crypto.keycache import deterministic_keypair
from repro.crypto.rng import HmacDrbg
from repro.errors import AuthenticationError, ProtocolError

KEY_BITS = 768
VENDOR_KEY = deterministic_keypair(b"chan-vendor", KEY_BITS)


def connected_pair():
    rng = HmacDrbg(b"chan-rng")
    client, key_exchange = SecureChannel.connect(VENDOR_KEY.public_key, rng)
    server = SecureChannel.accept(VENDOR_KEY, key_exchange)
    return client, server


# --- channel -------------------------------------------------------------

def test_channel_bidirectional_roundtrip():
    client, server = connected_pair()
    assert server.open(client.seal(b"attestation report")) == \
        b"attestation report"
    assert client.open(server.seal(b"encrypted model")) == b"encrypted model"


def test_channel_counts_traffic():
    client, server = connected_pair()
    record = client.seal(b"x" * 100)
    server.open(record)
    assert client.bytes_sent == len(record) == 100 + 16
    assert server.bytes_received == len(record)


def test_channel_rejects_replay():
    client, server = connected_pair()
    record = client.seal(b"message")
    server.open(record)
    with pytest.raises(AuthenticationError):
        server.open(record)  # sequence number advanced


def test_channel_rejects_reorder():
    client, server = connected_pair()
    first = client.seal(b"one")
    second = client.seal(b"two")
    with pytest.raises(AuthenticationError):
        server.open(second)


def test_channel_rejects_tamper():
    client, server = connected_pair()
    record = bytearray(client.seal(b"payload"))
    record[0] ^= 1
    with pytest.raises(AuthenticationError):
        server.open(bytes(record))


def test_channel_rejects_short_record():
    _, server = connected_pair()
    with pytest.raises(ProtocolError):
        server.open(b"tiny")


def test_channel_directions_use_distinct_keys():
    client, server = connected_pair()
    record = client.seal(b"hello")
    # The client cannot decrypt its own direction (keys differ).
    fresh_client, fresh_server = connected_pair()
    with pytest.raises(AuthenticationError):
        fresh_client.open(record)


def test_accept_rejects_malformed_exchange():
    rng = HmacDrbg(b"other")
    bad = VENDOR_KEY.public_key.encrypt_oaep(b"short", rng)
    with pytest.raises(ProtocolError):
        SecureChannel.accept(VENDOR_KEY, bad)


def test_accept_rejects_wrong_key():
    rng = HmacDrbg(b"x")
    other = deterministic_keypair(b"chan-other", KEY_BITS)
    _, key_exchange = SecureChannel.connect(VENDOR_KEY.public_key, rng)
    with pytest.raises(AuthenticationError):
        SecureChannel.accept(other, key_exchange)


# --- provisioning ------------------------------------------------------------

MODEL_BYTES = b"OMGM" + bytes(range(256)) * 40
KEY = b"K" * 16
RNG = HmacDrbg(b"prov-rng")


def make_encrypted(enclave="sa#1", name="kws", version=1,
                   nonce=b"n" * 16, key=KEY):
    return encrypt_model(MODEL_BYTES, key, enclave, name, version, nonce,
                         HmacDrbg(b"prov-rng-2"))


def test_encrypt_decrypt_roundtrip():
    encrypted = make_encrypted()
    assert decrypt_model(encrypted, KEY) == MODEL_BYTES


def test_ciphertext_hides_plaintext():
    encrypted = make_encrypted()
    assert MODEL_BYTES[:64] not in encrypted.blob
    assert b"OMGM" not in encrypted.blob


def test_wrong_key_rejected():
    encrypted = make_encrypted()
    with pytest.raises(AuthenticationError):
        decrypt_model(encrypted, b"X" * 16)


def test_tampered_blob_rejected():
    encrypted = make_encrypted()
    blob = bytearray(encrypted.blob)
    blob[20] ^= 0xFF
    tampered = EncryptedModel(
        enclave_id=encrypted.enclave_id, model_name=encrypted.model_name,
        model_version=encrypted.model_version,
        key_nonce=encrypted.key_nonce, blob=bytes(blob))
    with pytest.raises(AuthenticationError):
        decrypt_model(tampered, KEY)


@pytest.mark.parametrize("field,value", [
    ("enclave_id", "sa#2"),
    ("model_name", "other-model"),
    ("model_version", 2),
    ("key_nonce", b"m" * 16),
])
def test_aad_binds_identity(field, value):
    """Relabelling the artifact for another enclave/version must fail."""
    encrypted = make_encrypted()
    kwargs = {
        "enclave_id": encrypted.enclave_id,
        "model_name": encrypted.model_name,
        "model_version": encrypted.model_version,
        "key_nonce": encrypted.key_nonce,
        "blob": encrypted.blob,
    }
    kwargs[field] = value
    relabelled = EncryptedModel(**kwargs)
    with pytest.raises(AuthenticationError):
        decrypt_model(relabelled, KEY)


def test_serialization_roundtrip():
    encrypted = make_encrypted()
    restored = EncryptedModel.from_bytes(encrypted.to_bytes())
    assert restored == encrypted
    assert decrypt_model(restored, KEY) == MODEL_BYTES


def test_from_bytes_rejects_garbage():
    with pytest.raises(ProtocolError):
        EncryptedModel.from_bytes(b"xx")
    with pytest.raises(ProtocolError):
        EncryptedModel.from_bytes(
            (10).to_bytes(4, "big") + b"nopipes!!!" + b"rest")


def _record(head: bytes, blob: bytes = b"blob", head_len=None) -> bytes:
    size = len(head) if head_len is None else head_len
    return size.to_bytes(4, "big") + head + blob


@pytest.mark.parametrize("data,message", [
    (b"xx", "truncated encrypted-model record"),
    (_record(b"enc|tiny|1|00", head_len=99), "truncated encrypted-model record"),
    (_record(b"enc|tiny|1|00", blob=b"", head_len=14),
     "truncated encrypted-model record"),
    (_record(b"enc|\xff\xfe|1|00"), "malformed encrypted-model header"),
    (_record(b"enc|tiny|v1|00"), "malformed encrypted-model header"),
    (_record(b"enc|tiny|1|0g"), "malformed encrypted-model header"),
    (_record(b"enc|tiny|1|abc"), "malformed encrypted-model header"),
    (_record(b"enc|tiny|1"), "malformed encrypted-model header"),
    (_record(b"enc|tiny|1|00|x"), "malformed encrypted-model header"),
])
def test_from_bytes_fails_closed_with_a_constant_message(data, message):
    """A flash record that does not parse raises ProtocolError, never a
    bare UnicodeDecodeError/ValueError or a model with an empty blob."""
    with pytest.raises(ProtocolError) as raised:
        EncryptedModel.from_bytes(data)
    assert str(raised.value) == message


def test_flash_path_convention():
    path = flash_path_for("omg-keyword-spotter", "tiny_conv", 3)
    assert path == "omg/omg-keyword-spotter/tiny_conv-v3.enc"


# --- reliable responder replay-cache bound --------------------------------

def bounded_responder(max_cached):
    """A requester/responder pair whose responder cache holds max_cached."""
    from repro.core.channels import ReliableRequester, ReliableResponder
    from repro.hw.timing import VirtualClock

    client, server = connected_pair()
    handled = []

    def handler(payload):
        handled.append(payload)
        return b"ack:" + payload

    requester = ReliableRequester(client, VirtualClock())
    responder = ReliableResponder(server, handler, max_cached=max_cached)
    return requester, responder, handled


def test_responder_rejects_nonpositive_cache_bound():
    _, server = connected_pair()
    with pytest.raises(ProtocolError):
        from repro.core.channels import ReliableResponder
        ReliableResponder(server, lambda payload: payload, max_cached=0)


def test_responder_evicts_beyond_cache_bound():
    requester, responder, handled = bounded_responder(max_cached=3)
    for index in range(8):
        response = requester.request(b"req-%d" % index,
                                     responder.handle_frame)
        assert response == b"ack:req-%d" % index
    assert len(handled) == 8
    assert responder.evictions == 5  # 8 handled, 3 retained


def test_responder_serves_recent_replay_without_reexecution():
    requester, responder, handled = bounded_responder(max_cached=4)

    frames = []

    def capture_and_deliver(frame):
        frames.append(frame)
        return responder.handle_frame(frame)

    requester.request(b"payload", capture_and_deliver)
    assert len(handled) == 1
    # The requester's response was "lost"; it retransmits the same frame.
    replayed = responder.handle_frame(frames[0])
    assert replayed[8:] != b""  # still a sealed response frame
    assert len(handled) == 1    # handler did NOT run again
    assert responder.replays == 1


def test_responder_refuses_replay_of_evicted_sequence():
    requester, responder, handled = bounded_responder(max_cached=2)

    first_frames = []

    def capture_first(frame):
        first_frames.append(frame)
        return responder.handle_frame(frame)

    requester.request(b"old", capture_first)
    # Enough fresh traffic to push sequence 0 out of the cache.
    for index in range(3):
        requester.request(b"new-%d" % index, responder.handle_frame)
    assert responder.evictions >= 1
    with pytest.raises(ProtocolError, match="evicted sequence"):
        responder.handle_frame(first_frames[0])
    assert len(handled) == 4  # the stale replay never re-executed


def test_responder_replay_refreshes_lru_recency():
    requester, responder, handled = bounded_responder(max_cached=2)

    frames = []

    def capture(frame):
        frames.append(frame)
        return responder.handle_frame(frame)

    requester.request(b"a", capture)   # seq 0
    requester.request(b"b", capture)   # seq 1
    responder.handle_frame(frames[0])  # replay seq 0: now most recent
    requester.request(b"c", capture)   # seq 2 evicts seq 1, not seq 0
    responder.handle_frame(frames[0])  # seq 0 still cached
    assert responder.replays == 2
    with pytest.raises(ProtocolError, match="evicted sequence"):
        responder.handle_frame(frames[1])
    assert len(handled) == 3
