"""OMG itself: the keyword-spotter enclave app and the session
orchestrating the three protocol phases of paper §V / Fig. 2.

:class:`KeywordSpotterApp` is the SANCTUARY App — open-source enclave
code containing "just a TensorFlow environment" (here: the
:mod:`repro.tflm` interpreter plus the feature front end) and no vendor
secrets.  :class:`OmgSession` wires the app, the SANCTUARY runtime, the
vendor, and the user together and records a protocol transcript.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.audio.features import (FeatureConfig, FingerprintExtractor,
                                  fingerprint_to_int8, fingerprints_to_int8)
from repro.audio.speech_commands import PlaybackSource
from repro.core.channels import reliable_link
from repro.core.parties import User, Vendor, WrappedKey
from repro.core.protocol import Phase, ProtocolTranscript, StepIo
from repro.core.provisioning import (EncryptedModel, ProvisioningClient,
                                     VendorServer, decrypt_model,
                                     flash_path_for)
from repro.core.license import LicensePolicy
from repro.crypto.rng import HmacDrbg
from repro.errors import ProtocolError
from repro.hw.soc import MiB
from repro.sanctuary.enclave import EnclaveContext, SanctuaryApp
from repro.sanitizers import hooks as _sanitizers
from repro.sanctuary.lifecycle import EnclaveInstance, SanctuaryRuntime
from repro.tflm.interpreter import Interpreter
from repro.tflm.serialize import deserialize_model
from repro.trustzone.worlds import Platform

__all__ = ["KeywordSpotterApp", "RecognitionResult", "OmgSession"]


@dataclass(frozen=True)
class RecognitionResult:
    """Output of one keyword recognition query."""

    label: str
    label_index: int
    scores: np.ndarray
    inference_ms: float
    total_ms: float


class KeywordSpotterApp(SanctuaryApp):
    """The open-source enclave application (no vendor secrets inside)."""

    name = "omg-keyword-spotter"
    code_version = "1.0"

    def __init__(self, feature_config: FeatureConfig | None = None,
                 l2_exclusion: bool = True) -> None:
        self.feature_config = feature_config or FeatureConfig()
        self.l2_exclusion = l2_exclusion
        self._extractor = FingerprintExtractor(self.feature_config)
        self.interpreter: Interpreter | None = None
        self.labels: tuple[str, ...] = ()
        self.model_version: int | None = None

    def code_bytes(self) -> bytes:
        # Feature geometry is part of the measured code identity: an
        # attacker cannot silently repoint the app at different DSP.
        return super().code_bytes() + repr(self.feature_config).encode()

    # --- enclave-internal operations ------------------------------------

    def install_model(self, ctx: EnclaveContext,
                      encrypted: EncryptedModel) -> str:
        """Step 4: persist the ciphertext to untrusted flash."""
        path = flash_path_for(self.name, encrypted.model_name,
                              encrypted.model_version)
        ctx.store_untrusted(path, encrypted.to_bytes())
        return path

    def unlock_model(self, ctx: EnclaveContext, wrapped: WrappedKey,
                     model_name: str) -> None:
        """Step 6: load ciphertext, unwrap K_U, decrypt, build the
        interpreter — entirely inside the enclave."""
        if wrapped.enclave_id != ctx.enclave_name:
            raise ProtocolError(
                f"key for {wrapped.enclave_id!r} delivered to "
                f"{ctx.enclave_name!r}"
            )
        path = flash_path_for(self.name, model_name, wrapped.model_version)
        encrypted = EncryptedModel.from_bytes(ctx.load_untrusted(path))
        key = ctx.private_key.decrypt_oaep(wrapped.wrapped)
        model_bytes = decrypt_model(encrypted, key)
        # Charge the in-enclave AES-GCM decryption time.
        ctx.clock.advance_ms(
            1000.0 * (len(encrypted.blob) / MiB) / ctx.profile.aes_mib_per_s)
        model = deserialize_model(model_bytes)
        if _sanitizers.STATE is not None:
            _sanitizers.STATE.secrets.on_observe(
                model_bytes, origin="decrypted model (provisioning)")
        # Stage the plaintext model into enclave-private memory so the
        # isolation tests have a concrete target to probe for.
        staging = ctx.heap.alloc(len(model_bytes))
        ctx.memory.write(staging.offset, model_bytes)
        ctx.app_state["model_offset"] = staging.offset
        ctx.app_state["model_len"] = len(model_bytes)
        interpreter = Interpreter(model)
        interpreter.attach_timing(
            ctx.clock, ctx.core_freq_hz, ctx.profile,
            l2_excluded=self.l2_exclusion)
        self.interpreter = interpreter
        self.labels = model.metadata.labels
        self.model_version = wrapped.model_version

    def recognize_fingerprint(self, ctx: EnclaveContext,
                              fingerprint: np.ndarray) -> RecognitionResult:
        """Classify one 49x43 uint8 fingerprint (inference only)."""
        if self.interpreter is None:
            raise ProtocolError("model has not been unlocked yet")
        start = ctx.clock.now_ms
        index, scores = self.interpreter.classify(
            fingerprint_to_int8(fingerprint))
        inference_ms = self.interpreter.last_stats.simulated_ms
        label = (self.labels[index] if index < len(self.labels)
                 else str(index))
        return RecognitionResult(
            label=label, label_index=index, scores=scores,
            inference_ms=inference_ms, total_ms=ctx.clock.now_ms - start,
        )

    def recognize_fingerprints(self, ctx: EnclaveContext,
                               fingerprints: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
        """Classify a batch of uint8 fingerprints in one batched invoke.

        Returns ``(label_indices, score_rows)``.  Bit-exact against N
        :meth:`recognize_fingerprint` calls (see ``Op.run``); the
        simulated clock is charged once for the whole batch with
        per-op dispatch amortized across it.
        """
        if self.interpreter is None:
            raise ProtocolError("model has not been unlocked yet")
        return self.interpreter.classify_batch(
            fingerprints_to_int8(fingerprints))

    def recognize_clip(self, ctx: EnclaveContext,
                       samples: np.ndarray) -> RecognitionResult:
        """Features + inference for a raw int16 clip (in-enclave DSP)."""
        start = ctx.clock.now_ms
        fingerprint = self._extractor.extract(samples)
        ctx.clock.advance_ms(ctx.profile.feature_ms_per_clip)
        result = self.recognize_fingerprint(ctx, fingerprint)
        return RecognitionResult(
            label=result.label, label_index=result.label_index,
            scores=result.scores, inference_ms=result.inference_ms,
            total_ms=ctx.clock.now_ms - start,
        )

    def personalize(self, ctx: EnclaveContext, fingerprints: np.ndarray,
                    labels: np.ndarray) -> None:
        """On-device adaptation (§VI "training tasks") — all in-enclave.

        The user's fingerprints and the adapted weights never leave the
        enclave; only the interpreter instance is swapped.  The adapted
        model is *not* written back to untrusted storage (it would be
        plaintext); a production flow would re-encrypt it under a local
        sealing key first.
        """
        if self.interpreter is None:
            raise ProtocolError("model has not been unlocked yet")
        from repro.train.personalize import adapt_classifier

        adapted = adapt_classifier(self.interpreter.model, fingerprints,
                                   labels)
        # Charge the adaptation compute: roughly epochs * N forward
        # passes of the trunk plus cheap head updates.
        trunk_ms = (len(fingerprints)
                    * self.interpreter.estimate_cycles()
                    / ctx.core_freq_hz * 1e3)
        ctx.clock.advance_ms(trunk_ms)
        interpreter = Interpreter(adapted)
        interpreter.attach_timing(ctx.clock, ctx.core_freq_hz, ctx.profile,
                                  l2_excluded=self.l2_exclusion)
        self.interpreter = interpreter
        self.model_version = adapted.metadata.version

    # --- sealed persistence -----------------------------------------------

    def _sealed_path(self) -> str:
        return f"omg/{self.name}/sealed-model.bin"

    def save_sealed(self, ctx: EnclaveContext) -> str:
        """Persist the current (possibly personalized) model, sealed.

        AES-GCM under the measurement-bound sealing key: the ciphertext
        may sit in untrusted flash, and only an enclave with the same
        code measurement on the same device can ever open it — the
        SGX-style sealing pattern.
        """
        if self.interpreter is None:
            raise ProtocolError("no model to seal")
        from repro.crypto.modes import gcm_encrypt
        from repro.crypto.rng import HmacDrbg
        from repro.hw.soc import MiB
        from repro.tflm.serialize import serialize_model

        plaintext = serialize_model(self.interpreter.model)
        nonce_rng = HmacDrbg(ctx.sealing_key + ctx.enclave_name.encode(),
                             b"seal-nonce")
        blob = gcm_encrypt(ctx.sealing_key, nonce_rng.generate(12),
                           plaintext, aad=ctx.measurement)
        ctx.clock.advance_ms(
            1000.0 * (len(plaintext) / MiB) / ctx.profile.aes_mib_per_s)
        path = self._sealed_path()
        ctx.store_untrusted(path, blob)
        return path

    def load_sealed(self, ctx: EnclaveContext) -> None:
        """Restore a sealed model from untrusted flash — no vendor needed.

        Raises :class:`AuthenticationError` if the blob was tampered
        with or was sealed by different enclave code / another device.
        """
        from repro.crypto.modes import gcm_decrypt
        from repro.hw.soc import MiB
        from repro.tflm.serialize import deserialize_model

        blob = ctx.load_untrusted(self._sealed_path())
        plaintext = gcm_decrypt(ctx.sealing_key, blob, aad=ctx.measurement)
        ctx.clock.advance_ms(
            1000.0 * (len(plaintext) / MiB) / ctx.profile.aes_mib_per_s)
        model = deserialize_model(plaintext)
        if _sanitizers.STATE is not None:
            _sanitizers.STATE.secrets.on_observe(
                plaintext, origin="unsealed model (restore)")
        interpreter = Interpreter(model)
        interpreter.attach_timing(ctx.clock, ctx.core_freq_hz, ctx.profile,
                                  l2_excluded=self.l2_exclusion)
        self.interpreter = interpreter
        self.labels = model.metadata.labels
        self.model_version = model.metadata.version

    # --- untrusted mailbox protocol -----------------------------------

    def handle(self, ctx: EnclaveContext, request: bytes) -> bytes:
        """Binary command protocol over the untrusted OS mailbox.

        ``b'P'`` ping; ``b'R' + u32 num_samples`` record that much audio
        via the trusted path and classify it, returning
        ``u8 label_index + u16 label_len + label + scores-int8``;
        ``b'F' + uint8 fingerprint bytes`` classify one precomputed
        fingerprint, returning ``u8 label_index + scores-int8`` (the
        sequential serving baseline's query opcode).
        """
        if not request:
            raise ProtocolError("empty mailbox request")
        opcode = request[:1]
        if opcode == b"P":
            return b"PONG:" + ctx.enclave_name.encode()
        if opcode == b"R":
            if len(request) < 5:
                raise ProtocolError("malformed recognize request")
            num_samples = struct.unpack("<I", request[1:5])[0]
            samples = ctx.record_audio(num_samples)
            result = self.recognize_clip(ctx, samples)
            label = result.label.encode()
            scores = np.asarray(result.scores, dtype=np.int8).tobytes()
            return (bytes([result.label_index])
                    + struct.pack("<H", len(label)) + label + scores)
        if opcode == b"F":
            if self.interpreter is None:
                raise ProtocolError("model has not been unlocked yet")
            spec = self.interpreter.model.tensors[
                self.interpreter.model.inputs[0]]
            frames, bins = spec.shape[1], spec.shape[2]
            if len(request) != 1 + frames * bins:
                raise ProtocolError(
                    f"fingerprint request needs {frames * bins} bytes, "
                    f"got {len(request) - 1}")
            fingerprint = np.frombuffer(
                request[1:], dtype=np.uint8).reshape(frames, bins)
            result = self.recognize_fingerprint(ctx, fingerprint)
            scores = np.asarray(result.scores, dtype=np.int8).tobytes()
            return bytes([result.label_index]) + scores
        raise ProtocolError(f"unknown opcode {opcode!r}")


class OmgSession:
    """End-to-end OMG deployment on one platform.

    Drives the three phases and exposes recognition APIs.  All times in
    the transcript are simulated milliseconds on the platform clock.
    """

    def __init__(self, platform: Platform, vendor: Vendor,
                 user: User | None = None,
                 app: KeywordSpotterApp | None = None,
                 heap_bytes: int = 4 * MiB,
                 license_policy: LicensePolicy | None = None,
                 channel_seed: bytes = b"omg-channel-seed",
                 core_id: int | None = None) -> None:
        self.platform = platform
        self.vendor = vendor
        self.user = user or User()
        self.app = app or KeywordSpotterApp()
        self.runtime = SanctuaryRuntime(platform)
        self.transcript = ProtocolTranscript()
        self.instance: EnclaveInstance | None = None
        self._heap_bytes = heap_bytes
        self._core_id = core_id
        self._license_policy = license_policy
        self._channel_seed = channel_seed
        self._mic_source = PlaybackSource(
            platform.soc.microphone.sample_rate_hz)
        self._prepared = False
        self._initialized = False

    @property
    def ctx(self) -> EnclaveContext:
        if self.instance is None or self.instance.ctx is None:
            raise ProtocolError("enclave is not running")
        return self.instance.ctx

    @property
    def clock(self):
        return self.platform.soc.clock

    # --- Phase I: preparation -------------------------------------------

    def prepare(self) -> None:
        """Launch + attest the enclave, provision the encrypted model."""
        if self._prepared:
            raise ProtocolError("preparation phase already ran")
        soc = self.platform.soc
        expected = SanctuaryRuntime.expected_measurement(self.app)

        self.instance = self.runtime.launch(
            self.app, heap_bytes=self._heap_bytes, core_id=self._core_id)
        report = self.instance.report
        root_pk = self.platform.manufacturer_root.public_key

        # Step 1: attestation to the user over trusted output.
        start = self.clock.now_ms
        self.user.verify_enclave(report, expected, root_pk)
        self.clock.advance_ms(2 * soc.profile.sa_world_switch_ms)
        self.transcript.record(1, Phase.PREPARATION, StepIo.TRUSTED,
                               len(report.payload()) + len(report.signature),
                               start, self.clock.now_ms)

        # Steps 2-4 over the secure channel to the vendor.  Request
        # nonces are personalised by the attested key: sessions sharing
        # a channel seed on other platforms reuse enclave names, and the
        # vendor caches replies by (enclave name, nonce).
        server = VendorServer(self.vendor, expected, root_pk, self.clock,
                              self._license_policy)
        requester, responder = reliable_link(
            self.vendor.signing_key, server.handle, self.clock,
            HmacDrbg(self._channel_seed))
        self._client = ProvisioningClient(
            self.app, self.instance, requester, responder.handle_frame,
            self.clock, transcript=self.transcript,
            nonce_rng=HmacDrbg(self._channel_seed,
                               report.public_key.fingerprint()))
        self._client.run(until=Phase.PREPARATION)
        self._prepared = True

    # --- Phase II: initialization ------------------------------------------

    def initialize(self) -> None:
        """Obtain K_U from the vendor and decrypt the model in-enclave
        (steps 5 and 6)."""
        if not self._prepared:
            raise ProtocolError("run prepare() first")
        if self._initialized:
            raise ProtocolError("initialization phase already ran")
        self._client.run()
        self._client = None  # drops the link's GCM tables and reply cache
        self._initialized = True

    # --- Phase III: operation ------------------------------------------------

    def _require_operational(self) -> None:
        if not self._initialized:
            raise ProtocolError("session is not initialized")
        # Operation phase (§V): a suspended enclave gets a fresh core
        # when the next query arrives.
        from repro.sanctuary.lifecycle import EnclaveState

        if self.instance.state is EnclaveState.SUSPENDED:
            self.instance.resume()

    def recognize_via_microphone(self, samples: np.ndarray,
                                 record_transcript: bool = True
                                 ) -> RecognitionResult:
        """Full trusted-input path: the clip plays into the secure-world
        microphone and reaches the enclave via shared memory (step 7),
        then the result is returned to the user (step 8)."""
        self._require_operational()
        soc = self.platform.soc
        soc.microphone.attach_source(self._mic_source)
        soc.microphone.assign_secure()
        self.platform.secure_world.trusted_os.invoke(
            "peripheral-gateway", "grant",
            enclave_name=self.instance.instance_name,
            peripheral="microphone")
        self._mic_source.queue_clip(samples)

        start = self.clock.now_ms
        captured = self.ctx.record_audio(len(samples))
        self.transcript.record(7, Phase.OPERATION, StepIo.TRUSTED,
                               captured.nbytes, start, self.clock.now_ms)
        start = self.clock.now_ms
        result = self.app.recognize_clip(self.ctx, captured)
        self.clock.advance_ms(2 * soc.profile.sa_world_switch_ms)
        if record_transcript:
            self.transcript.record(8, Phase.OPERATION, StepIo.TRUSTED,
                                   result.scores.nbytes, start,
                                   self.clock.now_ms)
        return result

    def recognize_clip(self, samples: np.ndarray) -> RecognitionResult:
        """Features + inference in-enclave, without the mic round trip
        (the paper's runtime measurements exclude input collection)."""
        self._require_operational()
        return self.app.recognize_clip(self.ctx, samples)

    def recognize_fingerprint(self, fingerprint: np.ndarray
                              ) -> RecognitionResult:
        """Inference only, for precomputed fingerprints (Table I bulk runs)."""
        self._require_operational()
        return self.app.recognize_fingerprint(self.ctx, fingerprint)

    def suspend(self) -> None:
        """Operation-phase core hand-back (memory stays locked)."""
        self.instance.suspend()

    def teardown(self) -> None:
        self.instance.teardown()
