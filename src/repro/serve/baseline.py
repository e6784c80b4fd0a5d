"""The sequential one-enclave serving path (benchmark baseline).

This is OMG exactly as the paper runs it (§V operation phase): a single
enclave, one query at a time, each query arriving over a per-request
secure-channel record, crossing the untrusted mailbox (allocate + copy
in both directions), and the enclave suspending between queries so the
OS gets its core back.  Every step is the real implementation from the
rest of the repo — the serving layer's speedup is measured against
this, not against a strawman.
"""

from __future__ import annotations

import numpy as np

from repro.core.channels import reliable_link
from repro.core.omg import KeywordSpotterApp, OmgSession
from repro.core.parties import User, Vendor
from repro.crypto.rng import HmacDrbg
from repro.errors import ServeError
from repro.trustzone.worlds import Platform

__all__ = ["SequentialBaseline"]


class SequentialBaseline:
    """One enclave, one request at a time, suspend between queries."""

    def __init__(self, platform: Platform, vendor: Vendor,
                 suspend_between: bool = True,
                 channel_seed: bytes = b"serve-baseline") -> None:
        self.platform = platform
        self.suspend_between = suspend_between
        self.session = OmgSession(platform, vendor, User(),
                                  KeywordSpotterApp(),
                                  channel_seed=channel_seed)
        self.session.prepare()
        self.session.initialize()
        interpreter = self.session.app.interpreter
        spec = interpreter.model.tensors[interpreter.model.inputs[0]]
        self.request_bytes = spec.shape[1] * spec.shape[2]
        self.num_labels = len(self.session.app.labels)
        # Per-request transport: a secure channel to the enclave's
        # attested key, with the reliable layer's sequence framing.
        self.requester, self.responder = reliable_link(
            self.session.ctx.private_key,
            lambda payload: self.session.instance.invoke(b"F" + payload),
            self.platform.soc.clock,
            HmacDrbg(channel_seed, b"client-channel"))
        self.requests = 0

    def request(self, fingerprint: np.ndarray) -> tuple[int, np.ndarray]:
        """One full round trip; returns (label_index, int8 scores)."""
        flat = np.ascontiguousarray(fingerprint, dtype=np.uint8).reshape(-1)
        if flat.size != self.request_bytes:
            raise ServeError(
                f"fingerprint must have {self.request_bytes} bytes")
        soc = self.platform.soc
        # Seal -> relay -> mailbox -> batched-of-one inference -> seal
        # the response; the enclave resumes on arrival if suspended.
        response = self.requester.request(flat.tobytes(),
                                          self.responder.handle_frame)
        soc.clock.advance_ms(2 * soc.profile.sa_world_switch_ms)
        if self.suspend_between:
            self.session.suspend()
        if len(response) != 1 + self.num_labels:
            raise ServeError("malformed baseline response")
        self.requests += 1
        label = response[0]
        scores = np.frombuffer(response[1:], dtype=np.int8).copy()
        return label, scores

    def teardown(self) -> None:
        self.session.teardown()
