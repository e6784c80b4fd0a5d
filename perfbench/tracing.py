"""In-memory span tracing around the calls into each layer's functions.

The benchmark does not instrument the program itself.  In a traced run
it replaces selected public functions and methods of ``repro`` with
thin wrappers that record one span per call: name, start, end, parent
span and the id of the op (clip, arrival or session; a fleet storm is
one op) the benchmark loop was handling when the span opened.  Every binding of a
wrapped module function is replaced, including ``from x import f``
copies in other ``repro`` modules, and everything is restored when the
:class:`Tracer` is uninstalled.

Spans are kept in lists and only summarised (or written out) after the
measured phase.  A span's *self time* is its duration minus the time
its direct children cover; because the run is single-threaded the
spans nest strictly, so the self times of a root span and all its
descendants add up to the root's duration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Records spans for wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Parallel span columns: name id, start, end, parent, request.
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(_clock())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one span named ``name``."""
        return _Span(self, self._name_id(name))

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped in a span; ``count(args, result)`` may add to
        :attr:`counts` after each call."""
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- installing wrappers --------------------------------------------

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            replacement = staticmethod(
                self.wrap(name, original.__func__, count))
        else:
            replacement = self.wrap(name, original, count)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def patch_function(self, module, attr: str, name: str,
                       count=None) -> None:
        """Wrap ``module.attr`` and every other ``repro`` module-level
        binding of the same function object."""
        original = getattr(module, attr)
        replacement = self.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            namespace = getattr(mod, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- analysis ---------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "request": np.asarray(self.request, dtype=np.int64),
        }

    def self_times(self, root: int) -> tuple[dict[str, float],
                                             dict[str, int]]:
        """Per-name self time and span count over ``root`` and every
        span recorded after it (its descendants)."""
        cols = self.columns()
        names = cols["name"][root:]
        duration = cols["end"][root:] - cols["start"][root:]
        parent = cols["parent"][root:]
        child_time = np.zeros(len(duration))
        inner = parent >= root
        np.add.at(child_time, parent[inner] - root, duration[inner])
        own = duration - child_time
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name_id in np.unique(names):
            mask = names == name_id
            totals[self.names[name_id]] = float(own[mask].sum())
            calls[self.names[name_id]] = int(mask.sum())
        return totals, calls

    def span_cost_s(self, calls: int = 100_000) -> float:
        """Host seconds one wrapped call adds, timed on a no-op with a
        scratch tracer (so this tracer's spans are untouched)."""
        probe = Tracer()
        traced = probe.wrap("probe", lambda: None)
        start = _clock()
        for _ in range(calls):
            traced()
        wrapped = _clock() - start
        bare = lambda: None  # noqa: E731
        start = _clock()
        for _ in range(calls):
            bare()
        return max(0.0, wrapped - (_clock() - start)) / calls

    def write(self, path: str) -> None:
        """Write every span as compressed columns plus the name table."""
        np.savez_compressed(path, names=np.asarray(self.names), **self.columns())


class _Span:
    __slots__ = ("_tracer", "_name_id", "_index")

    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name_id = name_id

    def __enter__(self) -> int:
        self._index = self._tracer._open(self._name_id)
        return self._index

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._index)


# --- the layer boundaries ------------------------------------------------

def _add_macs(counts, args, stats) -> None:
    counts["tflm.macs"] += stats.macs


def _add_frames(counts, args, tags) -> None:
    counts["crypto.frame_tags_frames"] += len(tags)


def _add_one_frame(counts, args, result) -> None:
    counts["crypto.frame_tags_frames"] += 1


def _add_batch(counts, args, result) -> None:
    counts["serve.batch_requests"] += len(args[1])


def _add_legs(counts, args, replies) -> None:
    counts["fleet.legs"] += len(replies)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads cross.

    Span names are ``<layer>.<operation>``; the per-layer table uses
    them as metric prefixes.
    """
    from repro.audio.features import FingerprintExtractor
    from repro.core.omg import OmgSession
    from repro.crypto import hmac, modes, rsa
    from repro.crypto.rng import HmacDrbg
    from repro.fleet import population
    from repro.fleet.audit import AuditChain
    from repro.fleet.director import FleetDirector
    from repro.fleet.journal import LicenseJournal
    from repro.fleet.shard import VendorShard
    from repro.sanctuary.enclave import EnclaveContext
    from repro.serve.loop import ServingLoop
    from repro.serve.pool import EnclaveWorker
    from repro.serve.service import ServingService
    from repro.tflm.interpreter import Interpreter

    tracer.patch_method(OmgSession, "prepare", "core.prepare")
    tracer.patch_method(OmgSession, "initialize", "core.initialize")
    tracer.patch_function(rsa, "generate_keypair", "crypto.keypair")
    tracer.patch_method(HmacDrbg, "__init__", "crypto.drbg")
    tracer.patch_method(HmacDrbg, "generate", "crypto.drbg")
    tracer.patch_function(hmac, "hkdf", "crypto.hkdf")
    tracer.patch_function(modes, "frame_tags_batched", "crypto.frame_tags",
                          _add_frames)
    tracer.patch_method(modes.FrameTagKey, "tag", "crypto.frame_tags",
                        _add_one_frame)

    tracer.patch_method(ServingService, "open_session", "serve.open_session")
    tracer.patch_method(ServingService, "close_session",
                        "serve.close_session")
    tracer.patch_method(ServingService, "submit_many", "serve.submit")
    tracer.patch_method(ServingService, "poll_responses", "serve.poll")
    tracer.patch_method(ServingLoop, "tick", "serve.tick")
    tracer.patch_method(EnclaveWorker, "run_batch", "serve.run_batch",
                        _add_batch)

    tracer.patch_method(Interpreter, "invoke", "tflm.invoke", _add_macs)
    tracer.patch_method(Interpreter, "invoke_batch", "tflm.invoke",
                        _add_macs)
    tracer.patch_method(FingerprintExtractor, "extract", "audio.features")
    tracer.patch_method(EnclaveContext, "record_audio",
                        "sanctuary.record_audio")

    tracer.patch_method(FleetDirector, "route", "fleet.route")
    tracer.patch_method(VendorShard, "enroll_wave", "fleet.enroll_wave",
                        _add_legs)
    tracer.patch_function(population, "complete_grant_batches",
                          "fleet.complete_grants")
    tracer.patch_method(LicenseJournal, "grant", "fleet.journal_grant")
    tracer.patch_method(LicenseJournal, "compact", "fleet.journal_compact")
    tracer.patch_method(LicenseJournal, "recover", "fleet.journal_recover")
    tracer.patch_method(AuditChain, "append", "fleet.audit_append")
