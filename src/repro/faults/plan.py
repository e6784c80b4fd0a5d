"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a set of declarative :class:`FaultRule`\\ s plus a
seeded DRBG.  Instrumented sites across the stack dispatch into the
installed plan (see :mod:`repro.faults.hooks`); when a rule matches, the
plan either mutates the operation (corrupt bytes, drop a write) or
raises :class:`~repro.errors.FaultInjected`.  Every firing is appended
to an in-order transcript, and because all trigger decisions and
corruption bytes come from the plan's own DRBG, re-running the same
seed against the same workload reproduces the transcript bit for bit.

Hook sites and the actions they honor (:data:`SITES` is this table;
a rule naming any other site or action is refused when it is built):

=================  =============================  =========================
site               actions                        effect
=================  =============================  =========================
``bus.write``      ``drop``, ``corrupt``,         write silently lost /
                   ``error``                      payload bit-flipped /
                                                  bus error raised
``bus.read``       ``corrupt``, ``error``         returned bytes flipped /
                                                  bus error raised
``memory.scrub``   ``skip``                       zeroization silently
                                                  skipped (teardown must
                                                  catch it by read-back)
``rng.generate``   ``exhaust``                    entropy source fails
``channel.seal``   ``corrupt``, ``drop``          frame mangled on the
``channel.open``                                  wire / lost in transit
``lifecycle``      ``crash``                      enclave crashes while in
                                                  the matched state
``serve.ingress``  ``corrupt``                    sealed request frame
                                                  bit-flipped in the ring
``serve.egress``   ``corrupt``                    sealed response frame
                                                  bit-flipped in the ring
``ring.reserve``   ``stall``                      slot ring reports full
                                                  (transient stall)
``sched.deadline`` ``skew``                       batch-deadline check sees
                                                  a skewed virtual clock
``keycache.chunk`` ``drop``                       cached keystream chunk
                                                  scrubbed and dropped
``worker.invoke``  ``panic``                      enclave worker panics
                                                  mid-batch
``fleet.rpc``      ``drop``                       enrollment request leg
                                                  lost in transit (client
                                                  retries — storm
                                                  amplification)
``fleet.reply``    ``drop``                       grant reply lost *after*
                                                  the journal append (the
                                                  at-least-once hazard:
                                                  failover retries can
                                                  duplicate the grant on
                                                  another shard)
``fleet.shard``    ``crash``                      vendor shard crashes on
                                                  the matched operation
``journal.append`` ``torn``                       license-journal record
                                                  written torn (truncated)
                                                  and the shard crashes
=================  =============================  =========================

Every hook goes through one firing path, :meth:`FaultPlan._fire`: count
the operation at the site, match a rule, record the event, and leave
the hook only its own effect.  The plan's own DRBG is itself the
instrumented ``rng.generate`` site, so while the plan draws (trigger
probabilities, flipped bits, tear offsets) no site counts an operation.

The serving-layer sites (everything below ``lifecycle``) were added
when the chaos harness grew a ``serve`` mode: they cover the zero-copy
rings, the batch scheduler, the keystream cache, and the enclave worker
pool — see :mod:`repro.eval.chaos` and ``docs/ARCHITECTURE.md``
("Serving resilience & degradation").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultInjected, ReproError

# NOTE: repro.crypto.rng is imported lazily inside FaultPlan/_draw_plan.
# Instrumented modules (rng.py among them) import repro.faults.hooks,
# which triggers this package's __init__ — a module-level rng import
# here would close that cycle.

__all__ = [
    "FaultRule", "FaultEvent", "FaultPlan",
    "drop_nth_bus_write", "corrupt_nth_bus_write", "corrupt_nth_bus_read",
    "skip_nth_scrub", "rng_exhaustion_at", "corrupt_channel_frame",
    "drop_channel_frame", "crash_enclave_in_state", "random_plan",
    "corrupt_nth_ring_frame", "stall_nth_ring_reserve",
    "skew_nth_deadline", "drop_nth_keystream_chunk",
    "panic_nth_worker_invoke", "random_serve_plan",
    "drop_nth_fleet_rpc", "drop_nth_fleet_reply", "crash_nth_shard_op",
    "tear_nth_journal_append", "random_fleet_plan",
]

SITES = {
    "bus.write": ("drop", "corrupt", "error"),
    "bus.read": ("corrupt", "error"),
    "memory.scrub": ("skip",),
    "rng.generate": ("exhaust",),
    "channel.seal": ("corrupt", "drop"),
    "channel.open": ("corrupt", "drop"),
    "lifecycle": ("crash",),
    "serve.ingress": ("corrupt",),
    "serve.egress": ("corrupt",),
    "ring.reserve": ("stall",),
    "sched.deadline": ("skew",),
    "keycache.chunk": ("drop",),
    "worker.invoke": ("panic",),
    "fleet.rpc": ("drop",),
    "fleet.reply": ("drop",),
    "fleet.shard": ("crash",),
    "journal.append": ("torn",),
}

# Rules per randomized chaos schedule: 1.._MAX_RULES, drawn per seed.
_MAX_RULES = 4


def _seed_bytes(seed: int) -> bytes:
    if not 0 <= seed < 1 << 128:
        raise ReproError(f"fault-plan seed must be in [0, 2**128), got {seed}")
    return seed.to_bytes(16, "big")


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: *where*, *what*, and *when*.

    ``action`` must be one the site honors (:data:`SITES`).  Exactly
    one of ``nth`` (fire on the nth matching operation at the site,
    1-based) or ``probability`` (fire on each matching operation with
    this chance, drawn from the plan DRBG) selects the trigger.
    ``state`` additionally filters ``lifecycle`` events by enclave
    state/phase name.  ``max_fires`` (>= 1) bounds how often the rule
    fires.  ``span`` widens an ``nth`` trigger to the window ``[nth,
    nth + span)`` of consecutive operations — how a stall or a clock
    skew persists over a stretch of activity instead of blinking for
    one operation.  ``magnitude`` parameterizes actions that need a
    size — today only ``sched.deadline``/``skew``, where it is the skew
    in virtual milliseconds.  A rule that could never fire, or whose
    trigger is ambiguous, is refused with :class:`ReproError`.
    """

    site: str
    action: str
    nth: int | None = None
    probability: float = 0.0
    state: str | None = None
    max_fires: int = 1
    span: int = 1
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ReproError(f"unknown fault site {self.site!r}")
        if self.action not in SITES[self.site]:
            raise ReproError(
                f"site {self.site!r} does not honor action {self.action!r}"
                f" (it honors {', '.join(SITES[self.site])})")
        if self.nth is not None and self.nth < 1:
            raise ReproError("nth is 1-based and must be >= 1")
        if self.span < 1:
            raise ReproError("span must be >= 1")
        if self.max_fires < 1:
            raise ReproError("max_fires must be >= 1")
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError("probability must be within [0, 1]")
        if self.nth is None and self.probability == 0.0:
            raise ReproError("rule needs a trigger: nth or probability")
        if self.nth is not None and self.probability != 0.0:
            raise ReproError("rule has two triggers: give nth or "
                             "probability, not both")
        if self.span > 1 and self.nth is None:
            raise ReproError("span widens an nth trigger; a probability "
                             "rule has none")
        if self.state is not None and self.site != "lifecycle":
            raise ReproError("state filters only lifecycle events")


@dataclass(frozen=True)
class FaultEvent:
    """One rule firing, as recorded in the plan transcript."""

    index: int        # 0-based position in the transcript
    site: str
    action: str
    op_index: int     # 1-based count of operations seen at the site
    detail: str

    def line(self) -> str:
        return (f"{self.index:04d} {self.site} op={self.op_index} "
                f"{self.action} {self.detail}")


# Sentinel returned by bus_write when the transaction is dropped.
DROPPED = object()


class FaultPlan:
    """Seeded rule set + per-site counters + firing transcript."""

    def __init__(self, seed: bytes | int, rules: list[FaultRule]) -> None:
        from repro.crypto.rng import HmacDrbg

        if isinstance(seed, int):
            seed = _seed_bytes(seed)
        self.seed = seed
        self.rules = list(rules)
        self._drbg = HmacDrbg(seed or b"\x00", b"fault-plan")
        self._by_site: dict[str, list[FaultRule]] = {}
        for rule in self.rules:
            self._by_site.setdefault(rule.site, []).append(rule)
        self._op_counts: dict[str, int] = {}
        self._fire_counts: dict[int, int] = {}
        self.events: list[FaultEvent] = []
        # Set only while the plan draws from its own DRBG (_draw), which
        # runs through the instrumented HmacDrbg.generate.
        self._busy = False

    # --- bookkeeping ------------------------------------------------------

    def transcript_lines(self) -> list[str]:
        return [event.line() for event in self.events]

    def fired(self, site: str | None = None) -> int:
        if site is None:
            return len(self.events)
        return sum(1 for e in self.events if e.site == site)

    def _record(self, rule: FaultRule, site: str, detail: str) -> None:
        self.events.append(FaultEvent(
            index=len(self.events), site=site, action=rule.action,
            op_index=self._op_counts[site], detail=detail))

    def _fire(self, site: str, detail: str | None = None, args: tuple = (),
              state: str | None = None, payload=None) -> FaultRule | None:
        """Count one operation at ``site``; return the rule that fires.

        A firing rule is recorded with ``detail.format(*args,
        rule=rule)``, so the detail string is built only when a rule
        fires.  A hook whose detail reports its own draws passes no
        ``detail`` and records after drawing.  A ``corrupt`` rule over
        an empty ``payload`` has nothing to flip: it is spent, recorded
        nowhere, and ``None`` is returned.  While the plan draws from
        its own DRBG (``_busy``) nothing is counted.

        This runs once per instrumented operation; ``args`` is a tuple
        rather than ``*args`` because plain positional parameters keep
        the call on the interpreter's fast path.
        """
        if self._busy:
            return None
        op_index = self._op_counts.get(site, 0) + 1
        self._op_counts[site] = op_index
        for rule in self._by_site.get(site, ()):
            fires = self._fire_counts.get(id(rule), 0)
            if fires >= rule.max_fires:
                continue
            if rule.state is not None and rule.state != state:
                continue
            if rule.nth is not None:
                if not rule.nth <= op_index < rule.nth + rule.span:
                    continue
            elif self._uniform() >= rule.probability:
                continue
            self._fire_counts[id(rule)] = fires + 1
            break
        else:
            return None
        # Only sites that pass a payload honor corrupt (SITES).
        if rule.action == "corrupt" and not len(payload):
            return None
        if detail is not None:
            self._record(rule, site, detail.format(*args, rule=rule))
        return rule

    def _draw(self, generate, arg):
        """One draw from the plan's own DRBG, counted at no site."""
        self._busy = True
        try:
            return generate(arg)
        finally:
            self._busy = False

    def _uniform(self) -> float:
        return (int.from_bytes(self._draw(self._drbg.generate, 8), "big")
                / 2.0 ** 64)

    def _randint(self, bound: int) -> int:
        return self._draw(self._drbg.randint_below, bound)

    def _flip(self, buffer) -> int:
        """Flip one DRBG-chosen bit of the mutable, non-empty ``buffer``
        in place; return the byte offset."""
        position = self._randint(len(buffer))
        buffer[position] ^= 1 << self._randint(8)
        return position

    def _flipped(self, data: bytes) -> bytes:
        mutated = bytearray(data)
        self._flip(mutated)
        return bytes(mutated)

    # --- hook-site dispatch ----------------------------------------------
    #
    # Each method fires its site once through _fire and applies only its
    # own effect: pass the payload through, mutate it, or raise
    # FaultInjected.

    def bus_write(self, address: int, data: bytes):
        """Returns the (possibly corrupted) payload, or ``DROPPED``."""
        rule = self._fire("bus.write", "addr={:#x}", (address,),
                          payload=data)
        if rule is None:
            return data
        if rule.action == "drop":
            return DROPPED
        if rule.action == "error":
            raise FaultInjected(
                f"injected bus error on write to {address:#x}")
        return self._flipped(data)

    def bus_read(self, address: int, data: bytes) -> bytes:
        rule = self._fire("bus.read", "addr={:#x}", (address,), payload=data)
        if rule is None:
            return data
        if rule.action == "error":
            raise FaultInjected(f"injected bus error on read of {address:#x}")
        return self._flipped(data)

    def memory_scrub(self, address: int, length: int) -> bool:
        """False means the zeroization is silently skipped."""
        return self._fire("memory.scrub", "addr={:#x} len={}",
                          (address, length)) is None

    def rng_generate(self, num_bytes: int) -> None:
        if self._fire("rng.generate", "requested={}",
                      (num_bytes,)) is not None:
            raise FaultInjected("injected entropy-source exhaustion")

    def channel_frame(self, site: str, record: bytes) -> bytes:
        """``site`` is ``channel.seal`` or ``channel.open``."""
        rule = self._fire(site, "len={}", (len(record),), payload=record)
        if rule is None:
            return record
        if rule.action == "drop":
            raise FaultInjected(f"injected frame loss at {site}")
        return self._flipped(record)

    def lifecycle(self, event: str, state: str) -> None:
        if self._fire("lifecycle", "event={} state={}", (event, state),
                      state=state) is not None:
            raise FaultInjected(
                f"injected enclave crash at {event} (state {state})")

    # --- serving-layer hook sites ----------------------------------------

    def ring_frame(self, site: str, frame) -> None:
        """Flip one bit of a sealed ring frame *in place*.

        ``site`` is ``serve.ingress`` or ``serve.egress``; ``frame`` is
        the mutable slot view (header + ciphertext + tag) as it sits in
        the OS-relayed ring — exactly the memory an adversarial or
        flaky relay could touch.  Tag verification downstream must
        catch the flip and account it (``auth_failures`` or
        ``frames_dropped``), never wedge the ring.
        """
        rule = self._fire(site, payload=frame)
        if rule is not None:
            position = self._flip(frame)
            self._record(rule, site, f"len={len(frame)} byte={position}")

    def ring_stall(self) -> bool:
        """True when a ``ring.reserve`` stall rule fires: the slot ring
        reports full for this reservation even though space exists."""
        return self._fire("ring.reserve", "stalled") is not None

    def scheduler_skew(self) -> float:
        """Virtual-clock skew (ms) applied to one batch-deadline check.

        A positive skew makes waiting requests look younger than they
        are, suppressing the deadline trigger — the serving watchdog
        must rescue the stuck batch by absolute age.
        """
        rule = self._fire("sched.deadline", "skew_ms={rule.magnitude}")
        return 0.0 if rule is None else rule.magnitude

    def keycache_chunk(self) -> bool:
        """True when a ``keycache.chunk`` drop rule fires: the cached
        keystream chunk is scrubbed and must be regenerated (a
        correctness-neutral availability fault)."""
        return self._fire("keycache.chunk", "dropped") is not None

    def worker_invoke(self) -> None:
        """Panic an enclave worker mid-batch (``worker.invoke`` site).

        Raised inside the worker's fail-closed envelope, so the enclave
        scrubs and unlocks before the pool's recovery machinery
        relaunches and re-attests it.
        """
        if self._fire("worker.invoke", "panic") is not None:
            raise FaultInjected("injected enclave worker panic")

    # --- fleet-layer hook sites ------------------------------------------

    def fleet_rpc(self) -> bool:
        """True when a ``fleet.rpc`` drop rule fires: this enrollment
        request leg is lost in transit and the device must retry it
        (with the same request nonce — the shard's dedupe keeps the
        replay idempotent).  Dropped legs are what turns an enrollment
        storm into a retry-amplified one."""
        return self._fire("fleet.rpc", "dropped") is not None

    def fleet_reply(self) -> bool:
        """True when a ``fleet.reply`` drop rule fires: the shard served
        this grant — journal appended, audit recorded — but the reply
        is lost on the way back.  The device retries; if the original
        shard is down by then, failover lands the retry on another
        shard and the grant is journaled *twice*, which is exactly the
        cross-shard duplicate :meth:`FleetDirector.reconcile` must
        revoke down to one."""
        return self._fire("fleet.reply", "dropped") is not None

    def fleet_shard(self, shard_id: str) -> bool:
        """True when a ``fleet.shard`` crash rule fires: the shard
        handling this operation crashes, losing all in-memory state.
        Its journal survives (minus any torn tail) and is replayed on
        restart."""
        return self._fire("fleet.shard", "shard={}", (shard_id,)) is not None

    def journal_append(self, record: bytes) -> bytes:
        """Possibly-torn journal record.

        When a ``torn`` rule fires the record is truncated at a
        DRBG-chosen offset — the durable medium keeps only a prefix, as
        if power failed mid-write.  The caller must treat a torn return
        as a crash (write the prefix, then go down): a real WAL can
        only tear its *last* record.  A record shorter than 2 bytes
        cannot tear and counts no operation.
        """
        if len(record) < 2:
            return record
        rule = self._fire("journal.append")
        if rule is None:
            return record
        cut = 1 + self._randint(len(record) - 1)
        self._record(rule, "journal.append", f"len={len(record)} cut={cut}")
        return record[:cut]


# --- declarative rule constructors ----------------------------------------

def drop_nth_bus_write(n: int, max_fires: int = 1) -> FaultRule:
    """The nth bus write is silently lost (flaky interconnect)."""
    return FaultRule("bus.write", "drop", nth=n, max_fires=max_fires)


def corrupt_nth_bus_write(n: int, max_fires: int = 1) -> FaultRule:
    """One bit of the nth bus write flips in flight."""
    return FaultRule("bus.write", "corrupt", nth=n, max_fires=max_fires)


def corrupt_nth_bus_read(n: int, max_fires: int = 1) -> FaultRule:
    """One bit of the nth bus read flips on the return path."""
    return FaultRule("bus.read", "corrupt", nth=n, max_fires=max_fires)


def skip_nth_scrub(n: int) -> FaultRule:
    """The nth memory zeroization silently does nothing."""
    return FaultRule("memory.scrub", "skip", nth=n)


def rng_exhaustion_at(n: int, max_fires: int = 1) -> FaultRule:
    """The nth DRBG generate call fails (entropy source exhausted)."""
    return FaultRule("rng.generate", "exhaust", nth=n, max_fires=max_fires)


def corrupt_channel_frame(n: int, direction: str = "send",
                          max_fires: int = 1) -> FaultRule:
    """A secure-channel frame is mangled on the untrusted wire."""
    site = "channel.seal" if direction == "send" else "channel.open"
    return FaultRule(site, "corrupt", nth=n, max_fires=max_fires)


def drop_channel_frame(n: int, direction: str = "send",
                       max_fires: int = 1) -> FaultRule:
    """A secure-channel frame never arrives."""
    site = "channel.seal" if direction == "send" else "channel.open"
    return FaultRule(site, "drop", nth=n, max_fires=max_fires)


def crash_enclave_in_state(state: str, nth: int = 1,
                           max_fires: int = 1) -> FaultRule:
    """The enclave crashes the nth time it is observed in ``state``."""
    return FaultRule("lifecycle", "crash", nth=nth, state=state,
                     max_fires=max_fires)


def corrupt_nth_ring_frame(n: int, lane: str = "ingress",
                           max_fires: int = 1) -> FaultRule:
    """One bit of the nth sealed frame on a serving ring flips."""
    if lane not in ("ingress", "egress"):
        raise ReproError(f"ring lane must be ingress or egress, got {lane!r}")
    return FaultRule(f"serve.{lane}", "corrupt", nth=n, max_fires=max_fires)


def stall_nth_ring_reserve(n: int, span: int = 1) -> FaultRule:
    """``span`` consecutive slot reservations starting at the nth
    report the ring full (a transient relay stall)."""
    return FaultRule("ring.reserve", "stall", nth=n, span=span,
                     max_fires=span)


def skew_nth_deadline(n: int, skew_ms: float, span: int = 32) -> FaultRule:
    """``span`` consecutive deadline checks starting at the nth see the
    waiting requests as ``skew_ms`` younger than they are."""
    return FaultRule("sched.deadline", "skew", nth=n, span=span,
                     max_fires=span, magnitude=skew_ms)


def drop_nth_keystream_chunk(n: int, max_fires: int = 1) -> FaultRule:
    """The nth keystream-cache lookup finds its chunk scrubbed."""
    return FaultRule("keycache.chunk", "drop", nth=n, max_fires=max_fires)


def panic_nth_worker_invoke(n: int, max_fires: int = 1) -> FaultRule:
    """The nth batch invoke panics its enclave worker mid-flight."""
    return FaultRule("worker.invoke", "panic", nth=n, max_fires=max_fires)


def drop_nth_fleet_rpc(n: int, span: int = 1) -> FaultRule:
    """``span`` consecutive enrollment request legs starting at the nth
    are lost in transit (a lossy window — the retry storm)."""
    return FaultRule("fleet.rpc", "drop", nth=n, span=span, max_fires=span)


def drop_nth_fleet_reply(n: int, span: int = 1) -> FaultRule:
    """``span`` consecutive served grant replies starting at the nth are
    lost *after* the journal append — retries become at-least-once and
    failover can journal the same device's grant on two shards."""
    return FaultRule("fleet.reply", "drop", nth=n, span=span,
                     max_fires=span)


def crash_nth_shard_op(n: int, max_fires: int = 1) -> FaultRule:
    """The shard handling the nth fleet operation crashes."""
    return FaultRule("fleet.shard", "crash", nth=n, max_fires=max_fires)


def tear_nth_journal_append(n: int, max_fires: int = 1) -> FaultRule:
    """The nth journal append is written torn (and the shard goes
    down with it — only a tail record can tear)."""
    return FaultRule("journal.append", "torn", nth=n, max_fires=max_fires)


# --- randomized schedules for the chaos harness ---------------------------

_DEVICE_MENU = (
    lambda n: drop_nth_bus_write(1 + n % 40),
    lambda n: corrupt_nth_bus_write(1 + n % 40),
    lambda n: corrupt_nth_bus_read(1 + n % 60),
    lambda n: skip_nth_scrub(1 + n % 3),
    lambda n: rng_exhaustion_at(1 + n % 25),
    lambda n: corrupt_channel_frame(1 + n % 8, "send"),
    lambda n: corrupt_channel_frame(1 + n % 8, "recv"),
    lambda n: drop_channel_frame(1 + n % 8, "send"),
    lambda n: drop_channel_frame(1 + n % 8, "recv"),
    lambda n: crash_enclave_in_state("attested"),
    lambda n: crash_enclave_in_state("active", nth=1 + n % 4),
)

_SERVE_MENU = (
    lambda n: corrupt_nth_ring_frame(1 + n % 18, "ingress"),
    lambda n: corrupt_nth_ring_frame(1 + n % 18, "egress"),
    lambda n: stall_nth_ring_reserve(1 + n % 18, span=1 + n % 3),
    lambda n: skew_nth_deadline(1 + n % 8, skew_ms=2.0 + (n % 8)),
    lambda n: drop_nth_keystream_chunk(1 + n % 12),
    lambda n: panic_nth_worker_invoke(1 + n % 5),
)

_FLEET_MENU = (
    lambda n: drop_nth_fleet_rpc(1 + n % 60, span=1 + n % 5),
    lambda n: drop_nth_fleet_reply(1 + n % 40, span=1 + n % 3),
    lambda n: crash_nth_shard_op(2 + n % 40),
    lambda n: tear_nth_journal_append(1 + n % 30),
)


def _draw_plan(seed: int, label: bytes, menu) -> FaultPlan:
    """1.._MAX_RULES rules drawn from ``menu`` by a DRBG keyed by ``seed``
    and ``label``; the plan's own DRBG is keyed by ``seed`` too."""
    from repro.crypto.rng import HmacDrbg

    chooser = HmacDrbg(_seed_bytes(seed), label)
    num_rules = 1 + chooser.randint_below(_MAX_RULES)
    rules = [menu[chooser.randint_below(len(menu))](chooser.randint_below(64))
             for _ in range(num_rules)]
    return FaultPlan(seed, rules)


def random_plan(seed: int) -> FaultPlan:
    """A seeded random fault schedule for :mod:`repro.eval.chaos`.

    Rule choice, trigger indices, and the plan's own corruption DRBG all
    derive from ``seed``, so equal seeds yield equal schedules *and*
    equal transcripts over a deterministic workload.
    """
    return _draw_plan(seed, b"chaos-schedule", _DEVICE_MENU)


def random_fleet_plan(seed: int) -> FaultPlan:
    """A seeded random *fleet-layer* fault schedule.

    Draws only from the fleet fault domains — dropped enrollment legs
    (retry amplification), shard crashes, torn journal appends — so a
    schedule exercises journal recovery, cross-shard failover, and the
    at-most-one-live-license invariant.  All triggers are ``nth``-based,
    so the transcript depends only on the per-site operation sequence
    (a probability draw per enrollment leg would also cost one DRBG
    HMAC per device — ruinous at fleet scale).
    """
    return _draw_plan(seed, b"fleet-chaos-schedule", _FLEET_MENU)


def random_serve_plan(seed: int) -> FaultPlan:
    """A seeded random *serving-layer* fault schedule.

    Draws only from the serving fault domains (ring frames, ring
    stalls, scheduler skew, keystream drops, worker panics) so a
    schedule exercises the serving stack's degradation and recovery
    machinery rather than re-running the device-layer chaos battery.
    All triggers are ``nth``-based — no probability draws — so the
    transcript depends only on the per-site operation sequence.
    """
    return _draw_plan(seed, b"serve-chaos-schedule", _SERVE_MENU)
