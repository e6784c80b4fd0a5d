"""Fleet director: consistent-hash routing, failover, storm driver.

The :class:`FleetDirector` owns the shard ring and the shards.  Device
enrollments route by ring position; when the owning shard is down the
director walks the ring's preference list to the first live shard (a
*takeover*) — safe because enrollment legs are stateless and journal
replay keeps grants idempotent, but it can leave a device's license in
a non-owner journal.  :meth:`reconcile` restores the global invariant
afterwards: at most one live license per device *across* shards, by
revoking every stale duplicate outside the preferred holder.

:meth:`run_storm` is the deterministic enrollment-storm driver behind
the ``fleet_provisioning`` bench stage and the fleet chaos harness.  It
is a discrete-event queue model on the shared
:class:`~repro.hw.timing.VirtualClock`:

* device arrival offsets come from cohort fabrication (seeded HMAC);
* a wave every :data:`WAVE_MS` drains all due legs, batch-enrolling
  per shard (one crypto pass per shard per wave);
* each leg's virtual completion time is its queue position times
  :data:`SERVICE_US` — so per-shard queue depth, not host speed,
  shapes the reported p99 enrollment latency;
* drops/crashes trigger exponential backoff retries
  (:data:`BACKOFF_MS` times :data:`BACKOFF_FACTOR` per earlier
  attempt); crashed shards restart (journal replay) after
  :data:`RESTART_DELAY_MS`.

Everything is pure virtual time: the bench measures host wall-clock
around the call for licenses/sec, while latency percentiles are
simulation outputs and thus machine-independent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ReproError
from repro.fleet.population import (
    STATE_ATTEST,
    STATE_GRANT,
    DeviceCohort,
    complete_grant_batches,
)
from repro.fleet.ring import HashRing, key_position
from repro.fleet.shard import TenantConfig, VendorShard
from repro.obs import hooks as _obs

__all__ = ["FleetDirector", "StormReport"]

# Storm timing, all virtual.
WAVE_MS = 50.0
SERVICE_US = 40.0
BACKOFF_MS = 100.0
BACKOFF_FACTOR = 2.0
RESTART_DELAY_MS = 250.0


@dataclass(frozen=True)
class StormReport:
    """What one :meth:`FleetDirector.run_storm` run did (virtual time)."""

    devices: int
    granted: int
    rejected: int
    refused: int
    stalled: int
    waves: int
    retries: int
    drops: int
    takeovers: int
    crashes: int
    restarts: int
    p50_ms: float
    p99_ms: float
    virtual_seconds: float
    journal_records: int
    audit_records: int

    @property
    def completed(self) -> bool:
        return self.stalled == 0


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


class FleetDirector:
    """Routes enrollments across shards and drives storm simulations."""

    def __init__(self, clock, shard_ids, tenants: dict[str, TenantConfig],
                 vnodes: int = 64) -> None:
        shard_ids = tuple(shard_ids)
        if not shard_ids:
            raise ReproError("a fleet needs at least one shard")
        self.clock = clock
        self.tenants = tenants
        self.ring = HashRing(shard_ids, vnodes=vnodes)
        self.shards: dict[str, VendorShard] = {
            shard_id: VendorShard(shard_id, tenants)
            for shard_id in shard_ids}
        self.takeovers = 0

    # --- membership -------------------------------------------------------

    def reshard_add(self, shard_id: str) -> VendorShard:
        """Bring a new shard online and claim its ring range."""
        shard = VendorShard(shard_id, self.tenants)
        self.ring.add_shard(shard_id)
        self.shards[shard_id] = shard
        return shard

    def reshard_remove(self, shard_id: str) -> VendorShard:
        """Take a shard out of routing (its journal remains auditable)."""
        self.ring.remove_shard(shard_id)
        return self.shards[shard_id]

    # --- routing ----------------------------------------------------------

    def route(self, position: int) -> VendorShard | None:
        """Live shard serving ``position``; ``None`` if the fleet is dark.

        The ring owner when it is up; otherwise the first live shard on
        the preference walk (counted as a takeover).
        """
        owner = self.shards[self.ring.owner_at(position)]
        if owner.up:
            return owner
        for shard_id in self.ring.preference_at(position, len(self.ring)):
            shard = self.shards[shard_id]
            if shard.up:
                self.takeovers += 1
                return shard
        return None

    def route_device(self, device: str) -> VendorShard | None:
        return self.route(key_position(device))

    # --- cross-shard invariant --------------------------------------------

    def reconcile(self) -> int:
        """Enforce at-most-one-live-license-per-device *across* shards.

        Failover can legitimately leave duplicates: a device granted on
        shard A (which then crashed before acking), retried onto shard
        B, then A restarted and replayed its journal.  The keeper is
        the current ring owner's grant when the owner holds one, else
        the earliest grant on the preference walk; every other copy is
        revoked (journaled + audited).  Returns revocation count.
        """
        holders: dict[str, list[VendorShard]] = {}
        for shard in self.shards.values():
            for device in shard.journal.live:
                holders.setdefault(device, []).append(shard)
        revoked = 0
        for device, shards in holders.items():
            if len(shards) < 2:
                continue
            order = {shard_id: rank for rank, shard_id in enumerate(
                self.ring.preference_at(key_position(device),
                                        len(self.ring)))}
            keeper = min(
                shards,
                key=lambda s: (order.get(s.shard_id, len(order)),
                               s.journal.live[device].lsn))
            for shard in shards:
                if shard is keeper:
                    continue
                shard.journal.revoke(device, "reconcile-stale-duplicate")
                shard.audit.append("revoke", device=device,
                                   reason="reconcile-stale-duplicate",
                                   keeper=keeper.shard_id)
                revoked += 1
        return revoked

    def live_licenses(self) -> dict[str, str]:
        """device -> holding shard for every live grant (post-reconcile
        this is injective by construction)."""
        held: dict[str, str] = {}
        for shard in self.shards.values():
            for device in shard.journal.live:
                held[device] = shard.shard_id
        return held

    def verify_audits(self) -> dict[str, bytes]:
        """Offline-verify every shard's audit chain; shard -> head."""
        for shard in self.shards.values():
            shard.audit.seal()
        return {shard_id: shard.audit.verify()
                for shard_id, shard in self.shards.items()}

    # --- the storm driver -------------------------------------------------

    def run_storm(self, cohorts: list[DeviceCohort], *,
                  storm_seconds: float = 2.0,
                  max_seconds: float = 120.0,
                  compact_lag: int = 20_000) -> StormReport:
        """Drive every cohort device through attest + grant; see module doc."""
        start_ms = self.clock.now_ms
        horizon_ms = start_ms + max_seconds * 1000.0
        # Event heap: (due_ms, seq, cohort_index, device_index).  The
        # seq tiebreaker keeps ordering deterministic and comparisons
        # off the payload.
        events: list[tuple[float, int, int, int]] = []
        arrival_ms: dict[tuple[int, int], float] = {}
        seq = 0
        for ci, cohort in enumerate(cohorts):
            for di in range(len(cohort)):
                due = start_ms + cohort.arrivals[di] * storm_seconds * 1000.0
                arrival_ms[(ci, di)] = due
                events.append((due, seq, ci, di))
                seq += 1
        heapq.heapify(events)

        devices = sum(len(c) for c in cohorts)
        latencies: list[float] = []
        rejected = refused = retries = drops = 0
        waves = 0
        restarts_done = 0
        restart_at: dict[str, float] = {}
        gauge_in_flight = gauge_depth = None
        if _obs.TELEMETRY is not None:
            gauge_in_flight = _obs.TELEMETRY.metrics.gauge(
                "omg_fleet_enrollments_in_flight",
                "device enrollments not yet terminal")
            gauge_depth = _obs.TELEMETRY.metrics.gauge(
                "omg_fleet_shard_queue_depth",
                "legs queued on a shard in the current wave")

        now = start_ms
        while events and now <= horizon_ms:
            now = max(now + WAVE_MS, events[0][0])
            # Crashed shards whose repair window elapsed come back up
            # (journal replay) before the wave routes.
            for shard_id, due in list(restart_at.items()):
                if due <= now:
                    self.shards[shard_id].restart()
                    restarts_done += 1
                    del restart_at[shard_id]
            due_legs: dict[str, list[tuple[int, int]]] = {}
            deferred: list[tuple[float, int, int, int]] = []
            while events and events[0][0] <= now:
                _, _, ci, di = heapq.heappop(events)
                cohort = cohorts[ci]
                if cohort.state[di] not in (STATE_ATTEST, STATE_GRANT):
                    continue
                shard = self.route(cohort.positions[di])
                if shard is None:  # whole fleet dark: wait for repairs
                    seq += 1
                    deferred.append((now + RESTART_DELAY_MS, seq, ci, di))
                    continue
                due_legs.setdefault(shard.shard_id, []).append((ci, di))
            for item in deferred:
                heapq.heappush(events, item)

            waves += 1
            # Grant unlocks accumulate across every shard in the wave so
            # the device-side crypto runs one batched pass per cohort.
            unlock: dict[int, tuple[list[int], list]] = {}
            for shard_id, members in due_legs.items():
                shard = self.shards[shard_id]
                if gauge_depth is not None:
                    gauge_depth.set(float(len(members)), shard=shard_id)
                legs = [cohorts[ci].leg(di) for ci, di in members]
                replies = shard.enroll_wave(legs)
                for position, ((ci, di), reply) in enumerate(
                        zip(members, replies)):
                    cohort = cohorts[ci]
                    done_ms = now + (position + 1) * SERVICE_US / 1000.0
                    if reply.status == "ok":
                        if reply.step == "attest":
                            cohort.state[di] = STATE_GRANT
                            seq += 1
                            heapq.heappush(events, (done_ms, seq, ci, di))
                        else:
                            indices, batch = unlock.setdefault(
                                ci, ([], []))
                            indices.append(di)
                            batch.append(reply)
                            latencies.append(
                                done_ms - arrival_ms[(ci, di)])
                    elif reply.status in ("dropped", "down"):
                        if reply.status == "dropped":
                            drops += 1
                        retries += 1
                        cohort.attempts[di] += 1
                        delay = BACKOFF_MS * (
                            BACKOFF_FACTOR ** (cohort.attempts[di] - 1))
                        seq += 1
                        heapq.heappush(events,
                                       (now + delay, seq, ci, di))
                    elif reply.status == "rejected":
                        cohort.state[di] = "rejected"
                        rejected += 1
                    else:  # refused: license invariant said no
                        cohort.state[di] = "refused"
                        refused += 1
                if not shard.up and shard_id not in restart_at:
                    restart_at[shard_id] = now + RESTART_DELAY_MS
                # A crashed shard's journal holds no live state until
                # restart replays it; compacting it would erase grants.
                if shard.up and shard.journal.lag > compact_lag:
                    shard.journal.compact()
            if unlock:
                complete_grant_batches(
                    [(cohorts[ci], indices, batch)
                     for ci, (indices, batch) in unlock.items()])
            if gauge_in_flight is not None:
                gauge_in_flight.set(float(len(events)))

        self.clock.advance_ms(max(0.0, now - start_ms))
        latencies.sort()
        granted = sum(cohort.unwrapped for cohort in cohorts)
        stalled = devices - granted - rejected - refused
        return StormReport(
            devices=devices, granted=granted, rejected=rejected,
            refused=refused, stalled=stalled, waves=waves,
            retries=retries, drops=drops, takeovers=self.takeovers,
            crashes=sum(s.crashes for s in self.shards.values()),
            restarts=restarts_done,
            p50_ms=_percentile(latencies, 0.50),
            p99_ms=_percentile(latencies, 0.99),
            virtual_seconds=(now - start_ms) / 1000.0,
            journal_records=sum(s.journal.appends
                                for s in self.shards.values()),
            audit_records=sum(len(s.audit)
                              for s in self.shards.values()),
        )
