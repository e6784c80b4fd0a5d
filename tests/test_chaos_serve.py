"""End-to-end serving chaos: the batched serving stack under fault storms.

Every seeded schedule must satisfy
* liveness — the drive loop completes (or fails with a *typed*
  ReproError); no wedged dispatch loop, no bare exceptions;
* safety — no model/input plaintext on any untrusted surface, and the
  exactly-once ledger balances: every accepted sequence number ends as
  exactly one response or one counted loss, never a duplicate —
and its fault transcript must reproduce bit-for-bit from the seed.
"""

import numpy as np
import pytest

from repro.eval.chaos import run_serve_chaos_schedule, write_chaos_transcripts
from tests.helpers import pinned_transcript_digests, transcript_digests

SERVE_CHAOS_SEEDS = list(range(20))


@pytest.fixture(scope="module")
def serve_chaos_results():
    """Run every schedule once; individual tests assert on the shared set."""
    return {seed: run_serve_chaos_schedule(seed)
            for seed in SERVE_CHAOS_SEEDS}


@pytest.mark.parametrize("seed", SERVE_CHAOS_SEEDS)
def test_schedule_liveness(serve_chaos_results, seed):
    result = serve_chaos_results[seed]
    assert result.live, (
        f"seed {seed} violated liveness: untyped "
        f"{result.error}: {result.error_message}")


@pytest.mark.parametrize("seed", SERVE_CHAOS_SEEDS)
def test_schedule_safety(serve_chaos_results, seed):
    result = serve_chaos_results[seed]
    assert result.safe, (
        f"seed {seed} violated safety: {result.safety_violations}")


@pytest.mark.parametrize("seed", SERVE_CHAOS_SEEDS)
def test_exactly_once_accounting(serve_chaos_results, seed):
    """Accepted seqs − delivered responses == counted losses, exactly."""
    result = serve_chaos_results[seed]
    assert result.duplicates == 0
    if result.completed:
        assert result.missing == result.counted_losses, (
            f"seed {seed}: {result.missing} accepted seqs missing but "
            f"{result.counted_losses} losses counted")
        assert result.delivered + result.missing == result.accepted


def test_schedule_set_is_meaningful(serve_chaos_results):
    """The seed set must actually exercise the degradation machinery —
    a battery where nothing fires (or nothing survives) proves nothing."""
    results = list(serve_chaos_results.values())
    assert sum(r.completed for r in results) >= len(results) // 2
    assert sum(len(r.fault_lines) for r in results) >= len(results)
    fired_sites = {line.split()[1]
                   for r in results for line in r.fault_lines}
    # Every serving fault domain fires somewhere across the battery.
    assert {"serve.ingress", "serve.egress", "ring.reserve",
            "sched.deadline", "keycache.chunk",
            "worker.invoke"} <= fired_sites
    # Panics end in successful re-attested recovery, and the graceful
    # paths (shed, requeue) were actually taken.
    panicked = [r for r in results
                if any("worker.invoke" in line for line in r.fault_lines)]
    assert panicked
    assert all(r.stats["workers_restarted"] >= 1 for r in panicked
               if r.completed)
    assert any(r.stats["batches_requeued"] >= 1 for r in results)
    assert any(r.shed > 0 for r in results)
    assert any(r.stats["auth_failures"] > 0 for r in results)


def test_schedules_reproduce_bit_for_bit():
    """Same seed, same transcript and same frozen stats snapshot."""
    first = run_serve_chaos_schedule(4)
    second = run_serve_chaos_schedule(4)
    assert first.fault_lines == second.fault_lines
    assert first.stats == second.stats
    assert first.transcript() == second.transcript()


def test_transcripts_match_pinned_digests(serve_chaos_results):
    """Every seed's transcript is byte-identical to the committed
    one: a refactor of the fault machinery must not move a fault,
    a counter or a rule."""
    assert (transcript_digests(serve_chaos_results)
            == pinned_transcript_digests("serve"))


def test_transcripts_embed_stats_snapshot(tmp_path, serve_chaos_results):
    """Satellite: serving transcripts carry the frozen ServingStats."""
    results = [serve_chaos_results[seed] for seed in SERVE_CHAOS_SEEDS[:3]]
    out = write_chaos_transcripts(results, str(tmp_path / "serve-chaos"))
    text = (tmp_path / "serve-chaos" / "chaos-seed-0000.txt").read_text()
    assert "serving stats:" in text
    assert "workers_restarted=" in text
    assert "requests_shed=" in text
    assert out


def test_fingerprint_left_in_the_rings_is_a_safety_violation(monkeypatch):
    """A request plaintext copied into the world-open ring region must
    fail the schedule's leak sweep."""
    from repro.serve import ServingService

    submitted = []
    submit, teardown = ServingService.submit, ServingService.teardown

    def recording_submit(self, handle, fingerprint):
        submitted.append(np.array(fingerprint, dtype=np.uint8))
        return submit(self, handle, fingerprint)

    def leaky_teardown(self):
        soc = self.platform.soc
        rings = next(region for region, _ in soc.tzasc.regions()
                     if region.name == "serve-rings")
        leaked = submitted[0].tobytes()
        soc.memory.write(rings.end - len(leaked), leaked)
        teardown(self)

    monkeypatch.setattr(ServingService, "submit", recording_submit)
    monkeypatch.setattr(ServingService, "teardown", leaky_teardown)
    result = run_serve_chaos_schedule(0)
    assert result.completed and not result.safe
    assert any("DRAM" in line for line in result.safety_violations)


def test_unscrubbed_keystream_chunk_is_a_safety_violation(monkeypatch):
    """Keystream chunks a session close never scrubs must end as a
    safety violation at the serving teardown, not as an error."""
    from repro.crypto.keycache import KeystreamCache

    monkeypatch.setattr(KeystreamCache, "forget_session",
                        lambda self, session_id: None)
    result = run_serve_chaos_schedule(0)
    assert result.completed and result.error is None and not result.safe
    assert any("never scrubbed" in line
               for line in result.safety_violations)


def test_ring_commit_without_reserve_is_a_safety_violation(monkeypatch):
    """A producer that commits an ingress slot it never reserved must
    stop the schedule with a safety violation, not a typed error."""
    from repro.serve import ServingService

    submit = ServingService.submit
    calls = []

    def rogue_submit(self, handle, fingerprint):
        calls.append(handle.session_id)
        if len(calls) == 5:
            self._ingress_prod.commit(0)
        return submit(self, handle, fingerprint)

    monkeypatch.setattr(ServingService, "submit", rogue_submit)
    result = run_serve_chaos_schedule(0)
    assert result.error is None and not result.safe
    assert any("without a successful try_reserve" in line
               for line in result.safety_violations)
