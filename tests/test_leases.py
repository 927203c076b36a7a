"""Unit tests for the lease/fencing protocol (leader-less ownership).

Cross-process arbitration is exercised here with multiple
:class:`LeaseManager` instances over one ``leases/`` directory — the
primitives (O_EXCL link, atomic rename) behave identically whether the
contenders share a process or not.  The full multi-process story is
``tests/test_cluster_chaos.py`` and ``repro servicecheck --replicas``.
"""

import json

import pytest

from repro.obs import capture
from repro.obs.metrics import REGISTRY
from repro.service import FencedWrite, LeaseLost, LeaseManager
from repro.service.leases import Fence


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def manager(tmp_path, replica, clock, ttl=5.0, incarnation=0):
    return LeaseManager(
        tmp_path, replica, ttl_s=ttl, clock=clock, incarnation=incarnation
    )


class TestAcquire:
    def test_fresh_acquire_carries_token_one(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock)
        lease = a.acquire("j-1")
        assert lease is not None
        assert lease.token == 1 and lease.replica == "a"
        assert a.owns(lease)
        # The payload is on disk, durable, and readable by peers.
        b = manager(tmp_path, "b", clock)
        seen = b.read("j-1")
        assert seen == lease

    def test_second_acquire_loses(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock)
        b = manager(tmp_path, "b", clock)
        assert a.acquire("j-1") is not None
        assert b.acquire("j-1") is None

    def test_acquire_after_release_restarts_chain(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock)
        lease = a.acquire("j-1")
        assert a.release(lease)
        again = manager(tmp_path, "b", clock).acquire("j-1")
        assert again is not None and again.token == 1


class TestHeartbeatAndRenew:
    def test_renew_refreshes_heartbeat(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock, ttl=5.0)
        lease = a.acquire("j-1")
        clock.now += 4.0
        assert a.renew(lease)
        clock.now += 4.0  # 8s since acquire, 4s since renewal
        assert not a.expired(lease)

    def test_missed_heartbeats_expire(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock, ttl=5.0)
        lease = a.acquire("j-1")
        clock.now += 5.1
        assert a.expired(lease)

    def test_renew_after_steal_refuses(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock, ttl=5.0)
        b = manager(tmp_path, "b", clock, ttl=5.0)
        lease = a.acquire("j-1")
        clock.now += 6.0
        stolen = b.steal("j-1", b.read("j-1"))
        assert stolen is not None
        assert not a.renew(lease)
        # The stale renewal wrote nothing that disturbs the new owner.
        assert b.owns(stolen)


class TestSteal:
    def test_steal_requires_expiry(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock, ttl=5.0)
        b = manager(tmp_path, "b", clock, ttl=5.0)
        a.acquire("j-1")
        assert b.steal("j-1", b.read("j-1")) is None

    def test_steal_increments_token(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock, ttl=5.0)
        b = manager(tmp_path, "b", clock, ttl=5.0)
        c = manager(tmp_path, "c", clock, ttl=5.0)
        a.acquire("j-1")
        clock.now += 6.0
        second = b.steal("j-1", b.read("j-1"))
        assert second is not None and second.token == 2
        clock.now += 6.0
        third = c.steal("j-1", c.read("j-1"))
        assert third is not None and third.token == 3

    def test_concurrent_stealers_exactly_one_wins(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock, ttl=5.0)
        b = manager(tmp_path, "b", clock, ttl=5.0)
        c = manager(tmp_path, "c", clock, ttl=5.0)
        a.acquire("j-1")
        clock.now += 6.0
        # Both read the same expired view, then race for token 2.
        view_b, view_c = b.read("j-1"), c.read("j-1")
        won_b = b.steal("j-1", view_b)
        won_c = c.steal("j-1", view_c)
        winners = [w for w in (won_b, won_c) if w is not None]
        assert len(winners) == 1
        assert winners[0].token == 2

    def test_lease_path_never_absent_during_steal(self, tmp_path):
        """An acquire can never slip in mid-steal with a regressed token."""
        clock = FakeClock()
        a = manager(tmp_path, "a", clock, ttl=5.0)
        b = manager(tmp_path, "b", clock, ttl=5.0)
        a.acquire("j-1")
        clock.now += 6.0
        stolen = b.steal("j-1", b.read("j-1"))
        assert stolen is not None
        # After (and during) the steal the path exists with the new
        # token — a scanner that reads None would acquire at token 1.
        assert b.lease_path("j-1").exists()
        assert manager(tmp_path, "d", clock).acquire("j-1") is None

    def test_loser_finishes_a_crashed_winners_steal(self, tmp_path):
        """A stealer that died between claim and install doesn't wedge
        the job: the next stealer completes the rename and bows out."""
        clock = FakeClock()
        a = manager(tmp_path, "a", clock, ttl=5.0)
        b = manager(tmp_path, "b", clock, ttl=5.0)
        c = manager(tmp_path, "c", clock, ttl=5.0)
        a.acquire("j-1")
        clock.now += 6.0
        # Simulate b crashing mid-steal: claim linked, install skipped.
        view = b.read("j-1")
        fresh = type(view)(
            job_id="j-1", replica="b", token=2, acquired_at=clock()
        )
        tmp = b.dir / ".tmp-crashed-b"
        b._write_payload(tmp, fresh)
        import os

        os.link(tmp, b._claim_path("j-1", 2))
        os.unlink(tmp)
        # c tries to steal token 2, finds the claim taken, helps out.
        assert c.steal("j-1", c.read("j-1")) is None
        current = c.read("j-1")
        assert current is not None
        assert current.replica == "b" and current.token == 2

    def test_release_sweeps_claims(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock, ttl=5.0)
        b = manager(tmp_path, "b", clock, ttl=5.0)
        a.acquire("j-1")
        clock.now += 6.0
        stolen = b.steal("j-1", b.read("j-1"))
        assert b.release(stolen)
        assert list(b.dir.glob("j-1*")) == []


class TestFence:
    def test_check_passes_while_owned(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock)
        lease = a.acquire("j-1")
        Fence(a, lease).check("any:site")  # no raise

    def test_check_raises_after_steal(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock, ttl=5.0)
        b = manager(tmp_path, "b", clock, ttl=5.0)
        lease = a.acquire("j-1")
        clock.now += 6.0
        assert b.steal("j-1", b.read("j-1")) is not None
        with pytest.raises(LeaseLost) as err:
            Fence(a, lease).check("hls:X:commit")
        assert err.value.job_id == "j-1" and err.value.token == 1

    def test_validate_raises_and_counts_fenced_write(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock, ttl=5.0)
        b = manager(tmp_path, "b", clock, ttl=5.0)
        lease = a.acquire("j-1")
        clock.now += 6.0
        b.steal("j-1", b.read("j-1"))
        before = REGISTRY.counter("service.fenced_writes_total").value
        with pytest.raises(FencedWrite):
            Fence(a, lease).validate()
        after = REGISTRY.counter("service.fenced_writes_total").value
        assert after == before + 1

    def test_lease_events_emitted_under_capture(self, tmp_path):
        clock = FakeClock()
        with capture() as (bus, _registry):
            a = manager(tmp_path, "a", clock, ttl=5.0)
            b = manager(tmp_path, "b", clock, ttl=5.0)
            lease = a.acquire("j-1")
            a.renew(lease)
            clock.now += 6.0
            b.steal("j-1", b.read("j-1"))
            with pytest.raises(LeaseLost):
                Fence(a, lease).check("swgen:start")
            kinds = [e.category for e in bus.events()]
        assert "service.lease_acquired" in kinds
        assert "service.lease_renewed" in kinds
        assert "service.lease_stolen" in kinds
        assert "service.lease_fenced" in kinds


class TestIncarnations:
    def test_restart_steals_its_predecessors_live_lease_at_once(self, tmp_path):
        clock = FakeClock()
        old = manager(tmp_path, "d0", clock, incarnation=1)
        lease = old.acquire("j-1")
        assert lease.incarnation == 1
        new = manager(tmp_path, "d0", clock, incarnation=2)
        # The heartbeat is fresh, but it is our own past life's lease.
        assert not new.expired(lease)
        assert new.predecessor(lease) and new.stale(lease)
        mine = new.steal("j-1", lease)
        assert mine is not None
        assert (mine.token, mine.incarnation) == (2, 2)
        # The dead incarnation is fenced, even though its id matches.
        assert not old.owns(lease) and new.owns(mine)
        with pytest.raises(LeaseLost):
            Fence(old, lease).check("integrate:start")

    def test_same_token_other_incarnation_is_not_owned(self, tmp_path):
        """After a release restarts the chain at token 1, a zombie of an
        older incarnation holding token 1 under the same id is fenced."""
        clock = FakeClock()
        old = manager(tmp_path, "d0", clock, incarnation=1)
        zombie = old.acquire("j-1")
        new = manager(tmp_path, "d0", clock, incarnation=2)
        assert new.release(new.steal("j-1", zombie))
        again = new.acquire("j-1")
        assert again.token == zombie.token == 1
        assert not old.owns(zombie)

    def test_peers_and_newer_incarnations_still_wait_for_expiry(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock, incarnation=1)
        a.acquire("j-1")
        peer = manager(tmp_path, "b", clock, incarnation=9)
        assert peer.steal("j-1", peer.read("j-1")) is None
        older = manager(tmp_path, "a", clock, incarnation=0)
        assert not older.predecessor(older.read("j-1"))
        assert older.steal("j-1", older.read("j-1")) is None


class TestLeaseFileFormat:
    def test_garbage_lease_file_reads_as_none(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock)
        a.dir.mkdir(parents=True, exist_ok=True)
        a.lease_path("j-bad").write_text("not json{")
        assert a.read("j-bad") is None

    def test_active_lists_all_leases(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock)
        a.acquire("j-1")
        a.acquire("j-2")
        jobs = [lease.job_id for lease in a.active()]
        assert jobs == ["j-1", "j-2"]

    def test_lease_payload_is_sorted_json(self, tmp_path):
        clock = FakeClock()
        a = manager(tmp_path, "a", clock)
        lease = a.acquire("j-1")
        raw = a.lease_path("j-1").read_text()
        assert raw == json.dumps(lease.as_dict(), sort_keys=True) + "\n"
