"""In-process tests for the leader-less multi-replica cluster layer.

Covers the claim loop (acquire / steal / resume / fence), the hardened
socket client, and the recovery x fairness interaction of the
scheduler.  Real multi-process chaos lives in
``tests/test_cluster_chaos.py``.
"""

import asyncio
import threading
import time

import pytest

from repro.flow.crashpoints import CrashPlan, armed
from repro.flow.journal import RunJournal
from repro.service import (
    BuildService,
    FairScheduler,
    FencedWrite,
    JobSpec,
    LeaseManager,
    ServiceClient,
    ServiceServer,
    SimSpec,
)
from repro.service.chaos import SERVICE_DSL, SERVICE_SOURCES, default_submissions
from repro.service.cluster import ClusterReplica, read_replica_reports
from repro.service.leases import Fence
from repro.service.store import JobStore
from repro.util.errors import FlowInterrupted, ReproError
from tests.test_service import BAD_SOURCES, INC_DSL, INC_SOURCES


def _seed(root, submissions=None):
    store = JobStore(root)
    order = 0
    seeded = []
    for tenant, spec in submissions or default_submissions():
        order += 1
        job_id = spec.job_id(tenant)
        store.save_spec(tenant, job_id, spec, order=order)
        seeded.append((tenant, job_id, spec))
    return store, seeded


def _reference(tmp_path):
    svc = BuildService(tmp_path / "ref", workers=1, check_tcl=False)
    digests = {}
    for tenant, spec in default_submissions():
        record = svc.submit(tenant, spec)
        asyncio.run(svc.drain())
        digests[record.job_id] = (record.artifact_digest, record.sim_digest)
    svc.close()
    return digests


class TestClusterDrain:
    def test_single_replica_drains_seeded_store(self, tmp_path):
        root = tmp_path / "root"
        store, seeded = _seed(root)
        replica = ClusterReplica(root, "r1", check_tcl=False)
        replica.recover()
        report = replica.run_until_drained(timeout_s=180)
        replica.close()
        assert not report["timed_out"]
        assert report["acquired"] == len(seeded)
        assert sorted(report["published"]) == sorted(j for _, j, _ in seeded)
        for tenant, job_id, _ in seeded:
            record = store.load_terminal(tenant, job_id)
            assert record is not None and record.state == "done"
            assert record.replica == "r1"

    def test_cluster_digests_match_single_service(self, tmp_path):
        reference = _reference(tmp_path)
        root = tmp_path / "root"
        store, seeded = _seed(root)
        replica = ClusterReplica(root, "r1", check_tcl=False)
        replica.recover()
        replica.run_until_drained(timeout_s=180)
        replica.close()
        for _, job_id, _ in seeded:
            record = next(
                s.record for s in store.scan() if s.job_id == job_id
            )
            assert (record.artifact_digest, record.sim_digest) == reference[
                job_id
            ]

    def test_replica_report_is_durable(self, tmp_path):
        root = tmp_path / "root"
        _seed(root)
        replica = ClusterReplica(root, "r1", check_tcl=False)
        replica.recover()
        replica.run_until_drained(timeout_s=180)
        replica.close()
        reports = read_replica_reports(root)
        assert [r["replica"] for r in reports] == ["r1"]
        assert reports[0]["fenced_writes"] == 0


class TestSharedAttemptPath:
    def test_replica_failure_charges_the_step_breaker(self, tmp_path):
        root = tmp_path / "root"
        spec = JobSpec(dsl=INC_DSL, sources=dict(BAD_SOURCES))
        store, [(tenant, job_id, _)] = _seed(root, [("alice", spec)])
        replica = ClusterReplica(root, "r1", check_tcl=False)
        replica.recover()
        report = replica.run_until_drained(timeout_s=60)
        replica.close()
        assert report["published"] == [job_id]
        record = store.load_terminal(tenant, job_id)
        assert record.state == "failed"
        assert record.error_step == "hls"
        assert record.replica == "r1"
        assert replica.svc.breakers["hls"].consecutive_failures == 1

    def test_cancelled_replica_publishes_nothing(self, tmp_path):
        """Shutting a replica down mid-job leaves the job to a peer."""
        root = tmp_path / "root"
        spec = JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES))
        store, [(tenant, job_id, _)] = _seed(root, [("alice", spec)])
        replica = ClusterReplica(root, "r1", check_tcl=False)
        started, release = threading.Event(), threading.Event()

        def stuck(*args, **kwargs):
            started.set()
            release.wait(10)
            raise RuntimeError("attempt outlived its replica")

        replica.svc._execute = stuck

        async def go():
            run = asyncio.create_task(replica.run(stop_when_drained=False))
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, started.wait, 10)
            run.cancel()
            await asyncio.wait({run}, timeout=10)
            return run.cancelled()

        try:
            cancelled = asyncio.run(go())
        finally:
            release.set()
            replica.close()
        assert cancelled
        assert store.load_terminal(tenant, job_id) is None
        assert replica.svc.breakers == {}
        assert replica.leases.read(job_id) is None  # released for a peer


class TestStealAndResume:
    def test_expired_foreign_lease_is_stolen_and_job_resumed(self, tmp_path):
        """A replica adopts a dead peer's journal tail, not a rebuild."""
        root = tmp_path / "root"
        store, seeded = _seed(root)
        tenant, job_id, spec = seeded[0]
        # A "previous life" ran the job partway: journal has committed
        # HLS steps, then the process died before integrate committed.
        journal = RunJournal(store.journal_path(tenant, job_id))
        with armed(CrashPlan(site="integrate:commit", mode="raise")):
            with pytest.raises(FlowInterrupted):
                from repro.flow.orchestrator import FlowConfig, run_flow

                run_flow(
                    spec.dsl,
                    dict(spec.sources),
                    config=FlowConfig(check_tcl=False),
                    build_cache=store.cache_for(),
                    journal=journal,
                )
        journal.close()
        # The dead peer's lease is still on disk, long expired.
        dead = LeaseManager(root, "dead", ttl_s=0.05)
        assert dead.acquire(job_id) is not None
        time.sleep(0.1)

        replica = ClusterReplica(root, "r2", check_tcl=False, ttl_s=0.05)
        replica.recover()
        report = replica.run_until_drained(timeout_s=180)
        replica.close()
        assert report["stolen"] == 1
        record = store.load_terminal(tenant, job_id)
        assert record is not None and record.state == "done"
        # The committed prefix was adopted, not re-executed.
        assert record.served_from == "resume"

    def test_stale_token_publish_is_fenced(self, tmp_path):
        root = tmp_path / "root"
        store, seeded = _seed(root)
        tenant, job_id, _ = seeded[0]
        zombie = LeaseManager(root, "zombie", ttl_s=0.05)
        lease = zombie.acquire(job_id)
        fence = Fence(zombie, lease)
        time.sleep(0.1)
        thief = LeaseManager(root, "thief", ttl_s=0.05)
        assert thief.steal(job_id, thief.read(job_id)) is not None
        from repro.service.jobs import DONE, JobRecord

        record = JobRecord(job_id=job_id, tenant=tenant, state=DONE)
        with pytest.raises(FencedWrite):
            store.write_terminal(record, content_digest="cd", fence=fence)
        # Nothing was published by the zombie.
        assert store.load_terminal(tenant, job_id) is None


class TestFirstWriterWins:
    def test_save_spec_preserves_original_admission_order(self, tmp_path):
        store = JobStore(tmp_path / "root")
        spec = JobSpec(dsl=SERVICE_DSL, sources=dict(SERVICE_SOURCES))
        job_id = spec.job_id("alice")
        assert store.save_spec("alice", job_id, spec, order=3)
        # A resubmission (lost ACK, other replica) must not clobber.
        assert not store.save_spec("alice", job_id, spec, order=9)
        scan = store.scan()
        assert len(scan) == 1 and scan[0].order == 3


class TestServiceClientHardening:
    def test_backoff_is_deterministic_and_capped(self):
        delays = [
            ServiceClient.backoff_s(n, base=0.05, cap=0.5) for n in range(1, 7)
        ]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.5, 0.5]

    def test_connect_retries_until_socket_appears(self, tmp_path):
        socket_path = tmp_path / "late.sock"
        sleeps = []

        async def go():
            service = BuildService(tmp_path / "root", workers=1)
            server = ServiceServer(service, socket_path)
            loop = asyncio.get_running_loop()

            def client_side():
                # The server binds ~0.15s after the client starts
                # connecting: the first attempts fail, backoff retries win.
                client = ServiceClient(
                    socket_path,
                    timeout_s=30,
                    connect_retries=20,
                    backoff_base_s=0.02,
                    backoff_cap_s=0.1,
                    sleep=lambda s: (sleeps.append(s), time.sleep(s)),
                )
                with client:
                    return client.request("ping")

            task = loop.run_in_executor(None, client_side)
            await asyncio.sleep(0.15)
            await server.start()
            reply = await task
            await server.stop()
            service.close()
            return reply

        reply = asyncio.run(go())
        assert reply["pong"] is True
        assert sleeps, "client connected without ever needing a retry"

    def test_connect_gives_up_after_bounded_retries(self, tmp_path):
        with pytest.raises(ReproError, match="could not connect"):
            ServiceClient(
                tmp_path / "never.sock",
                connect_retries=2,
                backoff_base_s=0.01,
                backoff_cap_s=0.02,
            )

    def test_lost_ack_resubmission_is_idempotent(self, tmp_path):
        """A submit whose ACK is lost can be replayed verbatim: same job,
        one admission, one record."""
        socket_path = tmp_path / "svc.sock"

        async def go():
            service = BuildService(
                tmp_path / "root", workers=1, check_tcl=False
            )
            server = ServiceServer(service, socket_path)
            await server.start()
            loop = asyncio.get_running_loop()

            def client_side():
                with ServiceClient(socket_path, timeout_s=120) as client:
                    spec = JobSpec(
                        dsl=SERVICE_DSL,
                        sources=dict(SERVICE_SOURCES),
                        sim=SimSpec(seed=1),
                    )
                    # Drop the first request on the floor after sending —
                    # exactly what a replica crash mid-ACK looks like.
                    real_request = client.request
                    calls = {"n": 0}

                    def flaky_request(op, **fields):
                        if op == "submit" and calls["n"] == 0:
                            calls["n"] += 1
                            real_request(op, **fields)  # server admits it
                            raise OSError("connection reset before ACK")
                        return real_request(op, **fields)

                    client.request = flaky_request
                    sub = client.submit("alice", spec, resubmit=2)
                    assert sub["ok"], sub
                    job_id = sub["record"]["job_id"]
                    done = client.wait(job_id, timeout=120)
                    return job_id, done

            job_id, done = await loop.run_in_executor(None, client_side)
            await server.stop()
            stats = service.stats()
            service.close()
            return job_id, done, stats

        job_id, done, stats = asyncio.run(go())
        assert done["ok"] and done["record"]["state"] == "done"
        assert stats["jobs"]["done"] == 1  # one job, not two
        store = JobStore(tmp_path / "root")
        assert len(store.scan()) == 1


class TestRestoreFairness:
    """Recovered jobs re-enter admission order without perturbing the
    starvation guard for other tenants (satellite of the cluster PR)."""

    def test_restored_jobs_keep_admission_order(self):
        sched = FairScheduler(depth_bound=2)
        # Recovery replays the durable admission order via restore(),
        # even past the depth bound.
        for k in range(4):
            sched.restore("alice", f"a{k}")
        sched.restore("bob", "b0")
        picks = [sched.pick() for _ in range(5)]
        assert [j for _, j in picks if _ == "alice"] == [
            "a0",
            "a1",
            "a2",
            "a3",
        ]
        # Round-robin still interleaves bob fairly.
        assert ("bob", "b0") in picks

    def test_restore_does_not_reset_other_tenants_skip_counters(self):
        sched = FairScheduler(starvation_after=2)
        sched.submit("alice", "a0")
        sched.submit("bob", "b0")
        sched.submit("alice", "a1")
        sched.submit("alice", "a2")
        # Run alice twice; bob's head gets passed over both times.
        assert sched.pick() == ("alice", "a0")
        skips_before = sched._skips["b0"]
        assert skips_before >= 1
        # A crash-recovery restore for carol must not reset b0's credit.
        sched.restore("carol", "c0")
        assert sched._skips["b0"] == skips_before

    def test_starved_recovered_job_wins_via_guard(self):
        sched = FairScheduler(starvation_after=2)
        sched.restore("bob", "b0")
        for k in range(6):
            sched.submit("alice", f"a{k}")
        order = []
        while True:
            pick = sched.pick()
            if pick is None:
                break
            order.append(pick)
        # bob's lone recovered job is picked within the guard bound,
        # not starved behind alice's queue.
        position = order.index(("bob", "b0"))
        assert position <= sched.starvation_after + 1
