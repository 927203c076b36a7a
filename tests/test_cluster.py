"""In-process tests for the leader-less multi-replica service.

Every :class:`BuildService` is a replica: covers its run loop over a
shared store (acquire / steal / resume / fence), one fenced job at a
time inside one replica, ``repro serve --replicas`` flag passing, the
hardened socket client, and the recovery x fairness interaction of the
scheduler.  Real multi-process chaos lives in
``tests/test_cluster_chaos.py``.
"""

import asyncio
import itertools
import shlex
import sys
import threading
import time

import pytest

from repro import cli
from repro.flow.crashpoints import BOUNDARY_HOOK, CrashPlan, armed
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
from repro.service import chaos
from repro.service.chaos import (
    SERVICE_DSL,
    SERVICE_SOURCES,
    default_submissions,
    read_replica_reports,
)
from repro.service.jobs import RUNNING
from repro.service.leases import Fence, LeaseLost
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
    svc = BuildService(tmp_path / "ref", check_tcl=False)
    digests = {}
    for tenant, spec in default_submissions():
        record = svc.submit(tenant, spec)
        asyncio.run(svc.drain())
        digests[record.job_id] = (record.artifact_digest, record.sim_digest)
    svc.close()
    return digests


def _drain(svc: BuildService, timeout_s: float) -> dict:
    """Recover, drain within *timeout_s* (or raise), close; the report."""
    svc.recover()
    try:
        asyncio.run(asyncio.wait_for(svc.drain(), timeout_s))
    finally:
        svc.close()
    return svc.report


class TestClusterDrain:
    def test_single_replica_drains_seeded_store(self, tmp_path):
        root = tmp_path / "root"
        store, seeded = _seed(root)
        replica = BuildService(root, replica_id="r1", check_tcl=False)
        report = _drain(replica, 180)
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
        _drain(BuildService(root, replica_id="r1", check_tcl=False), 180)
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
        _drain(BuildService(root, replica_id="r1", check_tcl=False), 180)
        reports = read_replica_reports(root)
        assert [r["replica"] for r in reports] == ["r1"]
        assert reports[0]["fenced_writes"] == 0


class TestSharedAttemptPath:
    def test_replica_failure_charges_the_step_breaker(self, tmp_path):
        root = tmp_path / "root"
        spec = JobSpec(dsl=INC_DSL, sources=dict(BAD_SOURCES))
        store, [(tenant, job_id, _)] = _seed(root, [("alice", spec)])
        replica = BuildService(root, replica_id="r1", check_tcl=False)
        report = _drain(replica, 60)
        assert report["published"] == [job_id]
        record = store.load_terminal(tenant, job_id)
        assert record.state == "failed"
        assert record.error_step == "hls"
        assert record.replica == "r1"
        assert replica.breakers["hls"].consecutive_failures == 1

    def test_cancelled_replica_publishes_nothing(self, tmp_path):
        """Shutting a replica down mid-job leaves the job to a peer."""
        root = tmp_path / "root"
        spec = JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES))
        store, [(tenant, job_id, _)] = _seed(root, [("alice", spec)])
        replica = BuildService(root, replica_id="r1", check_tcl=False)
        started, release = threading.Event(), threading.Event()

        def stuck(*args, **kwargs):
            started.set()
            release.wait(10)
            raise RuntimeError("attempt outlived its replica")

        replica._execute = stuck

        async def go():
            run = asyncio.create_task(replica.run())
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
        assert replica.breakers == {}
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

        replica = BuildService(root, replica_id="r2", check_tcl=False, ttl_s=0.05)
        report = _drain(replica, 180)
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


class TestFencedConcurrency:
    """A replica runs one fenced job at a time on its executor thread,
    while its loop thread heartbeats and claims."""

    def test_stealing_one_lease_aborts_only_that_job(self, tmp_path, monkeypatch):
        """A thief steals the lease of the replica's only running job at
        its first boundary: that job aborts, the next one runs
        untouched.  The thief never publishes or releases: once its
        lease is stale the replica claims the aborted job again and
        publishes it."""
        root = tmp_path / "root"
        other_sources = {"INC": "int INC(int x) { return x + 2; }"}
        store, seeded = _seed(root, [
            ("alice", JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES))),
            ("alice", JobSpec(dsl=INC_DSL, sources=other_sources)),
        ])
        (_, victim, _), (_, survivor, _) = seeded
        thief = LeaseManager(root, "thief", ttl_s=0.0)  # sees every lease stale
        real_check = Fence.check
        visits, running, aborted = [], [], []

        def check(fence, site=None):
            job_id = fence.lease.job_id
            if not visits:
                running.extend(
                    j for j, r in svc.records.items() if r.state == RUNNING
                )
                assert thief.steal(job_id, thief.read(job_id)) is not None
            visits.append(job_id)
            try:
                real_check(fence, site)
            except LeaseLost:
                aborted.append(job_id)
                raise

        monkeypatch.setattr(Fence, "check", check)
        svc = BuildService(root, replica_id="r1", check_tcl=False, ttl_s=1.0)
        report = _drain(svc, 120)

        assert running == [victim]  # the stolen job ran alone
        # Jobs ran one after another: the victim's aborted first
        # boundary, the survivor, then the victim re-claimed.
        assert [job for job, _ in itertools.groupby(visits)] == [
            victim, survivor, victim
        ]
        assert aborted == [victim]
        assert report["lease_lost"] == 1 and report["fenced_writes"] == 1
        # The aborted run published nothing; the re-claim (a steal from
        # the silent thief) published the job once.
        assert not (store.job_dir("alice", victim) / "failed.json").exists()
        assert report["acquired"] == 2 and report["stolen"] == 1
        assert sorted(report["published"]) == sorted([victim, survivor])
        for job_id in (victim, survivor):
            record = store.load_terminal("alice", job_id)
            assert record.state == "done" and record.replica == "r1"
            assert svc.records[job_id].state == "done"
        assert svc.breakers == {}  # a lost lease charges no breaker
        assert LeaseManager(root, "r1").active() == []

    def test_sequential_fenced_jobs_each_keep_their_own_lease(
        self, tmp_path, monkeypatch
    ):
        """Stress: eight jobs, one after another on the executor thread,
        each holds its own lease to the end.  The hook is reset by
        token after every job, so a finished job's released lease never
        fences the next one."""
        root = tmp_path / "root"
        sources = [{"INC": f"int INC(int x) {{ return x + {k}; }}"} for k in range(8)]
        store, seeded = _seed(root, [
            ("alice" if k % 2 else "bob", JobSpec(dsl=INC_DSL, sources=src))
            for k, src in enumerate(sources)
        ])
        real_check = Fence.check
        visits = []

        def check(fence, site=None):
            visits.append(fence.lease.job_id)
            real_check(fence, site)

        monkeypatch.setattr(Fence, "check", check)
        svc = BuildService(root, replica_id="r1", check_tcl=False)
        svc.recover()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            asyncio.run(asyncio.wait_for(svc.drain(), 120))
            leftover_hook = svc._pool.submit(BOUNDARY_HOOK.get).result()
        finally:
            sys.setswitchinterval(interval)
            svc.close()
        report = svc.report
        job_ids = sorted(job_id for _, job_id, _ in seeded)
        runs = [job for job, _ in itertools.groupby(visits)]
        assert sorted(runs) == job_ids  # each job ran once, alone
        assert leftover_hook is None
        assert report["acquired"] == len(job_ids)
        assert sorted(report["published"]) == job_ids
        assert report["lease_lost"] == report["fenced_writes"] == 0
        for tenant, job_id, _ in seeded:
            assert store.load_terminal(tenant, job_id).state == "done"
        assert LeaseManager(root, "r1").active() == []


class TestServeReplicas:
    def test_serve_passes_its_flags_to_every_replica(self, tmp_path, monkeypatch):
        launched = []

        class Child:
            def wait(self, timeout=None):
                return 0

            def poll(self):
                return 0

        def popen(cmd, **kwargs):
            launched.append(cmd)
            return Child()

        monkeypatch.setattr(chaos.subprocess, "Popen", popen)
        socket_path = tmp_path / "svc.sock"
        rc = cli.main([
            "serve", "--root", str(tmp_path / "root"),
            "--socket", str(socket_path), "--replicas", "3",
            "--queue-depth", "2",
            "--saturation-backlog", "5", "--ttl", "1.5", "--no-check-tcl",
        ])
        assert rc == 0 and len(launched) == 3
        for k, cmd in enumerate(launched):
            assert cmd[1:4] == ["-m", "repro", "serve"], shlex.join(cmd)
            child = cli.build_parser().parse_args(cmd[3:])
            assert child.replicas == 1 and child.replica_id == f"r{k}"
            assert child.root == str(tmp_path / "root")
            assert child.socket == str(tmp_path / f"svc.r{k}.sock")
            assert child.queue_depth == 2
            assert child.saturation_backlog == 5
            assert child.ttl == 1.5 and child.no_check_tcl


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
            service = BuildService(tmp_path / "root")
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
            service = BuildService(tmp_path / "root", check_tcl=False)
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
