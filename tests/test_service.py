"""Unit + integration tests for the multi-tenant build service."""

import asyncio
import json

import pytest

from repro.obs import capture
from repro.service import (
    BreakerOpen,
    BuildService,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FairScheduler,
    Fence,
    FencedWrite,
    JobRejected,
    JobSpec,
    LeaseManager,
    RetryPolicy,
    ServiceClient,
    ServiceServer,
    SimSpec,
    UnknownJob,
)
from repro.service.chaos import SERVICE_DSL, SERVICE_SOURCES
from repro.service.jobs import JobRecord
from repro.service.robust import CLOSED, HALF_OPEN, OPEN
from repro.service.store import JobStore
from repro.util.errors import CacheLockTimeout, FlowInterrupted

INC_DSL = """
object t extends App {
  tg nodes;
    tg node "INC" i "x" i "return" end;
  tg end_nodes;
  tg edges;
    tg connect "INC";
  tg end_edges;
}
"""
INC_SOURCES = {"INC": "int INC(int x) { return x + 1; }"}
BAD_SOURCES = {"INC": "int INC(int x { return x + 1; }"}  # unparsable


def drain(service: BuildService) -> None:
    asyncio.run(service.drain())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# FairScheduler


class TestFairScheduler:
    def test_round_robin_across_tenants(self):
        sched = FairScheduler()
        for k in range(3):
            sched.submit("a", f"a{k}")
        for k in range(3):
            sched.submit("b", f"b{k}")
        order = [sched.pick()[1] for _ in range(6)]
        # b's single-job stream is never shut out by a's backlog.
        assert order == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_depth_bound_rejects(self):
        sched = FairScheduler(depth_bound=2)
        sched.submit("a", "a0")
        sched.submit("a", "a1")
        with pytest.raises(JobRejected) as err:
            sched.submit("a", "a2")
        assert err.value.tenant == "a"
        assert err.value.reason == "queue-full"
        # Another tenant is unaffected by a's full queue.
        sched.submit("b", "b0")

    def test_restore_bypasses_bound(self):
        sched = FairScheduler(depth_bound=1)
        sched.submit("a", "a0")
        sched.restore("a", "a1")  # recovery must never lose admitted work
        assert sched.depth("a") == 2

    def test_starvation_guard_zero_is_global_fifo(self):
        # starvation_after=0: the oldest admitted head always wins, so
        # picks follow global admission order regardless of round-robin.
        sched = FairScheduler(starvation_after=0)
        sched.submit("a", "a0")
        sched.submit("a", "a1")
        sched.submit("b", "b0")
        sched.submit("c", "c0")
        order = [sched.pick()[1] for _ in range(4)]
        assert order == ["a0", "a1", "b0", "c0"]

    def test_starvation_guard_promotes_skipped_head(self):
        sched = FairScheduler(starvation_after=2)
        sched.submit("a", "a0")
        sched.submit("a", "a1")
        sched.submit("b", "b0")
        assert sched.pick() == ("a", "a0")  # round-robin: b is up next
        # a1 is now the oldest waiting head; once it has been passed
        # over beyond the bound (as a weighted policy might do), the
        # guard promotes it ahead of b's round-robin turn.
        sched._skips["a1"] = 2
        assert sched.pick() == ("a", "a1")
        assert sched.pick() == ("b", "b0")

    def test_pick_empty(self):
        assert FairScheduler().pick() is None

    def test_describe(self):
        sched = FairScheduler()
        sched.submit("a", "a0")
        assert sched.describe() == {"depth": 1, "tenants": {"a": 1}}


# ---------------------------------------------------------------------------
# RetryPolicy / CircuitBreaker / Deadline


class TestRetryPolicy:
    def test_deterministic_jitter(self):
        policy = RetryPolicy()
        assert policy.delay_s("job-a", 1) == policy.delay_s("job-a", 1)
        assert policy.delay_s("job-a", 1) != policy.delay_s("job-b", 1)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_s=0.1, cap_s=0.4, jitter=0.0)
        assert policy.delay_s("j", 1) == pytest.approx(0.1)
        assert policy.delay_s("j", 2) == pytest.approx(0.2)
        assert policy.delay_s("j", 4) == pytest.approx(0.4)  # capped

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_s=0.1, cap_s=10.0, jitter=0.5)
        for attempt in range(1, 5):
            raw = 0.1 * 2 ** (attempt - 1)
            delay = policy.delay_s("j", attempt)
            assert raw * 0.5 <= delay <= raw * 1.5

    def test_only_transient_failures_retry(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1, CacheLockTimeout("locked"))
        assert policy.should_retry(1, DeadlineExceeded("late"))
        assert policy.should_retry(1, FlowInterrupted("killed"))
        assert not policy.should_retry(1, ValueError("deterministic"))
        assert not policy.should_retry(3, CacheLockTimeout("locked"))


class TestCircuitBreaker:
    def test_lifecycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "hls", failure_threshold=2, cooldown_s=30.0, clock=clock
        )
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(30.0)
        # Cooldown elapses: exactly one half-open probe is admitted.
        clock.now = 31.0
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # second concurrent probe refused
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "hls", failure_threshold=1, cooldown_s=10.0, clock=clock
        )
        breaker.record_failure()
        clock.now = 11.0
        assert breaker.allow()  # the probe
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()


class TestDeadline:
    def test_expiry(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        assert not deadline.expired
        assert deadline.remaining_s() == pytest.approx(5.0)
        clock.now = 6.0
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_unbounded(self):
        deadline = Deadline(None, clock=FakeClock())
        assert deadline.remaining_s() is None
        deadline.check()  # never raises


# ---------------------------------------------------------------------------
# Job identity


class TestJobIdentity:
    def test_content_digest_tenant_independent(self):
        spec = JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES))
        same = JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES))
        assert spec.content_digest() == same.content_digest()
        assert spec.job_id("a") == same.job_id("a")
        assert spec.job_id("a") != spec.job_id("b")

    def test_sim_leg_changes_identity(self):
        plain = JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES))
        simmed = JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES), sim=SimSpec())
        assert plain.content_digest() != simmed.content_digest()

    def test_spec_roundtrips_through_json(self):
        spec = JobSpec(
            dsl=INC_DSL, sources=dict(INC_SOURCES), sim=SimSpec(seed=7),
            deadline_s=12.5,
        )
        back = JobSpec.from_dict(spec.as_dict())
        assert back == spec
        assert back.content_digest() == spec.content_digest()


# ---------------------------------------------------------------------------
# BuildService integration (real flow engine, tiny designs)


class TestBuildService:
    def test_build_job_done(self, tmp_path):
        svc = BuildService(tmp_path)
        record = svc.submit("alice", JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES)))
        drain(svc)
        svc.close()
        assert record.state == "done"
        assert record.served_from == "build"
        assert record.artifact_digest
        out = svc.store.out_dir("alice", record.job_id)
        assert (out / "MANIFEST.json").exists()
        # The terminal record names its publisher, as a replica's does.
        result = svc.store.job_dir("alice", record.job_id) / "result.json"
        assert json.loads(result.read_text())["record"]["replica"] == "d0"

    def test_idempotent_submit(self, tmp_path):
        svc = BuildService(tmp_path)
        spec = JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES))
        first = svc.submit("alice", spec)
        again = svc.submit("alice", spec)
        assert again is first  # same live record, not a second job
        drain(svc)
        after = svc.submit("alice", JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES)))
        svc.close()
        assert after is first  # terminal record re-served
        assert after.state == "done"

    def test_terminal_record_is_never_overwritten(self, tmp_path):
        store = JobStore(tmp_path)
        leases = LeaseManager(tmp_path, "d0")
        fence = Fence(leases, leases.acquire("j-1"))
        first = JobRecord(
            job_id="j-1", tenant="alice", state="done", artifact_digest="a" * 64
        )
        second = JobRecord(
            job_id="j-1", tenant="alice", state="done", artifact_digest="b" * 64
        )
        store.write_terminal(first, content_digest="cd", fence=fence)
        # Even the lease holder cannot publish twice: the losing link is
        # a fenced write, and the first record stays.
        with pytest.raises(FencedWrite):
            store.write_terminal(second, content_digest="cd", fence=fence)
        assert store.load_terminal("alice", "j-1").artifact_digest == "a" * 64

    def test_daemon_adopts_an_existing_terminal_record(self, tmp_path):
        spec = JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES))
        first = BuildService(tmp_path)
        built = first.submit("alice", spec)
        drain(first)
        first.close()
        # A second daemon that skipped recover() admits the job again;
        # its run loop adopts the record already on disk instead of
        # building it twice.
        second = BuildService(tmp_path)
        second.submit("alice", spec)
        drain(second)
        second.close()
        assert second.status(built.job_id).served_from == "build"
        disk = second.store.load_terminal("alice", built.job_id)
        assert disk.served_from == "build"

    def test_cross_tenant_same_artifact(self, tmp_path):
        svc = BuildService(tmp_path)
        a = svc.submit("alice", JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES)))
        b = svc.submit("bob", JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES)))
        drain(svc)
        svc.close()
        assert a.job_id != b.job_id  # separate job records
        assert a.state == b.state == "done"
        assert a.artifact_digest == b.artifact_digest  # shared content

    def test_failure_attributed_to_hls_breaker(self, tmp_path):
        svc = BuildService(tmp_path)
        record = svc.submit("alice", JobSpec(dsl=INC_DSL, sources=dict(BAD_SOURCES)))
        drain(svc)
        svc.close()
        assert record.state == "failed"
        assert record.error_step == "hls"
        assert record.retries == 0  # deterministic failure: no retry burn
        assert svc.breakers["hls"].consecutive_failures == 1

    def test_breaker_open_fails_fast_without_warm(self, tmp_path):
        svc = BuildService(tmp_path, breaker_threshold=1)
        bad = svc.submit("alice", JobSpec(dsl=INC_DSL, sources=dict(BAD_SOURCES)))
        drain(svc)
        assert svc.breakers["hls"].state == OPEN
        # A different job arrives while the breaker is open and there is
        # no warm artifact for it: fail fast, don't burn the backend.
        other = svc.submit(
            "alice",
            JobSpec(dsl=INC_DSL, sources={"INC": "int INC(int x) { return x + 2; }"}),
        )
        drain(svc)
        svc.close()
        assert bad.state == "failed"
        assert other.state == "failed"
        assert "BreakerOpen" in other.error
        # The fail-fast itself must not count against the breaker.
        assert svc.breakers["hls"].consecutive_failures == 1

    def test_warm_serving_under_saturation(self, tmp_path):
        svc = BuildService(tmp_path)
        spec = JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES))
        built = svc.submit("alice", spec)
        drain(svc)
        svc.close()
        # Saturated daemon (backlog bound 0): an identical job from a
        # different tenant is served warm from alice's artifact.
        warm_svc = BuildService(tmp_path, saturation_backlog=0)
        warm_svc.recover()
        warm = warm_svc.submit("bob", JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES)))
        drain(warm_svc)
        warm_svc.close()
        assert warm.state == "done"
        assert warm.served_from == "warm"
        assert warm.artifact_digest == built.artifact_digest
        out = warm_svc.store.out_dir("bob", warm.job_id)
        assert (out / "MANIFEST.json").exists()

    def test_saturation_without_warm_executes_anyway(self, tmp_path):
        svc = BuildService(tmp_path, saturation_backlog=0)
        record = svc.submit("alice", JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES)))
        drain(svc)
        svc.close()
        assert record.state == "done"
        assert record.served_from == "build"

    def test_deadline_retries_then_fails(self, tmp_path):
        clock = FakeClock()
        clock.now = 100.0

        def advancing():
            clock.now += 10.0  # every check: way past any small budget
            return clock.now

        svc = BuildService(
            tmp_path, clock=advancing,
            retry=RetryPolicy(max_attempts=2, base_s=0.001, cap_s=0.002),
        )
        record = svc.submit(
            "alice",
            JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES), deadline_s=1.0),
        )
        drain(svc)
        svc.close()
        assert record.state == "failed"
        assert "DeadlineExceeded" in record.error
        assert record.attempts == 2
        assert record.retries == 1  # transient: retried up to the bound

    def test_unknown_job(self, tmp_path):
        svc = BuildService(tmp_path)
        with pytest.raises(UnknownJob):
            svc.status("j-nope")
        svc.close()

    def test_admission_rejection_reaches_client(self, tmp_path):
        svc = BuildService(tmp_path, queue_depth=1)
        svc.submit("alice", JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES)))
        with pytest.raises(JobRejected):
            svc.submit(
                "alice",
                JobSpec(dsl=INC_DSL, sources={"INC": "int INC(int x) { return 9; }"}),
            )
        svc.close()

    def test_rejected_job_never_runs(self, tmp_path):
        """A rejected submission leaves no intent on disk, so the run
        loop's store scan cannot adopt it past the bound."""
        svc = BuildService(tmp_path, queue_depth=1)
        kept = svc.submit("alice", JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES)))
        spec = JobSpec(dsl=INC_DSL, sources={"INC": "int INC(int x) { return 9; }"})
        with pytest.raises(JobRejected):
            svc.submit("alice", spec)
        drain(svc)
        svc.close()
        rejected = spec.job_id("alice")
        assert kept.state == "done"
        assert rejected not in svc.records
        assert not svc.store.job_dir("alice", rejected).exists()
        assert [s.job_id for s in svc.store.scan()] == [kept.job_id]

    def test_local_events_do_not_rescan_the_store(self, tmp_path, monkeypatch):
        """Submissions and completions wake the loop without a store
        scan: it scans at most once per poll interval, and never reads
        a job it already holds a terminal record for."""
        svc = BuildService(tmp_path, ttl_s=60)  # poll_s = 10 s
        real_scan = svc.store.scan
        skipped = []

        def scan(skip=frozenset()):
            skipped.append(set(skip))
            return real_scan(skip)

        monkeypatch.setattr(svc.store, "scan", scan)
        job_ids = {
            svc.submit(
                "alice",
                JobSpec(dsl=INC_DSL, sources={"INC": f"int INC(int x) {{ return x + {k}; }}"}),
            ).job_id
            for k in range(3)
        }
        drain(svc)
        assert skipped == [set()]  # the first pass only
        drain(svc)
        svc.close()
        assert skipped == [set(), job_ids]
        assert all(svc.records[j].state == "done" for j in job_ids)


# ---------------------------------------------------------------------------
# Simulation leg + observability acceptance


class TestServiceObservability:
    def test_sim_job_zero_event_drops(self, tmp_path):
        # The service acceptance bar for the obs satellite: a full
        # build+simulate job under capture() at the default ring size
        # loses zero events.
        with capture() as (bus, registry):
            svc = BuildService(tmp_path)
            record = svc.submit(
                "alice",
                JobSpec(dsl=SERVICE_DSL, sources=dict(SERVICE_SOURCES),
                        sim=SimSpec(seed=1)),
            )
            drain(svc)
            svc.close()
            assert record.state == "done"
            assert record.sim_digest
            assert bus.dropped == 0
            snapshot = registry.snapshot()
            assert snapshot.get("obs.events_dropped_total", {}).get("value", 0) == 0
            categories = {e.category for e in bus.events()}
        assert "service.job" in categories
        assert "service.submit" in categories

    def test_service_metrics_wired(self, tmp_path):
        with capture() as (_, registry):
            svc = BuildService(tmp_path)
            svc.submit("alice", JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES)))
            drain(svc)
            svc.close()
            snapshot = registry.snapshot()
        assert snapshot["service.jobs_submitted"]["value"] == 1
        assert snapshot["service.jobs_done"]["value"] == 1
        assert snapshot["service.queue_depth"]["value"] == 0


# ---------------------------------------------------------------------------
# Socket server + client


class TestServiceServerRoundtrip:
    def test_submit_wait_result_over_socket(self, tmp_path):
        socket_path = tmp_path / "svc.sock"

        async def go():
            service = BuildService(tmp_path / "root")
            server = ServiceServer(service, socket_path)
            await server.start()
            loop = asyncio.get_running_loop()

            def client_side():
                with ServiceClient(socket_path, timeout_s=120) as client:
                    assert client.request("ping")["pong"] is True
                    spec = JobSpec(dsl=INC_DSL, sources=dict(INC_SOURCES))
                    sub = client.submit("alice", spec)
                    assert sub["ok"], sub
                    job_id = sub["record"]["job_id"]
                    done = client.wait(job_id, timeout=120)
                    assert done["ok"], done
                    res = client.request("result", job_id=job_id)
                    stats = client.request("stats", )
                    bad = client.request("status", job_id="j-nope")
                    return done["record"], res, stats["stats"], bad

            record, res, stats, bad = await loop.run_in_executor(None, client_side)
            await server.stop()
            service.close()
            return record, res, stats, bad

        record, res, stats, bad = asyncio.run(go())
        assert record["state"] == "done"
        assert record["artifact_digest"]
        assert res["workspace"] and "MANIFEST.json" in [
            p.name for p in __import__("pathlib").Path(res["workspace"]).iterdir()
        ]
        assert stats["jobs"]["done"] == 1
        assert bad["ok"] is False and bad["kind"] == "UnknownJob"
