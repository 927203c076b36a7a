"""Daemon kill/restart recovery: no job lost, no job duplicated.

These tests exercise the durable-state ladder directly (the full
kill-at-every-boundary matrix is ``repro servicecheck``): a daemon dies
at a chosen point, a fresh daemon recovers the root, and every durably
admitted job must reach DONE with artifacts identical to an
uninterrupted run — via the right recovery class (replay / resume /
requeue).
"""

import asyncio
import time

from repro.flow.crashpoints import CrashPlan, armed
from repro.service import BuildService, JobSpec, LeaseManager, SimSpec
from repro.service.chaos import (
    SERVICE_DSL,
    SERVICE_SOURCES,
    default_submissions,
    service_sites,
)


def drain(service: BuildService) -> None:
    asyncio.run(service.drain())


def _spec() -> JobSpec:
    return JobSpec(dsl=SERVICE_DSL, sources=dict(SERVICE_SOURCES), sim=SimSpec(seed=1))


def _reference_digests(tmp_path):
    svc = BuildService(tmp_path / "ref")
    record = svc.submit("alice", _spec())
    drain(svc)
    svc.close()
    assert record.state == "done"
    return record.artifact_digest, record.sim_digest


class TestRecoveryClassification:
    def test_terminal_jobs_replay(self, tmp_path):
        root = tmp_path / "root"
        svc = BuildService(root)
        done = svc.submit("alice", _spec())
        drain(svc)
        svc.close()

        fresh = BuildService(root)
        counts = fresh.recover()
        fresh.close()
        assert counts == {"replayed": 1, "resumed": 0, "requeued": 0}
        replayed = fresh.records[done.job_id]
        assert replayed.state == "done"
        assert replayed.served_from == "replay"
        assert replayed.artifact_digest == done.artifact_digest
        assert replayed.sim_digest == done.sim_digest

    def test_admitted_but_unstarted_jobs_requeue(self, tmp_path):
        ref_digest, ref_sim = _reference_digests(tmp_path)
        root = tmp_path / "root"
        svc = BuildService(root)
        admitted = svc.submit("alice", _spec())
        svc.close()  # "killed" before the run loop ever ran it

        fresh = BuildService(root)
        counts = fresh.recover()
        assert counts == {"replayed": 0, "resumed": 0, "requeued": 1}
        drain(fresh)
        fresh.close()
        record = fresh.records[admitted.job_id]
        assert record.state == "done"
        assert record.artifact_digest == ref_digest
        assert record.sim_digest == ref_sim

    def test_inflight_jobs_resume_through_journal(self, tmp_path):
        ref_digest, ref_sim = _reference_digests(tmp_path)
        root = tmp_path / "root"
        svc = BuildService(root, die_on_interrupt=True)
        job = svc.submit("alice", _spec())
        with armed(CrashPlan("integrate:commit")):
            drain(svc)
        svc.close()
        assert svc.died  # the crash point fired mid-flight

        fresh = BuildService(root)
        counts = fresh.recover()
        assert counts == {"replayed": 0, "resumed": 1, "requeued": 0}
        drain(fresh)
        fresh.close()
        record = fresh.records[job.job_id]
        assert record.state == "done"
        assert record.served_from == "resume"
        assert record.steps_skipped > 0  # committed prefix came from disk
        assert record.artifact_digest == ref_digest
        assert record.sim_digest == ref_sim
        assert LeaseManager(root, "d0").active() == []


class TestNoLostNoDuplicated:
    def test_kill_and_resubmit_everything(self, tmp_path):
        # The servicecheck invariant at one representative boundary:
        # after a kill + recovery + full idempotent resubmission, every
        # admitted job is DONE exactly once.
        subs = default_submissions()
        expected_ids = {spec.job_id(tenant) for tenant, spec in subs}
        root = tmp_path / "root"

        svc = BuildService(root, die_on_interrupt=True)
        for tenant, spec in subs:
            svc.submit(tenant, spec)
        with armed(CrashPlan("simulate:start")):
            drain(svc)
        svc.close()
        assert svc.died

        fresh = BuildService(root)
        fresh.recover()
        for tenant, spec in subs:  # lost-ACK clients resubmit everything
            fresh.submit(tenant, spec)
        assert set(fresh.records) == expected_ids  # zero duplicates
        drain(fresh)
        fresh.close()
        assert all(r.state == "done" for r in fresh.records.values())  # zero lost
        assert LeaseManager(root, "d0").active() == []  # every lease released
        # alice's copy of bob's spec dedups to the same artifacts.
        by_content = {}
        for (tenant, spec) in subs:
            by_content.setdefault(spec.content_digest(), set()).add(
                (
                    fresh.records[spec.job_id(tenant)].artifact_digest,
                    fresh.records[spec.job_id(tenant)].sim_digest,
                )
            )
        assert all(len(digests) == 1 for digests in by_content.values())


class TestRestartIncarnation:
    def test_restart_does_not_wait_out_its_own_lease(self, tmp_path):
        """A killed daemon's lease stays on disk, as after ``kill -9``;
        its restart (same id, newer incarnation) takes it over at once
        instead of waiting out the 30 s TTL."""
        subs = default_submissions()
        root = tmp_path / "root"
        svc = BuildService(root, die_on_interrupt=True, ttl_s=30)
        for tenant, spec in subs:
            svc.submit(tenant, spec)
        with armed(CrashPlan("integrate:commit")):
            drain(svc)
        svc.close()
        assert svc.died
        [left] = LeaseManager(root, "d0").active()
        assert (left.token, left.incarnation) == (1, svc.incarnation)

        started = time.monotonic()
        fresh = BuildService(root, ttl_s=30)
        assert fresh.incarnation == svc.incarnation + 1
        fresh.recover()
        drain(fresh)
        fresh.close()
        elapsed = time.monotonic() - started

        assert elapsed < 10, f"recovery took {elapsed:.1f} s"
        assert set(fresh.records) == {s.job_id(t) for t, s in subs}
        assert all(r.state == "done" for r in fresh.records.values())
        assert fresh.records[left.job_id].served_from == "resume"
        assert fresh.report["stolen"] == 1
        assert LeaseManager(root, "d0").active() == []


class TestServiceSites:
    def test_site_list_covers_flow_and_sim(self):
        sites = service_sites()
        assert "simulate:start" in sites and "simulate:commit" in sites
        assert any(site.startswith("hls:") for site in sites)
        assert "integrate:commit" in sites
        assert len(sites) == len(set(sites))
