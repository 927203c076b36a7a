"""The build service: one asyncio run loop over the flow engine.

:class:`BuildService` owns one service root (see
:mod:`repro.service.store`), a :class:`~repro.service.queueing.FairScheduler`,
a :class:`~repro.service.leases.LeaseManager` and one executor thread
the synchronous flow engine runs on.  A lone daemon and each replica of
a leader-less cluster are the same object: a lone daemon is a
one-replica cluster.  Its one run loop, :meth:`BuildService.run`,
repeats one pass:

* at most once every ``poll_s``, adopt the shared store — terminal
  records any replica published, and durably admitted jobs this service
  has not seen yet, which enter the scheduler through
  :meth:`~repro.service.queueing.FairScheduler.restore`;
* when no job is running, pick the next job fairly, acquire its lease
  (or steal a stale one — see :mod:`repro.service.leases`), check once
  more that nobody published it meanwhile, and run it *fenced*, with a
  heartbeat, releasing the lease at the end.

A replica runs one job at a time; scale-out is more replicas.  The
executor thread keeps the loop free for heartbeats and socket replies
while a flow runs.

A job held live by a peer goes back to the queue for a later pass, and
so does a job whose lease was stolen before anyone published it.
Every job runs through one attempt loop, :meth:`BuildService._run_job`,
wrapped in the robustness ladder:

1. **Degradation gate** — when a circuit breaker is open or the queue
   backlog exceeds the saturation bound, an identical completed job's
   workspace is served warm (read-only copy, any tenant) instead of
   executing; an open breaker with no warm artifact fails fast with
   :class:`~repro.service.robust.BreakerOpen`.
2. **Journaled execution** — ``run_flow`` rides the PR-3 write-ahead
   journal under the job directory, the workspace materializes
   atomically, and an optional fault-injected simulation leg commits as
   a ``simulate`` journal step (its record written durably *before* the
   commit, the same publish-then-commit contract as every flow step).
3. **Deadline** — the per-job wall-clock budget is checked at step
   boundaries (the flow itself is simulated, so steps are short).
4. **Retry** — transient failures (lock contention, deadline overruns,
   interrupted flows) retry with deterministic exponential backoff; a
   retried :class:`~repro.util.errors.FlowInterrupted` *resumes* through
   the journal rather than rebuilding.
5. **Breaker accounting** — a failed run is attributed to the backend
   step the journal shows started-but-uncommitted; that step's breaker
   counts the failure, opens after the threshold, and half-open probes
   close it again.

Execution is fenced end to end.  The lease's
:class:`~repro.service.leases.Fence` is the job's crashpoint boundary
hook (a context variable set on the executor thread and reset after
the job, so no job checks a finished job's lease), so ownership is
re-validated at every journal boundary and a stolen job dies with
:class:`~repro.service.leases.LeaseLost`.  The terminal publish goes
through the fence too: every run ends with exactly one publish attempt,
and the on-disk lease — not this replica's possibly stale view —
decides whether it lands or raises
:class:`~repro.service.leases.FencedWrite`.

Restart safety: ``job.json`` is durable before admission, the journal
before execution, terminal records after publication — published
first-writer-wins and never overwritten — so
:meth:`BuildService.recover` reconstructs the entire service state from
disk: terminal jobs re-serve their recorded results (*replay*),
journaled jobs resume mid-flight (*resume*), admitted-but-unstarted
jobs re-queue.  Each start bumps the replica's durable *incarnation*,
and a lease its dead predecessor (same replica id, older incarnation)
left behind is stale at once, so a restart steals it when it picks
the job and never waits out a lease TTL.  ``repro servicecheck`` kills the daemon at every
journal boundary and proves the recovered artifacts byte-identical.

With ``die_on_interrupt=True`` (the chaos harness) an armed crash-point
is treated as daemon death: the run loop stops instantly, nothing is
cleaned up — the lease and its heartbeat stay on disk — and recovery
must cope with exactly what was durable: in-process ``kill -9``
semantics.

Each replica keeps a durable report at ``<root>/replicas/<id>.json``:
its incarnation and its lease counters (acquisitions, steals, renewals,
lost leases, fenced writes, published jobs), which the ``servicecheck
--replicas N`` chaos campaign aggregates into its lease report.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.flow.autosim import autosimulate
from repro.flow.crashpoints import BOUNDARY_HOOK, crashpoint
from repro.flow.journal import RunJournal, stable_digest
from repro.flow.orchestrator import FlowConfig, run_flow
from repro.flow.workspace import materialize
from repro.obs.events import BUS as _BUS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.service.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobSpec,
)
from repro.service.leases import Fence, FencedWrite, Lease, LeaseLost, LeaseManager
from repro.service.queueing import FairScheduler
from repro.service.robust import (
    OPEN,
    BreakerOpen,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)
from repro.service.store import JobStore, durable_write
from repro.sim.faults import RecoveryPolicy
from repro.util.errors import FlowInterrupted, ReproError


class UnknownJob(ReproError):
    """The requested job id is not known to this daemon."""


class BuildService:
    """One replica over one service root (a lone daemon is a one-replica
    cluster)."""

    def __init__(
        self,
        root: str | Path,
        *,
        queue_depth: int = 8,
        starvation_after: int = 4,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 30.0,
        saturation_backlog: int | None = None,
        die_on_interrupt: bool = False,
        check_tcl: bool = True,
        clock=time.monotonic,
        replica_id: str = "d0",
        ttl_s: float = 3.0,
    ) -> None:
        self.store = JobStore(root)
        #: Replica identity, threaded through leases, events, spans and
        #: terminal records so a multi-replica trace attributes every
        #: action.
        self.replica_id = replica_id
        self.sched = FairScheduler(
            depth_bound=queue_depth, starvation_after=starvation_after
        )
        self.retry = retry or RetryPolicy()
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.saturation_backlog = saturation_backlog
        self.die_on_interrupt = die_on_interrupt
        self.check_tcl = check_tcl
        self.clock = clock
        self.records: dict[str, JobRecord] = {}
        self.specs: dict[str, JobSpec] = {}
        self.breakers: dict[str, CircuitBreaker] = {}
        self.died = False
        self.death: BaseException | None = None
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="svc-exec")
        self._events: dict[str, asyncio.Event] = {}
        self._wakeup: asyncio.Event | None = None
        self._admission_seq = 0
        # Durable incarnation: one more than the last start under this id.
        self._report_path = self.store.replicas_root / f"{replica_id}.json"
        try:
            last = json.loads(self._report_path.read_text())["incarnation"]
        except (OSError, ValueError, KeyError, TypeError):
            last = 0
        self.incarnation = int(last) + 1
        self.leases = LeaseManager(
            root, replica_id, ttl_s=ttl_s, incarnation=self.incarnation
        )
        #: How often the loop re-scans the store; also bounds how
        #: quickly an expired peer is noticed.
        self.poll_s = max(0.02, ttl_s / 6.0)
        self.report: dict = {
            "replica": replica_id,
            "incarnation": self.incarnation,
            "acquired": 0,
            "stolen": 0,
            "renewals": 0,
            "lease_lost": 0,
            "fenced_writes": 0,
            "published": [],
        }
        self._save_report()

    # -- admission ---------------------------------------------------------
    def submit(self, tenant: str, spec: JobSpec) -> JobRecord:
        """Admit one job (idempotent) and return its record.

        The same spec from the same tenant is the same job: a terminal
        job returns its durable record, a queued/running one its live
        record — a client that lost its response can always resubmit.
        Raises :class:`~repro.service.jobs.JobRejected` when the
        tenant's queue is at its bound.
        """
        job_id = spec.job_id(tenant)
        existing = self.records.get(job_id)
        if existing is not None:
            return existing
        # Bounded admission first: a rejected job must leave no intent
        # on disk, or the next scan would adopt it past the bound.
        self.sched.check(tenant, job_id)
        # Durable admission intent *before* the queue: a daemon killed
        # right after this line recovers the job; killed before it, the
        # client never got an ACK and resubmits.  First-writer-wins: a
        # resubmission against a root where another replica already
        # persisted the identical intent leaves it (and its admission
        # order) untouched.
        self._admission_seq += 1
        self.store.save_spec(tenant, job_id, spec, order=self._admission_seq)
        self.sched.submit(tenant, job_id)
        self.specs[job_id] = spec
        record = JobRecord(job_id=job_id, tenant=tenant, state=QUEUED)
        self.records[job_id] = record
        if _BUS.enabled:
            _BUS.emit(
                "service.submit", job_id, tenant=tenant,
                replica=self.replica_id,
            )
            _METRICS.counter("service.jobs_submitted", "jobs admitted").inc()
        if self._wakeup is not None:
            self._wakeup.set()
        return record

    # -- recovery ----------------------------------------------------------
    def recover(self) -> dict[str, int]:
        """Rebuild service state from the durable root after a restart.

        ``store.scan`` returns jobs in admission order, so recovered
        jobs re-enter the scheduler exactly as clients admitted them;
        subsequent fresh submissions continue the sequence.  A lease
        this replica's predecessor left behind is stale at once (see
        :meth:`~repro.service.leases.LeaseManager.stale`), so the run
        loop steals it when it picks the job; only those of jobs with
        no work left are stolen (token + 1) and released here.
        """
        counts = self._adopt(replay=True)
        for lease in self.leases.active():
            record = self.records.get(lease.job_id)
            if not self.leases.predecessor(lease) or (
                record is not None and not record.terminal
            ):
                continue
            mine = self.leases.steal(lease.job_id, lease)
            if mine is not None:
                self.report["stolen"] += 1
                self.leases.release(mine)
        self._save_report()
        return counts

    def _adopt(self, *, replay: bool = False) -> dict[str, int]:
        """Adopt the store: terminal records, and jobs not yet queued.

        A terminal record on disk replaces a local record in another
        state (a peer finished the job); with *replay* (recovery) it is
        marked as re-served.  A durably admitted job this service does
        not know yet is restored into the scheduler, bypassing the
        admission bound — it was admitted once already.  Jobs already
        terminal here are not read again: their record is final.
        """
        counts = {"replayed": 0, "resumed": 0, "requeued": 0}
        final = {job_id for job_id, r in self.records.items() if r.terminal}
        for scan in self.store.scan(skip=final):
            self._admission_seq = max(self._admission_seq, scan.order)
            known = self.records.get(scan.job_id)
            self.specs.setdefault(scan.job_id, scan.spec)
            if scan.record is not None:
                if known is None or known.state != scan.record.state:
                    if replay:
                        scan.record.served_from = "replay"
                    self.records[scan.job_id] = scan.record
                    self._signal(scan.job_id)
                    counts["replayed"] += 1
                continue
            if known is not None:
                continue
            self.records[scan.job_id] = JobRecord(
                job_id=scan.job_id, tenant=scan.tenant, state=QUEUED
            )
            self.sched.restore(scan.tenant, scan.job_id)
            kind = "resumed" if scan.phase == "inflight" else "requeued"
            counts[kind] += 1
            if _BUS.enabled:
                _BUS.emit(
                    "service.recover", scan.job_id,
                    tenant=scan.tenant, kind=kind, replica=self.replica_id,
                )
                _METRICS.counter(
                    "service.recoveries", "jobs recovered after a restart"
                ).inc()
        return counts

    # -- inspection --------------------------------------------------------
    def status(self, job_id: str) -> JobRecord:
        record = self.records.get(job_id)
        if record is None:
            raise UnknownJob(f"unknown job {job_id!r}")
        return record

    async def wait(self, job_id: str, timeout: float | None = None) -> JobRecord:
        record = self.status(job_id)
        if record.terminal or self.died:
            return record
        event = self._events.setdefault(job_id, asyncio.Event())
        await asyncio.wait_for(event.wait(), timeout)
        return self.records[job_id]

    def stats(self) -> dict:
        return {
            "queue": self.sched.describe(),
            "breakers": [b.describe() for b in sorted(
                self.breakers.values(), key=lambda b: b.step
            )],
            "jobs": {
                state: sum(1 for r in self.records.values() if r.state == state)
                for state in (QUEUED, RUNNING, DONE, FAILED)
            },
            "died": self.died,
        }

    # -- the run loop ------------------------------------------------------
    async def drain(self) -> None:
        """Run the loop until every admitted job is terminal (or death)."""
        await self.run(drain=True)

    async def run(self, *, drain: bool = False) -> None:
        """The service's one run loop; serves until cancelled unless
        *drain*.

        Each pass claims and starts a job when none is running; at most
        once every ``poll_s`` it first adopts the store (a peer may have
        admitted or published, or its lease may have gone stale) — a
        local submission or completion needs no scan.  The loop sleeps
        until the job finishes, a submission arrives, or the next scan
        is due.  Cancelling it cancels the running job, which releases
        its lease and publishes nothing.
        """
        self._wakeup = asyncio.Event()
        loop = asyncio.get_running_loop()
        running: asyncio.Task | None = None
        scan_at = loop.time()
        try:
            while not self.died:
                self._wakeup.clear()
                if running is not None and running.done():
                    running.result()  # a programming error surfaces here
                    running = None
                if loop.time() >= scan_at:
                    self._adopt()
                    scan_at = loop.time() + self.poll_s
                if running is None and (claimed := self._claim()) is not None:
                    running = asyncio.create_task(self._run_claimed(*claimed))
                if drain and running is None and all(
                    r.terminal for r in self.records.values()
                ):
                    break
                # Not asyncio.wait_for: on Python 3.11 it can swallow a
                # cancellation that races the event, and the loop would
                # outlive its server.
                poll = loop.call_at(scan_at, self._wakeup.set)
                try:
                    await self._wakeup.wait()
                finally:
                    poll.cancel()
        finally:
            if running is not None:
                running.cancel()
                await asyncio.gather(running, return_exceptions=True)
            if self.died:
                # Abandoned like a kill: unblock waiters, leave all state as-is.
                for event in self._events.values():
                    event.set()
            else:
                self._save_report()

    def _claim(self) -> tuple[str, str, Lease] | None:
        """Pick the next job fairly and take its lease, or ``None``.

        A job a live peer holds goes back to its tenant's queue for a
        later pass; a job found published after the lease was taken is
        released and adopted.
        """
        claimed, busy = None, []
        while claimed is None and (picked := self.sched.pick()) is not None:
            tenant, job_id = picked
            if self.records[job_id].terminal:
                continue
            lease = self._lease(job_id)
            if lease is None:
                busy.append(picked)
                continue
            # Close the acquire/publish window: the previous owner may
            # have published between this pass's scan and our claim.
            published = self.store.load_terminal(tenant, job_id)
            if published is not None:
                self.leases.release(lease)
                self.records[job_id] = published
                self._signal(job_id)
                continue
            claimed = (tenant, job_id, lease)
        for tenant, job_id in busy:
            self.sched.restore(tenant, job_id)
        return claimed

    def _lease(self, job_id: str) -> Lease | None:
        """Our lease on *job_id*: acquired, or stolen when stale."""
        current = self.leases.read(job_id)
        if current is None:
            mine = self.leases.acquire(job_id)
            self.report["acquired"] += mine is not None
        else:
            mine = self.leases.steal(job_id, current)
            self.report["stolen"] += mine is not None
        return mine

    async def _run_claimed(self, tenant: str, job_id: str, lease: Lease) -> None:
        """Run one claimed job fenced, heartbeating; release the lease.

        A death (``die_on_interrupt``) leaves the lease and its last
        heartbeat on disk, exactly as ``kill -9`` would.
        """
        record = self.records[job_id]
        beat = asyncio.create_task(self._heartbeat(lease))
        try:
            await self._run_job(tenant, job_id, fence=Fence(self.leases, lease))
            if not self.died:
                self.report["published"].append(job_id)
        except FencedWrite:
            self.report["fenced_writes"] += 1
        finally:
            # *record*, not self.records: a rejected publish has already
            # replaced the latter (the thief's record, or a requeue).
            if record.error_step == "lease":
                self.report["lease_lost"] += 1
            beat.cancel()
            await asyncio.gather(beat, return_exceptions=True)
            if not self.died:
                self.leases.release(lease)
                self._save_report()
            self._wakeup.set()

    async def _heartbeat(self, lease: Lease) -> None:
        """Renew the lease at TTL/3 until cancelled or no longer ours.

        A SIGSTOPped replica stops beating with everything else — which
        is exactly the liveness signal peers steal on.
        """
        interval = max(0.01, self.leases.ttl_s / 3.0)
        while True:
            await asyncio.sleep(interval)
            if not self.leases.renew(lease):
                return
            self.report["renewals"] += 1

    def _save_report(self) -> None:
        payload = dict(self.report, published=sorted(self.report["published"]))
        # The acceptance counter, straight from the metrics registry —
        # Fence.rejected() increments it unconditionally.
        payload["fenced_writes_total"] = _METRICS.counter(
            "service.fenced_writes_total"
        ).value
        durable_write(self._report_path, payload)

    async def _run_job(self, tenant: str, job_id: str, *, fence: Fence) -> None:
        """The service's one attempt loop: retries, breakers, one publish.

        Every job runs here under its lease's *fence*.  A
        :class:`~repro.service.leases.LeaseLost` ends the job FAILED at
        step ``lease`` with no retry and no breaker charge; the publish
        still goes through the fence, so the on-disk lease arbitrates.
        A publish the fence rejects adopts the record already on disk
        and re-raises the :class:`~repro.service.leases.FencedWrite`;
        with no record on disk the job is not finished — the thief may
        die before it publishes — so it goes back to the queue, to be
        claimed again once the thief's lease is stale.
        """
        record = self.records[job_id]
        spec = self.specs[job_id]
        record.state = RUNNING
        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            attempt += 1
            record.attempts = attempt
            try:
                info = await loop.run_in_executor(
                    self._pool,
                    functools.partial(self._execute, tenant, job_id, spec, fence),
                )
            except LeaseLost as exc:
                # Ownership is gone: never retried (should_retry refuses
                # it) and never charged to a breaker.
                failure, step = exc, "lease"
            except FlowInterrupted as exc:
                if self.die_on_interrupt:
                    # The armed crash-point killed "the daemon": stop
                    # everything, clean up nothing — recovery's problem.
                    self.died = True
                    self.death = exc
                    return
                failure, step = exc, self._step_family(exc)
            except Exception as exc:  # cancellation is shutdown, not failure
                failure, step = exc, self._step_family(exc)
                if not isinstance(exc, BreakerOpen):
                    self._breaker(step).record_failure()
                    self._breaker_event(self._breaker(step))
            else:
                record.state = DONE
                record.served_from = info["served_from"]
                record.artifact_digest = info["artifact_digest"]
                record.sim_digest = info["sim_digest"]
                record.steps_skipped = info["steps_skipped"]
                record.crash_recoveries = info["crash_recoveries"]
                for step in info["step_families"]:
                    breaker = self.breakers.get(step)
                    if breaker is not None:
                        breaker.record_success()
                        self._breaker_event(breaker)
                break
            if self.retry.should_retry(attempt, failure):
                await self._backoff(record, attempt)
                continue
            record.state = FAILED
            record.error = f"{type(failure).__name__}: {failure}"
            record.error_step = step
            break
        record.replica = self.replica_id
        try:
            self.store.write_terminal(
                record, content_digest=spec.content_digest(), fence=fence
            )
        except FencedWrite:
            # A terminal record is never overwritten: adopt the one
            # already on disk, or queue the unfinished job again.
            disk = self.store.load_terminal(tenant, job_id)
            if disk is None:
                self.records[job_id] = JobRecord(
                    job_id=job_id, tenant=tenant, state=QUEUED
                )
                self.sched.restore(tenant, job_id)
            else:
                self.records[job_id] = disk
                self._signal(job_id)
            raise
        self._signal(job_id)
        if _BUS.enabled:
            if record.state == DONE:
                _METRICS.counter("service.jobs_done", "jobs completed").inc()
            else:
                _METRICS.counter(
                    "service.jobs_failed", "jobs ending FAILED"
                ).inc()

    def _signal(self, job_id: str) -> None:
        """Wake every waiter on *job_id*."""
        self._events.setdefault(job_id, asyncio.Event()).set()

    async def _backoff(self, record: JobRecord, attempt: int) -> None:
        record.retries += 1
        delay = self.retry.delay_s(record.job_id, attempt)
        if _BUS.enabled:
            _BUS.emit(
                "service.retry", record.job_id,
                attempt=attempt, delay_ms=round(delay * 1000),
            )
            _METRICS.counter("service.retries", "job attempt retries").inc()
        await asyncio.sleep(delay)

    @staticmethod
    def _step_family(exc: BaseException) -> str:
        """The journal-step family an exception is attributed to.

        ``_execute`` attaches ``service_step`` (the uncommitted journal
        tail) on the way out; a :class:`FlowInterrupted` carries the
        crash site; anything without either is charged to ``flow``.
        """
        step = getattr(exc, "service_step", None)
        if step is None:
            step = getattr(exc, "step", None)
        if not step:
            return "flow"
        return str(step).split(":", 1)[0]

    # -- execution (runs on the executor thread) ---------------------------
    def _execute(
        self, tenant: str, job_id: str, spec: JobSpec, fence: Fence
    ) -> dict:
        """Run one job attempt: flow, workspace, optional simulation.

        The *fence* is this thread's crashpoint boundary hook for the
        duration, so ownership is re-validated at every journal
        boundary: the moment the lease is stolen the attempt dies with
        :class:`~repro.service.leases.LeaseLost` instead of racing the
        thief through shared state.
        """
        deadline = Deadline(spec.deadline_s, clock=self.clock)
        degraded = self._maybe_degrade(tenant, job_id, spec)
        if degraded is not None:
            return degraded

        cache = self.store.cache_for()
        journal = RunJournal(self.store.journal_path(tenant, job_id))
        out_dir = self.store.out_dir(tenant, job_id)
        config = FlowConfig(check_tcl=self.check_tcl)
        directives = {node: list(d) for node, d in spec.directives.items()}
        served = "build"
        hook = BOUNDARY_HOOK.set(fence.check)
        try:
            with _BUS.span("service.job", job_id,
                           worker=f"{self.replica_id}:job:{job_id}",
                           tenant=tenant, replica=self.replica_id):
                result = run_flow(
                    spec.dsl,
                    dict(spec.sources),
                    extra_directives=directives,
                    config=config,
                    build_cache=cache,
                    journal=journal,
                )
                if journal.resumed:
                    served = "resume"
                deadline.check()
                materialize(result, out_dir, journal=journal)
                deadline.check()
                sim_digest = None
                if spec.sim is not None:
                    sim_digest = self._simulate_step(
                        tenant, job_id, spec, result, journal
                    )
                    deadline.check()
            manifest = json.loads((out_dir / "MANIFEST.json").read_text())
            timing = result.timing
            return {
                "served_from": served,
                "artifact_digest": manifest["artifact_digest"],
                "sim_digest": sim_digest,
                "steps_skipped": timing.steps_skipped,
                "crash_recoveries": timing.crash_recoveries,
                "step_families": sorted(
                    {s.split(":", 1)[0] for s in journal.committed_steps}
                ),
            }
        except FlowInterrupted:
            raise
        except BaseException as exc:
            started = journal.started_steps
            committed = journal.committed_steps
            tail = [s for s, d in started.items() if committed.get(s) != d]
            exc.service_step = (  # type: ignore[attr-defined]
                tail[-1].split(":", 1)[0] if tail else "flow"
            )
            raise
        finally:
            BOUNDARY_HOOK.reset(hook)
            journal.close()

    def _maybe_degrade(self, tenant: str, job_id: str, spec: JobSpec) -> dict | None:
        """Warm-serve (or fail fast) instead of executing, when degraded."""
        blocking = [b.step for b in self.breakers.values() if not b.allow()]
        saturated = (
            self.saturation_backlog is not None
            and self.sched.depth() >= self.saturation_backlog
        )
        if not blocking and not saturated:
            return None
        entry = self.store.serve_warm(spec.content_digest(), tenant, job_id)
        if entry is not None:
            if _BUS.enabled:
                _BUS.emit(
                    "service.degrade", job_id, tenant=tenant,
                    reason="breaker-open" if blocking else "saturated",
                    source=entry["job_id"],
                )
                _METRICS.counter(
                    "service.degraded", "jobs served warm under degradation"
                ).inc()
            return {
                "served_from": "warm",
                "artifact_digest": entry["artifact_digest"],
                "sim_digest": entry.get("sim_digest"),
                "steps_skipped": 0,
                "crash_recoveries": 0,
                "step_families": [],
            }
        if blocking:
            breaker = self.breakers[blocking[0]]
            raise BreakerOpen(
                f"circuit breaker for step {breaker.step!r} is open "
                f"(retry in {breaker.retry_after_s():.1f} s) and no warm "
                "artifact exists for this job",
                step=breaker.step,
                retry_after_s=breaker.retry_after_s(),
            )
        return None  # saturated but no warm artifact — execute anyway

    def _simulate_step(
        self, tenant: str, job_id: str, spec: JobSpec, result, journal: RunJournal
    ) -> str:
        """The journaled simulation leg: publish ``sim.json``, then commit."""
        sim = spec.sim
        assert sim is not None
        manifest = json.loads(
            (self.store.out_dir(tenant, job_id) / "MANIFEST.json").read_text()
        )
        digest_in = stable_digest(
            {"artifact": manifest["artifact_digest"], "sim": sim.as_dict()}
        )
        sim_path = self.store.sim_path(tenant, job_id)
        if journal.committed("simulate", digest_in):
            try:
                data = json.loads(sim_path.read_text())
            except (OSError, ValueError):
                data = None
            if data is not None and data.get("input") == digest_in:
                return data["digest"]  # committed => the record is durable
        journal.step_start("simulate", digest_in)
        crashpoint("simulate:start")
        policy = RecoveryPolicy(node_budget=sim.node_budget)
        res = autosimulate(
            result, seed=sim.seed, faults=sim.faults, policy=policy
        )
        report = {
            "input": digest_in,
            "cycles": res.report.cycles,
            "outputs": {
                name: hashlib.sha256(
                    np.ascontiguousarray(arr).tobytes()
                ).hexdigest()
                for name, arr in sorted(res.outputs.items())
            },
            "lite_returns": {
                k: v for k, v in sorted(res.lite_returns.items())
            },
            "faults_fired": len(res.report.fault_events),
            "recoveries": len(res.report.recovery_events),
        }
        report["digest"] = stable_digest(report)
        durable_write(sim_path, report)
        journal.step_commit("simulate", digest_in)
        crashpoint("simulate:commit")
        return report["digest"]

    # -- breakers ----------------------------------------------------------
    def _breaker(self, step: str) -> CircuitBreaker:
        breaker = self.breakers.get(step)
        if breaker is None:
            breaker = self.breakers[step] = CircuitBreaker(
                step,
                failure_threshold=self.breaker_threshold,
                cooldown_s=self.breaker_cooldown_s,
                clock=self.clock,
            )
        return breaker

    def _breaker_event(self, breaker: CircuitBreaker) -> None:
        if _BUS.enabled:
            _BUS.emit(
                "service.breaker", breaker.step,
                state=breaker.state, failures=breaker.consecutive_failures,
            )
            _METRICS.gauge(
                "service.breakers_open", "circuit breakers currently open"
            ).set(sum(1 for b in self.breakers.values() if b.state == OPEN))

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


# -- socket protocol ---------------------------------------------------------
#
# JSON lines over a unix socket: one request object per line, one
# response object per line.  Ops: ping, submit, status, wait, result,
# stats, shutdown.  Errors come back as {"ok": false, "error": ...}.


class ServiceServer:
    """Unix-socket front end for one :class:`BuildService`, running its
    loop alongside.

    The socket answers from the service's view of the shared store, so
    with several replicas a job submitted here may well be built by a
    peer — the client cannot tell, and need not care.
    """

    def __init__(self, service: BuildService, socket_path: str | Path) -> None:
        self.service = service
        self.socket_path = Path(socket_path)
        self._server: asyncio.AbstractServer | None = None
        self._loop_task: asyncio.Task | None = None
        self._shutdown = asyncio.Event()

    async def start(self) -> None:
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        self._server = await asyncio.start_unix_server(
            self._handle, path=str(self.socket_path)
        )
        self._loop_task = asyncio.create_task(self.service.run())

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._loop_task is not None:
            self._loop_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._loop_task
        if self.socket_path.exists():
            self.socket_path.unlink()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_lines(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass  # server stopping with a client mid-read: close quietly
        finally:
            writer.close()

    async def _handle_lines(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                request = json.loads(line)
                response = await self._serve_op(request)
            except ReproError as exc:
                response = {
                    "ok": False,
                    "error": str(exc),
                    "kind": type(exc).__name__,
                    **{
                        k: getattr(exc, k)
                        for k in ("tenant", "reason")
                        if hasattr(exc, k)
                    },
                }
            except (ValueError, KeyError) as exc:
                response = {"ok": False, "error": f"bad request: {exc}"}
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()

    async def _serve_op(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "submit":
            spec = JobSpec.from_dict(request["spec"])
            record = self.service.submit(request["tenant"], spec)
            return {"ok": True, "record": record.as_dict()}
        if op == "status":
            return {
                "ok": True,
                "record": self.service.status(request["job_id"]).as_dict(),
            }
        if op == "wait":
            record = await self.service.wait(
                request["job_id"], timeout=request.get("timeout")
            )
            return {"ok": True, "record": record.as_dict()}
        if op == "result":
            record = self.service.status(request["job_id"])
            out = self.service.store.out_dir(record.tenant, record.job_id)
            return {
                "ok": True,
                "record": record.as_dict(),
                "workspace": str(out) if out.exists() else None,
            }
        if op == "stats":
            return {"ok": True, "stats": self.service.stats()}
        if op == "shutdown":
            self._shutdown.set()
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


class ServiceClient:
    """Blocking JSON-lines client for :class:`ServiceServer` (CLI/tests).

    Connection setup is hardened for the multi-replica world: a replica
    that is still binding its socket (or was just restarted) refuses or
    lacks the socket file for a moment, so ``connect`` retries with
    capped deterministic exponential backoff instead of failing the
    first raced attempt.  Submissions are idempotent end to end — the
    job id is content-addressed and the admission intent is published
    first-writer-wins — so a client that lost its ACK can resubmit the
    same spec to *any* replica of the same root (:meth:`submit` with
    ``resubmit`` does the reconnect-and-retry itself).
    """

    def __init__(
        self,
        socket_path: str | Path,
        *,
        timeout_s: float = 60.0,
        connect_retries: int = 5,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 0.5,
        sleep=time.sleep,
    ) -> None:
        self.socket_path = Path(socket_path)
        self.timeout_s = timeout_s
        self.connect_retries = connect_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._sleep = sleep
        self._sock = None
        self._file = None
        self._connect()

    @staticmethod
    def backoff_s(attempt: int, *, base: float, cap: float) -> float:
        """Deterministic capped exponential backoff for attempt *n* (1-based)."""
        return min(cap, base * (2 ** (attempt - 1)))

    def _connect(self) -> None:
        import socket as _socket

        last: Exception | None = None
        for attempt in range(1, self.connect_retries + 2):
            sock = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
            sock.settimeout(self.timeout_s)
            try:
                sock.connect(str(self.socket_path))
            except (ConnectionRefusedError, FileNotFoundError, TimeoutError) as exc:
                sock.close()
                last = exc
                if attempt > self.connect_retries:
                    break
                self._sleep(
                    self.backoff_s(
                        attempt, base=self.backoff_base_s, cap=self.backoff_cap_s
                    )
                )
                continue
            self._sock = sock
            self._file = sock.makefile("rwb")
            return
        raise ReproError(
            f"could not connect to service at {self.socket_path}: {last}"
        )

    def _reconnect(self) -> None:
        self.close()
        self._connect()

    def request(self, op: str, **fields) -> dict:
        self._file.write(json.dumps({"op": op, **fields}).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ReproError("service closed the connection")
        return json.loads(line)

    def submit(self, tenant: str, spec: JobSpec, *, resubmit: int = 0) -> dict:
        """Submit one job; a lost ACK is resubmitted up to *resubmit* times.

        Losing the response line (replica killed between admitting the
        job and ACKing it) is indistinguishable from losing the request,
        and both are safe to replay: the job id is a content digest, the
        daemon's ``submit`` is idempotent, and the durable intent is
        first-writer-wins — so the retry reconnects and sends the exact
        same spec again, to this socket or whichever replica now owns it.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return self.request("submit", tenant=tenant, spec=spec.as_dict())
            except (ReproError, OSError):
                if attempt > resubmit:
                    raise
                self._sleep(
                    self.backoff_s(
                        attempt, base=self.backoff_base_s, cap=self.backoff_cap_s
                    )
                )
                self._reconnect()

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        return self.request("wait", job_id=job_id, timeout=timeout)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["BuildService", "ServiceClient", "ServiceServer", "UnknownJob"]
