"""Leader-less multi-replica build service over one shared root.

A :class:`ClusterReplica` wraps one single-worker
:class:`~repro.service.daemon.BuildService` in a *claim loop*: instead
of executing its local queue, it scans the shared store in admission
order and takes jobs through the durable lease protocol of
:mod:`repro.service.leases` — acquire unleased work, steal work whose
owner's heartbeat expired, skip work a live peer holds.  N replicas
(separate processes, each with its own unix socket) coordinate this way
with **no leader and no broker**: the filesystem is the only shared
medium, and every claim, renewal, steal and publish is arbitrated by an
atomic filesystem primitive.

A replica does only the lease work — claim, heartbeat, release and
its report counters.  The job itself runs through the daemon's one
attempt loop (:meth:`BuildService._run_job`) with the lease's fence, so
replicas retry, charge circuit breakers and emit the service events
exactly as a single daemon does.  Execution under a lease is *fenced*
end to end:

* the lease's :class:`~repro.service.leases.Fence` is installed as the
  crashpoint boundary hook, so ownership is re-validated at **every
  journal boundary** — a replica that was SIGSTOPped past its TTL and
  resumed dies with :class:`~repro.service.leases.LeaseLost` inside the
  very boundary it paused at, before touching another byte of shared
  state;
* the terminal publish validates the fence in front of the store's
  link-based first-writer-wins creation, so a stale owner can neither
  clobber nor duplicate the thief's result — the publish raises
  :class:`~repro.service.leases.FencedWrite` and is counted in
  ``service.fenced_writes_total``.

Every job run ends with exactly one terminal-publish attempt *through
the fence*, even after ``LeaseLost``: the on-disk lease — not the
replica's possibly-stale view — arbitrates.  If the loss was spurious
the publish lands and the job is safe; if it was real the fence rejects
it and the thief's (eventual) record stands.  Either way no job is lost
and no job is published twice.

A work-stealing chain is airtight by induction: a stolen job resumes
from the journal's committed prefix (the journal is digest-keyed and
lives under the job directory, shared by construction), the fencing
token increments on every steal, and a thief that dies is itself stolen
from.

Each replica maintains a durable report at
``<root>/replicas/<id>.json`` — acquisitions, steals, renewals, lost
leases, fenced writes, published jobs — which the ``servicecheck
--replicas N`` chaos campaign aggregates into its lease report.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.obs.metrics import REGISTRY as _METRICS
from repro.service.daemon import BuildService, ServiceServer
from repro.service.jobs import QUEUED, JobRecord
from repro.service.leases import Fence, FencedWrite, LeaseManager
from repro.service.robust import RetryPolicy
from repro.service.store import JobScan, durable_write

REPLICAS_DIR = "replicas"


class ClusterReplica:
    """One replica process of the leader-less cluster."""

    def __init__(
        self,
        root: str | Path,
        replica_id: str,
        *,
        ttl_s: float = 3.0,
        check_tcl: bool = True,
        queue_depth: int = 8,
        retry: RetryPolicy | None = None,
        poll_s: float | None = None,
    ) -> None:
        # One executor worker per replica: fenced execution relies on
        # the process-global crashpoint boundary hook, and the lease
        # protocol makes concurrency a cross-process property anyway.
        self.svc = BuildService(
            root,
            workers=1,
            queue_depth=queue_depth,
            retry=retry,
            check_tcl=check_tcl,
            replica_id=replica_id,
        )
        self.store = self.svc.store
        self.replica_id = replica_id
        self.leases = LeaseManager(root, replica_id, ttl_s=ttl_s)
        #: How often an idle replica re-scans for claimable work; also
        #: bounds how quickly an expired peer is noticed.
        self.poll_s = poll_s if poll_s is not None else max(0.02, ttl_s / 6.0)
        self.report: dict = {
            "replica": replica_id,
            "acquired": 0,
            "stolen": 0,
            "renewals": 0,
            "lease_lost": 0,
            "fenced_writes": 0,
            "published": [],
            "timed_out": False,
        }
        self._report_path = Path(root) / REPLICAS_DIR / f"{replica_id}.json"

    # -- lifecycle ---------------------------------------------------------
    def recover(self) -> dict[str, int]:
        """Adopt the durable root's state (terminal records, admission seq)."""
        return self.svc.recover()

    def close(self) -> None:
        self.svc.close()

    def run_until_drained(self, *, timeout_s: float = 120.0) -> dict:
        """Blocking wrapper: claim and execute until every job is terminal."""
        return asyncio.run(self.run(timeout_s=timeout_s))

    async def run(
        self, *, stop_when_drained: bool = True, timeout_s: float | None = None
    ) -> dict:
        """The claim loop.

        Repeatedly scans the store in admission order, claims what the
        lease protocol allows, and executes it fenced.  With
        *stop_when_drained* the loop ends once every durably-admitted
        job has a terminal record on disk — written by *any* replica —
        otherwise it serves until cancelled.
        """
        started = time.monotonic()
        self._save_report()  # durable presence marker, updated as we go
        while True:
            progress = await self._claim_pass()
            if progress:
                continue
            if stop_when_drained and self._all_done():
                break
            if timeout_s is not None and time.monotonic() - started > timeout_s:
                self.report["timed_out"] = True
                break
            await asyncio.sleep(self.poll_s)
        self._save_report()
        return dict(self.report)

    async def serve(self, socket_path: str | Path) -> None:
        """Socket front end + claim loop, until a client sends shutdown.

        The server answers submit/status/wait/result/stats from the
        shared store's truth; execution is exclusively claim-driven, so
        a job submitted to this replica's socket may well be built by a
        peer — the client cannot tell, and need not care.
        """
        server = ServiceServer(self.svc, socket_path, dispatch=False)
        await server.start()
        claim = asyncio.create_task(self.run(stop_when_drained=False))
        try:
            await server.serve_until_shutdown()
        finally:
            claim.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await claim
            self._save_report()
            self.svc.close()

    # -- claim loop internals ----------------------------------------------
    async def _claim_pass(self) -> bool:
        """One admission-ordered sweep; True when a job was executed."""
        # The local queue is only an admission gate in cluster mode —
        # execution is store-driven, so drain (and discard) its entries.
        while self.svc.sched.pick() is not None:
            pass
        progress = False
        for scan in self.store.scan():
            if scan.record is not None:
                self._note_terminal(scan.job_id, scan.record, scan)
                continue
            # The scan snapshot goes stale while earlier jobs execute
            # (or while this replica sits frozen under SIGSTOP): a peer
            # may have finished this job already.  Re-check before
            # claiming, so counters reflect real ownership.
            record = self.store.load_terminal(scan.tenant, scan.job_id)
            if record is not None:
                self._note_terminal(scan.job_id, record, scan)
                continue
            lease = self.leases.read(scan.job_id)
            mine = None
            if lease is None:
                mine = self.leases.acquire(scan.job_id)
                if mine is not None:
                    self.report["acquired"] += 1
            elif self.leases.expired(lease):
                mine = self.leases.steal(scan.job_id, lease)
                if mine is not None:
                    self.report["stolen"] += 1
            if mine is None:
                continue  # a live peer owns it (or won the race)
            # Close the acquire/publish window: the previous owner may
            # have published between our scan and our claim.
            published = self.store.load_terminal(scan.tenant, scan.job_id)
            if published is not None:
                self.leases.release(mine)
                self._note_terminal(scan.job_id, published, scan)
                continue
            await self._run_leased(scan, mine)
            self._save_report()
            progress = True
        return progress

    async def _run_leased(self, scan: JobScan, lease) -> None:
        """Run one claimed job through the daemon's attempt loop, fenced.

        The replica only does the lease work around it: heartbeat while
        the job runs, count the outcome, release the lease.
        """
        job_id = scan.job_id
        self.svc.specs[job_id] = scan.spec
        record = self.svc.records.get(job_id)
        if record is None:
            record = JobRecord(job_id=job_id, tenant=scan.tenant, state=QUEUED)
            self.svc.records[job_id] = record
        beat = asyncio.create_task(self._heartbeat(lease))
        try:
            await self.svc._run_job(
                scan.tenant, job_id, fence=Fence(self.leases, lease)
            )
            self.report["published"].append(job_id)
        except FencedWrite:
            self.report["fenced_writes"] += 1
        finally:
            # *record*, not svc.records: a FencedWrite adoption has
            # already replaced the latter with the thief's record.
            if record.error_step == "lease":
                self.report["lease_lost"] += 1
            beat.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await beat
            self.leases.release(lease)

    async def _heartbeat(self, lease) -> None:
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

    def _note_terminal(self, job_id: str, record: JobRecord, scan: JobScan) -> None:
        """Adopt a terminal record from disk (possibly a peer's work)."""
        self.svc.specs.setdefault(job_id, scan.spec)
        existing = self.svc.records.get(job_id)
        if existing is None or existing.state != record.state:
            self.svc.records[job_id] = record
        self.svc._signal(job_id)

    def _all_done(self) -> bool:
        return all(s.record is not None for s in self.store.scan())

    def _save_report(self) -> None:
        payload = dict(self.report)
        payload["published"] = sorted(payload["published"])
        # The acceptance counter, straight from the metrics registry —
        # Fence.rejected() increments it unconditionally.
        payload["fenced_writes_total"] = _METRICS.counter(
            "service.fenced_writes_total"
        ).value
        durable_write(self._report_path, payload)


def read_replica_reports(root: str | Path) -> list[dict]:
    """Every replica's durable report under *root*, sorted by replica id."""
    import json

    reports = []
    replicas_dir = Path(root) / REPLICAS_DIR
    if replicas_dir.is_dir():
        for path in sorted(replicas_dir.glob("*.json")):
            try:
                reports.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue
    return reports


def spawn_replica(
    root: str | Path,
    replica_id: str,
    *,
    socket_path: str | Path | None = None,
    ttl_s: float = 3.0,
    drain: bool = False,
    timeout_s: float | None = None,
    check_tcl: bool = True,
    env: dict[str, str] | None = None,
) -> subprocess.Popen:
    """Start ``repro replica`` as a real child process.

    Used by ``repro serve --replicas N`` and by the multi-replica chaos
    campaign (which arms the child's crash plan through *env*).  Stdout
    and stderr land in ``<root>/<replica_id>.log`` for post-mortems.
    """
    cmd = [
        sys.executable, "-m", "repro", "replica",
        "--root", str(root),
        "--replica-id", replica_id,
        "--ttl", str(ttl_s),
    ]
    if socket_path is not None:
        cmd += ["--socket", str(socket_path)]
    if drain:
        cmd += ["--drain"]
    if timeout_s is not None:
        cmd += ["--timeout", str(timeout_s)]
    if not check_tcl:
        cmd += ["--no-check-tcl"]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    Path(root).mkdir(parents=True, exist_ok=True)
    log = open(Path(root) / f"{replica_id}.log", "ab")
    try:
        return subprocess.Popen(
            cmd, env=full_env, stdout=log, stderr=subprocess.STDOUT
        )
    finally:
        log.close()  # the child holds its own descriptor


__all__ = [
    "REPLICAS_DIR",
    "ClusterReplica",
    "read_replica_reports",
    "spawn_replica",
]
