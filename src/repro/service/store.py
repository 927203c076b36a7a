"""Durable on-disk state of the build service.

Layout under one service root::

    <root>/cache/                               shared content-addressed BuildCache
    <root>/tenants/<t>/jobs/<job>/job.json      durable admission intent
    <root>/tenants/<t>/jobs/<job>/journal.jsonl write-ahead run journal
    <root>/tenants/<t>/jobs/<job>/out/          materialized workspace
    <root>/tenants/<t>/jobs/<job>/sim.json      simulation record (pre-commit)
    <root>/tenants/<t>/jobs/<job>/result.json   terminal DONE record
    <root>/tenants/<t>/jobs/<job>/failed.json   terminal FAILED record
    <root>/index/<content_digest>.json          global warm-serving index

``job.json`` is the service-level write-ahead intent: it is written —
fsynced, then atomically renamed into place — *before* the job enters
the scheduler, so a daemon killed at any instant can reconstruct its
whole queue from disk.  Recovery classifies each job directory by what
survived: a terminal record means the job is re-served from its own
durable result (*replay*); a journal without a terminal record means
the job died mid-flight and resumes through
:func:`~repro.flow.orchestrator.resume_flow` (*resume*); ``job.json``
alone means the job never started and is simply re-queued.

The global index maps a :meth:`~repro.service.jobs.JobSpec.content_digest`
to one completed job's workspace, enabling **warm serving**: when the
executor pool is saturated or a circuit breaker is open, an identical
job (any tenant — content-addressed identity makes that safe) is served
by copying the verified workspace read-only instead of executing.
"""

from __future__ import annotations

import json
import os
import shutil
import stat
from dataclasses import dataclass
from pathlib import Path

from repro.flow.buildcache import BuildCache
from repro.flow.journal import fsync_dir
from repro.flow.workspace import verify_workspace
from repro.service.jobs import DONE, JobRecord, JobSpec
from repro.service.leases import Fence

_JOB_FILE = "job.json"
_JOURNAL_FILE = "journal.jsonl"
_RESULT_FILE = "result.json"
_FAILED_FILE = "failed.json"
_SIM_FILE = "sim.json"
_OUT_DIR = "out"


def durable_write(path: Path, payload: dict) -> None:
    """Write JSON atomically: temp file, fsync, rename, fsync dir."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".tmp-{path.name}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def _durable_publish_excl(path: Path, payload: dict, *, suffix: str) -> bool:
    """Durably create *path* if and only if it does not exist yet.

    The multi-replica publish primitive: the payload is fully written
    and fsynced to a temp file, then ``os.link``ed into place — an
    atomic create-if-absent, so of any number of racing publishers
    exactly the first wins and no reader ever sees a torn record.
    Returns ``False`` when *path* already existed (the caller lost).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".tmp-{suffix}-{path.name}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        os.unlink(tmp)
    fsync_dir(path.parent)
    return True


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


@dataclass
class JobScan:
    """One job directory as recovery classified it."""

    tenant: str
    job_id: str
    spec: JobSpec
    #: "done" | "failed" | "inflight" | "queued"
    phase: str
    record: JobRecord | None = None
    #: Admission sequence from ``job.json`` — recovery and the cluster
    #: claim loop walk jobs in the order clients were admitted.
    order: int = 0


class JobStore:
    """Filesystem layout + durability rules of the service root."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.cache_root = self.root / "cache"
        self.tenants_root = self.root / "tenants"
        self.index_root = self.root / "index"

    # -- paths -------------------------------------------------------------
    def job_dir(self, tenant: str, job_id: str) -> Path:
        return self.tenants_root / tenant / "jobs" / job_id

    def journal_path(self, tenant: str, job_id: str) -> Path:
        return self.job_dir(tenant, job_id) / _JOURNAL_FILE

    def out_dir(self, tenant: str, job_id: str) -> Path:
        return self.job_dir(tenant, job_id) / _OUT_DIR

    def sim_path(self, tenant: str, job_id: str) -> Path:
        return self.job_dir(tenant, job_id) / _SIM_FILE

    def cache_for(self) -> BuildCache:
        """The object store every job builds through — one store shared
        by every tenant, so identical cores are built once."""
        return BuildCache(self.cache_root)

    # -- admission intent --------------------------------------------------
    def save_spec(
        self, tenant: str, job_id: str, spec: JobSpec, *, order: int = 0
    ) -> bool:
        """Durably record the admission intent — before the queue sees it.

        First-writer-wins: the job id is content-addressed, so a
        resubmission (lost ACK, different replica, restarted client)
        carries byte-identical intent — an existing ``job.json`` is left
        untouched, preserving the original admission *order*.  Returns
        ``True`` when this call created the intent.
        """
        path = self.job_dir(tenant, job_id) / _JOB_FILE
        if path.exists():
            return False
        return _durable_publish_excl(
            path,
            {
                "tenant": tenant,
                "job_id": job_id,
                "order": order,
                "content_digest": spec.content_digest(),
                "spec": spec.as_dict(),
            },
            suffix="spec",
        )

    # -- terminal records --------------------------------------------------
    def write_terminal(
        self,
        record: JobRecord,
        *,
        content_digest: str,
        fence: Fence | None = None,
    ) -> bool:
        """Durably publish a terminal record, first-writer-wins; DONE
        jobs also index themselves for warm serving.

        The record is created with link-based first-writer-wins
        semantics, so a terminal record is never overwritten: a losing
        publish returns ``False`` and leaves the first record on disk
        for the caller to adopt.  A *fence* (multi-replica execution)
        adds a token check in front: a stale token — or a lost link
        under a fence — raises
        :class:`~repro.service.leases.FencedWrite`, counted in
        ``service.fenced_writes_total``.  Only the winning publisher
        updates the warm-serving index.
        """
        name = _RESULT_FILE if record.state == DONE else _FAILED_FILE
        path = self.job_dir(record.tenant, record.job_id) / name
        payload = {"content_digest": content_digest, "record": record.as_dict()}
        if fence is not None:
            fence.validate()
        if not _durable_publish_excl(
            path, payload, suffix=record.replica or "local"
        ):
            if fence is not None:
                fence.rejected("already-published")
            return False
        if record.state == DONE:
            durable_write(
                self.index_root / f"{content_digest}.json",
                {
                    "tenant": record.tenant,
                    "job_id": record.job_id,
                    "artifact_digest": record.artifact_digest,
                    "sim_digest": record.sim_digest,
                },
            )
        return True

    def load_terminal(self, tenant: str, job_id: str) -> JobRecord | None:
        for name in (_RESULT_FILE, _FAILED_FILE):
            data = _read_json(self.job_dir(tenant, job_id) / name)
            if data is not None:
                return JobRecord(**data["record"])
        return None

    # -- warm serving ------------------------------------------------------
    def warm_entry(self, content_digest: str) -> dict | None:
        """The index entry for *content_digest*, verified against disk."""
        entry = _read_json(self.index_root / f"{content_digest}.json")
        if entry is None:
            return None
        src = self.out_dir(entry["tenant"], entry["job_id"])
        status = verify_workspace(src)
        if not status.ok or status.artifact_digest != entry["artifact_digest"]:
            return None  # stale or torn — never serve it
        return entry

    def serve_warm(self, content_digest: str, tenant: str, job_id: str) -> dict | None:
        """Copy a verified identical workspace into this job — read-only.

        Returns the index entry served from, or ``None`` when no
        verified warm artifact exists.  The copy is marked read-only
        file by file: a degraded serving is explicitly not a writable
        build workspace.
        """
        entry = self.warm_entry(content_digest)
        if entry is None:
            return None
        src = self.out_dir(entry["tenant"], entry["job_id"])
        dest = self.out_dir(tenant, job_id)
        if dest.exists():
            shutil.rmtree(dest)
        dest.parent.mkdir(parents=True, exist_ok=True)
        stage = dest.parent / f".warm-{content_digest[:16]}"
        if stage.exists():
            shutil.rmtree(stage)
        shutil.copytree(src, stage)
        for path in stage.rglob("*"):
            if path.is_file():
                path.chmod(stat.S_IRUSR | stat.S_IRGRP | stat.S_IROTH)
        stage.rename(dest)
        # Copy the sim record too, when the source job had one.
        src_sim = self.sim_path(entry["tenant"], entry["job_id"])
        sim = _read_json(src_sim)
        if sim is not None:
            durable_write(self.sim_path(tenant, job_id), sim)
        return entry

    # -- recovery ----------------------------------------------------------
    def scan(self) -> list[JobScan]:
        """Classify every job directory for recovery and work stealing.

        Deterministic order — admission sequence first (recovered jobs
        re-enter the queue in the order clients were admitted), tenant
        and job id as tie-breakers — so a recovered daemon or a replica
        fleet walks the backlog in one stable sequence.
        """
        scans: list[JobScan] = []
        if not self.tenants_root.exists():
            return scans
        for tenant_dir in sorted(self.tenants_root.iterdir()):
            jobs_dir = tenant_dir / "jobs"
            if not jobs_dir.is_dir():
                continue
            for job_dir in sorted(jobs_dir.iterdir()):
                tenant, job_id = tenant_dir.name, job_dir.name
                data = _read_json(job_dir / _JOB_FILE)
                if data is None:
                    continue  # torn admission intent — the submit never ACKed
                try:
                    spec = JobSpec.from_dict(data["spec"])
                except (KeyError, TypeError, ValueError):
                    continue
                record = self.load_terminal(tenant, job_id)
                if record is not None:
                    phase = "done" if record.state == DONE else "failed"
                elif (job_dir / _JOURNAL_FILE).exists():
                    phase = "inflight"
                else:
                    phase = "queued"
                scans.append(
                    JobScan(
                        tenant, job_id, spec, phase, record,
                        order=int(data.get("order", 0)),
                    )
                )
        scans.sort(key=lambda s: (s.order, s.tenant, s.job_id))
        return scans


__all__ = ["JobScan", "JobStore", "durable_write"]
