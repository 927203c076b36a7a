"""Durable, fsynced lease files: leader-less job ownership with fencing.

Every :class:`~repro.service.daemon.BuildService` runs each job under a
lease, and any number of them (replica processes) share one service
root and coordinate **without a leader** through lease files under
``<root>/leases/``.  The protocol rests on three filesystem
primitives that are atomic on POSIX:

* **Acquire** — ``os.link`` of a fully-written temp file onto
  ``leases/<job_id>.json`` creates the lease if and only if no lease
  exists (O_EXCL semantics with the payload already durable, so no
  reader ever observes a half-written lease).  A fresh acquire carries
  fencing token 1.
* **Steal** — a replica that observes a *stale* lease links a
  fully-written successor lease onto a per-token **claim file**
  (``leases/<job_id>.claim.<token+1>``; O_EXCL, so exactly one of any
  number of concurrent stealers wins each token) and then atomically
  renames a second link of that claim *onto* the lease path.  The lease path is
  only ever atomically overwritten — it is never absent mid-steal, so a
  concurrent scanner can never mistake an in-progress steal for an
  unleased job and re-acquire it at token 1.
* **Incarnations** — a lease also names its owner's *incarnation*, a
  number each ``BuildService`` bumps durably every time it starts.  A
  lease is stale when its heartbeat expired, or at once when it names
  this replica's id with an older incarnation: a restarted replica
  steals its own dead predecessor's leases without waiting out the
  TTL, and the steal still takes token + 1.
* **Renew** — heartbeats live in a *separate* per-token file
  (``leases/<job_id>.hb.<token>``).  The lease file itself is immutable
  after creation, so a paused-then-resurrected replica renewing its old
  heartbeat can only ever touch ``.hb.<stale_token>`` — it cannot
  clobber the current owner's lease or heartbeat, no matter how
  unluckily it wakes up.

Every lease mutation fsyncs the file and then the ``leases/`` directory,
so ownership survives power loss, not just process death.

**Fencing.**  The token is monotonically increasing per job (steal =
token + 1, and the claim files — kept until the lease is released —
make each token claimable exactly once, so the chain stays airtight
even when a stealer crashes mid-protocol).  The store's publish path calls
:meth:`Fence.validate` with the token it executed under; a stale token
— the lease was stolen, released, or superseded — raises
:class:`FencedWrite` (counted in ``service.fenced_writes_total``)
*before* anything is linked into place, and terminal records themselves
are published with link-based first-writer-wins semantics, so a zombie
replica can neither clobber nor duplicate a steal's output.
:meth:`Fence.check` is the cheap mid-run form, set as the job's
crashpoint boundary hook: the flow re-validates ownership at every
journal boundary and aborts with :class:`LeaseLost` the moment the
lease is gone, long before it would reach a publish.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.flow.journal import fsync_dir
from repro.obs.events import BUS as _BUS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.util.errors import ReproError

LEASES_DIR = "leases"


class LeaseLost(ReproError):
    """Mid-run fence check failed: this replica no longer owns the job."""

    def __init__(self, message: str, *, job_id: str = "?", token: int = 0) -> None:
        super().__init__(message)
        self.job_id = job_id
        self.token = token


class FencedWrite(ReproError):
    """A publish carrying a stale fencing token was rejected."""

    def __init__(self, message: str, *, job_id: str = "?", token: int = 0) -> None:
        super().__init__(message)
        self.job_id = job_id
        self.token = token


@dataclass(frozen=True)
class Lease:
    """One job's ownership record (the immutable lease-file payload)."""

    job_id: str
    replica: str
    token: int
    acquired_at: float
    #: The owner's incarnation: bumped durably at every service start.
    incarnation: int = 0

    def as_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "replica": self.replica,
            "token": self.token,
            "acquired_at": self.acquired_at,
            "incarnation": self.incarnation,
        }


class LeaseManager:
    """One replica's view of the shared ``leases/`` directory."""

    def __init__(
        self,
        root: str | os.PathLike,
        replica_id: str,
        *,
        ttl_s: float = 3.0,
        clock=time.time,
        incarnation: int = 0,
    ) -> None:
        self.dir = Path(root) / LEASES_DIR
        self.replica_id = replica_id
        self.ttl_s = ttl_s
        self.clock = clock
        self.incarnation = incarnation
        # Serializes this replica's own lease mutations within the
        # process; cross-replica safety comes from link/rename.
        self._lock = threading.Lock()

    # -- paths -------------------------------------------------------------
    def lease_path(self, job_id: str) -> Path:
        return self.dir / f"{job_id}.json"

    def _hb_path(self, job_id: str, token: int) -> Path:
        return self.dir / f"{job_id}.hb.{token}"

    # -- reading -----------------------------------------------------------
    def read(self, job_id: str) -> Lease | None:
        """The current lease on *job_id*, or ``None``."""
        try:
            data = json.loads(self.lease_path(job_id).read_text())
        except (OSError, ValueError):
            return None
        try:
            return Lease(
                job_id=data["job_id"],
                replica=data["replica"],
                token=int(data["token"]),
                acquired_at=float(data["acquired_at"]),
                incarnation=int(data.get("incarnation", 0)),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def heartbeat_at(self, lease: Lease) -> float:
        """Wall-clock time of the lease's latest heartbeat."""
        try:
            data = json.loads(self._hb_path(lease.job_id, lease.token).read_text())
            return float(data["t"])
        except (OSError, ValueError, KeyError, TypeError):
            return lease.acquired_at

    def expired(self, lease: Lease) -> bool:
        """Has the owner missed its heartbeat for longer than the TTL?"""
        return self.clock() - self.heartbeat_at(lease) > self.ttl_s

    def predecessor(self, lease: Lease) -> bool:
        """Was *lease* taken by an earlier incarnation of this replica?"""
        return (
            lease.replica == self.replica_id
            and lease.incarnation < self.incarnation
        )

    def stale(self, lease: Lease) -> bool:
        """May *lease* be stolen: expired, or held by our own past life?"""
        return self.predecessor(lease) or self.expired(lease)

    def owns(self, lease: Lease) -> bool:
        """Is *lease* still the on-disk lease, byte for byte?"""
        return self.read(lease.job_id) == lease

    def active(self) -> list[Lease]:
        """Every lease currently on disk (any replica), sorted by job."""
        if not self.dir.is_dir():
            return []
        leases = []
        for path in sorted(self.dir.glob("*.json")):
            lease = self.read(path.stem)
            if lease is not None:
                leases.append(lease)
        return leases

    # -- acquire / steal / renew / release ---------------------------------
    def _claim_path(self, job_id: str, token: int) -> Path:
        return self.dir / f"{job_id}.claim.{token}"

    def _write_payload(self, tmp: Path, lease: Lease) -> None:
        """Write the lease payload to *tmp*, durable before any link."""
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(lease.as_dict(), fh, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())

    def _create(self, job_id: str, token: int) -> Lease | None:
        """Link a fully-written, fsynced lease into place (O_EXCL)."""
        lease = Lease(
            job_id=job_id,
            replica=self.replica_id,
            token=token,
            acquired_at=self.clock(),
            incarnation=self.incarnation,
        )
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = self.dir / f".tmp-{self.replica_id}-{job_id}"
        self._write_payload(tmp, lease)
        try:
            os.link(tmp, self.lease_path(job_id))
        except FileExistsError:
            return None  # someone else holds (or just took) the lease
        finally:
            os.unlink(tmp)
        fsync_dir(self.dir)
        self._beat(lease)
        return lease

    def acquire(self, job_id: str) -> Lease | None:
        """Claim an unleased job (token 1); ``None`` when already leased."""
        with self._lock:
            lease = self._create(job_id, 1)
        if lease is not None and _BUS.enabled:
            _BUS.emit(
                "service.lease_acquired", job_id,
                replica=self.replica_id, token=lease.token,
            )
            _METRICS.counter(
                "service.leases_acquired_total", "fresh lease acquisitions"
            ).inc()
        return lease

    def steal(self, job_id: str, lease: Lease) -> Lease | None:
        """Take over a :meth:`stale` lease; ``None`` when another stealer won.

        The O_EXCL claim link is the arbitration: token ``T + 1`` is
        claimable exactly once (claims persist until the job's lease is
        released), so of any number of concurrent stealers exactly one
        wins.  The winner renames a second link of its claim *onto* the
        lease path — an atomic overwrite, so the path is never absent
        and no scanner can slip in a fresh token-1 acquire mid-steal.
        A loser that finds the claim already taken while the lease file
        still shows the dead token finishes the winner's rename for it
        (the winner may have crashed between link and rename), keeping
        the chain live without ever counting itself a winner.
        """
        if not self.stale(lease):
            return None
        fresh = Lease(
            job_id=job_id,
            replica=self.replica_id,
            token=lease.token + 1,
            acquired_at=self.clock(),
            incarnation=self.incarnation,
        )
        claim = self._claim_path(job_id, fresh.token)
        with self._lock:
            if self.read(job_id) != lease:
                return None  # the world moved on while we decided
            self.dir.mkdir(parents=True, exist_ok=True)
            tmp = self.dir / f".tmp-{self.replica_id}-{job_id}"
            self._write_payload(tmp, fresh)
            try:
                os.link(tmp, claim)
                won = True
            except FileExistsError:
                won = False
            finally:
                os.unlink(tmp)
            if not won:
                self._finish_steal(job_id, lease, claim)
                return None
            self._install_claim(job_id, claim)
            if not self.owns(fresh):
                return None  # pathological interleaving; rescan decides
            # The dead owner's heartbeat is garbage now.
            try:
                os.unlink(self._hb_path(job_id, lease.token))
            except OSError:
                pass
            self._beat(fresh)
        if _BUS.enabled:
            _BUS.emit(
                "service.lease_stolen", job_id,
                replica=self.replica_id, token=fresh.token,
                stolen_from=lease.replica,
            )
            _METRICS.counter(
                "service.leases_stolen_total", "stale leases stolen"
            ).inc()
            if not self.predecessor(lease):
                _METRICS.counter(
                    "service.heartbeats_expired_total",
                    "leases observed past their heartbeat TTL",
                ).inc()
        return fresh

    def _install_claim(self, job_id: str, claim: Path) -> None:
        """Atomically overwrite the lease path with *claim*'s payload.

        Renames a second hard link so the claim file itself survives as
        the proof that its token was handed out — that is what makes
        each token claimable at most once for the job's lifetime.
        """
        tmp = self.dir / f".tmp-install-{self.replica_id}-{job_id}"
        try:
            os.link(claim, tmp)
        except OSError:
            return  # claim swept by a release; nothing left to install
        os.rename(tmp, self.lease_path(job_id))
        fsync_dir(self.dir)

    def _finish_steal(self, job_id: str, lease: Lease, claim: Path) -> None:
        """Complete another stealer's interrupted rename, if needed."""
        if self.read(job_id) == lease and claim.exists():
            self._install_claim(job_id, claim)

    def _beat(self, lease: Lease) -> None:
        """Write the per-token heartbeat file (atomic replace).

        Deliberately *not* dir-fsynced: losing a heartbeat to power loss
        only makes the lease look older than it is, which at worst
        causes an earlier (always safe) steal.
        """
        path = self._hb_path(lease.job_id, lease.token)
        tmp = path.parent / f".tmp-{path.name}-{self.replica_id}"
        tmp.write_text(json.dumps({"t": self.clock(), "token": lease.token}))
        os.replace(tmp, path)

    def renew(self, lease: Lease) -> bool:
        """Refresh the heartbeat; ``False`` when the lease is no longer ours.

        A stale renewal only ever writes ``.hb.<stale_token>`` — it can
        never interfere with the current owner — but the return value
        lets the heartbeat thread stop beating a dead horse.
        """
        with self._lock:
            if not self.owns(lease):
                return False
            self._beat(lease)
        if _BUS.enabled:
            _BUS.emit(
                "service.lease_renewed", lease.job_id,
                replica=self.replica_id, token=lease.token,
            )
            _METRICS.counter(
                "service.lease_renewals_total", "heartbeat renewals"
            ).inc()
        return True

    def release(self, lease: Lease) -> bool:
        """Drop our own lease after terminal publication; ``False`` if
        it was no longer ours (stolen while we finished)."""
        with self._lock:
            if not self.owns(lease):
                return False
            try:
                os.unlink(self.lease_path(lease.job_id))
            except OSError:
                return False
            fsync_dir(self.dir)
            # Sweep the job's heartbeat and spent claim files: the next
            # ownership chain (if any) starts fresh at token 1.
            stale = [self._hb_path(lease.job_id, lease.token)]
            stale.extend(self.dir.glob(f"{lease.job_id}.claim.*"))
            for path in stale:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        return True


@dataclass
class Fence:
    """The fencing token one job execution runs under."""

    manager: LeaseManager
    lease: Lease

    @property
    def token(self) -> int:
        return self.lease.token

    def check(self, site: str | None = None) -> None:
        """Mid-run ownership check (journal boundaries).

        Raises :class:`LeaseLost` the moment the on-disk lease is no
        longer ours — the replica aborts the attempt instead of racing
        the thief through the rest of the flow.
        """
        if self.manager.owns(self.lease):
            return
        if _BUS.enabled:
            _BUS.emit(
                "service.lease_fenced", self.lease.job_id,
                replica=self.manager.replica_id, token=self.lease.token,
                at=site or "check",
            )
            _METRICS.counter(
                "service.lease_lost_total",
                "executions aborted mid-run after losing their lease",
            ).inc()
        raise LeaseLost(
            f"lease on {self.lease.job_id} (token {self.lease.token}) "
            f"no longer held by {self.manager.replica_id}"
            + (f" at {site}" if site else ""),
            job_id=self.lease.job_id,
            token=self.lease.token,
        )

    def validate(self) -> None:
        """Publish-time fencing: stale token ⇒ :class:`FencedWrite`."""
        if self.manager.owns(self.lease):
            return
        self.rejected("stale-token")

    def rejected(self, reason: str) -> None:
        """Record one fenced publish attempt and raise."""
        if _BUS.enabled:
            _BUS.emit(
                "service.lease_fenced", self.lease.job_id,
                replica=self.manager.replica_id, token=self.lease.token,
                at="publish", reason=reason,
            )
        _METRICS.counter(
            "service.fenced_writes_total",
            "publish attempts rejected for carrying a stale fencing token",
        ).inc()
        raise FencedWrite(
            f"publish for {self.lease.job_id} rejected: fencing token "
            f"{self.lease.token} is stale ({reason})",
            job_id=self.lease.job_id,
            token=self.lease.token,
        )


__all__ = [
    "Fence",
    "FencedWrite",
    "Lease",
    "LeaseLost",
    "LeaseManager",
    "fsync_dir",
]
