"""Per-tenant fair-share queueing with admission control.

The service never runs jobs straight from the socket: every accepted
job enters its tenant's bounded FIFO here, and the service's run loop
asks :meth:`FairScheduler.pick` which job to claim next.  Three properties hold
by construction:

* **Bounded admission** — each tenant holds at most *depth_bound*
  queued jobs; the next submission raises
  :class:`~repro.service.jobs.JobRejected` instead of growing the
  backlog without bound (the client sees a structured rejection and can
  back off).
* **Fair share** — tenants are served round-robin in first-seen order,
  so a tenant streaming hundreds of jobs cannot shut out a tenant
  submitting one.
* **Starvation guard** — picks are counted against every queue head
  that was passed over; once the *oldest* waiting head (by admission
  sequence) has been skipped ``starvation_after`` times it is picked
  next regardless of whose round-robin turn it is.  Pure round-robin
  never trips this, but any future weighted policy (or an operator
  draining one tenant by hand) inherits the bound for free.

Everything is deterministic — no clocks, no randomness — because the
chaos campaign replays submission sequences and asserts a stable
campaign digest.
"""

from __future__ import annotations

from collections import deque

from repro.obs.events import BUS as _BUS
from repro.obs.metrics import REGISTRY as _METRICS

from repro.service.jobs import JobRejected


class FairScheduler:
    """Bounded per-tenant FIFOs + deterministic fair-share picking."""

    def __init__(self, *, depth_bound: int = 8, starvation_after: int = 4) -> None:
        if depth_bound < 1:
            raise ValueError("depth_bound must be positive")
        self.depth_bound = depth_bound
        self.starvation_after = starvation_after
        self._queues: dict[str, deque[str]] = {}
        self._order: list[str] = []  # tenants in first-seen order
        self._rr = 0  # round-robin cursor into _order
        self._seq = 0  # admission sequence (total order of submits)
        self._admitted_at: dict[str, int] = {}  # job_id -> admission seq
        self._skips: dict[str, int] = {}  # job_id -> times passed over

    # -- admission ---------------------------------------------------------
    def submit(self, tenant: str, job_id: str) -> None:
        """Admit *job_id* to *tenant*'s queue or raise :class:`JobRejected`."""
        self.check(tenant, job_id)
        self._enqueue(tenant, job_id)

    def check(self, tenant: str, job_id: str) -> None:
        """Raise :class:`JobRejected` when *tenant*'s queue is full.

        The service calls it before it persists the admission intent, so
        a rejected job leaves nothing on disk for a later scan to adopt.
        """
        if self.depth(tenant) >= self.depth_bound:
            if _BUS.enabled:
                _BUS.emit("service.reject", job_id, tenant=tenant, reason="queue-full")
                _METRICS.counter(
                    "service.admission_rejections",
                    "jobs refused by admission control",
                ).inc()
            raise JobRejected(
                f"tenant {tenant!r} already has {self.depth(tenant)} queued "
                f"job(s) (bound {self.depth_bound})",
                tenant=tenant,
                reason="queue-full",
            )

    def restore(self, tenant: str, job_id: str) -> None:
        """Re-queue a durably-admitted job (recovery, or a job adopted
        from the shared store).

        Bypasses the depth bound on purpose: the job passed admission
        once and its intent is on disk — rejecting it now would lose
        accepted work, the one thing recovery must never do.
        """
        self._enqueue(tenant, job_id)

    def _enqueue(self, tenant: str, job_id: str) -> None:
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._order.append(tenant)
        self._seq += 1
        self._admitted_at[job_id] = self._seq
        self._skips[job_id] = 0
        queue.append(job_id)
        self._update_gauge()

    # -- picking -----------------------------------------------------------
    def _heads(self) -> list[tuple[str, str]]:
        return [(t, q[0]) for t, q in self._queues.items() if q]

    def pick(self) -> tuple[str, str] | None:
        """The next ``(tenant, job_id)`` to run, or ``None`` when idle."""
        heads = self._heads()
        if not heads:
            return None
        # Starvation guard: the oldest waiting head wins once it has
        # been passed over starvation_after times.
        oldest = min(heads, key=lambda tj: self._admitted_at[tj[1]])
        if self._skips.get(oldest[1], 0) >= self.starvation_after:
            chosen = oldest
        else:
            # Fair share: the first non-empty tenant at or after the
            # round-robin cursor (first-seen order).
            chosen = None
            for offset in range(len(self._order)):
                tenant = self._order[(self._rr + offset) % len(self._order)]
                queue = self._queues.get(tenant)
                if queue:
                    chosen = (tenant, queue[0])
                    self._rr = (self._rr + offset + 1) % len(self._order)
                    break
            assert chosen is not None  # heads was non-empty
        tenant, job_id = chosen
        self._queues[tenant].popleft()
        self._admitted_at.pop(job_id, None)
        self._skips.pop(job_id, None)
        for _, other in self._heads():
            self._skips[other] = self._skips.get(other, 0) + 1
        self._update_gauge()
        return chosen

    # -- inspection --------------------------------------------------------
    def depth(self, tenant: str | None = None) -> int:
        if tenant is not None:
            return len(self._queues.get(tenant, ()))
        return sum(len(q) for q in self._queues.values())

    def __len__(self) -> int:
        return self.depth()

    def queued(self, tenant: str) -> tuple[str, ...]:
        return tuple(self._queues.get(tenant, ()))

    def tenants(self) -> tuple[str, ...]:
        return tuple(self._order)

    def describe(self) -> dict:
        return {
            "depth": self.depth(),
            "tenants": {t: len(q) for t, q in sorted(self._queues.items())},
        }

    def _update_gauge(self) -> None:
        if _BUS.enabled:
            _METRICS.gauge(
                "service.queue_depth", "jobs waiting across all tenants"
            ).set(self.depth())


__all__ = ["FairScheduler"]
