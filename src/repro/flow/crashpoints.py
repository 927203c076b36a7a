"""Deterministic crash-injection points for the flow process.

PR 2 injected faults into the *simulated SoC*; this module injects
crashes into the *flow process itself*, so the journal/workspace/cache
crash-consistency machinery can be proven, not just argued.  A
:class:`CrashPlan` arms exactly one *site* — a named point at a journal
boundary — and the flow dies there, either by raising
:class:`~repro.util.errors.FlowInterrupted` (in-process harnesses) or by
``os._exit`` (real ``kill -9`` semantics: no ``finally`` blocks, no
atexit, nothing flushed that was not already durable).

Sites mirror the journal's step taxonomy: every step *S* has ``S:start``
(the intent record is durable, the work is lost) and ``S:commit`` (the
artifact is published, the run dies before finishing).  Workspace
materialization adds ``materialize:stage`` (the staging tree is fully
written but not yet promoted) and ``materialize:swap`` (inside the
promotion's rename window — the nastiest torn state).

Arming is explicit (:func:`arm` / the :func:`armed` context manager) or
environment-driven — ``REPRO_FLOW_CRASH_AT=<site>[@<n>]`` kills the
*n*-th visit of the site (default first) and
``REPRO_FLOW_CRASH_MODE=exit`` switches to hard process exit — so a
subprocess harness can kill an unmodified ``repro build``.  A malformed
variable (an unknown mode, a hit count that is not a positive integer)
raises :class:`~repro.util.errors.ReproError` rather than arming some
other crash.  Like ``sim/faults.py``, plans can also be drawn from a
seed: the same seed over the same site inventory always arms the same
crash.

Every visit also calls the running job's :data:`BOUNDARY_HOOK`, a
:class:`contextvars.ContextVar`: the build service sets it to the job's
lease fence on the executor thread that runs the job, one job at a
time, so each job is checked against its own lease only.
"""

from __future__ import annotations

import os
import random
import signal
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

from repro.util.errors import FlowInterrupted, ReproError

ENV_SITE = "REPRO_FLOW_CRASH_AT"
ENV_MODE = "REPRO_FLOW_CRASH_MODE"
MODES = ("raise", "exit", "kill", "stop")

#: :data:`ENV_SITE` as ``os.environ`` keys it in its underlying dict.
#: An unarmed visit probes that dict (one lookup); ``os.environ.get``
#: would encode the name and raise and catch a ``KeyError`` each time.
_ENV_SITE_KEY = os.environ.encodekey(ENV_SITE)

#: Exit status used in ``exit`` mode — distinguishable from argparse (2)
#: and from a Python traceback (1), so harnesses can assert the kill.
CRASH_EXIT_CODE = 70


@dataclass(frozen=True)
class CrashPlan:
    """One armed crash: die at the *hit*-th visit of *site*."""

    site: str
    hit: int = 1
    #: ``raise`` (FlowInterrupted), ``exit`` (os._exit, no cleanup),
    #: ``kill`` (SIGKILL to self — the real signal, for multi-process
    #: chaos), or ``stop`` (SIGSTOP to self: the process freezes at the
    #: boundary until something sends SIGCONT, then execution continues
    #: exactly where it paused — the lease-expiry/fencing scenario).
    mode: str = "raise"

    @classmethod
    def random(cls, seed: int, sites: list[str], *, mode: str = "raise") -> "CrashPlan":
        """A seeded plan over a site inventory — same seed, same crash."""
        rng = random.Random(seed)
        return cls(site=rng.choice(sorted(sites)), mode=mode)

    def describe(self) -> str:
        return f"{self.site}@{self.hit} ({self.mode})"


_armed: CrashPlan | None = None
_visits: dict[str, int] = {}

#: The running job's boundary hook, called at *every* crashpoint visit
#: (after any armed crash fires and, for ``stop`` mode, after the
#: process is resumed).  The build service sets it to the job's lease
#: fence, so ownership is re-validated at every journal boundary — in
#: particular, a SIGSTOPped replica that wakes up re-checks *inside*
#: the boundary it paused at, before touching another byte of shared
#: state.  A context variable, not a global: the service sets it on the
#: executor thread that runs the job (``run_in_executor`` does not copy
#: contexts) and resets it by token afterwards, so the next job on that
#: thread never sees a finished job's fence and code on other threads
#: never sees it at all.
BOUNDARY_HOOK: ContextVar[Callable[[str], None] | None] = ContextVar(
    "repro_boundary_hook", default=None
)


def arm(plan: CrashPlan | None) -> None:
    """Arm *plan* (or disarm with ``None``) and reset the visit counters."""
    global _armed
    _armed = plan
    _visits.clear()


def disarm() -> None:
    arm(None)


@contextmanager
def armed(plan: CrashPlan):
    """Arm *plan* for the duration of the block; always disarms after."""
    arm(plan)
    try:
        yield plan
    finally:
        disarm()


def _env_plan() -> CrashPlan | None:
    spec = os.environ.get(ENV_SITE)
    if not spec:
        return None
    site, at, hit = spec.partition("@")
    n = 1
    if at:
        try:
            n = int(hit)
        except ValueError:
            n = 0
        if n < 1:
            raise ReproError(
                f"{ENV_SITE}={spec!r}: the hit count after '@' must be a "
                "positive integer"
            )
    mode = os.environ.get(ENV_MODE) or "raise"
    if mode not in MODES:
        raise ReproError(
            f"{ENV_MODE}={mode!r} is not a crash mode (one of {', '.join(MODES)})"
        )
    return CrashPlan(site=site, hit=n, mode=mode)


def crashpoint(site: str, *, core: str | None = None) -> None:
    """Die here iff an armed plan names this *site* (and visit count).

    Called by the flow at every journal boundary; a no-op unless a plan
    is armed in-process or through the environment.  An unarmed visit
    costs one lookup of :data:`ENV_SITE` in ``os.environ``'s own dict,
    which every ``os.environ`` assignment and deletion updates, so
    setting the variable in-process arms the very next boundary; only
    when it is set are the variables parsed (:func:`_env_plan`).
    """
    plan = _armed
    if plan is None and _ENV_SITE_KEY in os.environ._data:
        plan = _env_plan()
    if plan is not None:
        _visits[site] = _visits.get(site, 0) + 1
        if site == plan.site and _visits[site] == plan.hit:
            # Signals are sent thread-directed (pthread_kill to *this*
            # thread), not process-directed (os.kill): a process-directed
            # signal is only pending after kill() returns, so the caller
            # could race several lines — even a whole journal commit —
            # past the crashpoint before the group stop/kill lands.
            # Thread-directed delivery happens at this very syscall's
            # exit, freezing or killing the flow exactly here.
            if plan.mode == "exit":
                os._exit(CRASH_EXIT_CODE)  # a real kill: nothing else runs
            elif plan.mode == "kill":
                signal.pthread_kill(threading.get_ident(), signal.SIGKILL)
            elif plan.mode == "stop":
                # Freeze right here; on SIGCONT execution resumes on the
                # next line — which runs the boundary hook below, so a
                # resurrected replica is fenced before leaving the
                # boundary it was paused at.
                signal.pthread_kill(threading.get_ident(), signal.SIGSTOP)
            else:
                raise FlowInterrupted(
                    f"flow killed at crash-point {site!r}", step=site, core=core
                )
    hook = BOUNDARY_HOOK.get()
    if hook is not None:
        hook(site)


def flow_sites(core_names: list[str]) -> list[str]:
    """Every journal boundary of ``run_flow`` for these cores, in order."""
    sites: list[str] = []
    for name in core_names:
        sites += [f"hls:{name}:start", f"hls:{name}:commit"]
    sites += ["integrate:start", "integrate:commit", "swgen:start", "swgen:commit"]
    return sites


def workspace_sites() -> list[str]:
    """The journal boundaries of :func:`repro.flow.workspace.materialize`."""
    return ["materialize:start", "materialize:stage", "materialize:commit"]


def all_sites(core_names: list[str]) -> list[str]:
    """The kill-at-every-journal-boundary matrix for one architecture."""
    return flow_sites(core_names) + workspace_sites()


__all__ = [
    "BOUNDARY_HOOK",
    "CRASH_EXIT_CODE",
    "CrashPlan",
    "all_sites",
    "arm",
    "armed",
    "crashpoint",
    "disarm",
    "flow_sites",
    "workspace_sites",
]
