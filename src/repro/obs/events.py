"""Process-wide structured event bus.

One :class:`EventBus` instance (:data:`BUS`) serves the whole process.
Emission is **guarded**: every instrumented site checks ``BUS.enabled``
(one attribute load) before building an event, so disabled observability
is a no-op on the hot paths.  When enabled, events carry:

* a **monotonic sequence number** (strictly increasing per bus — the
  first invariant ``tests/obs_invariants.py`` checks);
* a **typed category** from :data:`CATEGORIES` (``flow.step``,
  ``cache.hit/miss/evict``, ``journal.intent/commit``, ``sim.phase``,
  ``sim.dma``, ``sim.fault``, ``sim.recovery``);
* a **phase marker** — ``"B"``/``"E"`` for span begin/end (Chrome
  trace-event convention), ``"i"`` for instants;
* a wall-clock timestamp (``perf_counter_ns``) and, for simulator
  events, the simulated **cycle**;
* the emitting **worker** (thread name by default — the build
  service's worker threads emit concurrently, serialized by the bus
  lock).

Retention is a bounded ring buffer: the bus keeps the most recent
*capacity* events and counts what it dropped, so a long campaign can
stay instrumented without growing without bound.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

#: The closed set of event categories.  ``emit`` rejects anything else —
#: a typo'd category is a bug, not a new taxonomy entry.
CATEGORIES = frozenset(
    {
        "flow.step",
        "cache.hit",
        "cache.miss",
        "journal.intent",
        "journal.commit",
        "sim.phase",
        "sim.dma",
        "sim.fault",
        "sim.recovery",
        # Build-service lifecycle (PR 7): one span per executed job plus
        # instants for the admission/robustness decisions around it.
        "service.job",
        "service.submit",
        "service.reject",
        "service.retry",
        "service.recover",
        "service.degrade",
        "service.breaker",
        # Leader-less cluster coordination (PR 8): lease lifecycle per
        # job — fresh acquisition, heartbeat renewal, expired-heartbeat
        # steal, and fenced (rejected) writes from stale owners.
        "service.lease_acquired",
        "service.lease_renewed",
        "service.lease_stolen",
        "service.lease_fenced",
        # Per-function HLS memo layer (PR 9): one instant per lookup in
        # the sub-core cache plus pass-pipeline non-convergence reports.
        "hls.fn_cache.hit",
        "hls.fn_cache.miss",
        "hls.fn_cache.store",
        "hls.pipeline",
        # Design-space exploration (PR 10): one instant per evaluated
        # candidate landing in the frontier accumulator, one per point
        # pruned as dominated (or evicted by a later dominator).
        "dse.point",
        "dse.prune",
    }
)

#: Category prefix -> subsystem (one Chrome pid per subsystem).
SUBSYSTEMS = ("flow", "cache", "journal", "sim", "service", "hls", "dse")


def subsystem_of(category: str) -> str:
    return category.split(".", 1)[0]


@dataclass(frozen=True)
class ObsEvent:
    """One structured event."""

    seq: int
    category: str
    name: str
    phase: str  # "B" span begin, "E" span end, "i" instant
    wall_ns: int
    worker: str
    cycle: int | None = None
    fields: tuple[tuple[str, object], ...] = ()

    @property
    def subsystem(self) -> str:
        return subsystem_of(self.category)

    def field(self, key: str, default: object = None) -> object:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def describe(self) -> str:
        at = f" cycle={self.cycle}" if self.cycle is not None else ""
        extra = " ".join(f"{k}={v}" for k, v in self.fields)
        return (
            f"#{self.seq} {self.category}/{self.phase} {self.name}{at}"
            + (f" [{extra}]" if extra else "")
        )


class EventBus:
    """Thread-safe bounded ring buffer of :class:`ObsEvent` records."""

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ValueError("event bus capacity must be positive")
        self.capacity = capacity
        self.enabled = False
        self.dropped = 0
        self._seq = 0
        self._ring: deque[ObsEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    # -- emission ----------------------------------------------------------
    def emit(
        self,
        category: str,
        name: str,
        *,
        phase: str = "i",
        cycle: int | None = None,
        worker: str | None = None,
        **fields: object,
    ) -> ObsEvent | None:
        """Append one event; returns it, or ``None`` when disabled.

        Callers on hot paths should guard with ``if BUS.enabled:`` so the
        disabled case never reaches this call; the re-check here keeps
        unguarded callers correct anyway.
        """
        if not self.enabled:
            return None
        if category not in CATEGORIES:
            raise ValueError(f"unknown event category {category!r}")
        if phase not in ("B", "E", "i"):
            raise ValueError(f"unknown event phase {phase!r}")
        wall = time.perf_counter_ns()
        if worker is None:
            worker = threading.current_thread().name
        with self._lock:
            self._seq += 1
            if len(self._ring) == self.capacity:
                self.dropped += 1
                dropped_now = True
            else:
                dropped_now = False
            evt = ObsEvent(
                seq=self._seq,
                category=category,
                name=name,
                phase=phase,
                wall_ns=wall,
                worker=worker,
                cycle=cycle,
                fields=tuple(sorted(fields.items())),
            )
            self._ring.append(evt)
        if dropped_now:
            # Surfaced as a metric so campaigns can assert zero drops at
            # the default ring size (imported lazily: metrics never
            # imports events, but keeping the dependency out of the
            # module top level makes that impossible to regress).
            from repro.obs.metrics import REGISTRY

            REGISTRY.counter(
                "obs.events_dropped_total",
                "events evicted from the bus ring before export",
            ).inc()
        return evt

    @contextmanager
    def span(
        self,
        category: str,
        name: str,
        *,
        worker: str | None = None,
        **fields: object,
    ):
        """Emit a ``B``/``E`` pair around the block (``E`` even on error)."""
        self.emit(category, name, phase="B", worker=worker, **fields)
        try:
            yield
        finally:
            self.emit(category, name, phase="E", worker=worker, **fields)

    # -- inspection --------------------------------------------------------
    def events(self) -> list[ObsEvent]:
        """Snapshot of the retained events, oldest first."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        """Drop retained events and the drop counter (sequence keeps going)."""
        with self._lock:
            self._ring.clear()
            self.dropped = 0


#: The process-wide bus every instrumented site emits to.
BUS = EventBus()


def enable() -> None:
    """Turn observability on (bus emission + metric updates)."""
    BUS.enabled = True


def disable() -> None:
    BUS.enabled = False


def enabled() -> bool:
    return BUS.enabled


@contextmanager
def capture(*, registry=None):
    """Fresh, enabled observability scope — the test/CLI entry point.

    Clears the bus and the (given or global) metrics registry, enables
    emission for the duration of the block, yields ``(bus, registry)``,
    and restores the previous enabled state after.  Captured events stay
    on the bus for inspection after the block exits.
    """
    from repro.obs.metrics import REGISTRY

    reg = registry if registry is not None else REGISTRY
    was_enabled = BUS.enabled
    BUS.clear()
    reg.reset()
    BUS.enabled = True
    try:
        yield BUS, reg
    finally:
        BUS.enabled = was_enabled


if os.environ.get("REPRO_OBS", "") not in ("", "0"):  # pragma: no cover
    enable()


__all__ = [
    "BUS",
    "CATEGORIES",
    "EventBus",
    "ObsEvent",
    "SUBSYSTEMS",
    "capture",
    "disable",
    "enable",
    "enabled",
    "subsystem_of",
]
