"""Minimal generator-based discrete-event kernel.

Processes are Python generators that ``yield`` :class:`Event` objects;
a process resumes when the yielded event triggers.  ``env.timeout(n)``
produces an event triggering *n* cycles later; a :class:`Process` is
itself an event that triggers when its generator finishes, so processes
compose (``yield env.process(child())``).

The design is a deliberately small subset of SimPy — enough for FIFOs,
DMA engines and CPU/accelerator processes — with deterministic FIFO
ordering of same-cycle events so simulations are reproducible.

Entries run in ``(time, push order)`` order, kept by two queues: a heap
of future entries and a FIFO of zero-delay ones.  A heap entry due at
``now`` was pushed before the clock reached ``now``, hence before any
zero-delay entry of this cycle, so the heap's due entries drain first
and the FIFO after them.  An entry is a ``(fn, arg)`` pair run as
``fn(arg)``, so scheduling a callback allocates no closure.

Robustness machinery on top of the basic queue:

* :meth:`Environment.deadline` — a cancellable watchdog timer.  A
  cancelled deadline is skipped without advancing the clock, so arming
  and cancelling watchdogs leaves fault-free runs cycle-identical.
* *background* scheduling (:meth:`Environment.schedule_background`) —
  entries that run if simulation time reaches them but do not, on their
  own, keep the simulation alive (used for scheduled fault injections).
* a live-process registry with :meth:`Environment.abandon` and an
  optional deadlock detector: if the queue drains while registered
  processes remain blocked, :class:`SimDeadlockError` names them and
  reports FIFO occupancies instead of returning silently.
* structured failure propagation: an exception inside a process escapes
  :meth:`Environment.run` wrapped in :class:`SimProcessError` (process
  name + cycle), or — for processes started with ``capture_errors`` —
  is stored on :attr:`Process.error` so a supervisor can retry.
"""

from __future__ import annotations

import heapq
import weakref
from collections import deque
from typing import Callable, Generator

from repro.util.errors import (
    ReproError,
    SimDeadlockError,
    SimError,
    SimProcessError,
)


class Event:
    """A one-shot occurrence processes can wait on.

    :attr:`failed` is set only on a :class:`Process` whose failure is
    re-thrown inside the processes waiting on it.
    """

    __slots__ = ("env", "triggered", "failed", "value", "_callbacks")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.triggered = False
        self.failed = False
        self.value: object = None
        self._callbacks: list[Callable[[Event], None]] = []

    def trigger(self, value: object = None) -> None:
        """Mark the event triggered and schedule its callbacks *now*.

        Callbacks are deferred through the event queue (not run on the
        triggering call stack): long put/get hand-off chains would
        otherwise recurse one stack frame per token.
        """
        if self.triggered:
            raise SimError("event triggered twice")
        self.triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            # Environment._push(0, cb, self) per callback, inlined.
            self._callbacks = []
            env = self.env
            append = env._ready.append
            for cb in callbacks:
                append((cb, self, False))
            env._foreground += len(callbacks)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.triggered:
            self.env._push(0, cb, self)
        else:
            self._callbacks.append(cb)


class Timer(Event):
    """A cancellable deadline (watchdog) event.

    Triggers *delay* cycles after creation unless :meth:`cancel` is
    called first.  A cancelled timer's queue entry is discarded without
    advancing the clock, so an unused watchdog is timing-invisible.
    """

    __slots__ = ("cancelled", "_payload")

    def __init__(self, env: "Environment", delay: int, value: object = None) -> None:
        super().__init__(env)
        self.cancelled = False
        self._payload = value
        env._push(int(delay), Timer._fire, self)

    def _fire(self) -> None:
        # Queued as ``(Timer._fire, timer)``; run() drops the entry
        # instead when the timer was cancelled.
        self.trigger(self._payload)

    def cancel(self) -> None:
        """Disarm the deadline (idempotent; a no-op once triggered)."""
        if not self.cancelled and not self.triggered:
            self.cancelled = True
            self.env._foreground -= 1


class Process(Event):
    """A running generator; triggers (with its return value) on exit.

    Failure semantics, in order of precedence:

    * ``capture_errors`` — a :class:`~repro.util.errors.ReproError`
      raised by the generator is stored on :attr:`error` and the process
      triggers normally (value ``None``) — the supervision hook the
      runtime's retry ladder builds on;
    * every waiter is another process — the exception is re-thrown
      *inside* each waiting generator (at its ``yield``), so callers can
      handle a child's failure inline with ``try/except``, exactly like
      a C driver call returning an error;
    * otherwise the failure propagates out of :meth:`Environment.run`
      wrapped in :class:`SimProcessError` (process name + cycle).
    """

    __slots__ = ("generator", "name", "error", "_abandoned", "_capture_errors")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: str = "?",
        *,
        capture_errors: bool = False,
    ) -> None:
        super().__init__(env)
        self.generator = generator
        self.name = name
        self.error: BaseException | None = None
        self._abandoned = False
        self._capture_errors = capture_errors
        env._processes[id(self)] = self
        env._push(0, self._step, None)

    def _finish(self, value: object) -> None:
        self.env._processes.pop(id(self), None)
        self.trigger(value)

    def _step(self, _evt: Event | None = None) -> None:
        if self._abandoned:
            return
        try:
            if _evt is None:
                value = self.generator.send(None)
            elif _evt.failed:
                value = self.generator.throw(_evt.error)
            else:
                value = self.generator.send(_evt.value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except ReproError as exc:
            self.env._processes.pop(id(self), None)
            if self._capture_errors:
                self.error = exc
                self.trigger(None)
                return
            waiters = [
                cb for cb in self._callbacks
                if isinstance(getattr(cb, "__self__", None), Process)
            ]
            if waiters and len(waiters) == len(self._callbacks):
                # Everyone waiting is a process: re-raise inside them.
                self.error = exc
                self.failed = True
                self.trigger(None)
                return
            if isinstance(exc, SimProcessError):
                raise
            raise SimProcessError(
                f"process {self.name!r} failed at cycle {self.env.now}: {exc}",
                process=self.name,
                cycle=self.env.now,
                original=exc,
            ) from exc
        if not isinstance(value, Event):
            raise SimError(
                f"process {self.name!r} yielded {type(value).__name__}; "
                "processes must yield Event objects"
            )
        value.add_callback(self._step)


class Environment:
    """The event queue + simulated clock (in cycles)."""

    def __init__(self) -> None:
        self.now = 0
        #: Future entries ``(time, seq, fn, arg, background)``.
        self._heap: list[tuple[int, int, Callable, object, bool]] = []
        #: Zero-delay entries ``(fn, arg, background)`` of the current cycle.
        self._ready: deque[tuple[Callable, object, bool]] = deque()
        self._seq = 0
        self._foreground = 0
        #: Total events executed across all run() calls — the cost metric
        #: the burst fast path exists to shrink (see sim/burst.py).
        self.events_processed = 0
        #: Live (started, not finished, not abandoned) processes.
        self._processes: dict[int, Process] = {}
        #: Weak references to the objects reported on deadlock (anything
        #: with name/capacity/len), in registration order.  Weak, so the
        #: FIFOs and this environment (which each FIFO references) are
        #: freed by reference counting when a simulation ends instead of
        #: waiting as cyclic garbage for a full collection.
        self.watched_fifos: list[weakref.ref] = []
        #: When True, run() raises SimDeadlockError if the queue drains
        #: while processes remain blocked (instead of returning quietly).
        self.detect_deadlock = False

    # -- scheduling -------------------------------------------------------
    def _push(
        self, delay: int, fn: Callable, arg: object, background: bool = False
    ) -> None:
        """Queue ``fn(arg)`` to run *delay* cycles from now."""
        if delay:
            if delay < 0:
                raise SimError("cannot schedule into the past")
            self._seq += 1
            heapq.heappush(
                self._heap, (self.now + delay, self._seq, fn, arg, background)
            )
        else:
            self._ready.append((fn, arg, background))
        if not background:
            self._foreground += 1

    def schedule_background(self, delay: int, fn: Callable[[], None]) -> None:
        """Schedule *fn* without keeping the simulation alive for it.

        A background entry executes only if foreground work is still
        pending when its time arrives — fault injections scheduled past
        the natural end of a run simply never happen.
        """
        self._push(int(delay), _call, fn, background=True)

    def timeout(self, delay: int, value: object = None) -> Event:
        """An event that triggers *delay* cycles from now."""
        evt = Event(self)
        self._push(int(delay), evt.trigger, value)
        return evt

    def deadline(self, delay: int, value: object = None) -> Timer:
        """A cancellable watchdog event *delay* cycles from now."""
        return Timer(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(
        self, generator: Generator, name: str = "?", *, capture_errors: bool = False
    ) -> Process:
        """Start a generator as a process."""
        return Process(self, generator, name, capture_errors=capture_errors)

    def abandon(self, process: Process) -> None:
        """Give up on a blocked process (watchdog recovery).

        The process is removed from the live registry (so it cannot trip
        the deadlock detector), will never be stepped again, and its
        generator is closed so ``finally`` blocks release held resources
        (e.g. a CPU core slot).
        """
        if process.triggered:
            return
        process._abandoned = True
        self._processes.pop(id(process), None)
        try:
            process.generator.close()
        except Exception:  # cleanup must never break recovery itself
            pass

    def all_of(self, events: list[Event]) -> Event:
        """An event triggering when every event in *events* has triggered."""
        done = Event(self)
        remaining = len(events)
        if remaining == 0:
            self._push(0, done.trigger, [])
            return done
        values: list[object] = [None] * remaining

        def make_cb(i: int):
            def cb(evt: Event) -> None:
                nonlocal remaining
                values[i] = evt.value
                remaining -= 1
                if remaining == 0:
                    done.trigger(values)

            return cb

        for i, evt in enumerate(events):
            evt.add_callback(make_cb(i))
        return done

    def any_of(self, events: list[Event]) -> Event:
        """An event triggering when the *first* of *events* triggers.

        The winning event is the trigger value; later triggers of the
        other events are ignored.
        """
        done = Event(self)

        def cb(evt: Event) -> None:
            if not done.triggered:
                done.trigger(evt)

        for evt in events:
            evt.add_callback(cb)
        return done

    # -- main loop -----------------------------------------------------------
    def run(self, until: int | None = None, *, max_events: int = 50_000_000) -> int:
        """Process events until the queue drains (or *until* cycles).

        Returns the final simulation time.  Cancelled deadlines are
        skipped without advancing the clock; background entries never
        hold the simulation open on their own.  With
        :attr:`detect_deadlock` set, draining the queue while processes
        remain blocked raises a structured :class:`SimDeadlockError`.
        """
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        timer_fire = Timer._fire
        now = self.now
        count = 0
        try:
            # Zero once only background entries / cancelled timers are left.
            while self._foreground:
                if ready and (not heap or heap[0][0] > now):
                    if until is not None and now > until:
                        self.now = until
                        return until
                    fn, arg, background = ready.popleft()
                    if fn is timer_fire and arg.cancelled:
                        continue
                else:
                    # Due heap entries (time == now) precede the FIFO;
                    # otherwise the FIFO is empty and the clock advances.
                    if until is not None and heap[0][0] > until:
                        self.now = until
                        return until
                    time, _, fn, arg, background = heappop(heap)
                    if fn is timer_fire and arg.cancelled:
                        continue
                    self.now = now = time
                if not background:
                    self._foreground -= 1
                fn(arg)
                count += 1
                if count > max_events:
                    raise SimError(f"simulation exceeded {max_events} events (livelock?)")
        finally:
            self.events_processed += count
        if self.detect_deadlock and self._processes:
            raise self._deadlock_error()
        return self.now

    def _deadlock_error(self) -> SimDeadlockError:
        blocked = tuple(sorted(p.name for p in self._processes.values()))
        fifos = {
            ch.name: (len(ch), ch.capacity)
            for ch in (ref() for ref in self.watched_fifos)
            if ch is not None
        }
        occupancy = ", ".join(
            f"{name}={occ}/{cap}" for name, (occ, cap) in sorted(fifos.items())
        )
        return SimDeadlockError(
            f"deadlock at cycle {self.now}: no runnable process while "
            f"{len(blocked)} process(es) remain blocked: {', '.join(blocked)}"
            + (f" [FIFO occupancy: {occupancy}]" if fifos else ""),
            cycle=self.now,
            blocked=blocked,
            fifo_occupancy=fifos,
        )


def _call(fn: Callable[[], None]) -> None:
    """Queue adapter for argument-less callbacks (background entries)."""
    fn()
