"""AXI transaction models: the Lite control bus and Stream FIFOs.

``AxiLiteBus`` routes register accesses by address through the design's
:class:`~repro.soc.address_map.AddressMap` to registered devices; each
access costs a fixed number of cycles (the GP-port round trip).

``StreamChannel`` is a bounded FIFO with blocking put/get — the
AXI-Stream ``tvalid``/``tready`` backpressure at transaction level.
Conservation (puts == gets + occupancy + flushed) is property-tested.

Both carry fault-injection hooks (see :mod:`repro.sim.faults`): the bus
can raise injected SLVERR/DECERR responses, and a FIFO can drop or
bit-flip tokens in flight.  Without an injector the fast paths are
untouched.
"""

from __future__ import annotations

import weakref
from collections import deque
from itertools import repeat, starmap

from repro.sim.kernel import Environment, Event
from repro.soc.address_map import AddressMap
from repro.util.errors import FaultInjectionError, SimError

#: GP-port register access cost (cycles @ FCLK), write and read.
LITE_WRITE_CYCLES = 8
LITE_READ_CYCLES = 10

#: Default AXI-Stream FIFO depth (the DMA/HLS cores' packet FIFOs).
DEFAULT_FIFO_DEPTH = 64


class AxiLiteDevice:
    """Interface for anything mapped on the control bus."""

    def reg_read(self, offset: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def reg_write(self, offset: int, value: int) -> None:  # pragma: no cover
        raise NotImplementedError


class AxiLiteBus:
    """Address-decoded register access with per-transaction cost."""

    def __init__(self, env: Environment, address_map: AddressMap, *, injector=None) -> None:
        self.env = env
        self.address_map = address_map
        self.injector = injector
        self.devices: dict[str, AxiLiteDevice] = {}
        self.reads = 0
        self.writes = 0

    def attach(self, segment_name: str, device: AxiLiteDevice) -> None:
        self.address_map.of(segment_name)  # must exist
        self.devices[segment_name] = device

    def _decode(self, addr: int) -> tuple[AxiLiteDevice, int, str]:
        rng = self.address_map.resolve(addr)
        dev = self.devices.get(rng.name)
        if dev is None:
            raise SimError(f"bus error: no device behind segment {rng.name!r}")
        return dev, addr - rng.base, rng.name

    def _maybe_fault(self, segment: str, addr: int) -> None:
        if self.injector is None:
            return
        for kind, resp in (("axi_slverr", "SLVERR"), ("axi_decerr", "DECERR")):
            fault = self.injector.fire(kind, segment, detail=f"addr=0x{addr:08x}")
            if fault is not None:
                raise FaultInjectionError(
                    f"AXI-Lite {resp} on segment {segment!r} "
                    f"(addr 0x{addr:08x}) at cycle {self.env.now}",
                    cycle=self.env.now,
                    fault=fault,
                )

    def write(self, addr: int, value: int):
        """Process-style write: ``yield from bus.write(addr, value)``."""
        dev, offset, segment = self._decode(addr)
        yield self.env.timeout(LITE_WRITE_CYCLES)
        self._maybe_fault(segment, addr)
        self.writes += 1
        dev.reg_write(offset, value)

    def read(self, addr: int):
        """Process-style read returning the register value."""
        dev, offset, segment = self._decode(addr)
        yield self.env.timeout(LITE_READ_CYCLES)
        self._maybe_fault(segment, addr)
        self.reads += 1
        return dev.reg_read(offset)


class _PendingPut:
    """A blocked producer: triggers once every held token was admitted."""

    __slots__ = ("event", "items", "pos")

    def __init__(self, event: Event, items: list) -> None:
        self.event = event
        self.items = items
        self.pos = 0

    def take(self):
        item = self.items[self.pos]
        self.pos += 1
        return item

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.items)

    @property
    def remaining(self) -> int:
        return len(self.items) - self.pos


class _PendingGet:
    """A blocked consumer: triggers once *need* tokens were fed to it.

    A word-granular get (``need == 1``) triggers with the bare token —
    the contract every existing process relies on; a burst get triggers
    with the ordered token list.
    """

    __slots__ = ("event", "need", "taken")

    def __init__(self, event: Event, need: int) -> None:
        self.event = event
        self.need = need
        self.taken: list = []

    def take(self, item) -> bool:
        """Feed one token; True when satisfied (event fired)."""
        self.taken.append(item)
        if len(self.taken) >= self.need:
            self.event.trigger(self.taken[0] if self.need == 1 else self.taken)
            return True
        return False


class StreamChannel:
    """Bounded FIFO with blocking put/get (AXI-Stream at TLM level).

    Word-granular :meth:`put`/:meth:`get` model one ``tvalid``/``tready``
    handshake per token.  :meth:`put_burst`/:meth:`get_burst` move a
    whole slice through the FIFO as a *single* event pair — same
    occupancy evolution and conservation counters, a fraction of the
    kernel events — and are what the burst fast path
    (:mod:`repro.sim.burst`) commits traffic through.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        *,
        capacity: int = DEFAULT_FIFO_DEPTH,
        width_bits: int = 32,
        injector=None,
    ) -> None:
        if capacity < 1:
            raise SimError(f"stream {name!r}: capacity must be >= 1")
        self.env = env
        self.name = name
        self.capacity = capacity
        self.width_bits = width_bits
        self.injector = injector
        self._items: deque = deque()
        self._getters: deque[_PendingGet] = deque()
        self._putters: deque[_PendingPut] = deque()
        self.total_put = 0
        self.total_got = 0
        #: Peak occupancy, for utilization reporting.
        self.high_water = 0
        #: Tokens lost to injected drops / discarded by reset().
        self.dropped = 0
        self.flushed = 0
        env.watched_fifos.append(weakref.ref(self))

    def __len__(self) -> int:
        return len(self._items)

    def _inject(self, item):
        """Apply flip/drop faults to one token; None if it was dropped."""
        fault = self.injector.fire("stream_flip", self.name)
        if fault is not None and isinstance(item, int):
            item ^= 1 << (fault.bit % max(1, self.width_bits))
        if self.injector.fire("stream_drop", self.name) is not None:
            # The producer sees a successful handshake; the token is
            # gone.  The consumer side will starve and the watchdog
            # (or deadlock detector) diagnoses the pipeline.
            self.dropped += 1
            return None
        return item

    def _admit_one(self) -> None:
        """Move one token from the head blocked producer into the FIFO."""
        head = self._putters[0]
        self._items.append(head.take())
        self.total_put += 1
        self.high_water = max(self.high_water, len(self._items))
        if head.exhausted:
            self._putters.popleft()
            head.event.trigger(None)

    def _admit_run(self, k: int) -> list:
        """Take the head blocked producer's next *k* tokens (k <= remaining)."""
        head = self._putters[0]
        run = head.items[head.pos:head.pos + k]
        head.pos += k
        self.total_put += k
        if head.exhausted:
            self._putters.popleft()
            head.event.trigger(None)
        return run

    def put(self, item) -> Event:
        """Event that triggers once *item* entered the FIFO."""
        evt = Event(self.env)
        if self.injector is not None:
            item = self._inject(item)
            if item is None:
                evt.trigger(None)
                return evt
        if self._getters:
            # Hand straight to a waiting consumer.
            getter = self._getters[0]
            self.total_put += 1
            self.total_got += 1
            if getter.take(item):
                self._getters.popleft()
            evt.trigger(None)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            self.total_put += 1
            self.high_water = max(self.high_water, len(self._items))
            evt.trigger(None)
        else:
            self._putters.append(_PendingPut(evt, [item]))
        return evt

    def get(self) -> Event:
        """Event that triggers with the next item."""
        evt = Event(self.env)
        if self._items:
            item = self._items.popleft()
            self.total_got += 1
            if self._putters:
                self._admit_one()
            evt.trigger(item)
        elif self._putters:
            # Zero-capacity corner: putter waiting on a full-at-0 queue.
            head = self._putters[0]
            item = head.take()
            self.total_put += 1
            self.total_got += 1
            if head.exhausted:
                self._putters.popleft()
                head.event.trigger(None)
            evt.trigger(item)
        else:
            self._getters.append(_PendingGet(evt, 1))
        return evt

    def put_burst(self, items) -> Event:
        """Event triggering once *every* token of *items* is in the FIFO.

        One event pair regardless of burst length: waiting consumers are
        served first, the FIFO fills to capacity, and any overflow stays
        attached to the (still pending) event until consumers drain it —
        exactly the occupancy/counter evolution of the equivalent
        sequence of word puts issued back-to-back in the same cycle.
        """
        items = list(items)
        if not items:
            raise SimError(f"stream {self.name!r}: empty burst put")
        evt = Event(self.env)
        if self.injector is not None:
            items = [it for it in map(self._inject, items) if it is not None]
            if not items:
                evt.trigger(None)
                return evt
        pos = 0
        while self._getters and pos < len(items):
            getter = self._getters[0]
            self.total_put += 1
            self.total_got += 1
            if getter.take(items[pos]):
                self._getters.popleft()
            pos += 1
        fill = min(self.capacity - len(self._items), len(items) - pos)
        if fill > 0:
            self._items.extend(items[pos:pos + fill])
            self.total_put += fill
            self.high_water = max(self.high_water, len(self._items))
            pos += fill
        if pos == len(items):
            evt.trigger(None)
        else:
            self._putters.append(_PendingPut(evt, items[pos:]))
        return evt

    def get_burst(self, count: int) -> Event:
        """Event triggering with an ordered list of *count* tokens.

        Same tokens, counters, ``high_water`` and producer-trigger order
        as *count* word gets issued back-to-back in one cycle, moved a
        run at a time: while a producer waits, each token taken admits
        the producer's next one, so *k* gets rotate *k* of its tokens
        through the FIFO at constant occupancy.
        """
        if count < 1:
            raise SimError(f"stream {self.name!r}: burst get of {count} tokens")
        evt = Event(self.env)
        items = self._items
        putters = self._putters
        taken: list = []
        while len(taken) < count and items:
            if putters:
                k = min(count - len(taken), putters[0].remaining)
                self.high_water = max(self.high_water, len(items))
                items.extend(self._admit_run(k))
            else:
                k = min(count - len(taken), len(items))
            # k pops from the left, looped in C.
            taken.extend(starmap(items.popleft, repeat((), k)))
            self.total_got += k
        while len(taken) < count and putters:
            k = min(count - len(taken), putters[0].remaining)
            taken.extend(self._admit_run(k))
            self.total_got += k
        if len(taken) == count:
            evt.trigger(taken)
        else:
            pend = _PendingGet(evt, count)
            pend.taken = taken
            self._getters.append(pend)
        return evt

    def commit_burst(self, items, gets: int, high_water: int) -> None:
        """Commit a solved slice of traffic in one event pair.

        Used by the burst fast path (:mod:`repro.sim.burst`) and the
        prefix-burst commit (:mod:`repro.sim.prefix`): burst-put
        *items*, burst-get the first *gets* of them, then pin
        ``high_water`` to *high_water*, the replay's exact peak for the
        slice — a whole-slice burst would otherwise overstate the word
        path's peak.  Leaves ``len(items) - gets`` tokens buffered,
        exactly the committed occupancy.
        """
        before = self.high_water
        self.put_burst(items)
        if gets:
            self.get_burst(gets)
        self.high_water = max(before, high_water)

    def commit_drained(self, count: int, high_water: int) -> bool:
        """Commit *count* tokens that crossed this FIFO and all left it.

        The counter effect of ``commit_burst(items, count, high_water)``
        with ``len(items) == count`` — the FIFO ends as empty as it
        started — without moving a token.  Only an idle FIFO without an
        injector qualifies (an injector acts on each token); otherwise
        nothing changes and the result is False, and the caller commits
        the tokens.
        """
        if self.injector is not None or self._items or self._getters or self._putters:
            return False
        self.total_put += count
        self.total_got += count
        self.high_water = max(self.high_water, high_water)
        return True

    def reset(self) -> None:
        """Soft reset: discard buffered tokens and pending handshakes.

        Used by the recovery ladder before a retry.  Waiting producers /
        consumers are expected to be abandoned by the caller — their
        handshake events are dropped unfired.
        """
        self.flushed += len(self._items)
        self._items.clear()
        self._getters.clear()
        self._putters.clear()

    def conserved(self) -> bool:
        """FIFO conservation invariant (drops and flushes accounted)."""
        return self.total_put == self.total_got + len(self._items) + self.flushed
