"""Burst fast path: a phase-local event-order replay with cycle-identical results.

The word-level simulator charges one kernel event per 32-bit word — a
queue push/pop, an :class:`~repro.sim.kernel.Event` allocation and a
generator resume for every FIFO handshake and every HP-port beat.  A
VGA frame through the Otsu pipeline is millions of such events.

This module computes one hardware phase's outcome *before any simulator
state is touched*, and the runtime then replaces the per-word processes
with a **single kernel timeout** to the phase end plus a commit step
that applies the identical final state (DRAM bytes, FIFO counters and
``high_water``, DMA registers, HP-port automaton, actor spans).

Why the results are exact
-------------------------
One engine computes every phase.  :func:`replay_phase` runs the phase's
own kernel entries — process starts, timeout triggers, resumptions,
FIFO handoffs, HP-port calls — in the event kernel's ``(time, push
order)``, as opcode-yielding generators on a private two-queue loop
with no :class:`~repro.sim.kernel.Event` objects.  Each generator
yields, op for op, what its word-path process waits on
(``DmaEngine._run_mm2s``/``_run_s2mm`` with or without an HP port,
``StreamActorSim._run``), and the loop applies the kernel's rules (the
list is in DESIGN.md §8).  With the hardware serialized
(:func:`hw_serialized`), entries of other processes only interleave
with the phase's own and never touch its FIFOs, DMA engines or HP port,
so the replay visits the phase's entries in the kernel's order.  Every
value it computes is therefore the word path's own: the grant of each
same-cycle tie on a saturated shared port, every completion cycle, and
each FIFO's occupancy — hence ``high_water`` — step by step.  Nothing is
assumed about tie order; the replay runs it.

A phase the replay cannot finish (a process still blocked, tokens left
in a FIFO) is refused as ``no_convergence`` and runs on the word path,
which raises the usual diagnostic.

Jumping the steady state
------------------------
After a short transient every stream of a phase settles into a constant
rate, and the replay's state recurs up to a time shift.  Each replayed
process runs its loops on a ``range`` iterator kept in a small cell
with its segment, so the loop counters are data the replay can move.
After every 8th repetition of any loop, once every DMA is kicked, the
replay samples its state at the next cycle boundary, relative to
``now`` (:class:`_Periods`).  When
a sample recurs after ``lam`` cycles, the run from there repeats the
last ``lam`` cycles shifted in time, so the replay advances every heap
entry, loop counter, FIFO counter and the HP port by as many whole
periods as keep each process inside its loop and each FIFO whose
occupancy moves strictly between empty and full, then goes on replaying
(a later regime jumps again).  The result is the same to the cycle and
the word; ``PhaseSolution.reps_replayed``/``reps_skipped`` count the
loop repetitions run and jumped.  A replay with a cut records
timelines word by word and never jumps.  DESIGN.md §8 has the argument.

Given a *cut* cycle — the prefix path of :mod:`repro.sim.prefix`, cut
just before a fault hazard — the committed state (each FIFO's ``(puts,
gets, high_water)``, the HP-port automaton and its granted words) is
taken at the end of the cut cycle instead of the phase end, and the
replay also records what the handoff to the live word path needs: every
FIFO's put/get completion cycles, each DMA's HP ``(call, grant)`` list
and the order the kernel will wake the processes asleep at the cut.
Without a cut none of this is kept: a burst is the cut at the phase
end, where nothing is left to resume.

Every bail-out is classified into the closed taxonomy
:data:`FALLBACK_REASONS`, so the runtime, ``repro simbench`` and the
benchmark artifacts can account for *why* each phase fell back instead
of just counting fallbacks.

A :class:`PhaseMemo` remembers each phase's outcome under its
t0-relative inputs (:func:`phase_memo_key`).  A design-space sweep
repeats the same phase across candidates that differ only on other
axes, so the runtime replays each distinct phase once per campaign and
commits every repeat from the memo.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from repro.htg.schedule import topological_order
from repro.sim.memory import CYCLES_PER_WORD, READ_LATENCY, WRITE_LATENCY

#: Closed taxonomy of burst-fallback causes.  Every path that sends a
#: hardware phase to the word simulator is tagged with exactly one of
#: these, and :attr:`ExecutionReport.burst_stats` carries the per-phase
#: and per-reason accounting downstream (simbench, benchmarks, CI).
FALLBACK_REASONS = (
    "fault_touches",    # armed fault could fire before/inside the phase
    "fifo_busy",        # a phase FIFO is busy or shallower than 2 words
    "engine_busy",      # a DMA channel still has a transfer in flight
    "no_convergence",   # the replay left a process blocked or tokens behind
    "watchdog_budget",  # the phase would outlive the node watchdog
)


def hw_serialized(htg, partition) -> bool:
    """True when no two hardware nodes can ever execute concurrently.

    The burst fast path commits a phase's hardware state at the phase
    end instead of evolving it word by word, which is only equivalent
    while no *other* hardware node observes or mutates the shared HP
    port / DMA engines mid-phase.  Software nodes may overlap freely
    (they touch neither).  Sufficient static condition: every pair of
    hardware-mapped nodes is ordered by the HTG precedence DAG.
    """
    hw = partition.hw_nodes()
    if len(hw) < 2:
        return True
    ancestors: dict[str, set[str]] = {}
    for name in topological_order(htg):
        acc: set[str] = set()
        for pred in htg.predecessors(name):
            acc.add(pred)
            acc |= ancestors[pred]
        ancestors[name] = acc
    for i, a in enumerate(hw):
        for b in hw[i + 1:]:
            if a not in ancestors[b] and b not in ancestors[a]:
                return False
    return True


@dataclass
class DmaSpec:
    """One DMA channel transfer: replay input."""

    kick: int  # cycle mm2s_transfer/s2mm_transfer is called
    count: int  # words
    chan: object  # channel key (the StreamChannel instance)
    direction: str  # "mm2s" | "s2mm"


@dataclass
class ActorSpec:
    """One stream actor: replay input (all lists in declared port order)."""

    name: str
    t0: int
    firings: int
    depth: int
    ii: int
    bulk_ins: list[tuple[object, int]] = field(default_factory=list)
    rate_ins: list[object] = field(default_factory=list)
    rate_outs: list[object] = field(default_factory=list)
    bulk_outs: list[tuple[object, int]] = field(default_factory=list)


@dataclass
class PhaseSolution:
    """Everything the runtime needs to commit a replayed phase.

    ``channels``, ``hp_state`` and ``hp_words`` are the state the runtime
    commits: the word path's at the end of the cut cycle, or at the phase
    end when :func:`replay_phase` runs without a cut.  ``finish`` and
    ``actor_spans`` always describe the whole phase, and the ``reps_*``
    counters the replay's own work.  The remaining fields are filled
    only by a cut replay: the prefix path
    (:mod:`repro.sim.prefix`) resumes the live word path from them.
    """

    finish: int  # max completion cycle over every component
    actor_spans: list[tuple[str, int, int]]  # (name, started, finished)
    channels: dict  # key -> (puts, gets, high_water)
    hp_state: tuple[int, int] | None  # (_slot_time, _slot_used); None: no word yet
    hp_words: int = 0
    #: Loop repetitions (DMA words, bulk words, firings after the first)
    #: the replay ran one by one, and those it jumped in steady state.
    reps_replayed: int = 0
    reps_skipped: int = 0
    #: channel key -> (P, G): put/get completion cycles in token order.
    timeline: dict = field(default_factory=dict)
    #: per-DmaSpec HP schedule [(call_cycle, grant_cycle), ...] in
    #: program order (None for a DMA paced without an HP port).
    dma_calls: list = field(default_factory=list)
    #: Processes asleep at the end of the cut cycle, as indices into
    #: ``dmas + actors``, in the order the kernel wakes same-cycle ties.
    cut_sleepers: list = field(default_factory=list)


#: Replay opcodes: what a replayed process yields, paired with its argument.
_WAIT, _PUT, _GET, _ACQUIRE, _TICK = range(5)
#: Yielded after every 8th repetition of a loop: it asks the replay for a
#: steady-state sample at the next cycle boundary (see :class:`_Periods`).
_TICK_OP = (_TICK, None)
#: The segment of a process that has returned.
_ENDED = -1


class _Fifo:
    """A phase FIFO as :func:`replay_phase` sees it: counts, no tokens."""

    __slots__ = ("cap", "n", "puts", "gets", "high_water", "getters", "putters",
                 "P", "G")

    def __init__(self, cap: int, record: bool) -> None:
        self.cap = cap
        self.n = 0
        self.puts = self.gets = self.high_water = 0
        self.getters: deque = deque()  # blocked consumers, arrival order
        self.putters: deque = deque()  # blocked producers, arrival order
        # Put/get completion cycles, kept only by a cut replay.
        self.P: list[int] | None = [] if record else None
        self.G: list[int] | None = [] if record else None


def _loop(cell: list, segment: int, reps: int):
    """Enter loop *segment* of a process: the iterator it runs on.

    *cell* is the process's ``[segment, iterator]``.  A loop runs on the
    ``range`` iterator kept there, so the iterator's position is the
    loop counter and a steady-state jump moves the loop by moving it.
    Each body yields :data:`_TICK_OP` before every 8th repetition.
    """
    cell[0] = segment
    it = cell[1] = iter(range(reps))
    return it


def _replay_dma(spec: DmaSpec, f: _Fifo, pace: tuple, cell: list):
    """``DmaEngine._run_mm2s`` / ``_run_s2mm``, as opcodes.

    *pace* is what each word waits on: an HP acquire, or a
    ``CYCLES_PER_WORD`` wait when the engine has no HP port.  The word
    loop is segment 1 of *cell* (see :func:`_loop`).  The op tuples live
    in the generator, not on the FIFO, so a finished replay leaves no
    FIFO-to-itself reference cycle behind.
    """
    if spec.direction == "mm2s":
        put = (_PUT, f)
        yield (_WAIT, READ_LATENCY)
        for i in _loop(cell, 1, spec.count):
            if not i & 7:
                yield _TICK_OP
            yield pace
            yield put
    else:
        get = (_GET, f)
        yield (_WAIT, WRITE_LATENCY)
        for i in _loop(cell, 1, spec.count):
            if not i & 7:
                yield _TICK_OP
            yield get
            yield pace
    cell[0] = _ENDED


def _replay_actor(spec: ActorSpec, fifos: dict, cell: list):
    """``StreamActorSim._run``, as opcodes: one *cell* segment per loop
    and one for the straight run between the bulk inputs and the
    firing loop."""
    segment = 0
    for key, n in spec.bulk_ins:
        op = (_GET, fifos[key])
        segment += 1
        for i in _loop(cell, segment, n):
            if not i & 7:
                yield _TICK_OP
            yield op
    cell[0] = segment = segment + 1
    yield (_WAIT, spec.depth)
    gets = [(_GET, fifos[k]) for k in spec.rate_ins]
    puts = [(_PUT, fifos[k]) for k in spec.rate_outs]
    if spec.firings:
        yield from gets + puts  # the first firing waits no II
    firing = gets + [(_WAIT, spec.ii)] + puts
    segment += 1
    for i in _loop(cell, segment, spec.firings - 1):
        if not i & 7:
            yield _TICK_OP
        yield from firing
    word = (_WAIT, CYCLES_PER_WORD)
    for key, n in spec.bulk_outs:
        op = (_PUT, fifos[key])
        segment += 1
        for i in _loop(cell, segment, n):
            if not i & 7:
                yield _TICK_OP
            yield word
            yield op
    cell[0] = _ENDED


class _Periods:
    """The steady-state skip of one cut-free :func:`replay_phase`.

    At a cycle boundary the replay's whole state is: each process's
    segment and loop position (where in the loop body it is follows
    from where it waits — a heap entry or one FIFO's queue — because no
    body names one FIFO twice), each FIFO's occupancy and blocked
    queues, the heap and the HP port.  :meth:`sample` keys that state
    relative to ``now``, without the loop positions and with a FIFO
    strictly between empty and full only marked so.  When a key recurs
    after ``lam`` cycles, the run from the second sample repeats the run
    from the first shifted by ``lam``, for as long as no process leaves
    its loop and every FIFO whose occupancy moved stays strictly inside
    ``(0, cap)``; :meth:`sample` then advances the state by as many whole
    periods as those bounds allow and forgets every key.  DESIGN.md §8
    gives the argument.
    """

    __slots__ = ("cells", "fifos", "port", "seen", "table", "skipped")

    def __init__(self, cells: list, fifos: list, port: bool) -> None:
        self.cells = cells
        self.fifos = fifos
        self.port = port
        self.seen: set = set()  # first keys sampled
        self.table: dict = {}  # key -> the state of its last sample
        self.skipped = 0  # loop repetitions jumped over

    def sample(self, now: int, heap: list, slot_time: int, slot_used: int,
               words: int) -> tuple[int, int] | None:
        """Sample the state after cycle *now*; jump if it recurred.

        A jump moves the heap, the loop counts and the FIFOs in place and
        returns ``(cycles, words)`` jumped: the caller adds *words* to the
        HP word count and, when that is nonzero (the period granted a
        word, so the port's last slot moves with the period), *cycles* to
        ``slot_time``.  Returns ``None`` when nothing was jumped.
        """
        # First the heap's sleepers in order and the port: most samples
        # of a transient end here, on a first key not seen before.
        key = []
        for due, _seq, gen in sorted(heap):
            key += (due - now, gen)
        if self.port and slot_time > now:  # else the next call resets it
            key += (None, slot_time - now, slot_used)
        key = tuple(key)
        if key not in self.seen:
            self.seen.add(key)
            return None
        # Then each process's segment, each FIFO empty (0), in between
        # (1) or full (2), and whoever waits on it.
        cells, fifos = self.cells, self.fifos
        key = [key, *[c[0] for c in cells]]
        key += [f.n and (f.n == f.cap) + 1 for f in fifos]
        for f in fifos:
            if f.getters:
                key += (f, 0, *f.getters)
            if f.putters:
                key += (f, 1, *f.putters)
        key = tuple(key)
        state = (now, words, [c[1].__length_hint__() for c in cells],
                 [(f.puts, f.gets, f.high_water) for f in fifos])
        last = self.table.get(key)
        self.table[key] = state
        if last is None:
            return None
        then, words0, left0, fifos0 = last
        left = state[2]
        bounds = [r // (r0 - r)  # no process leaves its loop
                  for r, r0 in zip(left, left0) if r0 != r]
        for f, (puts0, gets0, hw0) in zip(fifos, fifos0):
            puts, gets = f.puts - puts0, f.gets - gets0
            rise = puts - gets
            if not rise:  # back to its exact occupancy: it repeats as is
                continue
            # A FIFO whose occupancy moves is in between at both samples.
            # It must stay strictly inside (0, cap) over the sampled
            # period and every jumped one, so that no op on it depends on
            # its occupancy: a period that starts at m stays within
            # [m - gets, m + puts], and each period starts `rise` higher.
            n0 = puts0 - gets0
            if n0 - gets < 1 or n0 + puts > f.cap - 1:
                return None
            if rise > 0:
                if f.high_water == hw0:  # the period's own peak is unknown
                    return None
                bounds.append((f.cap - 1 - puts - f.n) // rise + 1)
            else:
                bounds.append((f.n - gets - 1) // -rise + 1)
        k = min(bounds, default=0)
        if k < 1:
            return None
        for c, r, r0 in zip(cells, left, left0):
            if r0 != r:  # drain the repetitions jumped over from its loop
                deque(islice(c[1], k * (r0 - r)), maxlen=0)
                self.skipped += k * (r0 - r)
        for f, (puts0, gets0, _hw0) in zip(fifos, fifos0):
            puts, gets = f.puts - puts0, f.gets - gets0
            rise = puts - gets
            f.puts += k * puts
            f.gets += k * gets
            f.n += k * rise
            if rise > 0:  # each period's peak is the last one's plus `rise`
                f.high_water += k * rise
        shift = k * (now - then)
        heap[:] = [(due + shift, seq, gen) for due, seq, gen in heap]
        self.table.clear()
        self.seen.clear()
        return shift, k * (words - words0)


def replay_phase(
    t0: int,
    channels: dict,
    dmas: list[DmaSpec],
    actors: list[ActorSpec],
    *,
    hp_wpc: int | None = None,
    hp_slot_time: int | None = None,
    hp_slot_used: int = 0,
    cut: int | None = None,
) -> PhaseSolution | None:
    """Run one phase's own kernel entries in the event kernel's order.

    Each word-path process is a generator yielding opcodes, and a
    two-queue loop runs their entries in ``(time, push order)`` exactly
    like :class:`~repro.sim.kernel.Environment` (the rule list is in
    DESIGN.md §8): a heap of timeout triggers due later, a FIFO of this
    cycle's zero-delay entries, due heap entries first.  The driver
    starts every actor at *t0* inside one step, then kicks each DMA from
    the step its ``spec.kick - previous`` timeout resumes — for the
    runtime one ``DRIVER_CALL_OVERHEAD`` apart, like ``cpu.call_driver``.

    *channels* maps keys to capacities.  With *hp_wpc* every DMA word
    acquires a shared HP port of that width, entered in state
    ``(hp_slot_time, hp_slot_used)``; without it each word waits
    ``CYCLES_PER_WORD``.  With *cut* (at or after the last kick) the
    committed state is taken at the end of that cycle and the solution
    also carries the cut fields of :class:`PhaseSolution`.  Without a
    cut, once the state recurs the replay jumps whole periods of it
    (:class:`_Periods`).

    Returns ``None`` when a process is still blocked or a FIFO still
    holds tokens at the end.
    """
    kicks = [t0] + [d.kick for d in dmas]
    if any(b < a for a, b in zip(kicks, kicks[1:])):
        raise ValueError("DMA kicks must follow t0 in driver-call order")
    if any(a.t0 != t0 for a in actors):
        raise ValueError("every actor starts at the phase start")
    record = cut is not None
    if record and cut < kicks[-1]:
        raise ValueError("the cut must not precede a DMA kick")
    fifos = {key: _Fifo(cap, record) for key, cap in channels.items()}
    word = (_WAIT, CYCLES_PER_WORD)
    cells = [[0, iter(())] for _ in range(1 + len(dmas) + len(actors))]
    driver_cell = cells[0]
    dma_gens = [
        _replay_dma(d, fifos[d.chan], word if hp_wpc is None else (_ACQUIRE, j), cell)
        for j, (d, cell) in enumerate(zip(dmas, cells[1:]))
    ]
    actor_gens = [
        _replay_actor(a, fifos, cell) for a, cell in zip(actors, cells[1 + len(dmas):])
    ]
    heap: list = []  # (due, seq, process): a timeout's trigger
    # This cycle's entries in push order: a process to resume, or a
    # 1-tuple holding one whose timeout(0) fired.
    ready: deque = deque()

    def driver():
        for gen in actor_gens:
            ready.append(gen)
        for i, ((prev, kick), gen) in enumerate(zip(zip(kicks, kicks[1:]), dma_gens)):
            driver_cell[0] = i
            yield (_WAIT, kick - prev)
            ready.append(gen)
        driver_cell[0] = _ENDED

    calls: list = [[] for _ in dmas] if record and hp_wpc is not None else []
    snapshot: tuple | None = None

    def take_snapshot(slot_time: int, slot_used: int, words: int) -> tuple:
        index = {gen: i for i, gen in enumerate(dma_gens + actor_gens)}
        return (
            {key: (f.puts, f.gets, f.high_water) for key, f in fifos.items()},
            (slot_time, slot_used) if words else None,
            words,
            [index[gen] for _due, _seq, gen in sorted(heap)],
        )

    ended: dict = {}
    slot_time = hp_slot_time if hp_slot_time is not None else -1
    slot_used, words, seq, now = hp_slot_used, 0, 0, t0
    horizon = cut if record else float("inf")
    heappush, heappop, resume = heapq.heappush, heapq.heappop, next
    PUT, GET, ACQUIRE, TICK = _PUT, _GET, _ACQUIRE, _TICK
    periods = None
    if not record and all(
        len({*a.rate_ins, *a.rate_outs}) == len(a.rate_ins) + len(a.rate_outs)
        for a in actors
    ):  # a body that named one FIFO twice would hide its position
        periods = _Periods(cells, list(fifos.values()), hp_wpc is not None)
    sample = False
    ready.append(driver())
    while True:
        if not ready:  # this cycle is done: the next cycle's triggers fire
            if not heap:
                break
            if heap[0][0] > horizon:  # every entry of the cut cycle ran
                horizon = float("inf")
                snapshot = take_snapshot(slot_time, slot_used, words)
            if sample:  # a loop asked for a steady-state sample
                sample = False
                jump = periods.sample(now, heap, slot_time, slot_used, words)
                if jump is not None:
                    shift, gained = jump
                    if gained:
                        words += gained
                        slot_time += shift
            now = heap[0][0]
            while heap and heap[0][0] == now:
                ready.append(heappop(heap)[2])
        gen = ready.popleft()
        if gen.__class__ is tuple:  # a timeout(0) fired: its waiter resumes next
            ready.append(gen[0])
            continue
        # Run it.  While no other entry is queued, its resumption would
        # be the very next entry, so it simply continues.
        while True:
            try:
                op, arg = resume(gen)
            except StopIteration:
                ended[gen] = now
                break
            if op is PUT:
                if arg.getters:  # direct handoff: the getter resumes first
                    arg.puts += 1
                    arg.gets += 1
                    if record:
                        arg.P.append(now)
                        arg.G.append(now)
                    ready.append(arg.getters.popleft())
                    ready.append(gen)
                    break
                if arg.n < arg.cap:
                    arg.n += 1
                    arg.puts += 1
                    if arg.n > arg.high_water:
                        arg.high_water = arg.n
                    if record:
                        arg.P.append(now)
                    if ready:
                        ready.append(gen)
                        break
                    continue
                arg.putters.append(gen)
                break
            if op is GET:
                if not arg.n:
                    arg.getters.append(gen)
                    break
                arg.gets += 1
                if record:
                    arg.G.append(now)
                if arg.putters:  # admits the head putter, which resumes first
                    arg.puts += 1  # occupancy back to n: high_water already >= n
                    if record:
                        arg.P.append(now)
                    ready.append(arg.putters.popleft())
                    ready.append(gen)
                    break
                arg.n -= 1
                if ready:
                    ready.append(gen)
                    break
                continue
            if op is ACQUIRE:  # HpPort.acquire at this cycle
                if slot_time < now:
                    slot_time = now
                    slot_used = 0
                if slot_used >= hp_wpc:
                    slot_time += 1
                    slot_used = 0
                slot_used += 1
                words += 1
                if record:
                    calls[arg].append((now, slot_time))
                arg = slot_time - now
            elif op is TICK:  # sample at the next cycle boundary, once
                # every DMA is kicked: while the driver sleeps to a fixed
                # cycle, no state can recur.
                sample = periods is not None and driver_cell[0] == _ENDED
                continue
            due = now + arg
            if ready or (heap and heap[0][0] <= due) or due > horizon:
                if arg:
                    seq += 1
                    heappush(heap, (due, seq, gen))
                else:
                    ready.append((gen,))
                break
            now = due  # its trigger would be the next entry: skip the queue

    if len(ended) != 1 + len(actor_gens) + len(dma_gens):
        return None  # a process is still blocked
    if any(f.n for f in fifos.values()):
        return None  # tokens left behind
    if snapshot is None:  # no cut, or the phase ended by the cut cycle
        snapshot = take_snapshot(slot_time, slot_used, words)
    channel_state, hp_state, hp_words, sleepers = snapshot
    skipped = periods.skipped if periods is not None else 0
    solution = PhaseSolution(
        finish=max(ended.values()),
        actor_spans=[
            (spec.name, t0, ended[gen]) for spec, gen in zip(actors, actor_gens)
        ],
        channels=channel_state,
        hp_state=hp_state,
        hp_words=hp_words,
        reps_replayed=_loop_reps(dmas, actors) - skipped,
        reps_skipped=skipped,
    )
    if record:
        solution.timeline = {key: (f.P, f.G) for key, f in fifos.items()}
        solution.dma_calls = calls or [None] * len(dmas)
        solution.cut_sleepers = sleepers
    return solution


def _loop_reps(dmas: list[DmaSpec], actors: list[ActorSpec]) -> int:
    """Loop repetitions in a phase: DMA words, bulk words, firings after
    the first."""
    return sum(d.count for d in dmas) + sum(
        sum(n for _k, n in a.bulk_ins) + max(a.firings - 1, 0)
        + sum(n for _k, n in a.bulk_outs)
        for a in actors
    )


def solve_phase_ex(
    t0: int,
    channels: dict,
    dmas: list[DmaSpec],
    actors: list[ActorSpec],
    **replay_args,
) -> tuple[PhaseSolution | None, str | None]:
    """The runtime's call into the phase engine: replay, then classify.

    Returns ``(solution, None)``, or ``(None, "no_convergence")`` for a
    DMA of no words or a phase :func:`replay_phase` cannot finish.
    *replay_args* are :func:`replay_phase`'s keywords.  (The repository
    benchmark's tracer times this function as its ``sim.solve`` layer.)
    """
    if any(d.count < 1 for d in dmas):
        return None, "no_convergence"
    solution = replay_phase(t0, channels, dmas, actors, **replay_args)
    return solution, (None if solution is not None else "no_convergence")


def phase_memo_key(
    t0: int,
    channels: dict,
    dmas: list[DmaSpec],
    actors: list[ActorSpec],
    *,
    hp_wpc: int | None = None,
    hp_slot_time: int | None = None,
    hp_slot_used: int = 0,
) -> tuple:
    """The replay's inputs for a phase starting at *t0*, made t0-relative.

    Channels are named by their index in *channels* (layout order), so
    two phases over different fabric objects share a key whenever the
    replay would see the same problem shifted in time.  A port whose
    ``_slot_time`` lies before *t0* is reset by the phase's first call,
    so its entry state is recorded as ``None``.
    """
    index = {key: i for i, key in enumerate(channels)}
    hp = None
    if hp_wpc is not None:
        entry = None
        if hp_slot_time is not None and hp_slot_time >= t0:
            entry = (hp_slot_time - t0, hp_slot_used)
        hp = (hp_wpc, entry)
    return (
        tuple(channels.values()),
        tuple((d.kick - t0, d.count, d.direction, index[d.chan]) for d in dmas),
        tuple(
            (
                a.t0 - t0, a.firings, a.depth, a.ii,
                tuple((index[k], n) for k, n in a.bulk_ins),
                tuple(index[k] for k in a.rate_ins),
                tuple(index[k] for k in a.rate_outs),
                tuple((index[k], n) for k, n in a.bulk_outs),
            )
            for a in actors
        ),
        hp,
    )


@dataclass(frozen=True)
class _MemoEntry:
    finish: int
    spans: tuple  # ((started, finished), ...) per actor, layout order
    channels: tuple  # ((puts, gets, high_water), ...) per channel index
    hp_state: tuple[int, int] | None
    hp_words: int


class PhaseMemo:
    """Phase outcomes keyed by :func:`phase_memo_key`, all t0-relative.

    The word-path trajectory of a phase is a function of the key (see
    DESIGN.md §8), so an outcome :func:`replay_phase` computed once is
    rebased and committed through the burst path at every later
    occurrence.  One memo serves one campaign; it is never shared across
    campaigns.  Entries are recorded from cut-free replays only, so they
    hold the phase-end state and carry no cut fields.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, _MemoEntry] = {}
        #: Lookups served from the memo.
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, key: tuple, t0: int, outcome: PhaseSolution) -> None:
        """Store *outcome* (absolute cycles, channels in key order)."""
        hp = outcome.hp_state
        self._entries.setdefault(key, _MemoEntry(
            finish=outcome.finish - t0,
            spans=tuple((s - t0, f - t0) for _n, s, f in outcome.actor_spans),
            channels=tuple(outcome.channels.values()),
            hp_state=None if hp is None else (hp[0] - t0, hp[1]),
            hp_words=outcome.hp_words,
        ))

    def lookup(self, key: tuple, t0: int, channels: dict,
               actors: list[ActorSpec]) -> PhaseSolution | None:
        """The memoised outcome rebased to *t0*, or ``None`` on a miss."""
        e = self._entries.get(key)
        if e is None:
            return None
        self.hits += 1
        return PhaseSolution(
            finish=t0 + e.finish,
            actor_spans=[
                (a.name, t0 + s, t0 + f) for a, (s, f) in zip(actors, e.spans)
            ],
            channels=dict(zip(channels, e.channels)),
            hp_state=None if e.hp_state is None else (t0 + e.hp_state[0], e.hp_state[1]),
            hp_words=e.hp_words,
        )
